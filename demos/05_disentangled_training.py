"""Training the disentangled model on the planted-shortcut fixture.

The run prints the per-branch cross-entropy trajectory and, at the end,
how cleanly the learned edge mask separates the planted causal edges
from the decoy ring. The shortcut branch should get cheap first; the
edge separation is scored as an AUC over the two planted edge sets.
"""

import numpy as np

from cdgnn.disentangle import disentanglement_score, score_edges
from cdgnn.harness import RunConfig, split_nodes, train_cdgnn
from cdgnn.synth import planted_shortcut


def main() -> None:
    ds = planted_shortcut(num_egos=40, seed=1)
    g = ds.graph
    print(f"fixture: {g.num_nodes} nodes, {g.edges.shape[0]} edges, "
          f"{ds.causal_edges.shape[0]} causal / "
          f"{ds.shortcut_edges.shape[0]} shortcut planted edges")

    config = RunConfig(learning_rate=3e-3, hidden=16, dropout=0.0, layers=2,
                       q=0.7, lambda_counterfactual=10.0,
                       lambda_independence=0.01, epochs=30, patience=30,
                       batch_size=16, scorer_hidden=16)
    sp = split_nodes(g.num_nodes, seed=1)
    result = train_cdgnn(g, config, seed=1, train_nodes=sp.train,
                         val_nodes=sp.val)

    print("\nepoch  ce_shortcut  ce_causal  counterfactual  hsic    val")
    for row in result.history[::5]:
        print(f"{int(row['epoch']):5d}  {row['ce_s']:11.3f}  "
              f"{row['ce_c']:9.3f}  {row['loss_cf']:14.3f}  "
              f"{row['loss_hsic']:.4f}  {row['val_acc']:.3f}")
    print(f"best epoch {result.best_epoch}, val accuracy "
          f"{result.best_val_accuracy:.3f}")

    # Mask inspection: sigmoid of the edge scores, averaged per edge kind.
    # High means the edge feeds the causal branch.
    m_causal = 1 / (1 + np.exp(-score_edges(result.params, g.features,
                                            ds.causal_edges)))
    m_short = 1 / (1 + np.exp(-score_edges(result.params, g.features,
                                           ds.shortcut_edges)))
    auc = disentanglement_score(result.params, g, ds.causal_edges,
                                ds.shortcut_edges)
    print(f"\nmean mask on causal edges:   {m_causal.mean():.3f}")
    print(f"mean mask on shortcut edges: {m_short.mean():.3f}")
    print(f"edge separation AUC:         {auc:.3f}")


if __name__ == "__main__":
    main()
