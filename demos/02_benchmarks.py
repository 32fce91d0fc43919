"""The synthetic benchmark family and the planted-shortcut fixture.

Generates each named preset, shows its baseline label heterophily, then
relabels tree_cycles to the h_L = 0.5 regime used by the training
experiments. Ends with a look inside the planted-shortcut fixture.
"""

import numpy as np

from cdgnn.graphs import label_heterophily
from cdgnn.synth import planted_shortcut, preset, relabel_to_heterophily


def main() -> None:
    print("preset           nodes  edges   h_L")
    for name in ("tree_cycles", "tree_grid", "ba_shapes", "ba_community"):
        g, blocks = preset(name, seed=0)
        print(f"{name:<16} {g.num_nodes:>5}  {g.num_edges:>5}   "
              f"{label_heterophily(g):.3f}")

    # Flip labels until half of all edges disagree. The sweep is greedy
    # and monotone, so the history never decreases.
    g, _ = preset("tree_cycles", seed=0)
    result = relabel_to_heterophily(g, target=0.5, seed=0)
    print(f"\ntree_cycles relabeled: h_L {label_heterophily(g):.3f} -> "
          f"{label_heterophily(result.graph):.3f} "
          f"in {len(result.history)} rounds (reached: {result.reached})")

    # The planted fixture gives every classified node its own component:
    # two quiet leaves that jointly encode the label exactly, and a loud
    # ring that broadcasts a decoy class which is only right 80% of the
    # time. The generator returns both edge sets as ground truth.
    ds = planted_shortcut(num_egos=50, seed=0)
    g = ds.graph
    agree = np.mean(ds.decoy_classes == g.labels[ds.ego_nodes])
    print(f"\nplanted fixture: {g.num_nodes} nodes, "
          f"{ds.causal_edges.shape[0]} causal edges, "
          f"{ds.shortcut_edges.shape[0]} shortcut edges")
    print(f"decoy agreement with labels: {agree:.2f}")

    ego = int(ds.ego_nodes[0])
    print(f"\nego {ego} (label {g.labels[ego]}):")
    for nbr in g.neighbors(ego):
        kind = ("causal" if tuple(sorted((ego, int(nbr)))) in
                set(map(tuple, ds.causal_edges.tolist())) else "shortcut")
        print(f"  neighbor {int(nbr):>3} {kind:<8} features "
              f"{np.round(g.features[nbr], 2).tolist()}")
    print("The two causal leaves carry a rotated class code and the "
          "rotation itself; either alone is uninformative.")


if __name__ == "__main__":
    main()
