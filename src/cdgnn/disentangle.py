"""Mask pair, branch embeddings, and the disentanglement losses.

A single learned scorer drives both branches: each edge gets a logit from a
two-layer MLP on the concatenated endpoint input features (symmetrized by
averaging both endpoint orders; one ad.edge_scorer node, which
two_branch_forward and score_edges call), and a shared logit vector masks
feature columns. sigmoid(logit) weights the causal branch; the complement
weights the shortcut branch, so the two masked weight tables tile the
unmasked graph. Both views share one encoder and readout path.

total_loss, the whole objective of one two_branch_forward: a generalized
cross-entropy (GCE) term that lets the shortcut branch latch onto easy
signal, a difficulty-weighted cross-entropy for the causal branch, a
counterfactual term that swaps shortcut embeddings across the batch (the
three of them one ad.two_head_loss node), and an HSIC penalty driving the
branch embeddings independent (ad.hsic_rbf), each times its coefficient.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .graphs import Graph
from .models import (EgoBatch, gcn_forward, glorot, init_gcn_weights,
                     init_head_params, init_readout_params)

__all__ = [
    "init_mask_params",
    "init_cdgnn_params",
    "TwoBranchPass",
    "two_branch_forward",
    "total_loss",
    "score_edges",
    "disentanglement_score",
]

def init_mask_params(rng: np.random.Generator, feat_dim: int,
                     scorer_hidden: int) -> dict[str, np.ndarray]:
    """Scorer MLP weights plus feature-mask logits.

    The output layer starts at zero so every edge and feature logit is
    exactly 0 (mask 1/2, a neutral gate): both branches begin with the
    same half-weighted view, and the split direction is decided by the
    losses instead of an initialization lottery on feature magnitudes.
    """
    return {
        "mask.w1": glorot(rng, 2 * feat_dim, scorer_hidden),
        "mask.b1": np.zeros((1, scorer_hidden)),
        "mask.w2": np.zeros((scorer_hidden, 1)),
        "mask.b2": np.zeros((1, 1)),
        "mask.feat": np.zeros((1, feat_dim)),
    }


# The causal and the shortcut branch's key suffixes, in computation order.
_BRANCHES = ("c", "s")


def init_cdgnn_params(rng: np.random.Generator, feat_dim: int, hidden: int,
                      layers: int, scorer_hidden: int,
                      num_classes: int) -> dict[str, np.ndarray]:
    """Every parameter of the two-branch model, drawn in a fixed order.

    Keys: `mask.*` (scorer and feature mask), `gnn_c.w<l>` / `gnn_s.w<l>`
    (branch encoders), `readout_c.proj` / `readout_s.proj`, and the heads
    `head_c.*` / `head_s.*`, which read the joint embedding.
    """
    params = init_mask_params(rng, feat_dim, scorer_hidden)
    parts = (("gnn", init_gcn_weights, (feat_dim, hidden, layers)),
             ("readout", init_readout_params, (hidden,)),
             ("head", init_head_params, (2 * hidden, num_classes)))
    for part, init, sizes in parts:
        for branch in _BRANCHES:
            params.update(init(rng, *sizes, f"{part}_{branch}"))
    return params


@dataclass
class TwoBranchPass:
    """One forward of the two-branch model on one batch.

    The edge and feature masks weight the causal branch and their
    complements the shortcut branch. `layers_causal` and `layers_shortcut`
    hold each branch's node embeddings after every encoder layer, and the
    `graph_*` rows its per-ego readout. Each head is a (weight, bias) pair
    reading both readouts side by side (`joint`), as passed in: leaves or
    plain arrays.
    """

    edge_mask: ad.Tensor
    feature_mask: ad.Tensor
    layers_causal: list[ad.Tensor]
    layers_shortcut: list[ad.Tensor]
    graph_causal: ad.Tensor
    graph_shortcut: ad.Tensor
    head_causal: tuple
    head_shortcut: tuple

    @property
    def joint(self) -> np.ndarray:
        """Both readouts side by side, the rows the heads read."""
        return np.hstack([self.graph_causal.data, self.graph_shortcut.data])


# The edge scorer's MLP parameters, in ad.edge_scorer's order.
_SCORER_KEYS = ("mask.w1", "mask.b1", "mask.w2", "mask.b2")


def two_branch_forward(batch: EgoBatch, leaves: dict,
                       dropout_rate: float = 0.0,
                       rng: np.random.Generator | None = None) -> TwoBranchPass:
    """Mask `batch` and embed it through both branches; `leaves` holds every
    init_cdgnn_params entry, as ad.leaves to train or as plain arrays to
    infer (which records nothing). Backward sums each gradient in reverse
    creation order, so the op order is fixed: scorer, masks, complements,
    then both encoders and both readouts, causal first."""
    edge = ad.sigmoid(ad.edge_scorer(batch.endpoints, batch.features,
                                     *(leaves[k] for k in _SCORER_KEYS)))
    feat = ad.sigmoid(leaves["mask.feat"])
    views = ((edge, feat), (ad.subtract(1.0, edge), ad.subtract(1.0, feat)))
    depth = sum(k.startswith("gnn_c.w") for k in leaves)
    layers_c, layers_s = (
        gcn_forward(batch.plan, batch.features, edge_view, feat_view,
                    [leaves[f"gnn_{branch}.w{l}"] for l in range(depth)],
                    dropout_rate, rng)
        for branch, (edge_view, feat_view) in zip(_BRANCHES, views))
    h_c, h_s = (ad.ego_readout(layers[-1], batch.sizes,
                               leaves[f"readout_{branch}.proj"])
                for branch, layers in zip(_BRANCHES, (layers_c, layers_s)))
    return TwoBranchPass(
        edge_mask=edge, feature_mask=feat,
        layers_causal=layers_c, layers_shortcut=layers_s,
        graph_causal=h_c, graph_shortcut=h_s,
        head_causal=(leaves["head_c.w"], leaves["head_c.b"]),
        head_shortcut=(leaves["head_s.w"], leaves["head_s.b"]))


# The objective's terms, in the order RunConfig.coefficients weighs them.
LOSS_TERMS = ("loss_s", "loss_c", "loss_cf", "loss_hsic")


def total_loss(fwd: TwoBranchPass, labels, q: float,
               coefficients: tuple[float, float, float, float],
               perm: np.ndarray, rows) -> tuple[ad.Tensor, dict[str, float]]:
    """The CD-GNN objective of the batch `fwd` embeds, plus a breakdown.

    The LOSS_TERMS, in order: the mean GCE (1 - p_y^q) / q of the shortcut
    head, with q in (0, 1]; the mean cross-entropy of the causal head,
    weighted by the relative difficulty of both heads' detached per-sample
    cross-entropies; the counterfactual term over `perm` with those
    weights (the three of them ad.two_head_loss); and the ad.hsic_rbf of
    both branches' last-layer node embeddings at `rows`. `coefficients` weigh
    them (RunConfig.coefficients): a term weighed 0 (ablated, or a zero
    lambda) leaves the objective, but every term's raw value is still
    reported, so ablated runs stay comparable, beside the mean detached
    cross-entropies ce_s and ce_c.
    """
    total, values = ad.two_head_loss(
        fwd.graph_causal, fwd.graph_shortcut, fwd.head_causal,
        fwd.head_shortcut, labels, q, perm, coefficients[:3])
    independence = ad.hsic_rbf(fwd.layers_causal[-1], fwd.layers_shortcut[-1],
                               rows)
    if coefficients[3] != 0.0:
        weighed = ad.multiply(independence, coefficients[3])
        total = weighed if total is None else ad.add(total, weighed)
    if total is None:
        raise ValueError("all loss terms ablated")
    breakdown = {name: values[name] for name in LOSS_TERMS[:3]}
    breakdown.update(loss_hsic=independence.item(), ce_s=values["ce_s"],
                     ce_c=values["ce_c"])
    return total, breakdown


def score_edges(mask_params: dict[str, np.ndarray], features: np.ndarray,
                edges: np.ndarray) -> np.ndarray:
    """The edge scorer's symmetric logits of `edges` (rows u, v into
    `features`) from plain `mask.*` arrays, as a flat vector. An endpoint
    outside the feature rows is refused (ad.edge_scorer checks none)."""
    x = np.asarray(features, dtype=np.float64)
    e = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    if e.size and (e.min() < 0 or e.max() >= x.shape[0]):
        raise ValueError(f"edge endpoint outside [0, {x.shape[0]})")
    logits = ad.edge_scorer(e, x, *(mask_params[k] for k in _SCORER_KEYS))
    return logits.data[:, 0]


def disentanglement_score(mask_params: dict[str, np.ndarray], g: Graph,
                          causal_edges: np.ndarray,
                          shortcut_edges: np.ndarray) -> float:
    """AUC that causal edges outscore shortcut edges under the edge scorer.

    Ties contribute 1/2 (rank-based Mann-Whitney estimate).
    """
    ce = np.asarray(causal_edges, dtype=np.int64).reshape(-1, 2)
    se = np.asarray(shortcut_edges, dtype=np.int64).reshape(-1, 2)
    if ce.shape[0] == 0 or se.shape[0] == 0:
        raise ValueError("both ground-truth edge sets must be non-empty")
    pos = score_edges(mask_params, g.features, ce)
    neg = score_edges(mask_params, g.features, se)
    return _mann_whitney_auc(pos, neg)


def _mann_whitney_auc(pos: np.ndarray, neg: np.ndarray) -> float:
    """Share of (pos, neg) pairs with pos > neg, ties counting 1/2; NaN if
    any score is NaN. U is a sum of half-integers, so it is exact and
    equals the average-rank formula bit for bit."""
    if np.isnan(pos).any() or np.isnan(neg).any():
        return float("nan")
    neg = np.sort(neg)
    # Twice U: each positive counts the negatives below it twice, ties once.
    twice_u = (np.searchsorted(neg, pos, side="left")
               + np.searchsorted(neg, pos, side="right")).sum()
    return float(twice_u / 2.0 / (pos.shape[0] * neg.shape[0]))
