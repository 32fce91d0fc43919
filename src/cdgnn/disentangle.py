"""Mask pair, branch embeddings, and the disentanglement losses.

A single learned scorer drives both branches: each edge gets a logit from a
two-layer MLP on the concatenated endpoint input features (symmetrized by
averaging both endpoint orders), and a shared logit vector masks feature
columns. sigmoid(logit) weights the causal branch; the complement weights the
shortcut branch, so the two masked weight tables tile the unmasked graph.

Losses: a generalized cross-entropy (GCE) term that lets the shortcut branch
latch onto easy signal, a difficulty-weighted cross-entropy for the causal
branch, a counterfactual term that swaps shortcut embeddings across the
batch, and an HSIC penalty driving the branch embeddings independent.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .graphs import Graph
from .models import (EgoBatch, gcn_forward, glorot, init_gcn_weights,
                     init_head_params, init_readout_params)

__all__ = [
    "init_mask_params",
    "init_cdgnn_params",
    "edge_score_logits",
    "TwoBranchPass",
    "two_branch_forward",
    "gce_loss",
    "difficulty_weights",
    "causal_loss",
    "counterfactual_loss",
    "median_bandwidth",
    "hsic",
    "total_loss",
    "score_edges",
    "disentanglement_score",
]

_CE_EPS = 1e-12


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


def init_cdgnn_params(rng: np.random.Generator, feat_dim: int, hidden: int,
                      layers: int, scorer_hidden: int,
                      num_classes: int) -> dict[str, np.ndarray]:
    """Every parameter of the two-branch model, drawn in a fixed order.

    Keys: `mask.*` (scorer and feature mask), `gnn_c.w<l>` / `gnn_s.w<l>`
    (branch encoders), `readout_c.proj` / `readout_s.proj`, and the heads
    `head_c.*` / `head_s.*`, which read the joint embedding.
    """
    params = init_mask_params(rng, feat_dim, scorer_hidden)
    params.update(init_gcn_weights(rng, feat_dim, hidden, layers, "gnn_c"))
    params.update(init_gcn_weights(rng, feat_dim, hidden, layers, "gnn_s"))
    params.update(init_readout_params(rng, hidden, "readout_c"))
    params.update(init_readout_params(rng, hidden, "readout_s"))
    params.update(init_head_params(rng, 2 * hidden, num_classes, "head_c"))
    params.update(init_head_params(rng, 2 * hidden, num_classes, "head_s"))
    return params


def edge_score_logits(e: np.ndarray, x: np.ndarray,
                      params: dict) -> ad.Tensor:
    """Symmetric logits of edges `e` (rows u, v into `x`): the mean of
    scorer(x_u||x_v) and scorer(x_v||x_u), with the `mask.*` entries of
    `params` (leaves or plain arrays)."""
    if e.shape[0] == 0:
        return ad.Tensor(np.zeros((0, 1)))
    pairs = np.vstack([
        np.hstack([x[e[:, 0]], x[e[:, 1]]]),
        np.hstack([x[e[:, 1]], x[e[:, 0]]]),
    ])
    hidden = ad.relu(ad.add(ad.matmul(pairs, params["mask.w1"]), params["mask.b1"]))
    scores = ad.add(ad.matmul(hidden, params["mask.w2"]), params["mask.b2"])
    return ad.mean_of_halves(scores)


@dataclass
class TwoBranchPass:
    """One forward of the two-branch model on one batch.

    The edge and feature masks weight the causal branch and their
    complements the shortcut branch. `layers_causal` and `layers_shortcut`
    hold each branch's node embeddings after every encoder layer, the
    `graph_*` rows its per-ego readout, and `joint` both readouts side by
    side. Each head is a (weight, bias) pair reading the joint embedding,
    as passed in: leaves or plain arrays.
    """

    edge_mask: ad.Tensor
    feature_mask: ad.Tensor
    layers_causal: list[ad.Tensor]
    layers_shortcut: list[ad.Tensor]
    graph_causal: ad.Tensor
    graph_shortcut: ad.Tensor
    joint: ad.Tensor
    head_causal: tuple
    head_shortcut: tuple


def two_branch_forward(batch: EgoBatch, leaves: dict,
                       dropout_rate: float = 0.0,
                       rng: np.random.Generator | None = None) -> TwoBranchPass:
    """Mask `batch` and embed it through both branches; `leaves` holds every
    init_cdgnn_params entry, as ad.leaves to train or as plain arrays to
    infer (which records nothing). Backward sums each gradient in reverse
    creation order, so the op order below is fixed."""
    edge = ad.sigmoid(edge_score_logits(batch.endpoints, batch.features,
                                        leaves))
    feat = ad.sigmoid(leaves["mask.feat"])
    edge_shortcut = ad.subtract(1.0, edge)
    feat_shortcut = ad.subtract(1.0, feat)
    keys = sorted(k for k in leaves if k.startswith("gnn_c.w"))
    layers_c = gcn_forward(batch.plan, batch.features, edge, feat,
                           [leaves[k] for k in keys], dropout_rate, rng)
    layers_s = gcn_forward(batch.plan, batch.features, edge_shortcut,
                           feat_shortcut,
                           [leaves[k.replace("gnn_c.", "gnn_s.")] for k in keys],
                           dropout_rate, rng)
    h_c = ad.ego_readout(layers_c[-1], batch.ego_rows, batch.segments,
                         batch.num_graphs, leaves["readout_c.proj"])
    h_s = ad.ego_readout(layers_s[-1], batch.ego_rows, batch.segments,
                         batch.num_graphs, leaves["readout_s.proj"])
    return TwoBranchPass(
        edge_mask=edge, feature_mask=feat,
        layers_causal=layers_c, layers_shortcut=layers_s,
        graph_causal=h_c, graph_shortcut=h_s, joint=ad.concat_cols(h_c, h_s),
        head_causal=(leaves["head_c.w"], leaves["head_c.b"]),
        head_shortcut=(leaves["head_s.w"], leaves["head_s.b"]))


def gce_loss(probs: ad.Tensor, labels, q: float) -> ad.Tensor:
    """Per-sample generalized cross-entropy (1 - p_y^q) / q, shape (B, 1).

    The power is computed as exp(q * log p) with the log clamped at 1e-12.
    At q = 1 this is 1 - p_y; as q -> 0 it approaches the cross-entropy.
    """
    if not 0.0 < q <= 1.0:
        raise ValueError(f"q must be in (0, 1], got {q}")
    return ad.gce_rows(probs, labels, q)


def difficulty_weights(ce_shortcut: np.ndarray, ce_causal: np.ndarray) -> np.ndarray:
    """Relative difficulty W = CE_s / (CE_s + CE_c), 0/0 resolved to 0.5.

    Inputs are detached per-sample cross-entropy values; the weight is a
    stop-gradient quantity by construction.
    """
    s = np.asarray(ce_shortcut, dtype=np.float64).reshape(-1)
    c = np.asarray(ce_causal, dtype=np.float64).reshape(-1)
    if (s < 0).any() or (c < 0).any():
        raise ValueError("cross-entropy values must be nonnegative")
    denom = s + c
    out = np.full(s.shape, 0.5)
    ok = denom > _CE_EPS
    out[ok] = s[ok] / denom[ok]
    return out


def causal_loss(probs_causal: ad.Tensor, labels, weights) -> ad.Tensor:
    """Difficulty-weighted mean cross-entropy of the causal head."""
    return ad.mean(ad.nll_rows(probs_causal, labels, weights))


def counterfactual_loss(fwd: TwoBranchPass, labels, q: float,
                        perm: np.ndarray, weights) -> ad.Tensor:
    """Counterfactual pairing loss over one batch permutation.

    Builds h_ct = [h_causal_i ; h_shortcut_perm(i)] and averages
    GCE(shortcut head, permuted labels) + W_i * CE(causal head, original
    labels); W comes from the unpermuted pass. Needs batch size >= 2.
    """
    y = np.asarray(labels, dtype=np.int64).reshape(-1)
    n = fwd.graph_causal.data.shape[0]
    if n < 2:
        raise ValueError("counterfactual loss needs a batch of at least 2")
    perm = np.asarray(perm, dtype=np.int64).reshape(-1)
    if perm.shape[0] != n:
        raise ValueError("perm must cover the batch")
    h_ct = ad.concat_cols(fwd.graph_causal,
                          ad.permute_rows(fwd.graph_shortcut, perm))
    probs_s = ad.softmax_head(h_ct, *fwd.head_shortcut)
    probs_c = ad.softmax_head(h_ct, *fwd.head_causal)
    gce = gce_loss(probs_s, y[perm], q)
    ce = ad.nll_rows(probs_c, y, weights)
    return ad.mean(ad.add(gce, ce))


# Inputs of up to this many rows share one cached upper-triangle mask;
# larger ones get a larger power-of-two mask.
_MASK_ROWS = 256


@functools.lru_cache(maxsize=1)
def _upper_mask(size: int) -> np.ndarray:
    """Read-only mask of the entries above the diagonal of a size x size
    matrix; its top-left n x n block is the mask of an n x n matrix."""
    mask = np.triu(np.ones((size, size), dtype=bool), k=1)
    mask.flags.writeable = False
    return mask


def _median(values: np.ndarray) -> float:
    """np.median of a 1-D array, bit for bit, from one selection: the lower
    middle value of an even count is the max of the part left of the upper
    one, and the two are averaged as np.mean averages them."""
    if np.isnan(values).any():
        return float("nan")
    half = values.size // 2
    part = np.partition(values, half)
    if values.size % 2:
        return float(part[half])
    return float((part[:half].max() + part[half]) / 2)


def median_bandwidth(x: np.ndarray) -> float:
    """Median-heuristic RBF bandwidth: sqrt(median squared distance / 2)."""
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[0] < 2:
        return 1.0
    sq = (arr * arr).sum(axis=1, keepdims=True)
    d2 = np.maximum(sq + sq.T - 2.0 * arr @ arr.T, 0.0)
    n = arr.shape[0]
    upper = _upper_mask(max(_MASK_ROWS, 1 << (n - 1).bit_length()))[:n, :n]
    med = _median(d2[upper])
    if med <= 0.0:
        return 1.0
    return float(np.sqrt(med / 2.0))


def hsic(x: ad.Tensor, y: ad.Tensor, rows=None) -> ad.Tensor:
    """Biased HSIC estimate between aligned rows of x and y, or between
    their rows `rows` when given (as take_rows of both would give them).

    (1/(n-1))^2 * trace(Kx H Ky H) with RBF kernels at the median-heuristic
    bandwidths of those rows' detached values (ad.hsic_rbf takes others).
    The trace is evaluated as an elementwise product of the centered grams
    (identical by symmetry and idempotence of H).
    """
    n = x.data.shape[0] if rows is None else np.shape(rows)[0]
    if n < 2:
        raise ValueError(f"hsic needs at least 2 rows, got {n}")
    if y.data.shape[0] != x.data.shape[0]:
        raise ValueError("hsic inputs must have the same number of rows")
    xs = x.data if rows is None else x.data[rows]
    ys = y.data if rows is None else y.data[rows]
    return ad.hsic_rbf(x, y, median_bandwidth(xs), median_bandwidth(ys), rows)


def total_loss(shortcut_term: ad.Tensor, causal_term: ad.Tensor,
               counterfactual_term: ad.Tensor, independence_term: ad.Tensor,
               coefficients: tuple[float, float, float, float]
               ) -> tuple[ad.Tensor, dict[str, float]]:
    """Weighted objective plus a raw-value breakdown.

    `coefficients` weigh the four terms in this order (RunConfig.coefficients);
    a term weighed 0 (ablated, or a zero lambda) leaves the objective, but
    every term's raw value is still reported so ablated runs stay comparable.
    """
    breakdown = {
        "loss_s": shortcut_term.item(),
        "loss_c": causal_term.item(),
        "loss_cf": counterfactual_term.item(),
        "loss_hsic": independence_term.item(),
    }
    terms = (shortcut_term, causal_term, counterfactual_term, independence_term)
    pieces = [term if coeff == 1.0 else ad.multiply(term, coeff)
              for term, coeff in zip(terms, coefficients)
              if coeff != 0.0]
    if not pieces:
        raise ValueError("all loss terms ablated")
    total = pieces[0]
    for p in pieces[1:]:
        total = ad.add(total, p)
    breakdown["total"] = total.item()
    return total, breakdown


def score_edges(mask_params: dict[str, np.ndarray], features: np.ndarray,
                edges: np.ndarray) -> np.ndarray:
    """edge_score_logits on plain arrays, as a flat vector."""
    return edge_score_logits(np.asarray(edges, dtype=np.int64).reshape(-1, 2),
                             np.asarray(features, dtype=np.float64),
                             mask_params).data[:, 0]


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
