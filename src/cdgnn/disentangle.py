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
from scipy.stats import rankdata

from . import autodiff as ad
from .graphs import Graph
from .models import (EgoBatch, classify, gcn_forward, glorot,
                     init_gcn_weights, init_head_params, init_readout_params,
                     readout)

__all__ = [
    "init_mask_params",
    "init_cdgnn_params",
    "MaskSet",
    "edge_score_logits",
    "materialize_masks",
    "BranchBundle",
    "split_and_embed",
    "TwoBranchPass",
    "two_branch_forward",
    "gce_loss",
    "cross_entropy",
    "difficulty_weights",
    "causal_loss",
    "counterfactual_loss",
    "median_bandwidth",
    "hsic",
    "hsic_value",
    "total_loss",
    "score_edges",
    "disentanglement_score",
]

_CE_EPS = 1e-12


def init_mask_params(rng: np.random.Generator, feat_dim: int,
                     scorer_hidden: int = 16) -> dict[str, np.ndarray]:
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
                      params: dict[str, ad.Tensor]) -> ad.Tensor:
    """Symmetric logits of edges `e` (rows u, v into `x`): the mean of
    scorer(x_u||x_v) and scorer(x_v||x_u)."""
    num = e.shape[0]
    tape = params["mask.w1"].tape
    if num == 0:
        return ad.Tensor(np.zeros((0, 1)), tape=tape, requires_grad=False)
    pairs = np.vstack([
        np.hstack([x[e[:, 0]], x[e[:, 1]]]),
        np.hstack([x[e[:, 1]], x[e[:, 0]]]),
    ])
    hidden = ad.relu(ad.add(ad.matmul(pairs, params["mask.w1"]), params["mask.b1"]))
    scores = ad.add(ad.matmul(hidden, params["mask.w2"]), params["mask.b2"])
    return ad.mean_of_halves(scores)


@dataclass
class MaskSet:
    """Materialized masks for one batch: causal side and its complement."""

    edge: ad.Tensor
    edge_complement: ad.Tensor
    feature: ad.Tensor
    feature_complement: ad.Tensor


def materialize_masks(batch: EgoBatch, params: dict[str, ad.Tensor]) -> MaskSet:
    edge = ad.sigmoid(edge_score_logits(batch.endpoints, batch.features, params))
    feat = ad.sigmoid(params["mask.feat"])
    return MaskSet(
        edge=edge,
        edge_complement=ad.subtract(1.0, edge),
        feature=feat,
        feature_complement=ad.subtract(1.0, feat),
    )


@dataclass
class BranchBundle:
    """Embeddings produced by the two masked branches for one batch."""

    graph_causal: ad.Tensor
    graph_shortcut: ad.Tensor
    joint: ad.Tensor
    nodes_causal: ad.Tensor
    nodes_shortcut: ad.Tensor


def split_and_embed(batch: EgoBatch, x: ad.Tensor, masks: MaskSet,
                    causal_layers: list[ad.Tensor], shortcut_layers: list[ad.Tensor],
                    causal_projection: ad.Tensor, shortcut_projection: ad.Tensor,
                    dropout_rate: float = 0.0,
                    rng: np.random.Generator | None = None,
                    training: bool = False) -> BranchBundle:
    """Run both masked branches and bundle graph/node embeddings."""
    nodes_c = gcn_forward(batch, x, masks.edge, masks.feature, causal_layers,
                          dropout_rate, rng, training)
    nodes_s = gcn_forward(batch, x, masks.edge_complement, masks.feature_complement,
                          shortcut_layers, dropout_rate, rng, training)
    h_c = readout(batch, nodes_c, causal_projection)
    h_s = readout(batch, nodes_s, shortcut_projection)
    return BranchBundle(
        graph_causal=h_c,
        graph_shortcut=h_s,
        joint=ad.concat_cols(h_c, h_s),
        nodes_causal=nodes_c,
        nodes_shortcut=nodes_s,
    )


@dataclass
class TwoBranchPass:
    """One forward of the two-branch model: `leaves` are the parameters on
    `tape`; each head is a (weight, bias) pair reading the joint embedding."""

    tape: ad.Tape
    leaves: dict[str, ad.Tensor]
    masks: MaskSet
    causal_layers: list[ad.Tensor]
    bundle: BranchBundle
    head_causal: tuple[ad.Tensor, ad.Tensor]
    head_shortcut: tuple[ad.Tensor, ad.Tensor]


def two_branch_forward(batch: EgoBatch, params: dict[str, np.ndarray],
                       dropout_rate: float = 0.0,
                       rng: np.random.Generator | None = None,
                       training: bool = False) -> TwoBranchPass:
    """Put `params` on a fresh tape (tracked only when training), mask the
    batch and embed it through both branches."""
    tape = ad.Tape()
    t = {k: tape.leaf(v, requires_grad=training) for k, v in params.items()}
    keys = sorted(k for k in t if k.startswith("gnn_c.w"))
    causal_layers = [t[k] for k in keys]
    shortcut_layers = [t[k.replace("gnn_c.", "gnn_s.")] for k in keys]
    masks = materialize_masks(batch, t)
    x = tape.leaf(batch.features, requires_grad=False)
    bundle = split_and_embed(batch, x, masks, causal_layers, shortcut_layers,
                             t["readout_c.proj"], t["readout_s.proj"],
                             dropout_rate, rng, training)
    return TwoBranchPass(tape=tape, leaves=t, masks=masks,
                         causal_layers=causal_layers, bundle=bundle,
                         head_causal=(t["head_c.w"], t["head_c.b"]),
                         head_shortcut=(t["head_s.w"], t["head_s.b"]))


def gce_loss(probs: ad.Tensor, labels, q: float) -> ad.Tensor:
    """Per-sample generalized cross-entropy (1 - p_y^q) / q, shape (B, 1).

    The power is computed as exp(q * log p) with the log clamped at 1e-12.
    At q = 1 this is 1 - p_y; as q -> 0 it approaches the cross-entropy.
    """
    if not 0.0 < q <= 1.0:
        raise ValueError(f"q must be in (0, 1], got {q}")
    return ad.gce_rows(probs, labels, q)


def cross_entropy(probs: ad.Tensor, labels) -> ad.Tensor:
    """Per-sample cross-entropy -log p_y, shape (B, 1)."""
    return ad.nll_rows(probs, labels)


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


def counterfactual_loss(bundle: BranchBundle, head_s: tuple[ad.Tensor, ad.Tensor],
                        head_c: tuple[ad.Tensor, ad.Tensor], labels,
                        q: float, perm: np.ndarray, weights) -> ad.Tensor:
    """Counterfactual pairing loss over one batch permutation.

    Builds h_ct = [h_causal_i ; h_shortcut_perm(i)] and averages
    GCE(shortcut head, permuted labels) + W_i * CE(causal head, original
    labels); W comes from the unpermuted bundle. Needs batch size >= 2.
    """
    y = np.asarray(labels, dtype=np.int64).reshape(-1)
    n = bundle.graph_causal.data.shape[0]
    if n < 2:
        raise ValueError("counterfactual loss needs a batch of at least 2")
    perm = np.asarray(perm, dtype=np.int64).reshape(-1)
    if perm.shape[0] != n:
        raise ValueError("perm must cover the batch")
    h_ct = ad.concat_cols(bundle.graph_causal,
                          ad.permute_rows(bundle.graph_shortcut, perm))
    probs_s = classify(h_ct, head_s[0], head_s[1])
    probs_c = classify(h_ct, head_c[0], head_c[1])
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


def hsic(x: ad.Tensor, y: ad.Tensor, bandwidth_x: float | None = None,
         bandwidth_y: float | None = None, rows=None) -> ad.Tensor:
    """Biased HSIC estimate between aligned rows of x and y, or between
    their rows `rows` when given (as take_rows of both would give them).

    (1/(n-1))^2 * trace(Kx H Ky H) with RBF kernels; bandwidths default to
    the median heuristic on the detached values of those rows. The trace is
    evaluated as an elementwise product of the centered grams (identical by
    symmetry and idempotence of H).
    """
    n = x.data.shape[0] if rows is None else np.shape(rows)[0]
    if n < 2:
        raise ValueError(f"hsic needs at least 2 rows, got {n}")
    if y.data.shape[0] != x.data.shape[0]:
        raise ValueError("hsic inputs must have the same number of rows")
    xs = x.data if rows is None else x.data[rows]
    ys = y.data if rows is None else y.data[rows]
    bx = median_bandwidth(xs) if bandwidth_x is None else float(bandwidth_x)
    by = median_bandwidth(ys) if bandwidth_y is None else float(bandwidth_y)
    return ad.hsic_rbf(x, y, bx, by, rows)


def hsic_value(x: np.ndarray, y: np.ndarray, bandwidth_x: float | None = None,
               bandwidth_y: float | None = None) -> float:
    """Plain-array HSIC (same estimator as hsic(), on untracked tensors)."""
    return hsic(ad.Tensor(np.asarray(x, dtype=np.float64)),
                ad.Tensor(np.asarray(y, dtype=np.float64)),
                bandwidth_x, bandwidth_y).item()


@dataclass(frozen=True)
class LossSettings:
    q: float = 0.7
    lambda_counterfactual: float = 10.0
    lambda_independence: float = 0.1
    no_shortcut_term: bool = False
    no_causal_term: bool = False
    no_counterfactual_term: bool = False
    no_independence_term: bool = False

    @property
    def coefficients(self) -> tuple[float, float, float, float]:
        """Weights of the shortcut, causal, counterfactual and independence
        terms in the objective; an ablated term weighs 0."""
        return (0.0 if self.no_shortcut_term else 1.0,
                0.0 if self.no_causal_term else 1.0,
                0.0 if self.no_counterfactual_term else self.lambda_counterfactual,
                0.0 if self.no_independence_term else self.lambda_independence)


def total_loss(shortcut_term: ad.Tensor, causal_term: ad.Tensor,
               counterfactual_term: ad.Tensor, independence_term: ad.Tensor,
               settings: LossSettings) -> tuple[ad.Tensor, dict[str, float]]:
    """Weighted objective plus a raw-value breakdown.

    Ablation flags and zero lambdas drop a term from the objective; every
    term's raw value is still reported so ablated runs stay comparable.
    """
    breakdown = {
        "loss_s": shortcut_term.item(),
        "loss_c": causal_term.item(),
        "loss_cf": counterfactual_term.item(),
        "loss_hsic": independence_term.item(),
    }
    terms = (shortcut_term, causal_term, counterfactual_term, independence_term)
    pieces = [term if coeff == 1.0 else ad.multiply(term, coeff)
              for term, coeff in zip(terms, settings.coefficients)
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
    tape = ad.Tape()
    t = {k: tape.leaf(v, requires_grad=False) for k, v in mask_params.items()}
    return edge_score_logits(np.asarray(edges, dtype=np.int64).reshape(-1, 2),
                             np.asarray(features, dtype=np.float64), t).data[:, 0]


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
    ranks = rankdata(np.concatenate([pos, neg]), method="average")
    u = ranks[: pos.shape[0]].sum() - pos.shape[0] * (pos.shape[0] + 1) / 2.0
    return float(u / (pos.shape[0] * neg.shape[0]))
