"""Ego batching and the masked GCN encoder.

The encoder runs on an EgoBatch: the disjoint union of one ego subgraph per
classified node, propagated as one graph through a single CSR
PropagationPlan that batch_from_cache builds. Layer l computes
H_l = relu(P_masked @ H_{l-1} @ W_l) with dropout between layers (rate > 0)
and no nonlinearity after the final layer; P_masked is the renormalized
propagation with per-edge weights. The readout (ego row joined with the
subgraph mean, projected back to the embedding width) and the softmax head
are the autodiff primitives ad.ego_readout and ad.softmax_head.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .graphs import Graph, ego_subgraph

__all__ = [
    "EgoBatch",
    "build_ego_cache",
    "batch_from_cache",
    "glorot",
    "init_gcn_weights",
    "init_readout_params",
    "init_head_params",
    "gcn_forward",
]


@dataclass
class EgoBatch:
    """Disjoint union of ego subgraphs plus per-graph bookkeeping."""

    plan: ad.PropagationPlan
    features: np.ndarray
    endpoints: np.ndarray
    segments: np.ndarray
    member_ids: np.ndarray  # original graph id of each union row
    ego_rows: np.ndarray
    ego_labels: np.ndarray
    num_graphs: int


def build_ego_cache(g: Graph, hops: int,
                    nodes) -> dict[int, tuple[np.ndarray, np.ndarray]]:
    """(member ids, local edges) of the ego subgraph of each of `nodes`.

    Local ids follow BFS order with the ego at 0, matching ego_subgraph.
    """
    return {int(node): ego_subgraph(g, int(node), hops)
            for node in np.asarray(nodes, dtype=np.int64).reshape(-1)}


def batch_from_cache(g: Graph, cache, nodes) -> EgoBatch:
    """Disjoint union of the cached ego subgraphs of `nodes`, in order."""
    nodes = np.asarray(nodes, dtype=np.int64).reshape(-1)
    sizes = np.array([cache[i][0].shape[0] for i in nodes], dtype=np.int64)
    offsets = np.concatenate([[0], np.cumsum(sizes)[:-1]])
    total = int(sizes.sum())
    member_ids = np.concatenate([cache[i][0] for i in nodes])
    edge_chunks = [cache[i][1] + off for i, off in zip(nodes, offsets)
                   if cache[i][1].size]
    edges = (np.vstack(edge_chunks) if edge_chunks
             else np.zeros((0, 2), dtype=np.int64))
    segments = np.repeat(np.arange(nodes.shape[0]), sizes)
    return EgoBatch(
        plan=ad.PropagationPlan.from_edges(edges, total),
        features=g.features[member_ids],
        endpoints=edges,
        segments=segments,
        member_ids=member_ids,
        ego_rows=offsets,
        ego_labels=g.labels[nodes],
        num_graphs=int(nodes.shape[0]),
    )


def glorot(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    scale = np.sqrt(2.0 / (fan_in + fan_out))
    return rng.normal(0.0, scale, size=(fan_in, fan_out))


def init_gcn_weights(rng: np.random.Generator, in_dim: int, hidden: int,
                     layers: int, prefix: str) -> dict[str, np.ndarray]:
    """Layer weights in -> hidden -> ... -> hidden (embedding width = hidden)."""
    if layers < 1:
        raise ValueError(f"layers must be >= 1, got {layers}")
    params = {}
    dims = [in_dim] + [hidden] * layers
    for l in range(layers):
        params[f"{prefix}.w{l}"] = glorot(rng, dims[l], dims[l + 1])
    return params


def init_readout_params(rng: np.random.Generator, dim: int, prefix: str) -> dict:
    return {f"{prefix}.proj": glorot(rng, 2 * dim, dim)}


def init_head_params(rng: np.random.Generator, in_dim: int, num_classes: int,
                     prefix: str) -> dict:
    return {
        f"{prefix}.w": glorot(rng, in_dim, num_classes),
        f"{prefix}.b": np.zeros((1, num_classes)),
    }


def gcn_forward(plan: ad.PropagationPlan, x, edge_weights, feature_mask,
                layer_weights: list[ad.Tensor], dropout_rate: float = 0.0,
                rng: np.random.Generator | None = None,
                propagated: bool = False) -> list[ad.Tensor]:
    """Node embeddings of the graph `plan` propagates, after every layer.

    x: node features (array or tensor), one row per node of `plan`.
    edge_weights: (num_und_edges, 1) tensor or None for the unit operator.
    feature_mask: (1, d) tensor or None; multiplies the input features.
    propagated: x holds ad.propagate of the features already, which the
    first layer then only multiplies; needs no edge weights and no mask.
    Dropout (at a rate > 0) acts between layers, after the output it records.
    """
    if propagated and feature_mask is not None:
        raise ValueError("a feature mask acts before the propagation")
    h = x if feature_mask is None else ad.multiply(x, feature_mask)
    outputs = []
    last = len(layer_weights) - 1
    for l, w in enumerate(layer_weights):
        h = ad.gcn_layer(h, edge_weights, w,
                         None if propagated and l == 0 else plan,
                         relu=l < last)
        outputs.append(h)
        if l < last and dropout_rate > 0.0:
            if rng is None:
                raise ValueError("dropout needs an rng")
            h = ad.dropout(h, dropout_rate, rng)
    return outputs
