"""Ego batching and the masked GCN encoder.

build_ego_cache extracts the egos of a run's nodes at once, into one flat
EgoTable. The encoder runs on an EgoBatch: the disjoint union of one ego
subgraph per classified node, which batch_from_cache gathers from the
table, propagated as one graph through one CSR PropagationPlan. Layer l
computes H_l = relu(P_masked @ H_{l-1} @ W_l) with dropout between layers
(rate > 0) and no nonlinearity after the final layer; P_masked is the
renormalized propagation with per-edge weights. The readout (ego row joined
with the subgraph mean, projected back to the embedding width) is the node
ad.ego_readout, which reads each ego's rows by the batch's sizes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .graphs import Graph, _egos, _spans

__all__ = [
    "EgoBatch",
    "EgoTable",
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
    sizes: np.ndarray  # rows of each ego, its ego row first
    member_ids: np.ndarray  # original graph id of each union row
    ego_labels: np.ndarray
    num_graphs: int


@dataclass
class EgoTable:
    """Ego subgraphs end to end, as ego_subgraph gives them: ego i holds the
    ids members[p:q] and the local edges edges[r:s] for p, q = member_ptr[i:
    i + 2] and r, s = edge_ptr[i:i + 2]. row[v] is i for node v's ego, else
    -1, and one more -1 closes it (row[-1])."""

    members: np.ndarray
    member_ptr: np.ndarray
    edges: np.ndarray
    edge_ptr: np.ndarray
    row: np.ndarray


def build_ego_cache(g: Graph, hops: int, nodes) -> EgoTable:
    """The ego subgraphs of the distinct `nodes` at `hops`, ascending."""
    nodes = np.unique(np.asarray(nodes, dtype=np.int64))
    table = EgoTable(*_egos(g, nodes, hops),
                     row=np.full(g.num_nodes + 1, -1, dtype=np.int64))
    table.row[nodes] = np.arange(nodes.size)
    return table


def batch_from_cache(g: Graph, cache: EgoTable, nodes) -> EgoBatch:
    """Disjoint union of the cached ego subgraphs of `nodes`, in order. A
    node the cache holds no ego of is refused by name."""
    nodes = np.asarray(nodes, dtype=np.int64).reshape(-1)
    # ids outside the graph read the closing -1 (np.clip costs more)
    at = cache.row[np.minimum(np.maximum(nodes, -1), cache.row.shape[0] - 1)]
    if (at < 0).any():
        raise ValueError(f"the ego cache holds no ego of node "
                         f"{nodes[np.argmax(at < 0)]}")
    rows, sizes = _spans(cache.member_ptr, at)
    member_ids = cache.members[rows]
    offsets = np.cumsum(sizes) - sizes
    rows, counts = _spans(cache.edge_ptr, at)
    edges = cache.edges[rows] + np.repeat(offsets, counts)[:, None]
    return EgoBatch(
        plan=ad.PropagationPlan.from_edges(edges, member_ids.shape[0]),
        features=g.features[member_ids],
        endpoints=edges,
        sizes=sizes,
        member_ids=member_ids,
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
