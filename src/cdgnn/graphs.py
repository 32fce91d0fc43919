"""Graph container, heterophily metrics, and neighborhood machinery.

Graphs are undirected and attributed: every node carries a real feature row
and an integer class label. Edges are stored once as sorted pairs (u < v)
with no self-loops; operations that need a self term (the renormalized
propagation below) add it explicitly instead of storing loop edges.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "Graph",
    "GraphError",
    "label_heterophily",
    "feature_heterophily",
    "renormalized_propagate",
    "ego_subgraph",
    "graph_to_dict",
    "graph_from_dict",
    "save_graph",
    "load_graph",
]

_COS_EPS = 1e-12


class GraphError(ValueError):
    """A graph value or graph file violates a structural invariant."""


def _normalize_edges(edges, num_nodes: int) -> np.ndarray:
    arr = np.asarray(edges, dtype=np.int64)
    if arr.size == 0:
        return np.zeros((0, 2), dtype=np.int64)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise GraphError(f"edge list must be shaped (E, 2), got {arr.shape}")
    if (arr < 0).any() or (arr >= num_nodes).any():
        bad = arr[((arr < 0) | (arr >= num_nodes)).any(axis=1)][0]
        raise GraphError(f"edge {bad.tolist()} references a node outside [0, {num_nodes})")
    if (arr[:, 0] == arr[:, 1]).any():
        bad = arr[arr[:, 0] == arr[:, 1]][0]
        raise GraphError(f"self-loop not allowed: edge {bad.tolist()}")
    arr = np.sort(arr, axis=1)
    order = np.lexsort((arr[:, 1], arr[:, 0]))
    arr = arr[order]
    dup = (np.diff(arr[:, 0]) == 0) & (np.diff(arr[:, 1]) == 0)
    if dup.any():
        bad = arr[1:][dup][0]
        raise GraphError(f"duplicate (or reversed duplicate) edge {bad.tolist()}")
    return arr


@dataclass
class Graph:
    """Undirected attributed graph with integer class labels."""

    num_nodes: int
    edges: np.ndarray
    features: np.ndarray
    labels: np.ndarray
    num_classes: int
    _neighbors: list = field(default_factory=list, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.num_nodes < 1:
            raise GraphError(f"num_nodes must be >= 1, got {self.num_nodes}")
        if self.num_classes < 1:
            raise GraphError(f"num_classes must be >= 1, got {self.num_classes}")
        self.edges = _normalize_edges(self.edges, self.num_nodes)
        self.features = np.asarray(self.features, dtype=np.float64)
        if self.features.ndim != 2 or self.features.shape[0] != self.num_nodes:
            raise GraphError(
                f"features must be shaped ({self.num_nodes}, d), got {self.features.shape}"
            )
        finite = np.isfinite(self.features).all(axis=1)
        if not finite.all():
            bad = int(np.argmin(finite))
            raise GraphError(f"feature row {bad} holds a NaN or infinite value")
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.labels.shape != (self.num_nodes,):
            raise GraphError(
                f"labels must be shaped ({self.num_nodes},), got {self.labels.shape}"
            )
        if self.labels.size and ((self.labels < 0).any() or (self.labels >= self.num_classes).any()):
            bad = int(np.argmax((self.labels < 0) | (self.labels >= self.num_classes)))
            raise GraphError(
                f"label {int(self.labels[bad])} of node {bad} outside [0, {self.num_classes})"
            )
        nbrs: list[list[int]] = [[] for _ in range(self.num_nodes)]
        for u, v in self.edges:
            nbrs[u].append(int(v))
            nbrs[v].append(int(u))
        self._neighbors = [np.array(sorted(a), dtype=np.int64) for a in nbrs]

    @property
    def num_edges(self) -> int:
        return int(self.edges.shape[0])

    @property
    def feature_dim(self) -> int:
        return int(self.features.shape[1])

    @property
    def degrees(self) -> np.ndarray:
        return np.array([len(a) for a in self._neighbors], dtype=np.int64)

    def neighbors(self, node: int) -> np.ndarray:
        return self._neighbors[node]

    def with_labels(self, labels: np.ndarray) -> "Graph":
        """Copy of this graph with a replacement label vector."""
        return Graph(self.num_nodes, self.edges.copy(), self.features.copy(),
                     np.asarray(labels, dtype=np.int64).copy(), self.num_classes)


def label_heterophily(g: Graph) -> float:
    """Share of stored edges whose endpoints carry different labels."""
    if g.num_edges == 0:
        raise GraphError("label heterophily is undefined on a graph with no edges")
    u, v = g.edges[:, 0], g.edges[:, 1]
    return float(np.mean(g.labels[u] != g.labels[v]))


def feature_heterophily(g: Graph) -> float:
    """Mean edge feature dissimilarity, 1 - cos(x_u, x_v), clamped to [0, 1].

    An endpoint with a zero feature vector counts as maximally dissimilar.
    """
    if g.num_edges == 0:
        raise GraphError("feature heterophily is undefined on a graph with no edges")
    u, v = g.edges[:, 0], g.edges[:, 1]
    norms = np.linalg.norm(g.features, axis=1)
    dots = np.einsum("ij,ij->i", g.features[u], g.features[v])
    denom = norms[u] * norms[v]
    cos = np.where(denom > _COS_EPS, dots / np.maximum(denom, _COS_EPS), 0.0)
    dis = np.clip(1.0 - cos, 0.0, 1.0)
    dis = np.where(denom > _COS_EPS, dis, 1.0)
    return float(dis.mean())


def renormalized_propagate(g: Graph, signal: np.ndarray,
                           edge_weights: np.ndarray | None = None) -> np.ndarray:
    """One step of self-augmented neighbor averaging.

    out_i = (signal_i + sum_j w_ij * signal_j) / (deg_i + 1), where the sum
    runs over stored neighbors and w defaults to 1 on every edge. The
    denominator uses the structural degree, so with unit weights the operator
    is row-stochastic (preserves constant columns). `edge_weights` is aligned
    with g.edges and applies symmetrically to both directions.
    """
    sig = np.asarray(signal, dtype=np.float64)
    squeeze = sig.ndim == 1
    if squeeze:
        sig = sig[:, None]
    if sig.shape[0] != g.num_nodes:
        raise GraphError(f"signal has {sig.shape[0]} rows, expected {g.num_nodes}")
    if edge_weights is None:
        w = np.ones(g.num_edges, dtype=np.float64)
    else:
        w = np.asarray(edge_weights, dtype=np.float64).reshape(-1)
        if w.shape[0] != g.num_edges:
            raise GraphError(
                f"edge_weights has {w.shape[0]} entries, expected {g.num_edges}"
            )
    out = sig.copy()
    if g.num_edges:
        u, v = g.edges[:, 0], g.edges[:, 1]
        np.add.at(out, u, w[:, None] * sig[v])
        np.add.at(out, v, w[:, None] * sig[u])
    out /= (g.degrees + 1.0)[:, None]
    return out[:, 0] if squeeze else out


def ego_subgraph(g: Graph, node: int, hops: int) -> tuple[Graph, np.ndarray]:
    """Induced subgraph on nodes within `hops` of `node`.

    Returns (subgraph, mapping) where mapping[k] is the original id of
    sub-node k and the ego sits at sub-id 0. Nodes are ordered by BFS level,
    ties by original id, so the construction is deterministic.
    """
    if hops < 1:
        raise GraphError(f"hops must be >= 1, got {hops}")
    if not 0 <= node < g.num_nodes:
        raise GraphError(f"node {node} outside [0, {g.num_nodes})")
    seen = {node}
    order = [node]
    frontier = [node]
    for _ in range(hops):
        nxt: set[int] = set()
        for u in frontier:
            for w in g.neighbors(u):
                w = int(w)
                if w not in seen:
                    seen.add(w)
                    nxt.add(w)
        frontier = sorted(nxt)
        order.extend(frontier)
        if not frontier:
            break
    mapping = np.array(order, dtype=np.int64)
    sub_id = {orig: k for k, orig in enumerate(order)}
    sub_edges = [
        (sub_id[int(u)], sub_id[int(v)])
        for u, v in g.edges
        if int(u) in sub_id and int(v) in sub_id
    ]
    sub = Graph(
        num_nodes=len(order),
        edges=np.array(sub_edges, dtype=np.int64).reshape(-1, 2),
        features=g.features[mapping].copy(),
        labels=g.labels[mapping].copy(),
        num_classes=g.num_classes,
    )
    return sub, mapping


def graph_to_dict(g: Graph) -> dict:
    """JSON-ready dict with keys num_nodes, num_classes, edges, features, labels."""
    return {
        "num_nodes": g.num_nodes,
        "num_classes": g.num_classes,
        "edges": [[int(u), int(v)] for u, v in g.edges],
        "features": g.features.tolist(),
        "labels": g.labels.tolist(),
    }


def graph_from_dict(payload: dict) -> Graph:
    if not isinstance(payload, dict):
        raise GraphError(f"graph payload must be an object, got {type(payload).__name__}")
    missing = [k for k in ("num_nodes", "num_classes", "edges", "features", "labels")
               if k not in payload]
    if missing:
        raise GraphError(f"graph payload missing keys: {', '.join(missing)}")
    num_nodes = int(payload["num_nodes"])
    feats = payload["features"]
    if isinstance(feats, list):
        lengths = {len(row) for row in feats if isinstance(row, list)}
        if any(not isinstance(row, list) for row in feats):
            raise GraphError("features must be a list of rows")
        if len(lengths) > 1:
            widths = [len(row) for row in feats]
            bad = next(i for i, w in enumerate(widths) if w != widths[0])
            raise GraphError(
                f"feature row {bad} has length {widths[bad]}, expected {widths[0]}"
            )
    return Graph(
        num_nodes=num_nodes,
        edges=np.asarray(payload["edges"], dtype=np.int64).reshape(-1, 2)
        if payload["edges"] else np.zeros((0, 2), dtype=np.int64),
        features=np.asarray(feats, dtype=np.float64),
        labels=np.asarray(payload["labels"], dtype=np.int64),
        num_classes=int(payload["num_classes"]),
    )


def save_graph(g: Graph, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(graph_to_dict(g), fh)


def load_graph(path) -> Graph:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
    except json.JSONDecodeError as exc:
        raise GraphError(f"{path}: not valid JSON ({exc})") from exc
    try:
        return graph_from_dict(payload)
    except GraphError as exc:
        raise GraphError(f"{path}: {exc}") from exc
