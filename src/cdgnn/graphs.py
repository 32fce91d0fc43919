"""Graph container, heterophily metrics, and neighborhood machinery.

Graphs are undirected and attributed: every node carries a real feature row
and an integer class label. Edges are stored once as sorted pairs (u < v)
with no self-loops; operations that need a self term (the renormalized
propagation) add it explicitly instead of storing loop edges. Each graph
also holds a CSR adjacency over both edge directions, so a node's
neighbours, and an ego subgraph, are read without scanning the edge list.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "Graph",
    "GraphError",
    "label_heterophily",
    "feature_heterophily",
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
    indptr: np.ndarray = field(init=False, repr=False, compare=False)
    indices: np.ndarray = field(init=False, repr=False, compare=False)

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
        # CSR over both directions: row u lists u's neighbours ascending.
        src = np.concatenate([self.edges[:, 0], self.edges[:, 1]])
        dst = np.concatenate([self.edges[:, 1], self.edges[:, 0]])
        self.indices = dst[np.lexsort((dst, src))]
        self.indptr = np.zeros(self.num_nodes + 1, dtype=np.int64)
        np.cumsum(np.bincount(src, minlength=self.num_nodes), out=self.indptr[1:])
        self.indptr.flags.writeable = False
        self.indices.flags.writeable = False

    @property
    def num_edges(self) -> int:
        return int(self.edges.shape[0])

    @property
    def feature_dim(self) -> int:
        return int(self.features.shape[1])

    @property
    def degrees(self) -> np.ndarray:
        return np.diff(self.indptr)

    def neighbors(self, node: int) -> np.ndarray:
        """Read-only view of the neighbours of `node`, ascending."""
        return self.indices[self.indptr[node]:self.indptr[node + 1]]

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


def _csr_rows(g: Graph, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(source, neighbour) pairs of the CSR rows `rows`, row by row."""
    starts = g.indptr[rows]
    counts = g.indptr[rows + 1] - starts
    shift = np.repeat(starts - (np.cumsum(counts) - counts), counts)
    return np.repeat(rows, counts), g.indices[np.arange(shift.shape[0]) + shift]


def ego_subgraph(g: Graph, node: int, hops: int) -> tuple[np.ndarray, np.ndarray]:
    """Induced subgraph on nodes within `hops` of `node`.

    Returns (mapping, edges): mapping[k] is the original id of sub-node k,
    with the ego at sub-id 0, and edges are the induced edges (u, v), u < v,
    in sub-ids, sorted as a Graph sorts its edge list. Nodes are ordered by BFS level, ties by original id, so the
    construction is deterministic. The features and labels of the subgraph
    are g.features[mapping] and g.labels[mapping].
    """
    if hops < 1:
        raise GraphError(f"hops must be >= 1, got {hops}")
    if not 0 <= node < g.num_nodes:
        raise GraphError(f"node {node} outside [0, {g.num_nodes})")
    # local[v] is v's sub-id, or -1 while v is unreached.
    local = np.full(g.num_nodes, -1, dtype=np.int64)
    local[node] = 0
    levels = [np.array([node], dtype=np.int64)]
    size = 1
    for _ in range(hops):
        reached = np.unique(_csr_rows(g, levels[-1])[1])
        fresh = reached[local[reached] < 0]
        if not fresh.size:
            break
        local[fresh] = np.arange(size, size + fresh.size)
        size += fresh.size
        levels.append(fresh)
    mapping = np.concatenate(levels)
    u, v = _csr_rows(g, mapping)
    keep = (u < v) & (local[v] >= 0)
    # Each edge once, as (smaller, larger) sub-id, sorted: the order Graph
    # gives its edge list.
    edges = np.sort(np.stack([local[u[keep]], local[v[keep]]], axis=1), axis=1)
    return mapping, edges[np.lexsort((edges[:, 1], edges[:, 0]))]


def graph_to_dict(g: Graph) -> dict:
    """JSON-ready dict with keys num_nodes, num_classes, edges, features, labels."""
    return {
        "num_nodes": g.num_nodes,
        "num_classes": g.num_classes,
        "edges": g.edges.tolist(),
        "features": g.features.tolist(),
        "labels": g.labels.tolist(),
    }


def _numeric(kind: type) -> bool:
    """Whether `kind` is int, float or a numpy number type (bool is not)."""
    return kind is int or issubclass(kind, (float, np.integer, np.floating))


def _whole(value) -> bool:
    """Whether `value` is a _numeric whole number in int64's range."""
    return (_numeric(type(value)) and -2**63 <= value < 2**63
            and float(value).is_integer())


def graph_from_dict(payload: dict) -> Graph:
    """The graph a graph_to_dict payload holds. The first entry out of form
    is refused by name: a count, label or edge end that is not a whole
    number, an edge that is not one [u, v] pair, a feature row unlike row 0,
    a feature value that is not a number."""
    if not isinstance(payload, dict):
        raise GraphError(f"graph payload must be an object, got {type(payload).__name__}")
    missing = [k for k in ("num_nodes", "num_classes", "edges", "features", "labels")
               if k not in payload]
    if missing:
        raise GraphError(f"graph payload missing keys: {', '.join(missing)}")
    for key in ("num_nodes", "num_classes"):
        if not _whole(payload[key]):
            raise GraphError(f"{key} is {payload[key]!r}, not a whole number")
    feats = payload["features"]
    for key, what, form, fits in (
            ("edges", "edge", "a [u, v] pair of whole numbers",
             lambda v: isinstance(v, list) and len(v) == 2 and _whole(v[0]) and _whole(v[1])),
            ("labels", "label", "a whole number", _whole),
            ("features", "feature row", "a list as long as row 0",
             lambda v: isinstance(v, list) and len(v) == len(feats[0]))):
        values = payload[key]
        if not isinstance(values, list):
            raise GraphError(f"{key} must be a list, got {type(values).__name__}")
        bad = next((i for i, v in enumerate(values) if not fits(v)), None)
        if bad is not None:
            raise GraphError(f"{what} {bad} is {values[bad]!r}, not {form}")
    kinds = set(map(type, itertools.chain.from_iterable(feats)))
    if not all(map(_numeric, kinds)):
        row, col = next((i, j) for i, r in enumerate(feats)
                        for j, v in enumerate(r) if not _numeric(type(v)))
        raise GraphError(f"feature row {row} column {col} is "
                         f"{feats[row][col]!r}, not a number")
    return Graph(
        num_nodes=int(payload["num_nodes"]),
        edges=np.asarray(payload["edges"], dtype=np.int64),
        features=np.asarray(feats, dtype=np.float64),
        labels=np.asarray(payload["labels"], dtype=np.int64),
        num_classes=int(payload["num_classes"]),
    )


def save_graph(g: Graph, path) -> None:
    # json.dumps runs the C encoder; json.dump always runs the Python one.
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(graph_to_dict(g)))


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
