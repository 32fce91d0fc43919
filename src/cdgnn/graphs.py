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


def _spans(ptr: np.ndarray, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The indices ptr[r] .. ptr[r + 1] - 1 of each r of `rows`; their counts."""
    starts = ptr[rows]
    counts = ptr[rows + 1] - starts
    ends = np.cumsum(counts)
    return (np.arange(ends[-1] if ends.size else 0)
            + np.repeat(starts - ends + counts, counts)), counts


# Egos are extracted in chunks of a sub-id table this large at most.
_TABLE_ENTRIES = 1 << 16


def _egos(g: Graph, nodes, hops) -> tuple[np.ndarray, ...]:
    """(members, member_ptr, edges, edge_ptr): ego i of `nodes` holds the
    ids members[member_ptr[i]:member_ptr[i + 1]] and the local edges
    edges[edge_ptr[i]:edge_ptr[i + 1]], laid out as ego_subgraph says. A
    chunk of egos expands its BFS levels together: the pair (ego e, node v)
    is the key e * N + v of a table holding v's sub-id in ego e, or -1."""
    if not (_whole(hops) and hops >= 1):
        raise GraphError(f"hops must be a whole number >= 1, got {hops!r}")
    nodes = np.asarray(nodes, dtype=np.int64).reshape(-1)
    n = g.num_nodes
    outside = nodes[(nodes < 0) | (nodes >= n)]
    if outside.size:
        raise GraphError(f"node {outside[0]} outside [0, {n})")
    step = max(1, _TABLE_ENTRIES // n)
    local = np.full(min(step, nodes.size) * n, -1, dtype=np.int64)
    chunks = []
    for start in range(0, max(nodes.size, 1), step):
        level = nodes[start:start + step] + n * np.arange(min(step, nodes.size - start))
        local[level] = 0
        size, levels = np.ones(level.size, dtype=np.int64), [level]
        for _ in range(int(hops)):
            at, deg = _spans(g.indptr, level % n)
            reached = np.repeat(level - level % n, deg) + g.indices[at]
            reached = reached[local[reached] < 0]
            # of the writes to a key reached twice one lands: keep its key
            local[reached] = np.arange(reached.size)
            level = np.sort(reached[local[reached] == np.arange(reached.size)])
            if not level.size:
                break
            ego = level // n
            fresh = np.bincount(ego, minlength=size.size)
            local[level] = size[ego] + np.arange(level.size) - (np.cumsum(fresh) - fresh)[ego]
            size += fresh
            levels.append(level)
        keys = np.concatenate(levels)
        ego, v = np.divmod(keys, n)
        sub = local[keys]
        flat = np.empty_like(keys)
        flat[(np.cumsum(size) - size)[ego] + sub] = v
        # each edge once, from its smaller id, sorted as Graph sorts edges
        at, deg = _spans(g.indptr, v)
        i, w = np.repeat(np.arange(keys.size), deg), g.indices[at]
        other = local[(keys - v)[i] + w]
        keep = (v[i] < w) & (other >= 0)
        a, b, i = sub[i[keep]], other[keep], i[keep]
        pair = np.sort((ego[i] * n + np.minimum(a, b)) * n + np.maximum(a, b))
        local[keys] = -1
        chunks.append((flat, size, np.stack([pair // n % n, pair % n], axis=1),
                       np.bincount(pair // (n * n), minlength=size.size)))
    members, sizes, edges, counts = zip(*chunks)
    return (np.concatenate(members), np.concatenate([[0], *sizes]).cumsum(),
            np.concatenate(edges), np.concatenate([[0], *counts]).cumsum())


def ego_subgraph(g: Graph, node: int, hops: int) -> tuple[np.ndarray, np.ndarray]:
    """Induced subgraph on nodes within `hops` of `node`.

    Returns (mapping, edges): mapping[k] is the original id of sub-node k,
    the ego first, then BFS level by level, ties by original id; edges are
    the induced edges (u, v), u < v, in sub-ids, sorted as a Graph sorts
    its edge list. The subgraph's features are g.features[mapping].
    """
    return _egos(g, [node], hops)[::2]


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
