"""Synthetic benchmark graphs: the four motif-on-base presets, heterophily
relabeling, and a planted-shortcut fixture.

The presets are GNNExplainer's fixed recipes (Ying et al., NeurIPS 2019):
small labeled motifs (cycles, grids, houses) attached to a tree or
preferential-attachment base. Labels follow the block structure, so the
graphs are strongly homophilous; the greedy relabeler then pushes label
heterophily up to a requested level without touching the topology.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

import numpy as np

from .graphs import Graph, GraphError, label_heterophily

__all__ = [
    "preset",
    "PRESET_NAMES",
    "FEATURE_RULES",
    "RelabelResult",
    "relabel_to_heterophily",
    "PlantedShortcut",
    "planted_shortcut",
]

PRESET_NAMES = ("tree_cycles", "tree_grid", "ba_shapes", "ba_community")
FEATURE_RULES = ("block_kind", "uniform_ones")

# Motifs per graph and edges each new preferential-attachment node brings;
# feature width, base-node label and the "block_kind" contrast added to a
# motif node's feature 0; ba_community's share of cross-community node
# pairs joined by an edge and its second community's feature offset.
MOTIF_COUNT = 80
BA_ATTACH_EDGES = 5
FEATURE_DIM = 10
BASE_LABEL = 0
FEATURE_CONTRAST = 1.0
INTER_DENSITY = 8e-4
COMMUNITY_FEATURE_OFFSET = 2.0

# The planted fixture's decoy ring: its node count, the share of egos whose
# decoy class is their label, and the decoy one-hot's magnitude, drawn
# uniformly within SHORTCUT_JITTER of SHORTCUT_MAGNITUDE per ring node.
SHORTCUT_SIZE = 4
SHORTCUT_AGREEMENT = 0.8
SHORTCUT_MAGNITUDE = 3.0
SHORTCUT_JITTER = 0.5

# Preset -> (base kind, base size, motif edges, class of each motif
# position). The grid is 3x3 in row-major order; house positions 0-1 are
# the mid nodes (class 2), 2-3 the floor (class 3) and 4 the apex (class 1).
_RECIPES = {
    "tree_cycles": ("tree", 511,
                    ((0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)),
                    (1,) * 6),
    "tree_grid": ("tree", 511,
                  ((0, 1), (0, 3), (1, 2), (1, 4), (2, 5), (3, 4), (3, 6),
                   (4, 5), (4, 7), (5, 8), (6, 7), (7, 8)), (1,) * 9),
    "ba_shapes": ("barabasi_albert", 300,
                  ((0, 1), (1, 2), (2, 3), (3, 0), (4, 0), (4, 1)),
                  (2, 2, 3, 3, 1)),
}


def _tree_edges(n: int) -> list[tuple[int, int]]:
    """Balanced binary tree on nodes 0..n-1 (children of i are 2i+1, 2i+2)."""
    edges = []
    for i in range(n):
        for child in (2 * i + 1, 2 * i + 2):
            if child < n:
                edges.append((i, child))
    return edges


def _barabasi_albert_edges(n: int, m: int, seed: int) -> list[tuple[int, int]]:
    """Preferential attachment on nodes 0..n-1: from a star on 0..m, each
    new node joins m distinct earlier nodes drawn in proportion to degree.

    The draws follow networkx's `barabasi_albert_graph(n, m, seed)` call
    for call, so the edge set is the one networkx 3.6.1 gives.
    """
    draw = random.Random(seed).choice
    edges = [(0, v) for v in range(1, m + 1)]
    repeated = [0] * m + list(range(1, m + 1))  # a node per edge end
    for source in range(m + 1, n):
        targets = set()
        while len(targets) < m:
            targets.add(draw(repeated))
        edges.extend((t, source) for t in targets)
        repeated.extend(targets)
        repeated.extend([source] * m)
    return edges


def _motif_on_base(recipe: tuple, feature_rule: str,
                   seed: int) -> tuple[Graph, dict[int, int]]:
    """Build one recipe's graph: the base, then MOTIF_COUNT motifs, each
    joined by one edge from its position 0 to a base node drawn uniformly.

    Returns (graph, blocks) where blocks maps each node to its block id:
    0 for the base, k >= 1 for the k-th motif instance.
    """
    base_kind, base_size, motif_edges, motif_labels = recipe
    rng = np.random.default_rng(seed)
    if base_kind == "tree":
        edges = _tree_edges(base_size)
    else:
        ba_seed = int(rng.integers(0, 2**31 - 1))
        edges = _barabasi_albert_edges(base_size, BA_ATTACH_EDGES, ba_seed)
    size = len(motif_labels)
    blocks = dict.fromkeys(range(base_size), 0)
    for k in range(MOTIF_COUNT):
        offset = base_size + k * size
        edges.extend((offset + u, offset + v) for u, v in motif_edges)
        edges.append((int(rng.integers(0, base_size)), offset))
        blocks.update(dict.fromkeys(range(offset, offset + size), k + 1))

    n = base_size + MOTIF_COUNT * size
    features = np.ones((n, FEATURE_DIM), dtype=np.float64)
    if feature_rule == "block_kind":
        features[base_size:, 0] += FEATURE_CONTRAST
    labels = np.array([BASE_LABEL] * base_size
                      + list(motif_labels) * MOTIF_COUNT, dtype=np.int64)
    g = Graph(
        num_nodes=n,
        edges=np.array(edges, dtype=np.int64),
        features=features,
        labels=labels,
        num_classes=int(labels.max()) + 1,
    )
    return g, blocks


def _merge_communities(parts: list[tuple[Graph, dict[int, int]]],
                       rng: np.random.Generator) -> tuple[Graph, dict[int, int]]:
    g0, b0 = parts[0]
    g1, b1 = parts[1]
    n0, n1 = g0.num_nodes, g1.num_nodes
    edges = [tuple(e) for e in g0.edges]
    edges += [(int(u) + n0, int(v) + n0) for u, v in g1.edges]
    num_inter = int(round(INTER_DENSITY * n0 * n1))
    if num_inter > 0:
        flat = rng.choice(n0 * n1, size=num_inter, replace=False)
        for f in np.sort(flat):
            edges.append((int(f) // n1, n0 + int(f) % n1))
    features = np.vstack([g0.features, g1.features + COMMUNITY_FEATURE_OFFSET])
    labels = np.concatenate([g0.labels, g1.labels + g0.num_classes])
    blocks = dict(b0)
    shift = max(b0.values()) + 1
    for v, b in b1.items():
        blocks[v + n0] = b + shift
    g = Graph(
        num_nodes=n0 + n1,
        edges=np.array(edges, dtype=np.int64),
        features=features,
        labels=labels,
        num_classes=g0.num_classes + g1.num_classes,
    )
    return g, blocks


def preset(name: str, seed: int = 0,
           feature_rule: str = "block_kind") -> tuple[Graph, dict[int, int]]:
    """Named benchmark graphs, each with 80 motifs.

    tree_cycles: depth-8 binary tree base (511 nodes) + six-node cycles.
    tree_grid:   same base + 3x3 grids.
    ba_shapes:   300-node preferential-attachment base + five-node houses
                 (apex class 1, mid class 2, floor class 3, base class 0).
    ba_community: two ba_shapes communities, class ids offset by 4, features
                 offset per community, joined by sparse random edges.

    feature_rule "block_kind" adds FEATURE_CONTRAST to feature 0 of every
    motif node; "uniform_ones" leaves all features at 1. Returns (graph,
    blocks) where blocks maps each node to its block id: 0 for a base,
    k >= 1 for the k-th motif instance.
    """
    seeds = [int(child.generate_state(1)[0])
             for child in np.random.SeedSequence(seed).spawn(3)]
    if name not in PRESET_NAMES:
        raise GraphError(f"unknown preset {name!r}; expected one of {PRESET_NAMES}")
    if feature_rule not in FEATURE_RULES:
        raise GraphError(f"unknown feature rule {feature_rule!r}")
    if name != "ba_community":
        return _motif_on_base(_RECIPES[name], feature_rule, seeds[0])
    parts = [_motif_on_base(_RECIPES["ba_shapes"], feature_rule, s)
             for s in seeds[:2]]
    return _merge_communities(parts, np.random.default_rng(seeds[2]))


@dataclass
class RelabelResult:
    graph: Graph
    reached: bool
    rounds: int
    history: list[float]


# Rounds without an increase after which an untargeted sweep stops.
MAX_STALE_ROUNDS = 50


def relabel_to_heterophily(g: Graph, target: float | None = None,
                           seed: int = 0) -> RelabelResult:
    """Greedily reassign labels to raise label heterophily.

    Each round visits nodes in a seeded random order and gives every node the
    class that currently agrees with the fewest of its neighbors (ties to the
    lowest class id). Each reassignment is individually non-decreasing in the
    mismatched-edge count, so per-round heterophily is monotone. With a
    target, the sweep stops as soon as the running heterophily reaches it;
    without one, it stops after MAX_STALE_ROUNDS rounds with no increase.
    Returns the relabeled graph plus a flag saying whether the target was met
    (best effort otherwise).
    """
    if g.num_edges == 0:
        raise GraphError("relabeling needs at least one edge")
    if g.num_classes < 2:
        raise GraphError("relabeling needs at least two classes")
    if target is not None and not 0.0 <= target <= 1.0:
        raise GraphError(f"target heterophily must be in [0, 1], got {target}")

    rng = np.random.default_rng(seed)
    labels = g.labels.copy()
    num_edges = g.num_edges
    u, v = g.edges[:, 0], g.edges[:, 1]
    mismatches = int(np.sum(labels[u] != labels[v]))
    history: list[float] = []
    best = mismatches
    stale = 0
    rounds = 0

    def done(m: int) -> bool:
        return target is not None and m / num_edges >= target - 1e-12

    if done(mismatches):
        return RelabelResult(g.with_labels(labels), True, 0, [mismatches / num_edges])

    while True:
        rounds += 1
        for node in rng.permutation(g.num_nodes):
            nbrs = g.neighbors(int(node))
            if nbrs.size == 0:
                continue
            counts = np.bincount(labels[nbrs], minlength=g.num_classes)
            new = int(np.argmin(counts))
            old = int(labels[node])
            if new != old:
                mismatches += int(counts[old]) - int(counts[new])
                labels[node] = new
            if done(mismatches):
                history.append(mismatches / num_edges)
                return RelabelResult(g.with_labels(labels), True, rounds, history)
        history.append(mismatches / num_edges)
        if mismatches > best:
            best = mismatches
            stale = 0
        else:
            stale += 1
        if stale >= MAX_STALE_ROUNDS:
            return RelabelResult(g.with_labels(labels), target is None,
                                 rounds, history)


@dataclass
class PlantedShortcut:
    graph: Graph
    ego_nodes: np.ndarray
    causal_edges: np.ndarray
    shortcut_edges: np.ndarray
    decoy_classes: np.ndarray


def planted_shortcut(num_egos: int = 60, num_classes: int = 2,
                     seed: int = 0) -> PlantedShortcut:
    """Fixture with a perfectly predictive causal pattern and a louder decoy.

    Every classified node sits in its own small component. The causal
    pattern is a two-part rotation code spread over two pendant leaves: the
    first carries a unit one-hot of the rotated class (label + rotation mod
    C, dims [0, C)), the second a unit one-hot of the rotation itself (dims
    [C, 2C)). Neither leaf alone says anything about the label; together
    they determine it exactly, so a lookup classifier on the pair is exact
    while a linear reader learns nothing fast. A ring of SHORTCUT_SIZE
    nodes, present on 100% of components so its presence carries no label
    information, broadcasts a high-magnitude one-hot of a decoy class in
    the same dims [0, C) as the rotated-class code. The decoy agrees with
    the label only SHORTCUT_AGREEMENT of the time, yet it is the loudest
    and the only linearly readable signal, and it buries the quiet
    rotated-class bit for any reader that cannot drop the ring edges.
    """
    if num_egos < 2:
        raise GraphError("num_egos must be >= 2")
    if num_classes < 2:
        raise GraphError("num_classes must be >= 2")
    rng = np.random.default_rng(seed)
    C = num_classes
    per = 3 + SHORTCUT_SIZE  # ego, two leaves, ring
    reps = math.ceil(num_egos / C)
    y = rng.permutation(np.tile(np.arange(C), reps)[:num_egos])
    flip = rng.random(num_egos) >= SHORTCUT_AGREEMENT
    shift = rng.integers(1, C, size=num_egos)
    z = np.where(flip, (y + shift) % C, y)
    rot = rng.integers(0, C, size=num_egos)

    # Dims: rotated class or decoy, rotation, ego flag, constant.
    egos = np.arange(num_egos, dtype=np.int64) * per
    ring = np.arange(3, per)
    features = np.zeros((num_egos * per, 2 * C + 2), dtype=np.float64)
    features[:, 2 * C + 1] = 1.0
    features[egos, 2 * C] = 1.0
    features[egos + 1, (y + rot) % C] = 1.0
    features[egos + 2, C + rot] = 1.0
    features[egos[:, None] + ring, z[:, None]] = (
        SHORTCUT_MAGNITUDE
        + SHORTCUT_JITTER * (2.0 * rng.random((num_egos, SHORTCUT_SIZE)) - 1.0))

    # One component's edges by position, offset to every ego: the two
    # causal spokes, then the ring's spokes and its cycle.
    causal = np.array([(0, 1), (0, 2)])
    spokes = np.stack([np.zeros_like(ring), ring], axis=1)
    cycle = np.sort(np.stack([ring, np.roll(ring, -1)], axis=1), axis=1)
    shortcut = np.vstack([spokes, cycle])
    offsets = egos[:, None, None]
    g = Graph(
        num_nodes=num_egos * per,
        edges=(offsets + np.vstack([causal, shortcut])).reshape(-1, 2),
        features=features,
        labels=np.repeat(y, per),
        num_classes=C,
    )
    return PlantedShortcut(
        graph=g,
        ego_nodes=egos,
        causal_edges=(offsets + causal).reshape(-1, 2),
        shortcut_edges=(offsets + np.unique(shortcut, axis=0)).reshape(-1, 2),
        decoy_classes=z,
    )
