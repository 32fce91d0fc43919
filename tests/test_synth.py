"""Benchmark generators, heterophily relabeling, and the planted fixture."""

import hashlib
import json

import numpy as np
import pytest

from cdgnn import synth
from cdgnn.graphs import Graph, GraphError, graph_to_dict, label_heterophily
from cdgnn.harness import dataset_hash
from cdgnn.synth import (
    FEATURE_RULES,
    PlantedShortcutConfig,
    PRESET_NAMES,
    planted_shortcut,
    preset,
    relabel_to_heterophily,
)

# Observed baseline label-heterophily targets, +/- 0.05.
PRESET_HL = {
    "tree_cycles": 0.098,
    "tree_grid": 0.055,
    "ba_shapes": 0.200,
    "ba_community": 0.264,
}

# Leading 16 hex digits of the sha256 of each block map as `cdgnn generate`
# writes it (its `.blocks.json`), and of `dataset_hash` per preset, feature
# rule and seed, taken before the presets became one recipe table.
BLOCKS_SHA = {
    "tree_cycles": "c28e228050c70417",
    "tree_grid": "5e9702e327694070",
    "ba_shapes": "c604c7785f2cc8d8",
    "ba_community": "14e8becf4aca00e7",
}
DATASET_SHA = {
    ("tree_cycles", "block_kind", 0): "98f5df35b37d8cdc",
    ("tree_cycles", "block_kind", 1): "7e5984c4065828b3",
    ("tree_cycles", "uniform_ones", 0): "c17772bfb907a28a",
    ("tree_cycles", "uniform_ones", 1): "e37d67caf42e91a3",
    ("tree_grid", "block_kind", 0): "f9927eaf9ec990c0",
    ("tree_grid", "block_kind", 1): "d4f9717e6301eae6",
    ("tree_grid", "uniform_ones", 0): "b0d80ba30d0595cc",
    ("tree_grid", "uniform_ones", 1): "6d39806518e94f4d",
    ("ba_shapes", "block_kind", 0): "c1e3a298630732f1",
    ("ba_shapes", "block_kind", 1): "3cc22a3e7856b616",
    ("ba_shapes", "uniform_ones", 0): "39b49e4ab0405c7d",
    ("ba_shapes", "uniform_ones", 1): "bdcd5214d85f69d6",
    ("ba_community", "block_kind", 0): "0b1c863702328772",
    ("ba_community", "block_kind", 1): "5b544400d5c54a79",
    ("ba_community", "uniform_ones", 0): "63eedbc29b3850b9",
    ("ba_community", "uniform_ones", 1): "a18d3a438c278874",
}

# Preset -> (nodes, edges, base nodes, motif size). Edges: the base's (a
# 510-edge tree or 5 x 295 preferential-attachment edges), the motifs'
# own, one attachment per motif, and for ba_community 392 joining edges.
SHAPES = {
    "tree_cycles": (511 + 80 * 6, 510 + 80 * 6 + 80, 511, 6),
    "tree_grid": (511 + 80 * 9, 510 + 80 * 12 + 80, 511, 9),
    "ba_shapes": (300 + 80 * 5, 1475 + 80 * 6 + 80, 300, 5),
    "ba_community": (1400, 2 * (1475 + 80 * 6 + 80) + 392, 300, 5),
}


def _path_graph(labels, num_classes=2):
    n = len(labels)
    return Graph(n, np.array([(i, i + 1) for i in range(n - 1)]),
                 np.ones((n, 2)), np.array(labels), num_classes)


class TestPinnedPresets:
    @pytest.mark.parametrize("name", PRESET_NAMES)
    @pytest.mark.parametrize("rule", FEATURE_RULES)
    def test_graph_and_blocks_match_the_pinned_hashes(self, name, rule):
        for seed in (0, 1):
            g, blocks = preset(name, seed=seed, feature_rule=rule)
            sidecar = json.dumps({str(k): v for k, v in blocks.items()})
            assert hashlib.sha256(sidecar.encode()).hexdigest()[:16] == \
                BLOCKS_SHA[name]
            assert dataset_hash(g)[:16] == DATASET_SHA[name, rule, seed]


class TestGenerate:
    def test_node_and_edge_counts(self):
        for name in PRESET_NAMES:
            nodes, edges, base, size = SHAPES[name]
            g, blocks = preset(name, seed=2)
            assert (g.num_nodes, g.num_edges) == (nodes, edges), name
            assert list(blocks) == list(range(nodes))
            parts = 2 if name == "ba_community" else 1
            np.testing.assert_array_equal(
                np.bincount(list(blocks.values())),
                np.tile([base] + [size] * 80, parts))

    def test_motif_internal_edge_counts(self):
        """Within one motif: a 6-cycle has 6 edges, a 3x3 grid 12, a
        house 6; the base keeps its own edges."""
        for name, base_edges, motif_edges in [("tree_cycles", 510, 6),
                                              ("tree_grid", 510, 12),
                                              ("ba_shapes", 1475, 6)]:
            g, blocks = preset(name, seed=2)
            block = np.array([blocks[v] for v in range(g.num_nodes)])
            ends = block[g.edges]
            inside = ends[ends[:, 0] == ends[:, 1], 0]
            np.testing.assert_array_equal(
                np.bincount(inside), [base_edges] + [motif_edges] * 80)

    def test_one_attachment_edge_per_motif(self):
        """Each motif meets the base by one edge, at its first node, and
        no other motif."""
        for name in ("tree_cycles", "tree_grid", "ba_shapes"):
            g, blocks = preset(name, seed=3)
            block = np.array([blocks[v] for v in range(g.num_nodes)])
            ends = block[g.edges]
            crossing = g.edges[ends[:, 0] != ends[:, 1]]
            assert (block[crossing[:, 0]] == 0).all()
            np.testing.assert_array_equal(np.sort(block[crossing[:, 1]]),
                                          np.arange(1, 81))
            for motif in crossing[:, 1]:
                assert blocks[int(motif) - 1] != blocks[int(motif)]

    def test_house_apex_gets_class_one(self):
        """House positions 0-1 are mid (class 2), 2-3 floor (3), 4 the apex
        (1); ba_community's second community adds 4 to every class."""
        for name, count in [("ba_shapes", 80), ("ba_community", 160)]:
            g, blocks = preset(name, seed=3)
            members = {}
            for node, block in blocks.items():
                members.setdefault(block, []).append(node)
            houses = [m for m in members.values() if len(m) == 5]
            assert len(houses) == count
            for house in houses:
                np.testing.assert_array_equal(g.labels[house] % 4,
                                              [2, 2, 3, 3, 1])

    def test_block_labels_follow_rule(self):
        for name in ("tree_cycles", "tree_grid"):
            g, blocks = preset(name, seed=1)
            for node, block in blocks.items():
                assert g.labels[node] == (0 if block == 0 else 1)

    def test_same_seed_identical(self):
        for name in PRESET_NAMES:
            a, blocks_a = preset(name, seed=9)
            b, blocks_b = preset(name, seed=9)
            assert graph_to_dict(a) == graph_to_dict(b)
            assert blocks_a == blocks_b

    def test_different_seeds_differ(self):
        for name in PRESET_NAMES:
            graphs = [graph_to_dict(preset(name, seed=s)[0]) for s in range(4)]
            assert all(graphs[i] != graphs[j]
                       for i in range(4) for j in range(i + 1, 4)), name

    def test_bad_name_or_feature_rule_rejected(self):
        with pytest.raises(GraphError, match="unknown preset 'karate_club'"):
            preset("karate_club")
        for name in PRESET_NAMES:
            with pytest.raises(GraphError,
                               match="unknown feature rule 'gaussian'"):
                preset(name, feature_rule="gaussian")


class TestPresets:
    def test_unknown_preset_rejected(self):
        with pytest.raises(GraphError, match="unknown preset"):
            preset("karate_club")

    @pytest.mark.parametrize("name", PRESET_NAMES)
    def test_baseline_heterophily_in_band(self, name):
        for seed in (0, 1):
            g, _ = preset(name, seed=seed)
            assert abs(label_heterophily(g) - PRESET_HL[name]) <= 0.05

    def test_preset_deterministic(self):
        a, _ = preset("tree_cycles", seed=4)
        b, _ = preset("tree_cycles", seed=4)
        assert graph_to_dict(a) == graph_to_dict(b)

    def test_ba_community_doubles_classes(self):
        g, _ = preset("ba_community", seed=0)
        assert g.num_classes == 8
        assert set(np.unique(g.labels)) == set(range(8))


def _networkx_ba_edges(n, m, seed):
    """The base edges as built with networkx before the in-house port."""
    nx = pytest.importorskip("networkx")
    g = nx.barabasi_albert_graph(n, m, seed=seed)
    return [tuple(sorted(e)) for e in g.edges()]


class TestBarabasiAlbert:
    @pytest.mark.parametrize("n,m", [(2, 1), (6, 5), (30, 1), (60, 3),
                                     (120, 7), (300, 5)])
    def test_edge_sets_match_networkx(self, n, m):
        for seed in (0, 1, 7, 12345, 2**31 - 2):
            got = synth._barabasi_albert_edges(n, m, seed)
            want = _networkx_ba_edges(n, m, seed)
            assert len(got) == len(set(got)) == len(want) == m * (n - m)
            assert set(got) == set(want)

    @pytest.mark.parametrize("name", ["ba_shapes", "ba_community"])
    def test_presets_match_a_networkx_built_reference(self, name, monkeypatch):
        """Seeds 0-31 are the ones perfbench/pins.json covers."""
        pytest.importorskip("networkx")
        ours = [preset(name, seed=s) for s in range(32)]
        monkeypatch.setattr(synth, "_barabasi_albert_edges", _networkx_ba_edges)
        for seed, (g, blocks) in enumerate(ours):
            ref, ref_blocks = preset(name, seed=seed)
            assert graph_to_dict(g) == graph_to_dict(ref), seed
            assert blocks == ref_blocks


class TestRelabel:
    def test_uniform_path_reaches_full_heterophily(self):
        g = _path_graph([0] * 8)
        r = relabel_to_heterophily(g, seed=0)
        assert label_heterophily(r.graph) == 1.0

    def test_already_maximal_is_fixed_point(self):
        g = _path_graph([0, 1, 0, 1])
        r = relabel_to_heterophily(g, seed=0)
        assert label_heterophily(r.graph) == 1.0

    def test_output_never_below_input(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            n = int(rng.integers(4, 20))
            labels = rng.integers(0, 3, size=n)
            g = Graph(n, np.array([(i, i + 1) for i in range(n - 1)]),
                      np.ones((n, 1)), labels, 3)
            before = label_heterophily(g)
            r = relabel_to_heterophily(g, seed=int(rng.integers(1000)))
            assert label_heterophily(r.graph) >= before - 1e-12

    def test_history_is_monotone_per_round(self):
        g, _ = preset("tree_cycles", seed=0)
        r = relabel_to_heterophily(g, seed=0)
        diffs = np.diff(r.history)
        assert (diffs >= -1e-12).all()

    def test_target_band_on_tree_cycles(self):
        g, _ = preset("tree_cycles", seed=0)
        r = relabel_to_heterophily(g, target=0.5, seed=0)
        achieved = label_heterophily(r.graph)
        assert r.reached
        assert 0.5 <= achieved <= 0.55

    def test_unreachable_target_flagged_best_effort(self):
        g = _path_graph([0, 1])
        r = relabel_to_heterophily(g, target=1.0, seed=0)
        assert r.reached  # a 2-node path can always be 2-colored

        g3 = Graph(3, np.array([[0, 1], [0, 2], [1, 2]]), np.ones((3, 1)),
                   np.zeros(3, int), 2)
        r3 = relabel_to_heterophily(g3, target=1.0, seed=0)
        assert not r3.reached  # a triangle is not 2-colorable
        assert label_heterophily(r3.graph) == pytest.approx(2.0 / 3.0)

    def test_single_class_rejected(self):
        g = Graph(2, np.array([[0, 1]]), np.ones((2, 1)), np.zeros(2, int), 1)
        with pytest.raises(GraphError, match="two classes"):
            relabel_to_heterophily(g)

    def test_topology_untouched(self):
        g, _ = preset("tree_cycles", seed=1)
        r = relabel_to_heterophily(g, target=0.4, seed=1)
        np.testing.assert_array_equal(r.graph.edges, g.edges)
        np.testing.assert_allclose(r.graph.features, g.features)


class TestPlantedShortcut:
    def test_component_structure(self):
        cfg = PlantedShortcutConfig(num_egos=10, seed=0)
        fx = planted_shortcut(cfg)
        per = 1 + cfg.causal_leaves + cfg.shortcut_size
        assert fx.graph.num_nodes == 10 * per
        assert fx.ego_nodes.shape == (10,)
        # spokes to leaves + spokes to ring + ring edges
        assert fx.graph.num_edges == 10 * (2 + 4 + 4)
        assert fx.causal_edges.shape[0] == 10 * 2
        assert fx.shortcut_edges.shape[0] == 10 * 8

    def test_causal_lookup_is_exact(self):
        """Decoding the leaves' rotation code recovers every label."""
        fx = planted_shortcut(PlantedShortcutConfig(num_egos=40, seed=1))
        g = fx.graph
        C = g.num_classes
        correct = 0
        causal = {tuple(e) for e in fx.causal_edges.tolist()}
        for ego in fx.ego_nodes:
            rotated = np.zeros(C)
            rotation = np.zeros(C)
            for nbr in g.neighbors(int(ego)):
                pair = (min(int(ego), int(nbr)), max(int(ego), int(nbr)))
                if pair in causal:
                    rotated += g.features[nbr, :C]
                    rotation += g.features[nbr, C:2 * C]
            decoded = (int(np.argmax(rotated)) - int(np.argmax(rotation))) % C
            correct += decoded == int(g.labels[ego])
        assert correct == 40

    def test_single_leaf_half_carries_no_label_information(self):
        """Either half of the rotation code alone is independent of the
        label; only the pair decodes it."""
        fx = planted_shortcut(PlantedShortcutConfig(num_egos=400, seed=5))
        g = fx.graph
        C = g.num_classes
        causal = {tuple(e) for e in fx.causal_edges.tolist()}
        rotated = []
        for ego in fx.ego_nodes:
            half = np.zeros(C)
            for nbr in g.neighbors(int(ego)):
                pair = (min(int(ego), int(nbr)), max(int(ego), int(nbr)))
                if pair in causal:
                    half += g.features[nbr, :C]
            rotated.append(int(np.argmax(half)))
        rotated = np.array(rotated)
        labels = g.labels[fx.ego_nodes]
        agree = np.mean(rotated == labels)
        # uniform rotation makes the rotated bit a coin flip per class
        assert abs(agree - 1.0 / C) < 0.1

    def test_shortcut_presence_carries_no_label_information(self):
        """The ring is attached to every ego, so presence has zero entropy
        and zero mutual information with the label."""
        fx = planted_shortcut(PlantedShortcutConfig(num_egos=50, seed=2))
        short = {tuple(e) for e in fx.shortcut_edges.tolist()}
        has_ring = []
        for ego in fx.ego_nodes:
            spokes = sum(
                (min(int(ego), int(n)), max(int(ego), int(n))) in short
                for n in fx.graph.neighbors(int(ego))
            )
            has_ring.append(spokes > 0)
        assert all(has_ring)
        presence = np.array(has_ring, dtype=int)
        labels = fx.graph.labels[fx.ego_nodes]
        # MI of a constant with anything is 0 by definition.
        joint = np.zeros((2, fx.graph.num_classes))
        for p, y in zip(presence, labels):
            joint[p, y] += 1
        joint /= joint.sum()
        px = joint.sum(axis=1, keepdims=True)
        py = joint.sum(axis=0, keepdims=True)
        nz = joint > 0
        mi = float(np.sum(joint[nz] * np.log(joint[nz] / (px @ py)[nz])))
        assert mi == pytest.approx(0.0, abs=1e-12)

    def test_shortcut_agreement_is_imperfect(self):
        fx = planted_shortcut(PlantedShortcutConfig(num_egos=200, seed=3,
                                                    shortcut_agreement=0.8))
        agree = np.mean(fx.decoy_classes == fx.graph.labels[fx.ego_nodes])
        assert 0.6 < agree < 0.95

    def test_fixed_seed_reproducible(self):
        a = planted_shortcut(PlantedShortcutConfig(seed=7))
        b = planted_shortcut(PlantedShortcutConfig(seed=7))
        assert graph_to_dict(a.graph) == graph_to_dict(b.graph)
        np.testing.assert_array_equal(a.causal_edges, b.causal_edges)
        np.testing.assert_array_equal(a.shortcut_edges, b.shortcut_edges)

    def test_invalid_config_rejected(self):
        with pytest.raises(GraphError):
            PlantedShortcutConfig(num_egos=1).validate()
        with pytest.raises(GraphError):
            PlantedShortcutConfig(shortcut_agreement=1.5).validate()
