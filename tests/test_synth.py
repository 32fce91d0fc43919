"""Benchmark generators, heterophily relabeling, and the planted fixture."""

import numpy as np
import pytest

from cdgnn import synth
from cdgnn.graphs import Graph, GraphError, graph_to_dict, label_heterophily
from cdgnn.synth import (
    GenConfig,
    MotifSpec,
    PlantedShortcutConfig,
    PRESET_NAMES,
    generate,
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


def _path_graph(labels, num_classes=2):
    n = len(labels)
    return Graph(n, np.array([(i, i + 1) for i in range(n - 1)]),
                 np.ones((n, 2)), np.array(labels), num_classes)


class TestGenerate:
    def test_tree_plus_one_cycle_counts(self):
        """8-node tree (7 edges) + 6-cycle (6 edges) + 1 attachment edge."""
        cfg = GenConfig("tree", 8, MotifSpec("cycle", cycle_length=6), 1, seed=0)
        g, blocks = generate(cfg)
        assert g.num_nodes == 14
        assert g.num_edges == 7 + 6 + 1
        assert sorted(set(blocks.values())) == [0, 1]
        assert sum(1 for b in blocks.values() if b == 1) == 6

    def test_motif_internal_edge_counts(self):
        for spec, expected in [
            (MotifSpec("cycle", cycle_length=5), 5),
            (MotifSpec("house"), 6),
            (MotifSpec("grid", grid_rows=3, grid_cols=3), 12),
        ]:
            assert len(spec.internal_edges()) == expected

    def test_house_apex_gets_class_one(self):
        cfg = GenConfig("barabasi_albert", 30,
                        MotifSpec("house", labeling={4: 1, 0: 2, 1: 2, 2: 3, 3: 3}),
                        4, seed=3)
        g, blocks = generate(cfg)
        for motif_id in range(1, 5):
            members = sorted(n for n, b in blocks.items() if b == motif_id)
            apex = members[4]
            assert g.labels[apex] == 1

    def test_block_labels_follow_rule(self):
        cfg = GenConfig("tree", 8, MotifSpec("cycle", cycle_length=6, labeling=1),
                        2, seed=1)
        g, blocks = generate(cfg)
        for node, block in blocks.items():
            assert g.labels[node] == (0 if block == 0 else 1)

    def test_same_seed_identical(self):
        cfg = GenConfig("tree", 64, MotifSpec("cycle", cycle_length=6), 5, seed=9)
        a, blocks_a = generate(cfg)
        b, blocks_b = generate(cfg)
        assert graph_to_dict(a) == graph_to_dict(b)
        assert blocks_a == blocks_b

    def test_different_seeds_differ(self):
        base = GenConfig("tree", 64, MotifSpec("cycle", cycle_length=6), 5)
        different = 0
        for s in range(10):
            a, _ = generate(GenConfig(**{**base.__dict__, "seed": s}))
            b, _ = generate(GenConfig(**{**base.__dict__, "seed": s + 100}))
            if graph_to_dict(a) != graph_to_dict(b):
                different += 1
        assert different >= 9

    def test_invalid_config_rejected(self):
        with pytest.raises(GraphError):
            GenConfig("hypercube", 8, MotifSpec("cycle"), 1).validate()
        with pytest.raises(GraphError):
            GenConfig("tree", 8, MotifSpec("cycle"), 0).validate()
        for attach in (0, -1, 8):
            with pytest.raises(GraphError, match="ba_attach_edges"):
                GenConfig("barabasi_albert", 8, MotifSpec("cycle"), 1,
                          ba_attach_edges=attach).validate()


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
        r3 = relabel_to_heterophily(g3, target=1.0, seed=0, max_stale_rounds=3)
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
