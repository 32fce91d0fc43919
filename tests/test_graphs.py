"""Graph container and its CSR adjacency, heterophily measures, the
renormalized propagation on a whole graph, ego extraction, and JSON round
trips."""

import hashlib
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import composed
from cdgnn import autodiff as ad
from cdgnn import graphs
from cdgnn.graphs import (
    Graph,
    GraphError,
    ego_subgraph,
    feature_heterophily,
    graph_from_dict,
    graph_to_dict,
    label_heterophily,
    load_graph,
    save_graph,
)
from cdgnn.harness import dataset_hash
from cdgnn.models import build_ego_cache
from cdgnn.synth import PRESET_NAMES, preset


def _random_graph(rng, num_nodes=None, num_classes=3, dim=4):
    """Erdos-Renyi-ish fixture; may have zero edges."""
    n = num_nodes or int(rng.integers(2, 12))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    keep = rng.random(len(pairs)) < 0.4
    edges = [p for p, k in zip(pairs, keep) if k]
    return Graph(
        num_nodes=n,
        edges=np.array(edges, dtype=np.int64).reshape(-1, 2),
        features=rng.normal(size=(n, dim)),
        labels=rng.integers(0, num_classes, size=n),
        num_classes=num_classes,
    )


def _sparse_graph(rng, max_nodes=30):
    """Random graph with edge density drawn per graph, so that isolated
    nodes and several components are common."""
    n = int(rng.integers(1, max_nodes + 1))
    pairs = np.array([(u, v) for u in range(n) for v in range(u + 1, n)],
                     dtype=np.int64).reshape(-1, 2)
    keep = rng.random(pairs.shape[0]) < rng.uniform(0.02, 0.3)
    return Graph(n, pairs[keep], rng.normal(size=(n, 2)),
                 rng.integers(0, 2, size=n), 2)


def _ego_subgraph_scan(g, node, hops):
    """Reference extractor: set-based BFS, then a scan of every edge for
    the induced subgraph. Same contract as ego_subgraph."""
    seen = {node}
    order = [node]
    frontier = [node]
    for _ in range(hops):
        nxt = set()
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


def _propagate(g, signal, edge_weights=None):
    """masked_propagate over the whole graph; 1-D signals stay 1-D."""
    sig = np.asarray(signal, dtype=np.float64)
    w = None if edge_weights is None else np.reshape(edge_weights, (-1, 1))
    out = composed.masked_propagate(
        sig.reshape(sig.shape[0], -1), w,
        ad.PropagationPlan.from_edges(g.edges, g.num_nodes))
    return out.data[:, 0] if sig.ndim == 1 else out.data


def _path(labels, features=None, num_classes=2):
    n = len(labels)
    edges = [(i, i + 1) for i in range(n - 1)]
    feats = features if features is not None else np.ones((n, 2))
    return Graph(n, np.array(edges), np.asarray(feats, dtype=float),
                 np.array(labels), num_classes)


class TestGraphValidation:
    def test_self_loop_rejected(self):
        with pytest.raises(GraphError, match="self-loop"):
            Graph(2, np.array([[0, 0]]), np.ones((2, 1)), np.zeros(2, int), 1)

    def test_duplicate_edge_rejected(self):
        with pytest.raises(GraphError, match="duplicate"):
            Graph(3, np.array([[0, 1], [0, 1]]), np.ones((3, 1)),
                  np.zeros(3, int), 1)

    def test_reversed_duplicate_rejected(self):
        with pytest.raises(GraphError, match="duplicate"):
            Graph(3, np.array([[0, 1], [1, 0]]), np.ones((3, 1)),
                  np.zeros(3, int), 1)

    def test_endpoint_out_of_range_rejected(self):
        with pytest.raises(GraphError, match="outside"):
            Graph(2, np.array([[0, 5]]), np.ones((2, 1)), np.zeros(2, int), 1)

    def test_label_out_of_range_rejected(self):
        with pytest.raises(GraphError, match="label"):
            Graph(2, np.array([[0, 1]]), np.ones((2, 1)), np.array([0, 7]), 2)

    def test_feature_row_count_must_match(self):
        with pytest.raises(GraphError, match="features"):
            Graph(3, np.array([[0, 1]]), np.ones((2, 1)), np.zeros(3, int), 1)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_feature_rejected_by_row(self, bad):
        with pytest.raises(GraphError, match="feature row 1 "):
            Graph(3, [[0, 1]], [[1.0], [bad], [bad]], [0, 1, 0], 2)

    def test_degrees_and_neighbors(self):
        g = _path([0, 1, 0])
        assert g.degrees.tolist() == [1, 2, 1]
        assert g.neighbors(1).tolist() == [0, 2]

    def test_csr_matches_sorted_neighbour_lists(self):
        rng = np.random.default_rng(29)
        for _ in range(50):
            g = _sparse_graph(rng)
            lists = [[] for _ in range(g.num_nodes)]
            for u, v in g.edges:
                lists[u].append(int(v))
                lists[v].append(int(u))
            assert g.indptr.tolist() == np.cumsum(
                [0] + [len(a) for a in lists]).tolist()
            assert g.indices.tolist() == [w for a in lists for w in sorted(a)]
            for node in range(g.num_nodes):
                assert g.neighbors(node).tolist() == sorted(lists[node])
            assert g.degrees.tolist() == [len(a) for a in lists]

    def test_neighbors_are_read_only(self):
        g = _path([0, 1, 0])
        with pytest.raises(ValueError, match="read-only"):
            g.neighbors(0)[0] = 2
        with pytest.raises(ValueError, match="read-only"):
            g.indptr[1] = 0


class TestLabelHeterophily:
    def test_uniform_labels_zero(self):
        g = _path([0, 0, 0, 0])
        assert label_heterophily(g) == 0.0

    def test_single_mismatched_edge_one(self):
        g = _path([0, 1])
        assert label_heterophily(g) == 1.0

    def test_triangle_two_thirds(self):
        g = Graph(3, np.array([[0, 1], [0, 2], [1, 2]]), np.ones((3, 1)),
                  np.array([0, 0, 1]), 2)
        assert label_heterophily(g) == pytest.approx(2.0 / 3.0)

    def test_no_edges_rejected(self):
        g = Graph(2, np.zeros((0, 2), int), np.ones((2, 1)),
                  np.zeros(2, int), 1)
        with pytest.raises(GraphError, match="no edges"):
            label_heterophily(g)

    def test_matches_bruteforce_on_random_graphs(self):
        rng = np.random.default_rng(7)
        checked = 0
        while checked < 200:
            g = _random_graph(rng)
            if g.num_edges == 0:
                continue
            brute = sum(
                1 for u, v in g.edges if g.labels[u] != g.labels[v]
            ) / g.num_edges
            assert label_heterophily(g) == pytest.approx(brute)
            checked += 1


class TestFeatureHeterophily:
    def test_identical_nonzero_features_zero(self):
        g = _path([0, 1], features=np.full((2, 3), 2.0))
        assert feature_heterophily(g) == pytest.approx(0.0)

    def test_orthogonal_features_one(self):
        g = _path([0, 1], features=np.array([[1.0, 0.0], [0.0, 1.0]]))
        assert feature_heterophily(g) == pytest.approx(1.0)

    def test_hand_cosine_case(self):
        g = _path([0, 1], features=np.array([[1.0, 0.0], [1.0, 1.0]]))
        assert feature_heterophily(g) == pytest.approx(1.0 - math.sqrt(2) / 2)

    def test_zero_vector_endpoint_maximally_dissimilar(self):
        g = _path([0, 1], features=np.array([[0.0, 0.0], [1.0, 1.0]]))
        assert feature_heterophily(g) == pytest.approx(1.0)

    def test_matches_bruteforce_on_random_graphs(self):
        rng = np.random.default_rng(11)
        checked = 0
        while checked < 200:
            g = _random_graph(rng)
            if g.num_edges == 0:
                continue
            vals = []
            for u, v in g.edges:
                a, b = g.features[u], g.features[v]
                na, nb = np.linalg.norm(a), np.linalg.norm(b)
                if na < 1e-12 or nb < 1e-12:
                    vals.append(1.0)
                else:
                    vals.append(min(1.0, max(0.0, 1.0 - a @ b / (na * nb))))
            assert feature_heterophily(g) == pytest.approx(np.mean(vals))
            checked += 1

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_permutation_invariance(self, seed):
        """Relabeling node ids moves rows around but not either measure."""
        rng = np.random.default_rng(seed)
        g = _random_graph(rng)
        if g.num_edges == 0:
            return
        perm = rng.permutation(g.num_nodes)
        inv = np.argsort(perm)
        permuted = Graph(
            g.num_nodes,
            perm[g.edges],
            g.features[inv],
            g.labels[inv],
            g.num_classes,
        )
        assert label_heterophily(permuted) == pytest.approx(label_heterophily(g))
        assert feature_heterophily(permuted) == pytest.approx(feature_heterophily(g))


class TestRenormalizedPropagate:
    """composed.masked_propagate on the plan of a whole graph."""

    def test_isolated_node_keeps_its_signal(self):
        g = Graph(3, np.array([[0, 1]]), np.ones((3, 1)),
                  np.zeros(3, int), 1)
        out = _propagate(g, np.array([1.0, 3.0, 7.0]))
        assert out[2] == 7.0

    def test_two_node_edge_averages(self):
        g = _path([0, 0])
        out = _propagate(g, np.array([4.0, 10.0]))
        np.testing.assert_allclose(out, [7.0, 7.0])

    def test_star_hand_case(self):
        """Degree-3 center with signal (1,0,0,0): center 1/4, leaves 1/2."""
        g = Graph(4, np.array([[0, 1], [0, 2], [0, 3]]), np.ones((4, 1)),
                  np.zeros(4, int), 1)
        out = _propagate(g, np.array([1.0, 0.0, 0.0, 0.0]))
        np.testing.assert_allclose(out, [0.25, 0.5, 0.5, 0.5])

    def test_preserves_constant_vector(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            g = _random_graph(rng)
            out = _propagate(g, np.ones(g.num_nodes))
            np.testing.assert_allclose(out, 1.0)

    def test_linear_in_signal(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            g = _random_graph(rng)
            f = rng.normal(size=(g.num_nodes, 3))
            h = rng.normal(size=(g.num_nodes, 3))
            alpha = float(rng.normal())
            lhs = _propagate(g, alpha * f + h)
            rhs = alpha * _propagate(g, f) + _propagate(g, h)
            np.testing.assert_allclose(lhs, rhs, atol=1e-12)

    def test_edge_weights_scale_neighbor_terms(self):
        g = _path([0, 0])
        out = _propagate(g, np.array([4.0, 10.0]),
                         edge_weights=np.array([0.5]))
        np.testing.assert_allclose(out, [(4 + 5) / 2, (10 + 2) / 2])

    def test_signal_row_mismatch_rejected(self):
        g = _path([0, 0])
        with pytest.raises(ValueError, match="rows"):
            _propagate(g, np.ones(5))


class TestEgoSubgraph:
    def test_isolated_node(self):
        g = Graph(3, np.array([[1, 2]]), np.ones((3, 1)), np.zeros(3, int), 1)
        mapping, edges = ego_subgraph(g, 0, hops=2)
        assert mapping.tolist() == [0]
        assert edges.shape == (0, 2)

    def test_path_one_hop(self):
        g = _path([0, 0, 0, 0])
        mapping, edges = ego_subgraph(g, 0, hops=1)
        assert mapping.tolist() == [0, 1]
        assert edges.tolist() == [[0, 1]]

    def test_ego_is_index_zero(self):
        g = _path([0, 0, 0, 0])
        mapping, _ = ego_subgraph(g, 2, hops=1)
        assert mapping[0] == 2
        np.testing.assert_array_equal(g.features[mapping][0], g.features[2])

    def test_full_reach_recovers_component(self):
        g = _path([0, 0, 0, 0])
        mapping, edges = ego_subgraph(g, 0, hops=10)
        assert mapping.shape[0] == 4 and edges.shape[0] == 3

    def test_edges_subset_and_nodes_within_hops(self):
        """BFS oracle: every kept node is reachable within the hop budget
        and every subgraph edge maps back to an original edge."""
        rng = np.random.default_rng(17)
        for _ in range(50):
            g = _random_graph(rng)
            node = int(rng.integers(g.num_nodes))
            hops = int(rng.integers(1, 4))
            mapping, edges = ego_subgraph(g, node, hops)

            dist = {node: 0}
            frontier = [node]
            for level in range(1, hops + 1):
                nxt = []
                for u in frontier:
                    for w in g.neighbors(u):
                        w = int(w)
                        if w not in dist:
                            dist[w] = level
                            nxt.append(w)
                frontier = nxt
            assert set(mapping.tolist()) == set(dist)

            original = {(int(u), int(v)) for u, v in g.edges}
            for u, v in edges:
                a, b = int(mapping[u]), int(mapping[v])
                assert (min(a, b), max(a, b)) in original

    def test_matches_scan_oracle(self):
        """Bitwise the set-BFS plus edge-scan extractor, over isolated egos,
        several components, hops 1-3 and hops beyond the diameter."""
        rng = np.random.default_rng(31)
        isolated = split = 0
        for _ in range(50):
            g = _sparse_graph(rng)
            node = int(rng.integers(g.num_nodes))
            for hops in (1, 2, 3, g.num_nodes + 1):
                mapping, edges = ego_subgraph(g, node, hops)
                want, want_map = _ego_subgraph_scan(g, node, hops)
                np.testing.assert_array_equal(mapping, want_map)
                np.testing.assert_array_equal(edges, want.edges)
                np.testing.assert_array_equal(g.features[mapping], want.features)
                np.testing.assert_array_equal(g.labels[mapping], want.labels)
            # after the loop, mapping is the ego's whole component
            isolated += g.degrees[node] == 0
            split += 1 < mapping.shape[0] < g.num_nodes
        assert isolated and split

    def test_full_cache_on_ten_thousand_nodes(self):
        """The 2-hop cache of every node of a 10k-node graph (a binary tree
        with 320 six-cycles hung on random nodes); 20 egos are checked
        against the scan oracle."""
        tree, cycles = 8191, 320
        n = tree + 6 * cycles
        edges = [(i, c) for i in range(tree) for c in (2 * i + 1, 2 * i + 2)
                 if c < tree]
        anchors = np.random.default_rng(1).integers(0, tree, size=cycles)
        for k, anchor in enumerate(anchors):
            first = tree + 6 * k
            edges += [(first + i, first + (i + 1) % 6) for i in range(6)]
            edges.append((int(anchor), first))
        g = Graph(n, np.array(edges), np.ones((n, 2)),
                  (np.arange(n) >= tree).astype(np.int64), 2)
        assert g.num_nodes >= 10_000
        cache = composed.held_egos(build_ego_cache(g, 2, np.arange(g.num_nodes)))
        assert len(cache) == g.num_nodes
        rng = np.random.default_rng(37)
        for node in rng.choice(g.num_nodes, size=20, replace=False):
            sub, mapping = _ego_subgraph_scan(g, int(node), 2)
            np.testing.assert_array_equal(cache[node][0], mapping)
            np.testing.assert_array_equal(cache[node][1], sub.edges)

    def test_table_of_many_egos_matches_scan_oracle(self):
        """build_ego_cache extracts all egos of a graph at once, or any
        subset given in any order with repeats, each bitwise the scan
        oracle's, over isolated nodes, several components, hops 1-3 and
        hops beyond the diameter."""
        rng = np.random.default_rng(43)
        isolated = split = 0
        for _ in range(40):
            g = _sparse_graph(rng)
            every = np.arange(g.num_nodes)
            subset = rng.choice(every, size=int(rng.integers(1, 2 * g.num_nodes)))
            for nodes in (every, subset):
                for hops in (1, 2, 3, g.num_nodes + 1):
                    table = build_ego_cache(g, hops, nodes)
                    held = composed.held_egos(table)
                    assert list(held) == sorted(set(nodes.tolist()))
                    assert table.members.dtype == table.edges.dtype == np.int64
                    for node, (mapping, edges) in held.items():
                        want, want_map = _ego_subgraph_scan(g, node, hops)
                        np.testing.assert_array_equal(mapping, want_map)
                        np.testing.assert_array_equal(edges, want.edges)
                        assert edges.shape == want.edges.shape
            isolated += (g.degrees == 0).any()
            split += any(1 < m.shape[0] < g.num_nodes for m, _ in held.values())
        assert isolated and split

    def test_table_spans_chunks(self, monkeypatch):
        """Egos extracted a few per chunk are those extracted in one."""
        g = preset("ba_shapes", seed=0)[0]
        nodes = np.random.default_rng(5).choice(g.num_nodes, 300)
        whole = build_ego_cache(g, 2, nodes)
        monkeypatch.setattr(graphs, "_TABLE_ENTRIES", 7 * g.num_nodes)
        chunked = build_ego_cache(g, 2, nodes)
        for a, b in zip(vars(whole).values(), vars(chunked).values()):
            np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("hops", [0, -1, 1.5, True, "2", None, float("nan")])
    def test_hops_not_a_whole_number_of_at_least_one_are_refused(self, hops):
        g = _path([0, 0, 0])
        for extract in (lambda: ego_subgraph(g, 0, hops),
                        lambda: build_ego_cache(g, hops, [0, 1])):
            with pytest.raises(GraphError,
                               match=r"hops must be a whole number >= 1, got "):
                extract()

    def test_whole_float_hops_are_hops(self):
        g = _path([0, 0, 0, 0])
        for got, want in zip(ego_subgraph(g, 0, 2.0), ego_subgraph(g, 0, 2)):
            np.testing.assert_array_equal(got, want)


class TestJsonRoundTrip:
    def test_round_trip_preserves_graph(self, tmp_path):
        rng = np.random.default_rng(19)
        g = _random_graph(rng)
        d = graph_to_dict(g)
        back = graph_from_dict(d)
        assert back.num_nodes == g.num_nodes
        assert back.num_classes == g.num_classes
        np.testing.assert_array_equal(back.edges, g.edges)
        np.testing.assert_allclose(back.features, g.features)
        np.testing.assert_array_equal(back.labels, g.labels)

    @pytest.mark.parametrize("name", PRESET_NAMES)
    def test_preset_file_and_hash_match_python_encoder(self, name, tmp_path):
        # Reference: the per-row edge loop and json.dump's pure-Python
        # encoder, which save_graph and graph_to_dict used to run.
        g, _ = preset(name, seed=0)
        reference = {
            "num_nodes": g.num_nodes,
            "num_classes": g.num_classes,
            "edges": [[int(u), int(v)] for u, v in g.edges],
            "features": g.features.tolist(),
            "labels": g.labels.tolist(),
        }
        ref_path = tmp_path / "reference.json"
        with open(ref_path, "w", encoding="utf-8") as fh:
            json.dump(reference, fh)
        path = tmp_path / "graph.json"
        save_graph(g, path)
        assert path.read_bytes() == ref_path.read_bytes()
        payload = json.dumps(reference, sort_keys=True).encode()
        assert dataset_hash(g) == hashlib.sha256(payload).hexdigest()
        back = load_graph(path)
        assert (back.num_nodes, back.num_classes) == (g.num_nodes,
                                                      g.num_classes)
        np.testing.assert_array_equal(back.edges, g.edges)
        np.testing.assert_array_equal(back.features, g.features)
        np.testing.assert_array_equal(back.labels, g.labels)

    def test_dict_has_spec_keys(self):
        g = _path([0, 1])
        d = graph_to_dict(g)
        assert set(d) == {"num_nodes", "num_classes", "edges", "features",
                          "labels"}

    def test_missing_key_rejected(self):
        g = _path([0, 1])
        d = graph_to_dict(g)
        del d["labels"]
        with pytest.raises(GraphError, match="missing"):
            graph_from_dict(d)

    @pytest.mark.parametrize("key, value, named", [
        ("edges", [[0, 1], [0.4, 1.6]], "edge 1 is [0.4, 1.6]"),
        ("edges", [[0, 1, 2], [1, 2, 0]], "edge 0 is [0, 1, 2]"),
        ("edges", [[0, True]], "edge 0 is [0, True]"),
        ("edges", [0, 1], "edge 0 is 0"),
        ("labels", [0.9, 1.2, 0], "label 0 is 0.9"),
        ("labels", [True, False, "1"], "label 0 is True"),
        ("labels", [0, 1, "1"], "label 2 is '1'"),
        ("num_nodes", 3.9, "num_nodes is 3.9"),
        ("num_nodes", "3", "num_nodes is '3'"),
        ("num_classes", True, "num_classes is True"),
    ])
    def test_non_integral_ids_and_counts_refused(self, key, value, named):
        """Ids and counts are whole numbers, not truncated floats, bools or
        strings, and each edge is one [u, v] pair; the first bad entry is
        named."""
        d = {"num_nodes": 3, "num_classes": 2, "edges": [[0, 1], [1, 2]],
             "features": [[1.0], [2.0], [3.0]], "labels": [0, 1, 0],
             key: value}
        with pytest.raises(GraphError) as info:
            graph_from_dict(d)
        assert named in str(info.value)

    def test_integral_floats_load_as_ids(self):
        g = graph_from_dict({"num_nodes": 3.0, "num_classes": 2,
                             "edges": [[0, 1.0]], "features": [[1.0]] * 3,
                             "labels": [0, 1.0, 0]})
        assert g.num_nodes == 3
        assert g.edges.tolist() == [[0, 1]] and g.labels.tolist() == [0, 1, 0]

    def test_ragged_features_rejected_by_row(self):
        d = {
            "num_nodes": 2,
            "num_classes": 1,
            "edges": [[0, 1]],
            "features": [[1.0, 2.0], [1.0]],
            "labels": [0, 0],
        }
        with pytest.raises(GraphError, match="row 1"):
            graph_from_dict(d)

    @pytest.mark.parametrize("features, named", [
        ([["1.5", True], [2, 3]], "feature row 0 column 0 is '1.5'"),
        ([[1.5, True], [2, 3]], "feature row 0 column 1 is True"),
        ([[1.5, 2.0], [None, 3]], "feature row 1 column 0 is None"),
        ([[1.5, [2.0, 3.0]], [2, 3]], "feature row 0 column 1 is [2.0, 3.0]"),
    ], ids=["string", "bool", "null", "list"])
    def test_non_numeric_feature_refused_by_row_and_column(self, features,
                                                           named):
        """A feature value is a number: a string, a bool, a null or a list
        is refused, naming the first one, not converted or misreported."""
        d = {"num_nodes": 2, "num_classes": 2, "edges": [[0, 1]],
             "features": features, "labels": [0, 1]}
        with pytest.raises(GraphError) as info:
            graph_from_dict(d)
        assert named in str(info.value)
