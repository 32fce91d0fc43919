"""Ego batching, the masked GCN forward, the readout and the softmax head."""

import numpy as np
import pytest

import composed
from cdgnn import autodiff as ad
from cdgnn.graphs import Graph, ego_subgraph
from cdgnn.models import (
    batch_from_cache,
    build_ego_cache,
    gcn_forward,
    init_gcn_weights,
    init_head_params,
    init_readout_params,
)


def _path_graph(n=4, dim=3, seed=0):
    rng = np.random.default_rng(seed)
    return Graph(n, np.array([(i, i + 1) for i in range(n - 1)]),
                 rng.normal(size=(n, dim)), rng.integers(0, 2, size=n), 2)


def _ego_batch(g, nodes, hops):
    return batch_from_cache(g, build_ego_cache(g, hops, nodes), nodes)


def _readout(batch, h, projection):
    return ad.ego_readout(h, batch.ego_rows, batch.segments, projection)


def _renormalized_propagate(g, signal, edge_weights=None):
    """Edge-list oracle for one propagation step over a whole graph:
    out_i = (signal_i + sum_j w_ij signal_j) / (deg_i + 1), with w aligned
    with g.edges, applied to both directions and 1 by default."""
    out = np.array(signal, dtype=np.float64)
    w = np.ones(g.num_edges) if edge_weights is None else edge_weights
    u, v = g.edges[:, 0], g.edges[:, 1]
    np.add.at(out, u, w[:, None] * signal[v])
    np.add.at(out, v, w[:, None] * signal[u])
    return out / (g.degrees + 1.0)[:, None]


def _forward_numpy(batch, feats, weights, edge_w=None, feat_mask=None):
    """Straight-line replica of the layer recurrence for oracle checks."""
    h = feats if feat_mask is None else feats * feat_mask
    deg = np.zeros(h.shape[0])
    for u, v in batch.endpoints:
        deg[u] += 1
        deg[v] += 1
    for l, w in enumerate(weights):
        out = h.copy()
        for e, (u, v) in enumerate(batch.endpoints):
            c = 1.0 if edge_w is None else edge_w[e]
            out[u] += c * h[v]
            out[v] += c * h[u]
        out = out / (deg + 1.0)[:, None]
        h = out @ w
        if l < len(weights) - 1:
            h = np.maximum(h, 0.0)
    return h


class TestEgoBatch:
    def test_disjoint_union_shapes(self):
        g = _path_graph(5)
        batch = _ego_batch(g, np.array([0, 4]), hops=1)
        assert batch.num_graphs == 2
        assert batch.features.shape[0] == 4  # {0,1} and {4,3}
        assert batch.endpoints.shape[0] == 2
        assert batch.ego_rows.tolist() == [0, 2]
        np.testing.assert_array_equal(batch.ego_labels, g.labels[[0, 4]])
        np.testing.assert_array_equal(batch.segments, [0, 0, 1, 1])
        np.testing.assert_array_equal(batch.member_ids, [0, 1, 4, 3])

    def test_cache_matches_direct_assembly(self):
        g = _path_graph(6, seed=3)
        nodes = np.array([1, 3, 5])
        table = build_ego_cache(g, 2, nodes)
        cache = composed.held_egos(table)
        assert sorted(cache) == [1, 3, 5]
        for node in nodes:
            mapping, edges = ego_subgraph(g, int(node), 2)
            np.testing.assert_array_equal(cache[node][0], mapping)
            np.testing.assert_array_equal(cache[node][1], edges)
        a = batch_from_cache(g, table, nodes[::-1])
        b = batch_from_cache(g, build_ego_cache(g, 2, np.arange(6)), nodes[::-1])
        np.testing.assert_array_equal(a.endpoints, b.endpoints)
        np.testing.assert_array_equal(a.features, b.features)
        np.testing.assert_array_equal(a.segments, b.segments)

    def test_gathers_give_the_dict_assembly(self):
        """Every array of the batch and of its plan is the one the per-ego
        dict assembly builds (composed.batch_from_dict), dtype and shape
        included, for batches with repeats, edgeless egos and one ego."""
        rng = np.random.default_rng(8)
        for case in range(60):
            n = int(rng.integers(1, 25))
            pairs = np.array([(u, v) for u in range(n) for v in range(u + 1, n)],
                             dtype=np.int64).reshape(-1, 2)
            g = Graph(n, pairs[rng.random(pairs.shape[0]) < rng.uniform(0, 0.3)],
                      rng.normal(size=(n, 2)), rng.integers(0, 2, size=n), 2)
            hops = int(rng.integers(1, 4))
            table = build_ego_cache(g, hops, np.arange(n))
            egos = composed.ego_dict(g, hops, np.arange(n))
            nodes = rng.integers(0, n, size=int(rng.integers(1, 20)))
            got = batch_from_cache(g, table, nodes)
            want = composed.batch_from_dict(g, egos, nodes)
            for ours, theirs in ((got, want), (got.plan, want.plan)):
                for key, value in vars(theirs).items():
                    if key != "plan":
                        mine = np.asarray(getattr(ours, key))
                        np.testing.assert_array_equal(mine, value, err_msg=key)
                        assert mine.dtype == np.asarray(value).dtype, key
                        assert mine.shape == np.shape(value), key

    @pytest.mark.parametrize("node", [4, -1, 6, 99, -7])
    def test_node_without_an_ego_is_refused_by_name(self, node):
        """A node the cache holds no ego of, inside the graph or not, is a
        ValueError naming it, not a KeyError or another ego's rows."""
        g = _path_graph(6)
        cache = build_ego_cache(g, 1, [0, 2, 5])
        with pytest.raises(ValueError,
                           match=rf"the ego cache holds no ego of node {node}$"):
            batch_from_cache(g, cache, [0, node, 2])

    def test_ego_rows_point_at_ego_features(self):
        g = _path_graph(5, seed=4)
        batch = _ego_batch(g, np.array([2, 3]), hops=1)
        np.testing.assert_allclose(batch.features[batch.ego_rows[0]],
                                   g.features[2])
        np.testing.assert_allclose(batch.features[batch.ego_rows[1]],
                                   g.features[3])


class TestGcnForward:
    def test_ones_masks_match_unmasked(self):
        g = _path_graph(5, seed=5)
        batch = _ego_batch(g, np.arange(5), hops=2)
        rng = np.random.default_rng(0)
        weights_np = init_gcn_weights(rng, 3, 4, 2, "gnn")
        ws = list(ad.leaves(weights_np).values())
        x = batch.features
        ones_e = np.ones((batch.endpoints.shape[0], 1))
        ones_f = np.ones((1, 3))
        masked = gcn_forward(batch.plan, x, ones_e, ones_f, ws)
        plain = gcn_forward(batch.plan, x, None, None, ws)
        for a, b in zip(masked, plain, strict=True):
            np.testing.assert_allclose(a.data, b.data, atol=1e-12)

    def test_zero_edge_mask_isolates_nodes(self):
        g = _path_graph(4, seed=6)
        batch = _ego_batch(g, np.arange(4), hops=1)
        rng = np.random.default_rng(1)
        weights_np = init_gcn_weights(rng, 3, 3, 2, "gnn")
        ws = list(ad.leaves(weights_np).values())
        x = batch.features
        zeros = np.zeros((batch.endpoints.shape[0], 1))
        out = gcn_forward(batch.plan, x, zeros, None, ws)[-1]
        oracle = _forward_numpy(batch, batch.features,
                                [weights_np["gnn.w0"], weights_np["gnn.w1"]],
                                edge_w=np.zeros(batch.endpoints.shape[0]))
        np.testing.assert_allclose(out.data, oracle, atol=1e-12)

    def test_single_layer_identity_weights_is_propagation(self):
        g = Graph(2, np.array([[0, 1]]), np.array([[1.0, 2.0], [3.0, 5.0]]),
                  np.zeros(2, int), 1)
        batch = _ego_batch(g, np.arange(2), hops=1)
        w = np.eye(2)
        x = batch.features
        (out,) = gcn_forward(batch.plan, x, None, None, [w])
        # batch holds both ego copies; each copy is the 2-node graph itself
        oracle = _renormalized_propagate(g, g.features)
        np.testing.assert_allclose(out.data[:2], oracle[[0, 1]])

    def test_masked_propagate_matches_edge_list_oracle(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            n = int(rng.integers(2, 10))
            pairs = np.array([(u, v) for u in range(n) for v in range(u + 1, n)])
            g = Graph(n, pairs[rng.random(pairs.shape[0]) < 0.4],
                      rng.normal(size=(n, 3)), np.zeros(n, int), 1)
            w = rng.uniform(0.0, 1.0, size=g.num_edges)
            plan = ad.PropagationPlan.from_edges(g.edges, g.num_nodes)
            out = composed.masked_propagate(g.features, w[:, None], plan)
            np.testing.assert_allclose(out.data,
                                       _renormalized_propagate(g, g.features, w),
                                       atol=1e-12)

    def test_random_masks_match_numpy_oracle(self):
        g = _path_graph(6, seed=7)
        batch = _ego_batch(g, np.array([1, 4]), hops=2)
        rng = np.random.default_rng(2)
        weights_np = init_gcn_weights(rng, 3, 4, 2, "gnn")
        edge_w = rng.uniform(0.1, 0.9, size=(batch.endpoints.shape[0], 1))
        feat_m = rng.uniform(0.0, 1.0, size=(1, 3))
        ws = list(ad.leaves(weights_np).values())
        first, out = gcn_forward(batch.plan, batch.features, edge_w, feat_m,
                                 ws)
        oracle = _forward_numpy(batch, batch.features,
                                [weights_np["gnn.w0"], weights_np["gnn.w1"]],
                                edge_w=edge_w[:, 0], feat_mask=feat_m)
        np.testing.assert_allclose(out.data, oracle, atol=1e-12)
        # every layer's output is returned, the hidden one after its relu
        oracle = _forward_numpy(batch, batch.features, [weights_np["gnn.w0"]],
                                edge_w=edge_w[:, 0], feat_mask=feat_m)
        np.testing.assert_allclose(first.data, np.maximum(oracle, 0.0),
                                   atol=1e-12)

    def test_propagation_affine_in_edge_weights(self):
        """Mask and complement tile the operator: P_m + P_(1-m) = P_1 + P_0."""
        g = _path_graph(5, seed=8)
        batch = _ego_batch(g, np.arange(5), hops=2)
        rng = np.random.default_rng(3)
        f = rng.normal(size=(batch.features.shape[0], 2))
        m = rng.uniform(0.0, 1.0, size=(batch.endpoints.shape[0], 1))
        def prop(w):
            return composed.masked_propagate(f, w, batch.plan).data
        lhs = prop(m) + prop(1.0 - m)
        rhs = prop(np.ones_like(m)) + prop(np.zeros_like(m))
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)

    def test_permutation_equivariance(self):
        """Relabeling batch rows permutes the embedding rows."""
        g = _path_graph(5, seed=9)
        batch = _ego_batch(g, np.array([0, 3]), hops=1)
        n = batch.features.shape[0]
        rng = np.random.default_rng(4)
        weights_np = init_gcn_weights(rng, 3, 3, 2, "gnn")
        edge_w = rng.uniform(0.2, 0.8, size=(batch.endpoints.shape[0], 1))

        perm = rng.permutation(n)
        inv = np.argsort(perm)
        permuted = type(batch)(
            plan=ad.PropagationPlan.from_edges(perm[batch.endpoints], n),
            features=batch.features[inv],
            endpoints=perm[batch.endpoints],
            segments=batch.segments[inv],
            member_ids=batch.member_ids[inv],
            ego_rows=perm[batch.ego_rows],
            ego_labels=batch.ego_labels,
            num_graphs=batch.num_graphs,
        )

        def run(b):
            ws = [weights_np[f"gnn.w{l}"] for l in range(2)]
            return gcn_forward(b.plan, b.features, edge_w, None, ws)[-1].data

        base = run(batch)
        moved = run(permuted)
        np.testing.assert_allclose(moved[perm], base, atol=1e-12)

    def test_training_dropout_needs_rng(self):
        g = _path_graph(3, seed=10)
        batch = _ego_batch(g, np.arange(3), hops=1)
        ws = [np.eye(3) for _ in range(2)]
        with pytest.raises(ValueError, match="rng"):
            gcn_forward(batch.plan, batch.features, None, None, ws,
                        dropout_rate=0.5)


class TestReadout:
    def test_single_node_graph_duplicates_ego(self):
        g = Graph(1, np.zeros((0, 2), int), np.array([[2.0, 1.0]]),
                  np.zeros(1, int), 1)
        batch = _ego_batch(g, np.array([0]), hops=1)
        emb = np.array([[3.0, -1.0]])
        proj = np.random.default_rng(5).normal(size=(4, 2))
        out = _readout(batch, emb, proj)
        expected = np.concatenate([emb[0], emb[0]])[None, :] @ proj
        np.testing.assert_allclose(out.data, expected)

    def test_invariant_to_non_ego_order(self):
        g = _path_graph(3, seed=11)
        batch = _ego_batch(g, np.array([0]), hops=2)
        rng = np.random.default_rng(6)
        emb = rng.normal(size=(3, 2))
        proj = rng.normal(size=(4, 2))
        a = _readout(batch, emb, proj).data
        swapped = emb.copy()
        swapped[[1, 2]] = swapped[[2, 1]]  # ego row 0 untouched
        b = _readout(batch, swapped, proj).data
        np.testing.assert_allclose(a, b)

    def test_two_node_hand_case(self):
        g = Graph(2, np.array([[0, 1]]), np.ones((2, 2)), np.zeros(2, int), 1)
        batch = _ego_batch(g, np.array([0]), hops=1)
        emb = np.array([[1.0, 2.0], [3.0, 4.0]])
        proj = np.arange(8.0).reshape(4, 2)
        out = _readout(batch, emb, proj)
        concat = np.array([[1.0, 2.0, 2.0, 3.0]])  # ego then mean
        np.testing.assert_allclose(out.data, concat @ proj)


class TestClassify:
    def test_zero_parameters_give_uniform(self):
        out = ad.softmax_head(np.ones((2, 3)), np.zeros((3, 4)),
                              np.zeros((1, 4)))
        np.testing.assert_allclose(out.data, 0.25)

    def test_saturated_logit_wins(self):
        w = np.zeros((1, 3))
        b = np.array([[0.0, 40.0, 0.0]])
        out = ad.softmax_head(np.ones((1, 1)), w, b)
        assert out.data[0, 1] >= 1.0 - 1e-6

    def test_matches_direct_softmax(self):
        rng = np.random.default_rng(12)
        emb = rng.normal(size=(5, 4))
        w = rng.normal(size=(4, 3))
        b = rng.normal(size=(1, 3))
        out = ad.softmax_head(emb, w, b).data
        logits = emb @ w + b
        ex = np.exp(logits - logits.max(axis=1, keepdims=True))
        np.testing.assert_allclose(out, ex / ex.sum(axis=1, keepdims=True),
                                   atol=1e-12)

    def test_rows_are_distributions(self):
        rng = np.random.default_rng(13)
        emb = rng.normal(size=(6, 3)) * 10
        w = rng.normal(size=(3, 5))
        b = rng.normal(size=(1, 5))
        out = ad.softmax_head(emb, w, b)
        vals = out.data
        assert (vals > 0).all()
        np.testing.assert_allclose(vals.sum(axis=1), 1.0, atol=1e-9)


class TestInit:
    def test_layer_dims_chain(self):
        rng = np.random.default_rng(14)
        params = init_gcn_weights(rng, 7, 5, 3, "gnn")
        assert params["gnn.w0"].shape == (7, 5)
        assert params["gnn.w1"].shape == (5, 5)
        assert params["gnn.w2"].shape == (5, 5)

    def test_zero_layers_rejected(self):
        with pytest.raises(ValueError, match="layers"):
            init_gcn_weights(np.random.default_rng(0), 3, 4, 0, "gnn")

    def test_head_and_readout_shapes(self):
        rng = np.random.default_rng(15)
        head = init_head_params(rng, 6, 4, "head")
        assert head["head.w"].shape == (6, 4)
        assert head["head.b"].shape == (1, 4)
        ro = init_readout_params(rng, 5, "readout")
        assert ro["readout.proj"].shape == (10, 5)


class TestPropagatedForward:
    def test_propagated_features_give_the_forward_bits(self):
        """ad.propagate once, then every forward from it, is the forward
        that propagates its own features, at dropout 0 and above."""
        g = _path_graph(6, seed=7)
        plan = ad.PropagationPlan.from_edges(g.edges, g.num_nodes)
        ws = list(init_gcn_weights(np.random.default_rng(2), 3, 4, 3,
                                   "gcn").values())
        prop = ad.propagate(g.features, plan)
        for rate in (0.0, 0.5):
            want = gcn_forward(plan, g.features, None, None, ws, rate,
                               np.random.default_rng(3))
            got = gcn_forward(plan, prop, None, None, ws, rate,
                              np.random.default_rng(3), propagated=True)
            for a, b in zip(got, want, strict=True):
                np.testing.assert_array_equal(a.data, b.data)

    def test_propagated_features_take_no_mask_or_weights(self):
        g = _path_graph(4, seed=8)
        plan = ad.PropagationPlan.from_edges(g.edges, g.num_nodes)
        prop = ad.propagate(g.features, plan)
        ws = [np.ones((3, 2))]
        with pytest.raises(ValueError, match="mask"):
            gcn_forward(plan, prop, None, np.ones((1, 3)), ws, propagated=True)
        with pytest.raises(ValueError, match="plan"):
            gcn_forward(plan, prop, np.ones((plan.num_und_edges, 1)), None, ws,
                        propagated=True)
