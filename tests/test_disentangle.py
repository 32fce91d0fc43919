"""Mask materialization and the four disentanglement loss terms."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from composed import gce_grad_identity_check, hsic_value
from cdgnn import autodiff as ad
from cdgnn import disentangle
from cdgnn.disentangle import (
    TwoBranchPass,
    causal_loss,
    counterfactual_loss,
    difficulty_weights,
    disentanglement_score,
    edge_score_logits,
    gce_loss,
    hsic,
    init_cdgnn_params,
    init_mask_params,
    median_bandwidth,
    score_edges,
    total_loss,
    two_branch_forward,
)
from cdgnn.graphs import Graph
from cdgnn.harness import RunConfig
from cdgnn.models import batch_from_cache, build_ego_cache, gcn_forward


def _ego_batch(g, nodes, hops):
    return batch_from_cache(g, build_ego_cache(g, hops, nodes), nodes)


def _probs_row(values):
    return ad.Tensor(np.asarray(values, dtype=np.float64).reshape(1, -1))


class TestGce:
    def test_half_probability_hand_value(self):
        out = gce_loss(_probs_row([0.5, 0.5]), [0], 0.5)
        np.testing.assert_allclose(out.data, 0.5857864376269049, rtol=1e-12)

    def test_q_one_is_one_minus_p(self):
        out = gce_loss(_probs_row([0.3, 0.7]), [1], 1.0)
        np.testing.assert_allclose(out.data, 0.3, rtol=1e-12)

    def test_small_q_approaches_cross_entropy(self):
        q = 1e-3
        for p in (0.1, 0.3, 0.8):
            probs = _probs_row([p, 1.0 - p])
            g = gce_loss(probs, [0], q).item()
            ce = ad.nll_rows(probs, [0]).item()
            assert abs(g - ce) <= q * np.log(p) ** 2

    def test_bounded_by_inverse_q(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            p = rng.uniform(1e-6, 1.0)
            q = rng.uniform(0.05, 1.0)
            val = gce_loss(_probs_row([p, 1.0 - p]), [0], q).item()
            assert 0.0 <= val <= 1.0 / q + 1e-12

    def test_decreasing_in_correct_probability(self):
        grid = np.linspace(0.05, 0.95, 19)
        vals = [gce_loss(_probs_row([p, 1.0 - p]), [0], 0.7).item()
                for p in grid]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_q_out_of_range_rejected(self):
        probs = _probs_row([0.5, 0.5])
        for q in (0.0, -0.5, 1.5):
            with pytest.raises(ValueError, match="q"):
                gce_loss(probs, [0], q)


class TestGceGradIdentity:
    def test_matches_scaled_cross_entropy_grad(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(1, 3))
        params = {"w": rng.normal(size=(3, 4)), "b": rng.normal(size=(1, 4))}

        def forward(t):
            return ad.softmax_head(x, t["w"], t["b"])

        for q in (0.3, 0.7, 1.0):
            assert gce_grad_identity_check(params, forward, 2, q) < 1e-8


class TestDifficultyWeights:
    def test_hand_values(self):
        w = difficulty_weights([1.0, 2.0, 1.0, 3.0], [1.0, 0.0, 3.0, 1.0])
        np.testing.assert_allclose(w, [0.5, 1.0, 0.25, 0.75])

    def test_zero_over_zero_is_half(self):
        np.testing.assert_allclose(difficulty_weights([0.0], [0.0]), [0.5])

    @given(st.floats(min_value=0.0, max_value=50.0),
           st.floats(min_value=0.0, max_value=50.0))
    @settings(max_examples=60, deadline=None)
    def test_weight_pairs_sum_to_one(self, a, b):
        total = difficulty_weights([a], [b])[0] + difficulty_weights([b], [a])[0]
        np.testing.assert_allclose(total, 1.0, atol=1e-12)

    def test_negative_input_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            difficulty_weights([-0.1], [1.0])


class TestCausalLoss:
    def test_weighted_mean_hand_case(self):
        probs = ad.Tensor(np.full((3, 4), 0.25))
        out = causal_loss(probs, [0, 1, 2], [1.0, 1.0, 0.0])
        np.testing.assert_allclose(out.data, 0.9241962407465937, rtol=1e-12)

    def test_zero_weights_zero_loss(self):
        probs = ad.Tensor(np.full((2, 3), 1 / 3))
        assert causal_loss(probs, [0, 1], [0.0, 0.0]).item() == 0.0

    def test_confident_correct_is_tiny(self):
        probs = ad.Tensor(np.array([[1.0, 0.0], [0.0, 1.0]]))
        # exact ones survive the clamp, so the loss is exactly -log(1)
        assert causal_loss(probs, [0, 1], [1.0, 1.0]).item() <= 1e-9

    def test_weight_count_mismatch(self):
        probs = ad.Tensor(np.full((3, 2), 0.5))
        with pytest.raises(ValueError, match="per sample"):
            causal_loss(probs, [0, 1, 0], [1.0, 1.0])


def _toy_pass(rng, n=3, dim=2, classes=2):
    """A TwoBranchPass of random graph embeddings and heads (no masks)."""
    h_c, h_s, *heads = ad.leaves({
        "h_c": rng.normal(size=(n, dim)), "h_s": rng.normal(size=(n, dim)),
        "head_s.w": rng.normal(size=(2 * dim, classes)),
        "head_s.b": np.zeros((1, classes)),
        "head_c.w": rng.normal(size=(2 * dim, classes)),
        "head_c.b": np.zeros((1, classes))}).values()
    head_s, head_c = tuple(heads[:2]), tuple(heads[2:])
    return TwoBranchPass(edge_mask=None, feature_mask=None,
                         layers_causal=[h_c], layers_shortcut=[h_s],
                         graph_causal=h_c, graph_shortcut=h_s,
                         joint=ad.concat_cols(h_c, h_s),
                         head_causal=head_c, head_shortcut=head_s)


class TestCounterfactualLoss:
    def test_identity_permutation_recovers_plain_terms(self):
        rng = np.random.default_rng(2)
        fwd = _toy_pass(rng)
        y = np.array([0, 1, 0])
        w = np.array([0.3, 0.9, 0.5])
        plain_s = ad.mean(gce_loss(
            ad.softmax_head(fwd.joint, *fwd.head_shortcut), y, 0.7))
        plain_c = causal_loss(
            ad.softmax_head(fwd.joint, *fwd.head_causal), y, w)
        cf = counterfactual_loss(fwd, y, 0.7, np.arange(3), w)
        np.testing.assert_allclose(cf.item(),
                                   plain_s.item() + plain_c.item(),
                                   rtol=1e-12)

    def test_matches_numpy_oracle_under_shuffle(self):
        rng = np.random.default_rng(3)
        fwd = _toy_pass(rng)
        head_s, head_c = fwd.head_shortcut, fwd.head_causal
        y = np.array([0, 1, 1])
        w = np.array([0.2, 0.7, 0.4])
        perm = np.array([2, 0, 1])
        q = 0.7
        out = counterfactual_loss(fwd, y, q, perm, w)

        def softmax(z):
            e = np.exp(z - z.max(axis=1, keepdims=True))
            return e / e.sum(axis=1, keepdims=True)

        h_ct = np.hstack([fwd.graph_causal.data,
                          fwd.graph_shortcut.data[perm]])
        p_s = softmax(h_ct @ head_s[0].data + head_s[1].data)
        p_c = softmax(h_ct @ head_c[0].data + head_c[1].data)
        rows = np.arange(3)
        gce = (1.0 - p_s[rows, y[perm]] ** q) / q
        ce = -np.log(p_c[rows, y])
        np.testing.assert_allclose(out.item(), np.mean(gce + w * ce),
                                   rtol=1e-10)

    def test_batch_of_one_rejected(self):
        rng = np.random.default_rng(4)
        fwd = _toy_pass(rng, n=1)
        with pytest.raises(ValueError, match="at least 2"):
            counterfactual_loss(fwd, [0], 0.7, np.array([0]), [1.0])

    def test_short_permutation_rejected(self):
        rng = np.random.default_rng(5)
        fwd = _toy_pass(rng)
        with pytest.raises(ValueError, match="cover"):
            counterfactual_loss(fwd, [0, 1, 0], 0.7, np.array([1, 0]),
                                [1.0, 1.0, 1.0])


class TestMedianBandwidth:
    def test_two_point_hand_case(self):
        x = np.array([[0.0, 0.0], [2.0, 2.0]])  # squared distance 8
        np.testing.assert_allclose(median_bandwidth(x), 2.0)

    def test_degenerate_inputs_fall_back_to_one(self):
        assert median_bandwidth(np.ones((5, 3))) == 1.0
        assert median_bandwidth(np.zeros((1, 3))) == 1.0

    def test_matches_np_median_over_triu_indices(self):
        """Bitwise the np.median over np.triu_indices formula, for odd and
        even pair counts, tied distances, row counts below, at and above
        the cached mask size (in an order that regrows it), and NaN."""
        rng = np.random.default_rng(41)
        for n in (2, 3, 4, 50, 256, 257, 300, 17, 600, 255):
            for x in (rng.normal(size=(n, 4)),
                      rng.integers(0, 3, size=(n, 2)).astype(float)):
                sq = (x * x).sum(axis=1, keepdims=True)
                d2 = np.maximum(sq + sq.T - 2.0 * x @ x.T, 0.0)
                med = float(np.median(d2[np.triu_indices(n, k=1)]))
                want = 1.0 if med <= 0.0 else float(np.sqrt(med / 2.0))
                assert median_bandwidth(x) == want, n
        x = rng.normal(size=(6, 2))
        x[3, 1] = np.nan
        assert np.isnan(median_bandwidth(x))


class TestHsic:
    def test_constant_input_is_numerically_zero(self):
        rng = np.random.default_rng(6)
        x = np.ones((40, 3))
        y = rng.normal(size=(40, 3))
        assert abs(hsic_value(x, y)) < 1e-10

    def test_duplicated_exceeds_independent(self):
        rng = np.random.default_rng(7)
        x = rng.normal(size=(100, 4))
        dependent = hsic_value(x, x.copy())
        independent = hsic_value(x, rng.normal(size=(100, 4)))
        # the biased estimator keeps an O(1/n) floor under independence
        assert dependent > 5 * independent

    def test_invariant_to_shared_row_permutation(self):
        rng = np.random.default_rng(8)
        x = rng.normal(size=(30, 2))
        y = rng.normal(size=(30, 3))
        perm = rng.permutation(30)
        np.testing.assert_allclose(hsic_value(x[perm], y[perm]),
                                   hsic_value(x, y), rtol=1e-10)

    def test_nonnegative_over_random_draws(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            x = rng.normal(size=(25, 3))
            y = rng.normal(size=(25, 2))
            assert hsic_value(x, y) >= -1e-10

    def test_tensor_and_value_agree(self):
        rng = np.random.default_rng(10)
        x = rng.normal(size=(20, 2))
        y = rng.normal(size=(20, 2))
        t = hsic(*ad.leaves({"x": x, "y": y}).values())
        np.testing.assert_allclose(t.item(), hsic_value(x, y), rtol=1e-12)

    def test_too_few_rows_rejected(self):
        with pytest.raises(ValueError, match="at least 2"):
            hsic_value(np.ones((1, 2)), np.ones((1, 2)))

    def test_row_count_mismatch_rejected(self):
        with pytest.raises(ValueError, match="same number"):
            hsic_value(np.ones((3, 2)), np.ones((4, 2)))


class TestTotalLoss:
    def _terms(self):
        return [ad.Tensor(np.array([[v]])) for v in (1.0, 2.0, 3.0, 4.0)]

    def test_weighted_sum_hand_case(self):
        total, breakdown = total_loss(
            *self._terms(),
            RunConfig(lambda_counterfactual=10.0,
                      lambda_independence=0.1).coefficients)
        np.testing.assert_allclose(total.item(), 33.4, rtol=1e-12)
        assert breakdown["loss_s"] == 1.0
        assert breakdown["loss_c"] == 2.0
        assert breakdown["loss_cf"] == 3.0
        assert breakdown["loss_hsic"] == 4.0
        assert breakdown["total"] == total.item()

    def test_flag_and_zero_lambda_agree(self):
        by_flag, _ = total_loss(
            *self._terms(),
            RunConfig(no_counterfactual_term=True,
                      lambda_independence=0.1).coefficients)
        by_zero, _ = total_loss(
            *self._terms(),
            RunConfig(lambda_counterfactual=0.0,
                      lambda_independence=0.1).coefficients)
        assert by_flag.item() == by_zero.item() == 1.0 + 2.0 + 0.4

    def test_breakdown_reports_ablated_terms(self):
        _, breakdown = total_loss(
            *self._terms(),
            RunConfig(no_independence_term=True).coefficients)
        assert breakdown["loss_hsic"] == 4.0

    def test_coefficients_weigh_ablated_terms_zero(self):
        config = RunConfig(lambda_counterfactual=3.0, lambda_independence=0.2,
                           no_causal_term=True, no_independence_term=True)
        assert config.coefficients == (1.0, 0.0, 3.0, 0.0)
        total, _ = total_loss(*self._terms(), config.coefficients)
        assert total.item() == 1.0 + 3.0 * 3.0

    def test_all_ablated_rejected(self):
        with pytest.raises(ValueError, match="ablated"):
            total_loss(*self._terms(),
                       RunConfig(no_shortcut_term=True, no_causal_term=True,
                                 no_counterfactual_term=True,
                                 no_independence_term=True).coefficients)


def _toy_graph(n=6, dim=4, seed=11):
    rng = np.random.default_rng(seed)
    edges = np.array([(i, i + 1) for i in range(n - 1)] + [(0, n - 1)])
    return Graph(n, edges, rng.normal(size=(n, dim)),
                 rng.integers(0, 2, size=n), 2)


def _score_edges_numpy(params, x, e):
    """Straight-line replica of the symmetric edge scorer for oracle checks."""
    pairs = np.vstack([np.hstack([x[e[:, 0]], x[e[:, 1]]]),
                       np.hstack([x[e[:, 1]], x[e[:, 0]]])])
    hidden = np.maximum(pairs @ params["mask.w1"] + params["mask.b1"], 0.0)
    scores = hidden @ params["mask.w2"] + params["mask.b2"]
    n = e.shape[0]
    return 0.5 * (scores[:n, 0] + scores[n:, 0])


def _pass_of(batch, params, training=False):
    return two_branch_forward(batch, ad.leaves(params) if training else params)


class TestMasks:
    def test_mask_pair_tiles_to_ones(self):
        """The causal branch reads the masks, the shortcut branch their
        complements 1 - mask."""
        g = _toy_graph()
        batch = _ego_batch(g, np.arange(g.num_nodes), hops=1)
        rng = np.random.default_rng(12)
        params = init_cdgnn_params(rng, 4, 5, 2, 3, 2)
        params["mask.w2"][:] = rng.normal(size=params["mask.w2"].shape)
        params["mask.feat"][:] = rng.normal(size=params["mask.feat"].shape)
        fwd = _pass_of(batch, params)
        edge, feat = fwd.edge_mask.data, fwd.feature_mask.data
        assert edge.shape == (batch.endpoints.shape[0], 1)
        assert np.ptp(edge) > 0.0 and np.ptp(feat) > 0.0
        for mask_e, mask_f, prefix, layers in (
                (edge, feat, "gnn_c", fwd.layers_causal),
                (1.0 - edge, 1.0 - feat, "gnn_s", fwd.layers_shortcut)):
            ws = [params[f"{prefix}.w{l}"] for l in range(2)]
            want = gcn_forward(batch.plan, batch.features, mask_e, mask_f, ws)
            for got, layer in zip(layers, want, strict=True):
                np.testing.assert_array_equal(got.data, layer.data)

    def test_fresh_params_score_half_everywhere(self):
        """Zero-initialized logits start both branches at even weighting."""
        g = _toy_graph(seed=13)
        batch = _ego_batch(g, np.arange(g.num_nodes), hops=1)
        params = init_cdgnn_params(np.random.default_rng(13), 4, 5, 2, 3, 2)
        fwd = _pass_of(batch, params)
        np.testing.assert_allclose(fwd.edge_mask.data, 0.5, atol=1e-15)
        np.testing.assert_allclose(fwd.feature_mask.data, 0.5, atol=1e-15)

    def test_score_edges_matches_tape_scorer(self):
        g = _toy_graph(seed=14)
        batch = _ego_batch(g, np.arange(g.num_nodes), hops=1)
        rng = np.random.default_rng(14)
        params = init_mask_params(rng, 4, 16)
        params["mask.b1"][:] = rng.normal(size=params["mask.b1"].shape)
        params["mask.w2"][:] = rng.normal(size=params["mask.w2"].shape)
        params["mask.b2"][:] = 0.3
        oracle = _score_edges_numpy(params, batch.features, batch.endpoints)
        assert np.ptp(oracle) > 0.0
        logits = edge_score_logits(batch.endpoints, batch.features,
                                   ad.leaves(params))
        np.testing.assert_allclose(logits.data[:, 0], oracle, rtol=1e-12)
        np.testing.assert_allclose(
            score_edges(params, batch.features, batch.endpoints), oracle,
            rtol=1e-12)

    def test_scorer_symmetric_in_endpoint_order(self):
        g = _toy_graph(seed=15)
        rng = np.random.default_rng(15)
        params = init_mask_params(rng, 4, 16)
        params["mask.b2"][:] = 0.1
        edges = np.array([[0, 1], [2, 3]])
        flipped = edges[:, ::-1]
        np.testing.assert_allclose(
            score_edges(params, g.features, edges),
            score_edges(params, g.features, flipped), rtol=1e-12)


class TestSplitAndEmbed:
    """two_branch_forward splits each ego by the mask pair and embeds both
    sides."""

    def test_branch_shapes_and_joint_concat(self):
        g = _toy_graph(seed=16)
        batch = _ego_batch(g, np.arange(g.num_nodes), hops=1)
        hidden = 5
        params = init_cdgnn_params(np.random.default_rng(16), 4, hidden, 2,
                                   3, 2)
        fwd = _pass_of(batch, params)
        for layers in (fwd.layers_causal, fwd.layers_shortcut):
            assert [h.data.shape for h in layers] == [(batch.features.shape[0],
                                                       hidden)] * 2
        assert fwd.graph_causal.data.shape == (g.num_nodes, hidden)
        assert fwd.graph_shortcut.data.shape == (g.num_nodes, hidden)
        np.testing.assert_allclose(
            fwd.joint.data,
            np.hstack([fwd.graph_causal.data, fwd.graph_shortcut.data]))

    @pytest.mark.parametrize("training", [False, True])
    def test_two_branch_forward_matches_manual_assembly(self, training):
        g = _toy_graph(seed=18)
        batch = _ego_batch(g, np.arange(g.num_nodes), hops=1)
        params = init_cdgnn_params(np.random.default_rng(18), 4, 5, 2, 3, 2)
        t = ad.leaves(params) if training else params
        fwd = two_branch_forward(batch, t)
        assert fwd.head_causal == (t["head_c.w"], t["head_c.b"])
        assert fwd.head_shortcut == (t["head_s.w"], t["head_s.b"])
        edge = ad.sigmoid(edge_score_logits(batch.endpoints, batch.features, t))
        feat = ad.sigmoid(t["mask.feat"])
        causal = gcn_forward(batch.plan, batch.features, edge, feat,
                             [t["gnn_c.w0"], t["gnn_c.w1"]])
        shortcut = gcn_forward(batch.plan, batch.features,
                               ad.subtract(1.0, edge), ad.subtract(1.0, feat),
                               [t["gnn_s.w0"], t["gnn_s.w1"]])
        h_c, h_s = (ad.ego_readout(layers[-1], batch.ego_rows, batch.segments,
                                   batch.num_graphs, t[proj]).data
                    for layers, proj in ((causal, "readout_c.proj"),
                                         (shortcut, "readout_s.proj")))
        for got, want in zip(fwd.layers_causal + fwd.layers_shortcut,
                             causal + shortcut, strict=True):
            np.testing.assert_array_equal(got.data, want.data)
        np.testing.assert_array_equal(fwd.graph_causal.data, h_c)
        np.testing.assert_array_equal(fwd.joint.data, np.hstack([h_c, h_s]))

    def test_raw_arrays_give_the_forward_of_leaves_bit_for_bit(self):
        """Inference passes the parameter arrays, which record nothing."""
        g = _toy_graph(seed=19)
        batch = _ego_batch(g, np.arange(g.num_nodes), hops=1)
        params = init_cdgnn_params(np.random.default_rng(19), 4, 5, 2, 3, 2)
        params["mask.w2"][:] = np.random.default_rng(20).normal(
            size=params["mask.w2"].shape)
        raw = two_branch_forward(batch, params)
        tracked = two_branch_forward(batch, ad.leaves(params))
        assert not raw.joint.requires_grad and tracked.joint.requires_grad
        for got, want in zip(
                [raw.edge_mask, raw.feature_mask, *raw.layers_causal,
                 *raw.layers_shortcut, raw.graph_causal, raw.graph_shortcut,
                 raw.joint],
                [tracked.edge_mask, tracked.feature_mask,
                 *tracked.layers_causal, *tracked.layers_shortcut,
                 tracked.graph_causal, tracked.graph_shortcut, tracked.joint],
                strict=True):
            np.testing.assert_array_equal(got.data, want.data)
        np.testing.assert_array_equal(
            ad.softmax_head(raw.joint, *raw.head_causal).data,
            ad.softmax_head(tracked.joint, *tracked.head_causal).data)


def _rank_auc(pos, neg):
    """The AUC as computed before it moved to numpy: U from average ranks."""
    from scipy.stats import rankdata
    ranks = rankdata(np.concatenate([pos, neg]), method="average")
    u = ranks[: pos.shape[0]].sum() - pos.shape[0] * (pos.shape[0] + 1) / 2.0
    return float(u / (pos.shape[0] * neg.shape[0]))


class TestDisentanglementScore:
    def _planted(self, seed=17):
        from cdgnn.synth import planted_shortcut
        return planted_shortcut(num_egos=10, seed=seed)

    def test_all_tied_scores_give_half(self):
        ds = self._planted()
        rng = np.random.default_rng(18)
        params = init_mask_params(rng, ds.graph.features.shape[1], 16)
        params["mask.w2"][:] = 0.0
        score = disentanglement_score(params, ds.graph, ds.causal_edges,
                                      ds.shortcut_edges)
        assert score == 0.5

    def test_matches_pairwise_oracle(self):
        ds = self._planted(seed=19)
        rng = np.random.default_rng(19)
        params = init_mask_params(rng, ds.graph.features.shape[1], 16)
        params["mask.b1"][:] = rng.normal(size=params["mask.b1"].shape)
        params["mask.w2"][:] = rng.normal(size=params["mask.w2"].shape)
        params["mask.b2"][:] = rng.normal(size=params["mask.b2"].shape)
        score = disentanglement_score(params, ds.graph, ds.causal_edges,
                                      ds.shortcut_edges)
        pos = score_edges(params, ds.graph.features, ds.causal_edges)
        neg = score_edges(params, ds.graph.features, ds.shortcut_edges)
        wins = sum((1.0 if p > n else 0.5 if p == n else 0.0)
                   for p in pos for n in neg)
        np.testing.assert_allclose(score, wins / (len(pos) * len(neg)),
                                   rtol=1e-12)

    def test_matches_rank_formula_bit_for_bit(self):
        ds = self._planted(seed=19)
        rng = np.random.default_rng(19)
        params = init_mask_params(rng, ds.graph.features.shape[1], 16)
        params["mask.w2"][:] = rng.normal(size=params["mask.w2"].shape)
        pos = score_edges(params, ds.graph.features, ds.causal_edges)
        neg = score_edges(params, ds.graph.features, ds.shortcut_edges)
        score = disentanglement_score(params, ds.graph, ds.causal_edges,
                                      ds.shortcut_edges)
        assert score == _rank_auc(pos, neg)

    @pytest.mark.parametrize("tied", [False, True])
    def test_auc_matches_rank_formula_on_random_scores(self, tied):
        rng = np.random.default_rng(21 + tied)
        for _ in range(300):
            a, b = rng.integers(1, 200, size=2)
            if tied:
                pos = rng.integers(0, 4, size=a) / 4.0
                neg = rng.integers(0, 4, size=b) / 4.0
            else:
                pos = rng.normal(0.3, 1.0, size=a)
                neg = rng.normal(size=b)
            assert disentangle._mann_whitney_auc(pos, neg) == _rank_auc(pos, neg)

    def test_nan_score_gives_nan(self):
        finite = np.array([0.2, -1.0, 0.2])
        for pos, neg in [(np.array([np.nan, 1.0]), finite),
                         (finite, np.array([0.5, np.nan]))]:
            assert np.isnan(_rank_auc(pos, neg))
            assert np.isnan(disentangle._mann_whitney_auc(pos, neg))

    def test_empty_side_rejected(self):
        ds = self._planted(seed=20)
        params = init_mask_params(np.random.default_rng(20),
                                  ds.graph.features.shape[1], 16)
        with pytest.raises(ValueError, match="non-empty"):
            disentanglement_score(params, ds.graph,
                                  np.zeros((0, 2), int), ds.shortcut_edges)
