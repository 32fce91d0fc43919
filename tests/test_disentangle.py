"""Mask materialization and the four disentanglement loss terms."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import composed
from composed import (composed_objective_case, gce_grad_identity_check,
                      gce_rows, hsic_value)
from cdgnn import autodiff as ad
from cdgnn import disentangle
from cdgnn.disentangle import (
    LOSS_TERMS,
    TwoBranchPass,
    _SCORER_KEYS,
    disentanglement_score,
    init_cdgnn_params,
    init_mask_params,
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


def difficulty_weights(ce_shortcut, ce_causal):
    return ad._difficulty_weights(np.asarray(ce_shortcut, dtype=np.float64),
                                  np.asarray(ce_causal, dtype=np.float64))


class TestGce:
    """The per-sample GCE (1 - p_y^q) / q of total_loss, as the chain that
    ad.two_head_loss reproduces bit for bit."""

    def test_half_probability_hand_value(self):
        out = gce_rows(_probs_row([0.5, 0.5]), [0], 0.5)
        np.testing.assert_allclose(out.data, 0.5857864376269049, rtol=1e-12)

    def test_q_one_is_one_minus_p(self):
        out = gce_rows(_probs_row([0.3, 0.7]), [1], 1.0)
        np.testing.assert_allclose(out.data, 0.3, rtol=1e-12)

    def test_small_q_approaches_cross_entropy(self):
        q = 1e-3
        for p in (0.1, 0.3, 0.8):
            probs = _probs_row([p, 1.0 - p])
            g = gce_rows(probs, [0], q).item()
            ce = composed.nll_rows(probs, [0]).item()
            assert abs(g - ce) <= q * np.log(p) ** 2

    def test_bounded_by_inverse_q(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            p = rng.uniform(1e-6, 1.0)
            q = rng.uniform(0.05, 1.0)
            val = gce_rows(_probs_row([p, 1.0 - p]), [0], q).item()
            assert 0.0 <= val <= 1.0 / q + 1e-12

    def test_decreasing_in_correct_probability(self):
        grid = np.linspace(0.05, 0.95, 19)
        vals = [gce_rows(_probs_row([p, 1.0 - p]), [0], 0.7).item()
                for p in grid]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_q_out_of_range_rejected(self):
        """Refused by ad.two_head_loss, so by total_loss."""
        fwd = _toy_pass(np.random.default_rng(0))
        for q in (0.0, -0.5, 1.5):
            with pytest.raises(ValueError, match="q must be in"):
                total_loss(fwd, [0, 1, 0], q, (1.0, 1.0, 1.0, 1.0),
                           np.arange(3), np.arange(3))


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


def _causal_term(probs, labels, weights):
    """total_loss's causal term: the weighted mean cross-entropy, as the
    chain that ad.two_head_loss reproduces bit for bit."""
    return composed.mean(composed.nll_rows(probs, labels, weights))


class TestCausalLoss:
    def test_weighted_mean_hand_case(self):
        probs = ad.Tensor(np.full((3, 4), 0.25))
        out = _causal_term(probs, [0, 1, 2], [1.0, 1.0, 0.0])
        np.testing.assert_allclose(out.data, 0.9241962407465937, rtol=1e-12)

    def test_zero_weights_zero_loss(self):
        probs = ad.Tensor(np.full((2, 3), 1 / 3))
        assert _causal_term(probs, [0, 1], [0.0, 0.0]).item() == 0.0

    def test_confident_correct_is_tiny(self):
        probs = ad.Tensor(np.array([[1.0, 0.0], [0.0, 1.0]]))
        # exact ones survive the clamp, so the loss is exactly -log(1)
        assert _causal_term(probs, [0, 1], [1.0, 1.0]).item() <= 1e-9


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


def _head_values(fwd, y, q, perm):
    """ad.two_head_loss's raw terms and mean cross-entropies on `fwd`."""
    return ad.two_head_loss(fwd.joint, fwd.graph_causal, fwd.graph_shortcut,
                            fwd.head_causal, fwd.head_shortcut, y, q, perm,
                            (1.0, 1.0, 1.0))[1]


class TestCounterfactualLoss:
    """The counterfactual term loss_cf of ad.two_head_loss."""

    def test_identity_permutation_recovers_plain_terms(self):
        rng = np.random.default_rng(2)
        fwd = _toy_pass(rng)
        values = _head_values(fwd, np.array([0, 1, 0]), 0.7, np.arange(3))
        np.testing.assert_allclose(values["loss_cf"],
                                   values["loss_s"] + values["loss_c"],
                                   rtol=1e-12)

    def test_matches_numpy_oracle_under_shuffle(self):
        rng = np.random.default_rng(3)
        fwd = _toy_pass(rng)
        head_s, head_c = fwd.head_shortcut, fwd.head_causal
        y = np.array([0, 1, 1])
        perm = np.array([2, 0, 1])
        q = 0.7
        out = _head_values(fwd, y, q, perm)["loss_cf"]

        def softmax(z):
            e = np.exp(z - z.max(axis=1, keepdims=True))
            return e / e.sum(axis=1, keepdims=True)

        rows = np.arange(3)
        joint = fwd.joint.data
        ce_s = -np.log(softmax(joint @ head_s[0].data + head_s[1].data)[rows, y])
        ce_c = -np.log(softmax(joint @ head_c[0].data + head_c[1].data)[rows, y])
        w = ce_s / (ce_s + ce_c)
        h_ct = np.hstack([fwd.graph_causal.data,
                          fwd.graph_shortcut.data[perm]])
        p_s = softmax(h_ct @ head_s[0].data + head_s[1].data)
        p_c = softmax(h_ct @ head_c[0].data + head_c[1].data)
        gce = (1.0 - p_s[rows, y[perm]] ** q) / q
        ce = -np.log(p_c[rows, y])
        np.testing.assert_allclose(out, np.mean(gce + w * ce), rtol=1e-10)

    def test_batch_of_one_rejected(self):
        rng = np.random.default_rng(4)
        fwd = _toy_pass(rng, n=1)
        with pytest.raises(ValueError, match="at least 2"):
            _head_values(fwd, [0], 0.7, np.array([0]))

    def test_short_permutation_rejected(self):
        rng = np.random.default_rng(5)
        fwd = _toy_pass(rng)
        with pytest.raises(ValueError, match="cover"):
            _head_values(fwd, [0, 1, 0], 0.7, np.array([1, 0]))


def _bandwidth(x):
    """The median-heuristic bandwidth ad._rbf takes of the rows of x."""
    return ad._rbf(np.asarray(x, dtype=np.float64))[1]


class TestMedianBandwidth:
    def test_two_point_hand_case(self):
        x = np.array([[0.0, 0.0], [2.0, 2.0]])  # squared distance 8
        np.testing.assert_allclose(_bandwidth(x), 2.0)

    def test_degenerate_inputs_fall_back_to_one(self):
        assert _bandwidth(np.ones((5, 3))) == 1.0
        assert _bandwidth(np.zeros((1, 3))) == 1.0

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
                assert _bandwidth(x) == want, n
        x = rng.normal(size=(6, 2))
        x[3, 1] = np.nan
        assert np.isnan(_bandwidth(x))

    def test_one_pass_is_the_bandwidth_then_the_gram(self):
        """ad._rbf shares the squared norms of its two distances and folds
        the gram's negation into its division, bit for bit the bandwidth
        and the gram computed apart (composed.median_bandwidth, .rbf), over
        1-300 rows, repeated rows and three scales."""
        rng = np.random.default_rng(43)
        for case in range(300):
            n = int(rng.integers(1, 301))
            x = rng.normal(size=(n, int(rng.integers(1, 64))))
            x *= 10.0 ** (case % 3 * 3 - 3)
            if case % 4 == 0:
                x[rng.integers(0, n, size=n // 2)] = x[0]
            want_bw = composed.median_bandwidth(x)
            gram, bw = ad._rbf(x)
            assert bw == want_bw, case
            np.testing.assert_array_equal(gram, composed.rbf(x, want_bw))


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
        t = ad.hsic_rbf(*ad.leaves({"x": x, "y": y}).values())
        np.testing.assert_allclose(t.item(), hsic_value(x, y), rtol=1e-12)

    def test_too_few_rows_rejected(self):
        with pytest.raises(ValueError, match="at least 2"):
            hsic_value(np.ones((1, 2)), np.ones((1, 2)))

    def test_row_count_mismatch_rejected(self):
        with pytest.raises(ValueError, match="same number"):
            hsic_value(np.ones((3, 2)), np.ones((4, 2)))

    @pytest.mark.parametrize("rows", [[0, 5], [0, 3], [-1, 1]])
    def test_row_outside_the_inputs_refused_first(self, rows):
        """A sample row past the inputs is refused with hsic_rbf's message,
        before the bandwidths gather it."""
        x, y = ad.leaves({"x": np.eye(3), "y": np.ones((3, 2))}).values()
        with pytest.raises(ValueError, match=r"row index outside \[0, 3\)"):
            ad.hsic_rbf(x, y, rows)


class TestTotalLoss:
    """total_loss on a _toy_pass of 3 egos whose node rows are the egos."""

    y = np.array([0, 1, 0])
    perm = np.array([2, 0, 1])

    def _loss(self, coefficients):
        fwd = _toy_pass(np.random.default_rng(30))
        return total_loss(fwd, self.y, 0.7, coefficients, self.perm,
                          np.arange(3))

    def _terms(self):
        """The four raw terms, from the composed chain of the head terms."""
        fwd = _toy_pass(np.random.default_rng(30))
        _, values = composed.two_head_loss(
            fwd.joint, fwd.graph_causal, fwd.graph_shortcut, fwd.head_causal,
            fwd.head_shortcut, self.y, 0.7, self.perm, (1.0, 1.0, 1.0))
        return (values["loss_s"], values["loss_c"], values["loss_cf"],
                ad.hsic_rbf(fwd.layers_causal[-1],
                            fwd.layers_shortcut[-1]).item())

    def test_weighted_sum_hand_case(self):
        total, breakdown = self._loss(
            RunConfig(lambda_counterfactual=10.0,
                      lambda_independence=0.1).coefficients)
        s, c, cf, h = self._terms()
        assert list(breakdown) == [*LOSS_TERMS, "ce_s", "ce_c"]
        assert [breakdown[k] for k in LOSS_TERMS] == [s, c, cf, h]
        assert total.item() == s + c + cf * 10.0 + h * 0.1

    def test_breakdown_holds_the_mean_detached_cross_entropies(self):
        _, breakdown = self._loss((1.0, 1.0, 1.0, 1.0))
        fwd = _toy_pass(np.random.default_rng(30))
        for key, head in (("ce_s", fwd.head_shortcut),
                          ("ce_c", fwd.head_causal)):
            probs = ad.softmax_head(fwd.joint, *head).data
            assert breakdown[key] == float(composed.nll_rows(probs, self.y).data.mean())

    def test_flag_and_zero_lambda_agree(self):
        by_flag, _ = self._loss(
            RunConfig(no_counterfactual_term=True,
                      lambda_independence=0.1).coefficients)
        by_zero, _ = self._loss(
            RunConfig(lambda_counterfactual=0.0,
                      lambda_independence=0.1).coefficients)
        s, c, _, h = self._terms()
        assert by_flag.item() == by_zero.item() == s + c + h * 0.1

    def test_breakdown_reports_ablated_terms(self):
        _, breakdown = self._loss(
            RunConfig(no_independence_term=True).coefficients)
        assert breakdown["loss_hsic"] == self._terms()[3]

    def test_coefficients_weigh_ablated_terms_zero(self):
        config = RunConfig(lambda_counterfactual=3.0, lambda_independence=0.2,
                           no_causal_term=True, no_independence_term=True)
        assert config.coefficients == (1.0, 0.0, 3.0, 0.0)
        total, _ = self._loss(config.coefficients)
        s, _, cf, _ = self._terms()
        assert total.item() == s + cf * 3.0

    @pytest.mark.parametrize("coefficients", [
        (1.0, 1.0, 1.0, 1.0), (1.0, 1.0, 10.0, 1.0), (0.0, 1.0, 0.0, 1.0),
        (0.0, 0.0, 0.0, 1.0)])
    def test_unit_weights_are_the_composed_chain_bit_for_bit(self, coefficients):
        """At lambda_independence 1 (the sweep's default grid) with unit
        head weights, the value and every gradient are those of the chain
        that adds a term weighed 1 as it is, without a multiply node."""
        rows = np.arange(3)

        def run(objective):
            fwd = _toy_pass(np.random.default_rng(31))
            loss = objective(fwd)
            leaves = {"h_c": fwd.graph_causal, "h_s": fwd.graph_shortcut,
                      "w_c": fwd.head_causal[0], "b_c": fwd.head_causal[1],
                      "w_s": fwd.head_shortcut[0], "b_s": fwd.head_shortcut[1]}
            return loss.data, ad.gradients(loss, leaves)

        def chain(fwd):
            heads, _ = composed.two_head_loss(
                fwd.joint, fwd.graph_causal, fwd.graph_shortcut,
                fwd.head_causal, fwd.head_shortcut, self.y, 0.7, self.perm,
                coefficients[:3])
            independence = ad.hsic_rbf(fwd.layers_causal[-1],
                                       fwd.layers_shortcut[-1], rows)
            return composed.weighted_sum((heads, independence),
                                         (1.0, coefficients[3]))

        got_value, got = run(lambda fwd: total_loss(
            fwd, self.y, 0.7, coefficients, self.perm, rows)[0])
        want_value, want = run(chain)
        np.testing.assert_array_equal(got_value, want_value)
        for key in want:
            np.testing.assert_array_equal(got[key], want[key], err_msg=key)

    def test_all_ablated_rejected(self):
        with pytest.raises(ValueError, match="ablated"):
            self._loss(RunConfig(no_shortcut_term=True, no_causal_term=True,
                                 no_counterfactual_term=True,
                                 no_independence_term=True).coefficients)

    def test_c01_composition_is_total_loss_bit_for_bit(self):
        """Acceptance criterion c01 differentiates its own composition of
        the objective; at the unperturbed point it must be total_loss."""
        rng = np.random.default_rng(20260816)
        for _ in range(25):
            build, values, objective = composed_objective_case(rng)
            leaves = ad.leaves(values)
            assert build(leaves).item() == objective(leaves).item()


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
        t = ad.leaves(params)
        logits = ad.edge_scorer(batch.endpoints, batch.features,
                                *(t[k] for k in _SCORER_KEYS))
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
        edge = ad.sigmoid(ad.edge_scorer(batch.endpoints, batch.features,
                                         *(t[k] for k in _SCORER_KEYS)))
        feat = ad.sigmoid(t["mask.feat"])
        causal = gcn_forward(batch.plan, batch.features, edge, feat,
                             [t["gnn_c.w0"], t["gnn_c.w1"]])
        shortcut = gcn_forward(batch.plan, batch.features,
                               ad.subtract(1.0, edge), ad.subtract(1.0, feat),
                               [t["gnn_s.w0"], t["gnn_s.w1"]])
        h_c, h_s = (ad.ego_readout(layers[-1], batch.ego_rows, batch.segments,
                                   t[proj]).data
                    for layers, proj in ((causal, "readout_c.proj"),
                                         (shortcut, "readout_s.proj")))
        for got, want in zip(fwd.layers_causal + fwd.layers_shortcut,
                             causal + shortcut, strict=True):
            np.testing.assert_array_equal(got.data, want.data)
        np.testing.assert_array_equal(fwd.graph_causal.data, h_c)
        np.testing.assert_array_equal(fwd.joint.data, np.hstack([h_c, h_s]))

    def test_layer_weights_apply_in_index_order(self):
        """From 11 layers on, "gnn_c.w10" sorts before "gnn_c.w2"; layer l
        must still apply gnn_c.w<l> (and gnn_s.w<l>)."""
        g = _toy_graph(seed=22)
        batch = _ego_batch(g, np.arange(g.num_nodes), hops=1)
        params = init_cdgnn_params(np.random.default_rng(22), 4, 6, 11, 3, 2)
        fwd = two_branch_forward(batch, params)
        for prefix, layers, edge, feat in (
                ("gnn_c", fwd.layers_causal, fwd.edge_mask, fwd.feature_mask),
                ("gnn_s", fwd.layers_shortcut, 1.0 - fwd.edge_mask.data,
                 1.0 - fwd.feature_mask.data)):
            ws = [params[f"{prefix}.w{l}"] for l in range(11)]
            want = gcn_forward(batch.plan, batch.features, edge, feat, ws)
            assert np.abs(want[-1].data).sum() > 0.0
            for got, layer in zip(layers, want, strict=True):
                np.testing.assert_array_equal(got.data, layer.data)

    def test_training_batch_creation_order(self):
        """Backward sums each gradient in reverse creation order, so the
        bitwise oracles rely on this order: edge mask, feature mask, every
        causal layer, every shortcut layer, causal readout, shortcut
        readout, joint."""
        g = _toy_graph(seed=23)
        batch = _ego_batch(g, np.arange(g.num_nodes), hops=2)
        params = init_cdgnn_params(np.random.default_rng(23), 4, 5, 3, 3, 2)
        fwd = two_branch_forward(batch, ad.leaves(params), 0.2,
                                 np.random.default_rng(24))
        order = [fwd.edge_mask, fwd.feature_mask, *fwd.layers_causal,
                 *fwd.layers_shortcut, fwd.graph_causal, fwd.graph_shortcut,
                 fwd.joint]
        indices = [t._index for t in order]
        assert len(order) == 11 and min(indices) >= 0
        assert indices == sorted(set(indices)), indices

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

    @pytest.mark.parametrize("shift", [-1, 1])
    def test_edge_ids_outside_the_graph_rejected(self, shift):
        """Ids shifted by -num_nodes would wrap onto the true edges, and by
        +num_nodes would index past the features."""
        ds = self._planted()
        params = init_mask_params(np.random.default_rng(20),
                                  ds.graph.features.shape[1], 16)
        bad = ds.causal_edges + shift * ds.graph.num_nodes
        with pytest.raises(ValueError, match=r"edge endpoint outside \[0, "):
            score_edges(params, ds.graph.features, bad)
        with pytest.raises(ValueError, match="outside"):
            disentanglement_score(params, ds.graph, bad, ds.shortcut_edges)
        with pytest.raises(ValueError, match="outside"):
            disentanglement_score(params, ds.graph, ds.causal_edges, bad)

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
