"""Closed-form gain expressions, Monte Carlo checks, and the audit."""

import tracemalloc

import numpy as np
import pytest

import composed
from cdgnn import gains as gains_mod
from cdgnn.gains import (
    GainParams,
    cumulative_gain_ratio,
    deep_layer_gain,
    default_grid_cells,
    effective_homophily,
    gain_improvement_check,
    monte_carlo_one_layer,
    one_layer_gain,
    theory_check_grid,
)
from cdgnn.graphs import Graph
from cdgnn.disentangle import init_cdgnn_params, score_edges
from cdgnn.harness import (INDEPENDENCE_THRESHOLD, _layer_cross_class_ratio,
                           assumption_audit)
from cdgnn.models import init_gcn_weights, init_head_params
from cdgnn.synth import preset


class TestEffectiveHomophily:
    def test_even_mix_hand_case(self):
        np.testing.assert_allclose(effective_homophily(0.5, 0.1, 0.7), 0.4)

    def test_share_extremes_select_one_part(self):
        assert effective_homophily(0.0, 0.1, 0.9) == 0.9
        assert effective_homophily(1.0, 0.1, 0.9) == 0.1

    def test_equal_parts_are_invariant_to_share(self):
        for share in (0.0, 0.3, 1.0):
            np.testing.assert_allclose(effective_homophily(share, 0.6, 0.6), 0.6)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="subgraph_share"):
            effective_homophily(1.2, 0.5, 0.5)


@pytest.mark.parametrize("field, value, message", [
    ("degree", -1, "degree must be nonnegative, got -1"),
    ("cross_class_ratio", -0.5,
     "cross_class_ratio must be nonnegative, got -0.5"),
    ("subgraph_share", 1.2, r"subgraph_share must be in \[0, 1\], got 1.2"),
    ("rest_homophily", -0.1, r"rest_homophily must be in \[0, 1\], got -0.1"),
])
def test_invalid_gain_params_refused_when_built(field, value, message):
    valid = dict(degree=3, total_edge_weight=3, cross_class_ratio=0.5,
                 subgraph_share=0.5, subgraph_homophily=0.2,
                 rest_homophily=0.8)
    with pytest.raises(ValueError, match=f"^{message}$"):
        GainParams(**{**valid, field: value})


class TestOneLayerGain:
    def test_mixed_neighborhood_hand_case(self):
        np.testing.assert_allclose(one_layer_gain(3, 3, 0.5, 0.2), 0.1,
                                   rtol=1e-12)

    def test_zero_edge_weight_keeps_self_share(self):
        for d in (1, 4, 9):
            np.testing.assert_allclose(one_layer_gain(d, 0.0, 1.0, 0.3),
                                       1.0 / (d + 1))

    def test_pure_homophily_full_weight_is_unity(self):
        for d in (2, 5, 12):
            np.testing.assert_allclose(one_layer_gain(d, d, 0.7, 1.0), 1.0)

    def test_nondecreasing_in_homophily(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            d = rng.integers(1, 20)
            w = rng.uniform(0.0, d)
            rho = rng.uniform(0.0, 2.0)
            hs = np.sort(rng.uniform(0.0, 1.0, size=2))
            assert (one_layer_gain(d, w, rho, hs[1])
                    >= one_layer_gain(d, w, rho, hs[0]) - 1e-15)

    def test_nonincreasing_in_suspect_share_when_suspect_lags(self):
        """More weight on the low-homophily part can only hurt the gain."""
        shares = np.linspace(0.05, 0.8, 8)
        gains = [GainParams(degree=6, total_edge_weight=6,
                            cross_class_ratio=0.5, subgraph_share=s,
                            subgraph_homophily=0.1, rest_homophily=0.8).gain
                 for s in shares]
        assert all(a >= b - 1e-15 for a, b in zip(gains, gains[1:]))

    def test_invalid_arguments_rejected(self):
        with pytest.raises(ValueError, match="degree"):
            one_layer_gain(-1, 1, 0.5, 0.5)
        with pytest.raises(ValueError, match="homophily"):
            one_layer_gain(3, 3, 0.5, 1.5)
        with pytest.raises(ValueError, match="cross_class_ratio"):
            one_layer_gain(3, 3, -0.1, 0.5)


class TestDeepLayerGain:
    def test_negative_relative_degree_hand_case(self):
        gain = deep_layer_gain(4, 0.5, 0.3, -0.2)
        np.testing.assert_allclose(gain, 0.208, rtol=1e-12)

    def test_zero_relative_degree_keeps_self_share(self):
        for d in (1, 5, 9):
            gain = deep_layer_gain(d, 1.0, 0.4, 0.0)
            np.testing.assert_allclose(gain, 1.0 / (d + 1))

    def test_pure_homophily_closed_form(self):
        d, rbar = 6, 0.5
        gain = deep_layer_gain(d, 0.8, 1.0, rbar)
        np.testing.assert_allclose(gain, (d * rbar + 1.0) / (d + 1))

    def test_nonincreasing_in_ratio_for_nonnegative_relative_degree(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            d = rng.integers(1, 15)
            h = rng.uniform(0.0, 1.0)
            rbar = rng.uniform(0.0, 1.0)
            rhos = np.sort(rng.uniform(0.0, 2.0, size=2))
            lo = deep_layer_gain(d, rhos[1], h, rbar)
            hi = deep_layer_gain(d, rhos[0], h, rbar)
            assert lo <= hi + 1e-15

    def test_increasing_in_ratio_when_relative_degree_negative(self):
        """Sign flip: a negative carry inverts the ratio's effect."""
        low = deep_layer_gain(4, 0.0, 0.3, -0.2)
        mid = deep_layer_gain(4, 0.5, 0.3, -0.2)
        high = deep_layer_gain(4, 1.0, 0.3, -0.2)
        np.testing.assert_allclose([low, mid, high], [0.152, 0.208, 0.264],
                                   rtol=1e-12)
        assert low < mid < high


class TestCumulativeGainRatio:
    def test_doubling_over_three_layers(self):
        np.testing.assert_allclose(cumulative_gain_ratio(0.8, 0.4, 3), 8.0)

    def test_depth_one_is_plain_ratio(self):
        np.testing.assert_allclose(cumulative_gain_ratio(0.6, 0.2, 1), 3.0)

    def test_guards(self):
        with pytest.raises(ValueError, match="positive"):
            cumulative_gain_ratio(0.0, 0.5, 2)
        with pytest.raises(ValueError, match="depth"):
            cumulative_gain_ratio(0.5, 0.5, 0)


def _improvement_pair(share_after=0.05, rbar=0.0):
    base = GainParams(degree=5, total_edge_weight=5, cross_class_ratio=0.5,
                      subgraph_share=0.8, subgraph_homophily=0.1,
                      rest_homophily=0.6, mean_relative_degree=rbar)
    causal = GainParams(degree=5, total_edge_weight=5, cross_class_ratio=0.5,
                        subgraph_share=share_after, subgraph_homophily=0.1,
                        rest_homophily=0.6, mean_relative_degree=rbar)
    return base, causal


class TestImprovementCheck:
    def test_hand_case_margins(self):
        base, causal = _improvement_pair()
        report = gain_improvement_check(base, causal, gap=0.5,
                                        estimate_error=0.05)
        assert report.assumptions_met
        assert report.homophily_gain == 0.375
        assert report.homophily_bound == 0.275
        assert report.slack == 0.1
        np.testing.assert_allclose(report.homophily_before, 0.2, atol=1e-15)
        np.testing.assert_allclose(report.homophily_after, 0.575, atol=1e-15)
        np.testing.assert_allclose(report.one_layer_margin, 0.46875,
                                   atol=1e-12)
        np.testing.assert_allclose(report.one_layer_bound, 0.34375,
                                   atol=1e-12)
        assert report.homophily_gain >= report.homophily_bound
        assert report.one_layer_margin >= report.one_layer_bound
        assert report.improved

    def test_bound_is_conservative_over_random_instances(self):
        rng = np.random.default_rng(3)
        checked = 0
        while checked < 40:
            h_s = rng.uniform(0.0, 0.4)
            gap = rng.uniform(0.1, 0.5)
            h_r = h_s + gap + rng.uniform(0.0, 0.3)
            if h_r > 1.0:
                continue
            before = rng.uniform(0.3, 0.9)
            err = rng.uniform(0.0, 0.1)
            after = rng.uniform(0.0, err) if err > 0 else 0.0
            base = GainParams(degree=4, total_edge_weight=4,
                              cross_class_ratio=1.0, subgraph_share=before,
                              subgraph_homophily=h_s, rest_homophily=h_r)
            causal = GainParams(degree=4, total_edge_weight=4,
                                cross_class_ratio=1.0, subgraph_share=after,
                                subgraph_homophily=h_s, rest_homophily=h_r)
            report = gain_improvement_check(base, causal, gap=gap,
                                            estimate_error=err)
            assert report.assumptions_met
            assert report.homophily_gain >= report.homophily_bound - 1e-12
            assert report.one_layer_margin >= report.one_layer_bound - 1e-12
            checked += 1

    def test_residual_dominance_fails_precondition(self):
        base, causal = _improvement_pair(share_after=0.2)
        report = gain_improvement_check(base, causal, gap=0.5,
                                        estimate_error=0.05)
        assert not report.assumptions_met
        assert "dominance" in report.reason
        assert not report.improved
        assert report.homophily_gain == (report.homophily_after
                                         - report.homophily_before)

    def test_insufficient_gap_fails_precondition(self):
        base, causal = _improvement_pair()
        report = gain_improvement_check(base, causal, gap=0.6,
                                        estimate_error=0.05)
        assert not report.assumptions_met
        assert "gap" in report.reason

    def test_unchanged_share_bound_is_negative_slack(self):
        base, _ = _improvement_pair()
        report = gain_improvement_check(base, base, gap=0.5,
                                        estimate_error=0.9)
        assert report.assumptions_met
        np.testing.assert_allclose(report.homophily_bound, -1.8)
        assert not report.improved

    def test_deep_margin_needs_positive_relative_degree(self):
        base, causal = _improvement_pair(rbar=0.0)
        report = gain_improvement_check(base, causal, gap=0.5,
                                        estimate_error=0.05)
        assert report.deep_margin is None

        base, causal = _improvement_pair(rbar=0.4)
        report = gain_improvement_check(base, causal, gap=0.5,
                                        estimate_error=0.05)
        assert report.deep_margin is not None
        assert report.deep_margin >= report.deep_bound - 1e-12

    def test_cumulative_ratio_present_for_positive_gains(self):
        base = GainParams(degree=3, total_edge_weight=3, cross_class_ratio=0.0,
                          subgraph_share=0.6, subgraph_homophily=0.2,
                          rest_homophily=0.9)
        causal = GainParams(degree=3, total_edge_weight=3,
                            cross_class_ratio=0.0, subgraph_share=0.0,
                            subgraph_homophily=0.2, rest_homophily=0.9)
        report = gain_improvement_check(base, causal, gap=0.5,
                                        estimate_error=0.0, depth=3)
        expected = (report.one_layer_after / report.one_layer_before) ** 3
        np.testing.assert_allclose(report.cumulative_ratio, expected)
        assert report.cumulative_ratio > 1.0

    def test_depth_below_one_rejected_whatever_the_gains(self):
        """A pair with positive gains and one whose baseline gain is
        negative (so no cumulative ratio is formed) refuse depth 0 alike."""
        positive = _improvement_pair()
        negative = (GainParams(degree=3, total_edge_weight=3,
                               cross_class_ratio=3, subgraph_share=0.6,
                               subgraph_homophily=0.0, rest_homophily=0.9),
                    GainParams(degree=3, total_edge_weight=3,
                               cross_class_ratio=0, subgraph_share=0.0,
                               subgraph_homophily=0.0, rest_homophily=0.9))
        assert negative[0].gain < 0 < negative[1].gain
        for base, causal in (positive, negative):
            for depth in (0, -1):
                with pytest.raises(ValueError, match="depth must be at least 1"):
                    gain_improvement_check(base, causal, gap=0.5,
                                           estimate_error=0.05, depth=depth)

    def test_negative_gap_rejected(self):
        base, causal = _improvement_pair()
        with pytest.raises(ValueError, match="gap"):
            gain_improvement_check(base, causal, gap=-0.1, estimate_error=0.05)


def _mc_params(degree=3, weight=None, rho=0.5, h_sub=0.2, h_rest=0.2,
               share=1.0):
    return GainParams(degree=degree,
                      total_edge_weight=degree if weight is None else weight,
                      cross_class_ratio=rho, subgraph_share=share,
                      subgraph_homophily=h_sub, rest_homophily=h_rest)


def _per_emission_monte_carlo(params, subgraph_degree, rest_degree,
                              noise_ratio=0.1, num_samples=100_000, seed=0):
    """Oracle: the sampler monte_carlo_one_layer ran before it drew each
    group's sufficient statistics, one uniform and one normal per neighbor.
    Returns (empirical gain, its standard error) at signal 1."""
    rng = np.random.default_rng(seed)
    noise_std = np.sqrt(noise_ratio)
    rho = params.cross_class_ratio
    degree = subgraph_degree + rest_degree
    edge_weight = params.total_edge_weight / degree

    def group(count, homophily):
        if count == 0:
            return np.zeros(num_samples)
        same = rng.random((num_samples, count)) < homophily
        emit = np.where(same, 1.0, -rho)
        if noise_ratio > 0:
            emit = emit + rng.normal(0.0, noise_std, size=emit.shape)
        return emit.sum(axis=1)

    total = group(subgraph_degree, params.subgraph_homophily)
    total = total + group(rest_degree, params.rest_homophily)
    center = 1.0
    if noise_ratio > 0:
        center = center + rng.normal(0.0, noise_std, size=num_samples)
    gains = (center + edge_weight * total) / (degree + 1.0)
    return gains.mean(), gains.std(ddof=1) / np.sqrt(num_samples)


# (params, subgraph_degree, rest_degree, noise_ratio): split groups,
# noiseless, homophily 0 and 1, and cross-class ratio 0.
_ORACLE_CELLS = [
    (_mc_params(degree=8, weight=5.0, rho=0.5, h_sub=0.2, h_rest=0.7),
     3, 5, 0.1),
    (_mc_params(degree=4, rho=1.0, h_sub=0.3, h_rest=0.3), 4, 0, 0.0),
    (_mc_params(degree=5, rho=1.0, h_sub=0.0, h_rest=1.0), 2, 3, 0.1),
    (_mc_params(degree=15, rho=0.0, h_sub=0.5, h_rest=0.5), 15, 0, 0.1),
    (_mc_params(degree=6, rho=0.5, h_sub=0.9, h_rest=0.1), 2, 4, 0.0),
]


class TestMonteCarloAgainstPerEmissionOracle:
    @pytest.mark.parametrize("cell", range(len(_ORACLE_CELLS)))
    def test_same_law_as_per_emission_draws(self, cell):
        params, sub, rest, noise = _ORACLE_CELLS[cell]
        mc = monte_carlo_one_layer(params, sub, rest, noise_ratio=noise,
                                   seed=30 + cell)
        mean, stderr = _per_emission_monte_carlo(params, sub, rest, noise,
                                                 seed=30 + cell)
        assert abs(mc.empirical - mean) <= 4.0 * np.hypot(mc.stderr, stderr)
        np.testing.assert_allclose(mc.stderr, stderr, rtol=0.05)


def _across_seeds(sample, seeds):
    """Mean and spread of the empirical gains, then of the stderrs, of
    `sample(seed)` over `seeds`."""
    draws = np.array([sample(seed) for seed in seeds])
    return (*draws.mean(axis=0), *draws.std(axis=0, ddof=1))


@pytest.mark.parametrize("cell", range(len(_ORACLE_CELLS)))
def test_across_seeds_the_law_of_per_emission_draws(cell):
    """The drawn (mean, stderr) pair has the law of the per-emission
    sampler's: same center and spread of the mean, same typical stderr
    and spread of it."""
    params, sub, rest, noise = _ORACLE_CELLS[cell]
    seeds = 1000

    def drawn(seed):
        mc = monte_carlo_one_layer(params, sub, rest, noise_ratio=noise,
                                   num_samples=1000, seed=seed)
        return mc.empirical, mc.stderr

    def per_emission(seed):
        return _per_emission_monte_carlo(params, sub, rest, noise,
                                         num_samples=1000, seed=seed)

    mean, stderr, spread, stderr_spread = _across_seeds(
        drawn, range(10_000, 10_000 + seeds))
    want = _across_seeds(per_emission, range(seeds))
    assert abs(mean - want[0]) <= 4.0 * np.hypot(spread, want[2]) / np.sqrt(seeds)
    np.testing.assert_allclose(stderr, want[1], rtol=0.01)
    np.testing.assert_allclose(spread, want[2], rtol=0.15)
    np.testing.assert_allclose(stderr_spread, want[3], rtol=0.15)


class TestMonteCarlo:
    def test_noiseless_pure_homophily_is_exact(self):
        params = _mc_params(degree=4, h_sub=1.0, h_rest=1.0)
        mc = monte_carlo_one_layer(params, 4, 0, noise_ratio=0.0,
                                   num_samples=2000)
        assert mc.empirical == mc.analytic == 1.0
        assert mc.stderr == 0.0

    def test_mixed_hand_case_within_three_stderr(self):
        mc = monte_carlo_one_layer(_mc_params(), 3, 0, seed=7)
        np.testing.assert_allclose(mc.analytic, 0.1, rtol=1e-12)
        assert mc.within()

    def test_split_groups_match_mixture_formula(self):
        params = _mc_params(degree=6, h_sub=0.1, h_rest=0.9)
        mc = monte_carlo_one_layer(params, 3, 3, seed=8)
        np.testing.assert_allclose(
            mc.analytic, one_layer_gain(6, 6, 0.5, 0.5), rtol=1e-12)
        assert mc.within()

    def test_stderr_shrinks_with_sample_count(self):
        params = _mc_params()
        small = monte_carlo_one_layer(params, 3, 0, num_samples=20_000, seed=9)
        large = monte_carlo_one_layer(params, 3, 0, num_samples=80_000, seed=9)
        np.testing.assert_allclose(large.stderr / small.stderr, 0.5, rtol=0.1)

    def test_input_guards(self):
        params = _mc_params()
        with pytest.raises(ValueError, match="sum"):
            monte_carlo_one_layer(params, 2, 0)
        with pytest.raises(ValueError, match="num_samples"):
            monte_carlo_one_layer(params, 3, 0, num_samples=10)

    @pytest.mark.parametrize("cell", range(len(_ORACLE_CELLS)))
    def test_three_stderr_cover_the_analytic_gain_at_its_rate(self, cell):
        """A normal mean lies within 3 stderr with probability 0.9973."""
        params, sub, rest, noise = _ORACLE_CELLS[cell]
        hits = [monte_carlo_one_layer(params, sub, rest, noise_ratio=noise,
                                      num_samples=2000, seed=seed).within()
                for seed in range(1000)]
        assert 0.99 <= np.mean(hits) <= 1.0

    @pytest.mark.parametrize("homophily", [0.0, 1.0])
    def test_zero_spread_cell_has_only_the_noise_spread(self, homophily):
        """Every sample has the same match count, so only the noise moves
        the result: the mean by N(0, tau^2 / N) and the sum of squares to
        tau^2 (Z^2 + chi^2_{N-2}), drawn in that order after the counts,
        with tau^2 = noise (w^2 d + 1) / (d + 1)^2."""
        params = _mc_params(degree=4, weight=2.0, h_sub=homophily,
                            h_rest=homophily)
        emitted = 4.0 if homophily == 1.0 else -0.5 * 4
        gain = (1.0 + 0.5 * emitted) / 5.0
        tau = np.sqrt(0.1 * (0.5**2 * 4 + 1.0)) / 5.0
        n = 100_000
        for seed in range(20):
            mc = monte_carlo_one_layer(params, 4, 0, noise_ratio=0.1,
                                       num_samples=n, seed=seed)
            rng = np.random.default_rng(seed)
            rng.multinomial(n, np.eye(5)[4 if homophily == 1.0 else 0])
            noise_mean = rng.normal(0.0, tau / np.sqrt(n))
            z = rng.normal()
            rest = rng.chisquare(n - 2)
            np.testing.assert_allclose(mc.empirical, gain + noise_mean,
                                       rtol=1e-12, atol=1e-15)
            np.testing.assert_allclose(
                mc.stderr, tau * np.sqrt((z * z + rest) / (n - 1) / n),
                rtol=1e-12)
            np.testing.assert_allclose(mc.stderr, tau / np.sqrt(n), rtol=0.02)

    def test_degree_past_float_binomial_coefficients(self):
        """C(5000, 2500) overflows a float; the sampler works in logs."""
        params = _mc_params(degree=5000, h_sub=0.5, h_rest=0.5)
        mc = monte_carlo_one_layer(params, 5000, 0, seed=2)
        assert np.isfinite(mc.empirical) and mc.stderr > 0
        assert mc.within()

    def test_memory_does_not_grow_with_samples(self):
        tracemalloc.start()
        try:
            mc = monte_carlo_one_layer(_mc_params(degree=15, h_sub=0.5,
                                                  h_rest=0.5),
                                       15, 0, num_samples=10**9, seed=3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000
        assert mc.within()

    def test_large_split_cell_costs_its_degree(self):
        """Draws run over the degree + 1 match sums, so a 1000 + 1000 cell
        neither builds a million (a, b) pairs nor needs logs past
        C(1000, 500)."""
        params = _mc_params(degree=2000, rho=0.5, h_sub=0.2, h_rest=0.7,
                            share=0.5)
        tracemalloc.start()
        try:
            mc = monte_carlo_one_layer(params, 1000, 1000, seed=4)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000
        np.testing.assert_allclose(
            mc.analytic, one_layer_gain(2000, 2000, 0.5, 0.45), rtol=1e-12)
        assert mc.within()

    def test_seed_reproducible(self):
        a = monte_carlo_one_layer(_mc_params(), 3, 0, seed=11)
        b = monte_carlo_one_layer(_mc_params(), 3, 0, seed=11)
        assert a.empirical == b.empirical
        assert a.stderr == b.stderr


class TestTheoryGrid:
    def test_default_grid_shape_and_order(self):
        cells = default_grid_cells()
        assert len(cells) == 27
        assert cells[0] == {"degree": 3, "homophily": 0.1,
                            "cross_class_ratio": 0.0}
        assert cells[1]["cross_class_ratio"] == 0.5
        assert cells[3]["homophily"] == 0.5
        assert cells[9]["degree"] == 8

    def test_small_grid_coverage(self):
        cells = default_grid_cells(degrees=(3, 8), homophilies=(0.2, 0.8),
                                   ratios=(0.0, 1.0))
        check = theory_check_grid(cells, num_samples=20_000, seed=0)
        assert check.total == 8
        assert check.within_count / check.total >= 0.75
        row = check.rows[0]
        assert set(row) == {"degree", "homophily", "cross_class_ratio",
                            "analytic", "empirical", "stderr", "deviation",
                            "within"}

    def test_cell_weight_defaults_to_degree(self):
        check = theory_check_grid([{"degree": 5, "homophily": 0.5,
                                    "cross_class_ratio": 0.0}],
                                  num_samples=5000, seed=1)
        np.testing.assert_allclose(check.rows[0]["analytic"],
                                   one_layer_gain(5, 5, 0.0, 0.5))

    def test_empty_grid_rejected(self):
        """No cell checked is no pass."""
        with pytest.raises(ValueError, match="no cells"):
            theory_check_grid([])

    def test_fractional_degree_rejected_before_any_cell_runs(self,
                                                              monkeypatch):
        """int() would quietly check degree 2 for 2.7; 3.0 is a degree."""
        def unreachable(*args, **kwargs):
            raise AssertionError("a cell ran before the grid was checked")

        monkeypatch.setattr(gains_mod, "monte_carlo_one_layer", unreachable)
        cell = {"homophily": 0.5, "cross_class_ratio": 0.0}
        for bad in (2.7, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="cell 1 degree must be a "
                                                 "whole number"):
                theory_check_grid([{**cell, "degree": 3},
                                   {**cell, "degree": bad}], num_samples=1000)
        monkeypatch.undo()
        check = theory_check_grid([{**cell, "degree": 3.0}], num_samples=1000)
        assert check.rows[0]["degree"] == 3

    def test_degree_below_one_rejected_before_any_cell_runs(self,
                                                            monkeypatch):
        """Cell 0 is fine, so the refusal has to come before it runs."""
        def unreachable(*args, **kwargs):
            raise AssertionError("a cell ran before the grid was checked")

        monkeypatch.setattr(gains_mod, "monte_carlo_one_layer", unreachable)
        cell = {"homophily": 0.5, "cross_class_ratio": 0.0}
        for bad in (0, -2, 0.0):
            with pytest.raises(ValueError,
                               match="cell 1 degree must be at least 1"):
                theory_check_grid([{**cell, "degree": 3},
                                   {**cell, "degree": bad}], num_samples=1000)


    _CELL = {"degree": 3, "homophily": 0.5, "cross_class_ratio": 0.0}

    @pytest.mark.parametrize("bad, needle", [
        ("3", "grid cell 1 must be an object"),
        ({"degree": 3, "cross_class_ratio": 0.0},
         "grid cell 1 missing key homophily"),
        ({"degree": 3}, "grid cell 1 missing key homophily, cross_class_ratio"),
        ({**_CELL, "homophily": None},
         "grid cell 1 homophily must be a number, got null"),
        ({**_CELL, "cross_class_ratio": "0.5"},
         'grid cell 1 cross_class_ratio must be a number, got "0.5"'),
        ({**_CELL, "degree": True},
         "grid cell 1 degree must be a number, got true"),
        ({**_CELL, "total_edge_weight": {3}},
         'grid cell 1 total_edge_weight must be a number, got "{3}"'),
        ({**_CELL, "degree": 10 ** 400},
         "grid cell 1 degree is too large for a float"),
        ({**_CELL, "homophily": -10 ** 400},
         "grid cell 1 homophily is too large for a float"),
    ])
    def test_malformed_cell_rejected_before_any_cell_runs(self, monkeypatch,
                                                          bad, needle):
        def unreachable(*args, **kwargs):
            raise AssertionError("a cell ran before the grid was checked")

        monkeypatch.setattr(gains_mod, "monte_carlo_one_layer", unreachable)
        with pytest.raises(ValueError) as err:
            theory_check_grid([self._CELL, bad], num_samples=1000)
        assert str(err.value) == needle

    def test_numpy_numbers_are_numbers(self):
        cell = {"degree": np.int64(3), "homophily": np.float64(0.5),
                "cross_class_ratio": np.float32(0.0)}
        check = theory_check_grid([cell], num_samples=1000)
        assert check.rows[0]["degree"] == 3


def _ring_graph(n=12, dim=6, seed=21):
    rng = np.random.default_rng(seed)
    edges = np.array([(i, (i + 1) % n) for i in range(n)])
    return Graph(n, edges, rng.normal(size=(n, dim)),
                 rng.integers(0, 2, size=n), 2)


def _audit_params(rng, dim, hidden=4, layers=2, classes=2):
    return init_cdgnn_params(rng, dim, hidden, layers, 16, classes)


class TestAssumptionAudit:
    def test_report_fields_populated(self):
        g = _ring_graph()
        params = _audit_params(np.random.default_rng(22), 6)
        report = assumption_audit(g, params, hops=2, seed=0)
        assert 0.0 <= report.dominance_share <= 1.0  # mask shared per depth
        assert len(report.cross_class_ratios) == 2
        assert report.independence >= -1e-10
        assert 0.0 <= report.sensitivity <= 1.0
        assert report.live_units == ([4, 4], [4, 4])
        assert report.distinct_embeddings == (12, 12)
        assert report.passed == (report.independence_ok
                                 and report.sensitivity_ok
                                 and report.dominance_ok
                                 and report.liveness_ok)

    def test_silenced_shortcut_branch_passes_exactly(self):
        """Zero shortcut weights and a saturated mask leave nothing to leak:
        the three leak checks pass, at exactly 0. The shortcut branch is
        then dead, which the liveness check fails."""
        g = _ring_graph(seed=23)
        params = _audit_params(np.random.default_rng(23), 6)
        for key in list(params):
            if key.startswith("gnn_s.") or key.startswith("readout_s."):
                params[key] = np.zeros_like(params[key])
        params["mask.w2"] = np.zeros_like(params["mask.w2"])
        params["mask.b2"] = np.full_like(params["mask.b2"], 40.0)
        report = assumption_audit(g, params, hops=2, seed=0)
        assert report.independence == 0.0
        assert report.sensitivity == 0.0
        assert report.dominance_share == 0.0
        assert (report.independence_ok and report.sensitivity_ok
                and report.dominance_ok)
        assert report.live_units[1] == [0, 0]
        assert report.distinct_embeddings[1] == 1
        assert not report.liveness_ok and not report.passed

    def test_dead_branch_fails(self):
        """A fresh tree_cycles model with its shortcut encoder zeroed: HSIC
        and the swap see a constant branch and read 0, so only the
        liveness check can fail it."""
        g, _ = preset("tree_cycles", seed=0)
        params = _audit_params(np.random.default_rng(0), g.feature_dim,
                               hidden=8, classes=g.num_classes)
        for key in params:
            if key.startswith("gnn_s.w"):
                params[key] = np.zeros_like(params[key])
        report = assumption_audit(g, params, hops=2, seed=0)
        assert report.independence == 0.0 and report.sensitivity == 0.0
        assert report.live_units[1] == [0, 0]
        assert min(report.live_units[0]) > 0
        assert report.distinct_embeddings[1] == 1
        assert not report.liveness_ok and not report.passed

    def test_undefined_cross_class_ratio_is_nan(self):
        """No edges, or no same-class signal, leave the ratio undefined;
        it is not the best value, 0."""
        labels = np.array([0, 1, 0])
        assert np.isnan(_layer_cross_class_ratio(
            np.ones((3, 2)), np.zeros((0, 2), dtype=np.int64), labels))
        assert np.isnan(_layer_cross_class_ratio(
            np.zeros((3, 2)), np.array([[0, 1], [0, 2]]), labels))

    def test_identical_branches_flag_dependence(self):
        """Copying the causal branch into the shortcut maximizes dependence."""
        g = _ring_graph(seed=24)
        params = _audit_params(np.random.default_rng(24), 6)
        for key in list(params):
            if key.startswith("gnn_c."):
                params[key.replace("gnn_c.", "gnn_s.")] = params[key].copy()
        params["readout_s.proj"] = params["readout_c.proj"].copy()
        params["mask.w2"] = np.zeros_like(params["mask.w2"])  # even masks
        report = assumption_audit(g, params, hops=2, seed=0)
        assert not report.independence_ok
        assert report.independence > INDEPENDENCE_THRESHOLD

    def test_cross_class_edges_give_a_positive_ratio(self):
        """Labels 0,0,1,1,... round a ring: every 2-hop ego holds same-class
        and cross-class edges, so each layer's ratio is above 0."""
        g = _ring_graph()
        g = g.with_labels((np.arange(g.num_nodes) // 2) % 2)
        params = _audit_params(np.random.default_rng(26), 6)
        report = assumption_audit(g, params, hops=2, seed=0)
        assert len(report.cross_class_ratios) == 2
        assert min(report.cross_class_ratios) > 0.0

    @pytest.mark.parametrize("layers", [1, 3])
    def test_ratios_are_the_propagated_layers_bit_for_bit(self, layers):
        """The audit reads the forward's causal layers; propagating them
        again by hand gives the same floats."""
        g = _ring_graph(n=30, seed=27)
        g = g.with_labels((np.arange(g.num_nodes) // 3) % 2)
        rng = np.random.default_rng(27)
        params = _audit_params(rng, 6, layers=layers)
        for key in params:
            params[key] = params[key] + 0.5 * rng.normal(size=params[key].shape)
        nodes = np.arange(0, 30, 2)
        report = assumption_audit(g, params, hops=2, nodes=nodes, seed=0)
        oracle = composed.audit_cross_class_ratios(g, params, 2, nodes)
        assert len(oracle) == layers and min(oracle) > 0.0
        assert report.cross_class_ratios == oracle

    def test_gcn_or_unfitting_parameters_refused(self):
        g = _ring_graph(seed=28)  # 6 features, 2 classes
        rng = np.random.default_rng(28)
        gcn = {**init_gcn_weights(rng, 6, 4, 2, "gcn"),
               **init_head_params(rng, 4, 2, "head")}
        with pytest.raises(ValueError, match="audit needs a cdgnn model, "
                                             "the parameters hold a gcn"):
            assumption_audit(g, gcn, hops=2)
        with pytest.raises(ValueError, match="takes 6 features and 3 classes"):
            assumption_audit(g, _audit_params(rng, 6, classes=3), hops=2)

    def test_dominance_counts_each_graph_edge_once(self):
        """Two overlapping 2-hop egos on a path share the edges around
        them; each edge of the graph enters the share once, whatever the
        number of ego copies."""
        rng = np.random.default_rng(29)
        g = Graph(6, np.array([(i, i + 1) for i in range(5)]),
                  rng.normal(size=(6, 6)), rng.integers(0, 2, size=6), 2)
        params = _audit_params(rng, 6)
        params["mask.w2"] = rng.normal(size=params["mask.w2"].shape) * 3
        nodes = np.array([2, 3])
        report = assumption_audit(g, params, hops=2, nodes=nodes, seed=0)
        used = np.array([(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)])
        mask = 1.0 / (1.0 + np.exp(-score_edges(params, g.features, used)))
        assert (mask < 0.5).any() and (mask > 0.5).any()
        np.testing.assert_allclose(report.dominance_share,
                                   mask[mask < 0.5].sum() / mask.sum(),
                                   rtol=1e-12)

    def test_too_few_nodes_rejected(self):
        g = _ring_graph(seed=25)
        params = _audit_params(np.random.default_rng(25), 6)
        with pytest.raises(ValueError, match="at least 2"):
            assumption_audit(g, params, hops=1, nodes=np.array([0]))
