"""Acceptance gate: one test per shipped guarantee.

Each test prints a single `criterion NN: PASS/FAIL` line (run with -s to
stream them) and enforces its own wall-clock budget. Tolerances and
budgets are part of the contract; do not loosen them to make a red test
green.
"""

import functools
import time

import numpy as np
import pytest

from composed import (composed_objective_case, gce_grad_identity_check,
                      hsic_value, relu, softmax_head)
from fdcheck import PRIMITIVE_CASES, max_relative_error

from cdgnn import autodiff as ad
from cdgnn.disentangle import disentanglement_score
from cdgnn.gains import (
    GainParams,
    cumulative_gain_ratio,
    deep_layer_gain,
    default_grid_cells,
    gain_improvement_check,
    one_layer_gain,
    theory_check_grid,
)
from cdgnn.graphs import Graph, label_heterophily, feature_heterophily
from cdgnn.harness import RunConfig, run_experiment, train_cdgnn, split_nodes
from cdgnn.synth import (
    planted_shortcut,
    preset,
    relabel_to_heterophily,
)


def criterion(number, limit_seconds, description):
    """Print one pass/fail line and enforce the runtime budget."""

    def wrap(fn):
        @functools.wraps(fn)
        def inner(*args, **kwargs):
            start = time.perf_counter()
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"criterion {number:2d}: FAIL  {description}")
                raise
            elapsed = time.perf_counter() - start
            print(f"criterion {number:2d}: PASS  {description} "
                  f"({elapsed:.1f}s)")
            assert elapsed < limit_seconds, (
                f"criterion {number} exceeded its {limit_seconds}s budget: "
                f"{elapsed:.1f}s")
        return inner
    return wrap


# ---------------------------------------------------------------------------
# shared fixtures


def _planted_fixture():
    return planted_shortcut(num_egos=100, seed=0)


def _relabeled_tree_cycles():
    g, _ = preset("tree_cycles", seed=0)
    return relabel_to_heterophily(g, target=0.5, seed=0).graph


_GCN_QUICK = RunConfig(learning_rate=0.02, hidden=16, dropout=0.0, layers=2,
                       epochs=30, patience=30, batch_size=32)

_CDGNN_QUICK = RunConfig(learning_rate=0.02, hidden=32, dropout=0.0, layers=2,
                         q=0.7, lambda_counterfactual=10.0,
                         lambda_independence=0.1, epochs=40, patience=40,
                         batch_size=16, scorer_hidden=16)


# ---------------------------------------------------------------------------
# criteria


@criterion(1, 60, "finite differences confirm every primitive and the "
                  "composed objective")
def test_c01_gradient_correctness():
    rng = np.random.default_rng(20260816)
    instances = 0
    for name, sampler in PRIMITIVE_CASES.items():
        for _ in range(100):
            build, values = sampler(rng)
            err = max_relative_error(build, values)
            assert err < 1e-4, f"{name}: relative error {err:.2e}"
            instances += 1
    for _ in range(100):
        build, values, _ = composed_objective_case(rng)
        err = max_relative_error(build, values)
        assert err < 1e-4, f"composed objective: relative error {err:.2e}"
        instances += 1
    assert instances >= 100


@criterion(2, 30, "amplified-loss gradient equals the probability-scaled "
                  "plain gradient")
def test_c02_gce_gradient_identity():
    rng = np.random.default_rng(2)
    for model in range(50):
        dim, classes = 3, 4
        x = rng.normal(size=(1, dim))
        if model % 2 == 0:
            params = {"w": rng.normal(size=(dim, classes)),
                      "b": rng.normal(size=(1, classes))}

            def forward(t):
                return softmax_head(x, t["w"], t["b"])
        else:
            params = {"w1": rng.normal(size=(dim, 5)),
                      "b1": rng.normal(size=(1, 5)),
                      "w2": rng.normal(size=(5, classes))}

            def forward(t):
                hidden = relu(ad.add(ad.matmul(x, t["w1"]), t["b1"]))
                return softmax_head(hidden, t["w2"], np.zeros((1, classes)))

        label = int(rng.integers(classes))
        for q in (0.3, 0.7, 1.0):
            dev = gce_grad_identity_check(params, forward, label, q)
            assert dev < 1e-8, f"model {model}, q={q}: deviation {dev:.2e}"


@criterion(3, 120, "simulation brackets the one-layer gain on the full grid")
def test_c03_monte_carlo_bracket():
    grid = theory_check_grid(default_grid_cells(), num_samples=100_000,
                             seed=0)
    assert grid.total == 27
    assert grid.within_count >= int(np.ceil(0.95 * grid.total)), (
        f"only {grid.within_count}/{grid.total} cells within 3 stderr")


@criterion(4, 10, "gain degrades monotonically in suspect share and "
                  "cross-class ratio")
def test_c04_degradation_monotonicity():
    for degree in (2, 5, 10):
        for weight_frac in (0.5, 1.0):
            weight = weight_frac * degree
            for rho in (0.0, 0.5, 1.0):
                for h_s, h_r in ((0.0, 0.5), (0.1, 0.9), (0.4, 0.6)):
                    gains = [
                        GainParams(degree=degree, total_edge_weight=weight,
                                   cross_class_ratio=rho, subgraph_share=b,
                                   subgraph_homophily=h_s,
                                   rest_homophily=h_r).gain
                        for b in np.linspace(0.0, 1.0, 6)]
                    assert all(a >= b - 1e-12
                               for a, b in zip(gains, gains[1:])), (
                        f"gain not monotone in share at d={degree}, "
                        f"rho={rho}, h=({h_s},{h_r})")

    # Second clause as contracted: deep gain nonincreasing in the
    # cross-class ratio whenever mean_relative_degree <= 0 and h < 1.
    # The slope in rho is (h - 1) * d * rbar / (d + 1), which is positive
    # for rbar < 0, so the claim only holds at rbar = 0; for example
    # d=4, h=0.3, rbar=-0.2 gives 0.152, 0.208, 0.264 at rho=0, 0.5, 1.
    # Asserted as stated; the rbar >= 0 direction is covered in the unit
    # suite.
    for degree in (2, 4, 8, 15):
        for h in (0.0, 0.3, 0.7, 0.99):
            for rbar in (-0.4, -0.2, 0.0):
                gains = [deep_layer_gain(degree, rho, h, rbar)
                         for rho in np.linspace(0.0, 1.0, 5)]
                assert all(a >= b - 1e-12
                           for a, b in zip(gains, gains[1:])), (
                    f"deep gain increases in the cross-class ratio at "
                    f"d={degree}, h={h}, rbar={rbar}: {gains}")


@criterion(5, 5, "improvement certificate reproduces the hand margins and "
                 "compounds with depth")
def test_c05_improvement_margins():
    base = GainParams(degree=5, total_edge_weight=5, cross_class_ratio=0.5,
                      subgraph_share=0.8, subgraph_homophily=0.1,
                      rest_homophily=0.6)
    causal = GainParams(degree=5, total_edge_weight=5, cross_class_ratio=0.5,
                        subgraph_share=0.05, subgraph_homophily=0.1,
                        rest_homophily=0.6)
    report = gain_improvement_check(base, causal, gap=0.5,
                                    estimate_error=0.05)
    assert report.assumptions_met
    assert report.homophily_gain == 0.375
    assert report.improved

    np.testing.assert_allclose(cumulative_gain_ratio(0.8, 0.4, 3), 8.0)

    rng = np.random.default_rng(5)
    for _ in range(200):
        depth = int(rng.integers(1, 5))
        g_base = rng.uniform(0.05, 0.9)
        g_causal = g_base + rng.uniform(0.01, 0.5)
        ratio = cumulative_gain_ratio(g_causal, g_base, depth)
        assert ratio > 1.0


@criterion(6, 60, "independence penalty is null-calibrated at 500 samples")
def test_c06_hsic_calibration():
    rng = np.random.default_rng(6)
    constant = hsic_value(np.ones((50, 3)), rng.normal(size=(50, 3)))
    assert abs(constant) < 1e-10

    n = 500
    x = rng.normal(size=(n, 4))
    y = rng.normal(size=(n, 4))
    stat = hsic_value(x, y)
    null = np.array([hsic_value(x, y[rng.permutation(n)])
                     for _ in range(200)])
    assert stat < np.quantile(null, 0.95), (
        f"independent rows flagged: {stat:.3e} vs "
        f"{np.quantile(null, 0.95):.3e}")

    dup = x.copy()
    dup_stat = hsic_value(x, dup)
    dup_null = np.array([hsic_value(x, dup[rng.permutation(n)])
                         for _ in range(200)])
    assert dup_stat > np.quantile(dup_null, 0.95), (
        f"duplicated rows not flagged: {dup_stat:.3e}")


@criterion(7, 120, "heterophily measures, relabeling, and preset baselines "
                   "hold")
def test_c07_heterophily_machinery():
    rng = np.random.default_rng(7)
    for _ in range(1000):
        n = int(rng.integers(2, 11))
        pool = [(i, j) for i in range(n) for j in range(i + 1, n)]
        take = int(rng.integers(1, len(pool) + 1))
        idx = rng.choice(len(pool), size=take, replace=False)
        edges = np.array([pool[i] for i in idx])
        g = Graph(n, edges, rng.normal(size=(n, 3)),
                  rng.integers(0, 3, size=n), 3)

        mismatch = np.mean([g.labels[u] != g.labels[v] for u, v in edges])
        np.testing.assert_allclose(label_heterophily(g), mismatch,
                                   atol=1e-12)

        dis = []
        for u, v in edges:
            fu, fv = g.features[u], g.features[v]
            nu, nv = np.linalg.norm(fu), np.linalg.norm(fv)
            cos = 0.0 if nu == 0 or nv == 0 else float(fu @ fv / (nu * nv))
            dis.append(min(max(1.0 - cos, 0.0), 1.0))
        np.testing.assert_allclose(feature_heterophily(g), np.mean(dis),
                                   atol=1e-12)

    targets = {"tree_cycles": 0.098, "tree_grid": 0.055,
               "ba_shapes": 0.200, "ba_community": 0.264}
    for name, target in targets.items():
        values = [label_heterophily(preset(name, seed=s)[0])
                  for s in range(5)]
        assert abs(np.mean(values) - target) <= 0.05, (
            f"{name}: mean h_L {np.mean(values):.4f} not within 0.05 of "
            f"{target}")

        g, _ = preset(name, seed=0)
        result = relabel_to_heterophily(g, target=0.5, seed=0)
        assert result.reached
        assert label_heterophily(result.graph) >= 0.5 - 1e-12
        assert all(a <= b + 1e-12 for a, b in
                   zip(result.history, result.history[1:])), (
            f"{name}: relabeling not monotone per round")


@criterion(8, 300, "plain GCN aces the homophilic benchmark and degrades "
                   "once relabeled")
def test_c08_gcn_degradation():
    g, _ = preset("tree_cycles", seed=0)
    baseline = [run_experiment(g, _GCN_QUICK, s, model="gcn").test_accuracy
                for s in range(3)]
    assert np.mean(baseline) >= 0.90, f"baseline mean {np.mean(baseline):.4f}"

    relabeled = _relabeled_tree_cycles()
    degraded = [run_experiment(relabeled, _GCN_QUICK, s,
                               model="gcn").test_accuracy for s in range(3)]
    assert np.mean(degraded) <= 0.75, f"relabeled mean {np.mean(degraded):.4f}"


@criterion(9, 900, "disentangled model beats the baseline on both shifted "
                   "benchmarks and separates the planted edges")
def test_c09_cdgnn_improvement():
    ds = _planted_fixture()
    relabeled = _relabeled_tree_cycles()
    for name, graph in (("relabeled tree_cycles", relabeled),
                        ("planted shortcut", ds.graph)):
        gcn = [run_experiment(graph, _GCN_QUICK, s, model="gcn").test_accuracy
               for s in range(5)]
        cdgnn = []
        aucs = []
        for s in range(5):
            record, params = run_experiment(graph, _CDGNN_QUICK, s,
                                            model="cdgnn",
                                            return_params=True)
            cdgnn.append(record.test_accuracy)
            if name == "planted shortcut":
                aucs.append(disentanglement_score(
                    params, ds.graph, ds.causal_edges, ds.shortcut_edges))
        margin = np.mean(cdgnn) - np.mean(gcn)
        assert margin >= 0.03, (
            f"{name}: disentangled {np.mean(cdgnn):.4f} vs baseline "
            f"{np.mean(gcn):.4f} (margin {margin:+.4f})")
        if aucs:
            assert np.mean(aucs) >= 0.7, (
                f"edge separation AUC {np.mean(aucs):.3f}")


@criterion(10, 300, "shortcut branch is easier than the causal branch early "
                    "in training")
def test_c10_shortcut_first_dynamics():
    ds = _planted_fixture()
    ce_s, ce_c = [], []
    for seed in range(5):
        sp = split_nodes(ds.graph.num_nodes, seed)
        result = train_cdgnn(ds.graph, _CDGNN_QUICK, seed,
                             sp.train, sp.val)
        row = result.history[5]
        assert row["epoch"] == 5.0
        ce_s.append(row["ce_s"])
        ce_c.append(row["ce_c"])
    assert np.mean(ce_s) < np.mean(ce_c), (
        f"shortcut CE {np.mean(ce_s):.4f} not below causal CE "
        f"{np.mean(ce_c):.4f} at epoch 5")


@criterion(11, 180, "dropping a weighted term equals zeroing its weight, "
                    "curve for curve")
def test_c11_ablation_linearity():
    from dataclasses import replace

    ds = _planted_fixture()
    sp = split_nodes(ds.graph.num_nodes, seed=0)
    cfg = replace(_CDGNN_QUICK, epochs=5, patience=5)
    for flag, weight_field in (("no_counterfactual_term",
                                "lambda_counterfactual"),
                               ("no_independence_term",
                                "lambda_independence")):
        flagged = train_cdgnn(ds.graph, replace(cfg, **{flag: True}), 0,
                              sp.train, sp.val)
        zeroed = train_cdgnn(ds.graph, replace(cfg, **{weight_field: 0.0}), 0,
                             sp.train, sp.val)
        assert flagged.history == zeroed.history, (
            f"{flag} diverges from the zero-weight run")


@criterion(12, 180, "identical config and seed reproduce the run record "
                    "bitwise")
def test_c12_determinism():
    from dataclasses import replace

    ds = _planted_fixture()
    cfg = replace(_CDGNN_QUICK, epochs=5, patience=5)
    a = run_experiment(ds.graph, cfg, seed=0, dataset="planted")
    b = run_experiment(ds.graph, cfg, seed=0, dataset="planted")
    assert a.canonical_json() == b.canonical_json()
    assert a.record_hash() == b.record_hash()
