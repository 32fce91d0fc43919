"""Central finite-difference gradient checking for the autodiff primitives.

`PRIMITIVE_CASES` maps each differentiable primitive to a sampler that
draws one random instance: a loss builder plus the leaf values it closes
over. The builder is re-invoked from scratch for every perturbed
evaluation, so anything stochastic inside it (dropout masks) must be
seeded per instance. The kernel and centering oracles of tests/composed.py
keep their own cases: their adjoints are what the fused hsic_rbf is
compared against bit for bit. So do its GCE, cross-entropy and
mean-of-halves chains, which two_head_loss, head_nll and edge_scorer are
compared against, and the test-only primitives relu, mean, take_rows and
permute_rows that those chains are built from. The hsic_rbf
case checks that composed chain at frozen bandwidths: the fused op takes
its median-heuristic bandwidths as a stop-gradient statistic of its
inputs, which central differences would move.
"""

import numpy as np

import composed
from cdgnn import autodiff as ad


def loss_value(build, values):
    return build(values).item()


def max_relative_error(build, values, step=1e-5):
    """Worst-case deviation between backward gradients and central differences.

    Relative to max(|analytic|, |numeric|, 1e-5); the floor keeps the
    finite-difference noise floor (~1e-10 for O(1) losses) from
    dominating entries whose true gradient is essentially zero.
    """
    leaves = ad.leaves(values)
    grads = ad.gradients(build(leaves), leaves)

    worst = 0.0
    for name, base in values.items():
        base = np.asarray(base, dtype=np.float64)
        for idx in np.ndindex(base.shape):
            bumped = {k: np.array(v, dtype=np.float64) for k, v in values.items()}
            bumped[name][idx] += step
            up = loss_value(build, bumped)
            bumped[name][idx] -= 2.0 * step
            down = loss_value(build, bumped)
            fd = (up - down) / (2.0 * step)
            g = grads[name][idx]
            worst = max(worst, abs(g - fd) / max(abs(g), abs(fd), 1e-5))
    return worst


def _functional(rng, shape):
    """Fixed random linear functional that makes a matrix output scalar."""
    r = rng.normal(size=shape)

    def reduce_to_scalar(t):
        return composed.sum_all(ad.multiply(t, r))

    return reduce_to_scalar


def _case_matmul(rng):
    values = {"a": rng.normal(size=(3, 4)), "b": rng.normal(size=(4, 2))}
    f = _functional(rng, (3, 2))
    return lambda lv: f(ad.matmul(lv["a"], lv["b"])), values


def _case_add(rng):
    b_shape = (3, 4) if rng.random() < 0.5 else (1, 4)
    values = {"a": rng.normal(size=(3, 4)), "b": rng.normal(size=b_shape)}
    f = _functional(rng, (3, 4))
    return lambda lv: f(ad.add(lv["a"], lv["b"])), values


def _case_subtract(rng):
    b_shape = (3, 4) if rng.random() < 0.5 else (3, 1)
    values = {"a": rng.normal(size=(3, 4)), "b": rng.normal(size=b_shape)}
    f = _functional(rng, (3, 4))
    return lambda lv: f(ad.subtract(lv["a"], lv["b"])), values


def _case_multiply(rng):
    b_shape = (3, 4) if rng.random() < 0.5 else (1, 4)
    values = {"a": rng.normal(size=(3, 4)), "b": rng.normal(size=b_shape)}
    f = _functional(rng, (3, 4))
    return lambda lv: f(ad.multiply(lv["a"], lv["b"])), values


def _case_exp(rng):
    values = {"a": rng.uniform(-2.0, 2.0, size=(3, 3))}
    f = _functional(rng, (3, 3))
    return lambda lv: f(composed.exp(lv["a"])), values


def _case_log(rng):
    values = {"a": rng.uniform(0.3, 3.0, size=(3, 3))}
    f = _functional(rng, (3, 3))
    return lambda lv: f(composed.log(lv["a"])), values


def _case_sigmoid(rng):
    values = {"a": rng.uniform(-4.0, 4.0, size=(3, 3))}
    f = _functional(rng, (3, 3))
    return lambda lv: f(ad.sigmoid(lv["a"])), values


def _case_relu(rng):
    a = rng.uniform(0.05, 2.0, size=(3, 4)) * rng.choice([-1.0, 1.0], size=(3, 4))
    f = _functional(rng, (3, 4))
    return lambda lv: f(composed.relu(lv["a"])), {"a": a}


def _case_mean(rng):
    return lambda lv: composed.mean(lv["a"]), {"a": rng.normal(size=(4, 3))}


def _case_sum(rng):
    return lambda lv: composed.sum_all(lv["a"]), {"a": rng.normal(size=(4, 3))}


def _case_concat_cols(rng):
    values = {"a": rng.normal(size=(3, 2)), "b": rng.normal(size=(3, 3))}
    f = _functional(rng, (3, 5))
    return lambda lv: f(ad.concat_cols(lv["a"], lv["b"])), values


def _case_dropout(rng):
    rate = float(rng.choice([0.3, 0.5]))
    seed = int(rng.integers(2**31))
    values = {"a": rng.normal(size=(4, 3))}
    f = _functional(rng, (4, 3))

    def build(lv):
        return f(ad.dropout(lv["a"], rate, np.random.default_rng(seed)))

    return build, values


def _case_take_rows(rng):
    idx = rng.integers(0, 5, size=4)  # duplicates exercise accumulation
    values = {"a": rng.normal(size=(5, 3))}
    f = _functional(rng, (4, 3))
    return lambda lv: f(composed.take_rows(lv["a"], idx)), values


def _case_segment_mean(rng):
    seg = np.array([0, 0, 1, 1, 2, 2])
    values = {"a": rng.normal(size=(6, 3))}
    f = _functional(rng, (3, 3))
    return lambda lv: f(composed.segment_mean_rows(lv["a"], seg, 3)), values


def _case_permute_rows(rng):
    perm = rng.permutation(5)
    values = {"a": rng.normal(size=(5, 3))}
    f = _functional(rng, (5, 3))
    return lambda lv: f(composed.permute_rows(lv["a"], perm)), values


_PLAN_EDGES = np.array([[0, 1], [1, 2], [2, 3], [3, 4], [0, 2]])


def _case_masked_propagate(rng):
    plan = ad.PropagationPlan.from_edges(_PLAN_EDGES, 5)
    values = {
        "f": rng.normal(size=(5, 2)),
        "w": rng.uniform(0.1, 0.9, size=(5, 1)),
    }
    f = _functional(rng, (5, 2))
    return lambda lv: f(composed.masked_propagate(lv["f"], lv["w"], plan)), values


def _case_masked_propagate_unweighted(rng):
    plan = ad.PropagationPlan.from_edges(_PLAN_EDGES, 5)
    values = {"f": rng.normal(size=(5, 2))}
    f = _functional(rng, (5, 2))
    return lambda lv: f(composed.masked_propagate(lv["f"], None, plan)), values


def _case_gcn_layer(rng):
    plan = ad.PropagationPlan.from_edges(_PLAN_EDGES, 5)
    values = {
        "f": rng.normal(size=(5, 2)),
        "w": rng.uniform(0.1, 0.9, size=(5, 1)),
        "lw": rng.normal(size=(2, 3)),
    }
    f = _functional(rng, (5, 3))

    def build(lv):
        return f(ad.gcn_layer(lv["f"], lv["w"], lv["lw"], plan, relu=True))

    return build, values


def _case_gcn_layer_last(rng):
    """Unweighted propagation and no relu, as in an encoder's last layer."""
    plan = ad.PropagationPlan.from_edges(_PLAN_EDGES, 5)
    values = {"f": rng.normal(size=(5, 2)), "lw": rng.normal(size=(2, 3))}
    f = _functional(rng, (5, 3))

    def build(lv):
        return f(ad.gcn_layer(lv["f"], None, lv["lw"], plan, relu=False))

    return build, values


def _case_softmax_head(rng):
    values = {
        "x": rng.normal(size=(3, 4)),
        "w": rng.normal(size=(4, 3)),
        "b": rng.normal(size=(1, 3)),
    }
    f = _functional(rng, (3, 3))
    return lambda lv: f(ad.softmax_head(lv["x"], lv["w"], lv["b"])), values


def _case_mean_of_halves(rng):
    values = {"a": rng.normal(size=(6, 2))}
    f = _functional(rng, (3, 2))
    return lambda lv: f(composed.mean_of_halves(lv["a"])), values


def _case_edge_scorer(rng):
    x = rng.normal(size=(5, 2))
    edges = np.array([[0, 1], [1, 2], [3, 1], [4, 0]])
    values = {"w1": rng.normal(size=(4, 3)), "b1": rng.normal(size=(1, 3)),
              "w2": rng.normal(size=(3, 1)), "b2": rng.normal(size=(1, 1))}
    f = _functional(rng, (4, 1))

    def build(lv):
        return f(ad.edge_scorer(edges, x, lv["w1"], lv["b1"], lv["w2"], lv["b2"]))

    return build, values


def _case_ego_readout(rng):
    seg = np.array([0, 0, 0, 1, 1, 2])
    ego = np.array([0, 3, 5])
    values = {"h": rng.normal(size=(6, 2)), "p": rng.normal(size=(4, 2))}
    f = _functional(rng, (3, 2))

    def build(lv):
        return f(ad.ego_readout(lv["h"], ego, seg, lv["p"]))

    return build, values


def _case_gce_rows(rng):
    q = float(rng.choice([0.3, 0.7, 1.0]))
    y = rng.integers(0, 3, size=4)
    values = {"p": rng.uniform(0.1, 1.0, size=(4, 3))}
    f = _functional(rng, (4, 1))
    return lambda lv: f(composed.gce_rows(lv["p"], y, q)), values


def _case_nll_rows(rng):
    y = rng.integers(0, 3, size=4)
    w = rng.uniform(0.0, 1.0, size=4)
    values = {"p": rng.uniform(0.1, 1.0, size=(4, 3))}
    f = _functional(rng, (4, 1))
    return lambda lv: f(composed.nll_rows(lv["p"], y, w)), values


def _case_head_nll(rng):
    rows = rng.integers(0, 5, size=6)  # duplicates exercise the row sum
    y = rng.integers(0, 3, size=6)
    values = {"h": rng.normal(size=(5, 4)), "w": rng.normal(size=(4, 3)),
              "b": rng.normal(size=(1, 3))}
    return lambda lv: ad.head_nll(lv["h"], rows, lv["w"], lv["b"], y), values


def _case_two_head_loss(rng):
    """The shortcut term alone, through the joint embedding and both heads,
    or the counterfactual term alone, through the two graph embeddings:
    the difficulty weights are a stop-gradient function of the joint
    embedding and the heads, so either way they stay fixed."""
    q = float(rng.choice([0.3, 0.7, 1.0]))
    y = rng.integers(0, 3, size=4)
    perm = rng.permutation(4)
    values = {"joint": rng.normal(size=(4, 4)), "h_c": rng.normal(size=(4, 2)),
              "h_s": rng.normal(size=(4, 2)), "w_c": rng.normal(size=(4, 3)),
              "b_c": rng.normal(size=(1, 3)), "w_s": rng.normal(size=(4, 3)),
              "b_s": rng.normal(size=(1, 3))}
    shortcut = bool(rng.integers(0, 2))
    tracked = ("joint", "w_c", "b_c", "w_s", "b_s") if shortcut else ("h_c", "h_s")
    coefficients = (0.7, 0.0, 0.0) if shortcut else (0.0, 0.0, 1.5)
    fixed = {k: v for k, v in values.items() if k not in tracked}

    def build(lv):
        t = {**fixed, **lv}
        return ad.two_head_loss(t["joint"], t["h_c"], t["h_s"],
                                (t["w_c"], t["b_c"]), (t["w_s"], t["b_s"]),
                                y, q, perm, coefficients)[0]

    return build, {k: values[k] for k in tracked}


def _case_rbf_gram(rng):
    bw = float(rng.uniform(0.5, 2.0))
    values = {"a": rng.normal(size=(4, 3))}
    f = _functional(rng, (4, 4))
    return lambda lv: f(composed.rbf_gram(lv["a"], bw)), values


def _case_center_gram(rng):
    values = {"k": rng.normal(size=(4, 4))}
    f = _functional(rng, (4, 4))
    return lambda lv: f(composed.center_gram(lv["k"])), values


def _case_hsic_rbf(rng):
    bx, by = rng.uniform(0.5, 2.0, size=2)
    values = {"x": rng.normal(size=(5, 2)), "y": rng.normal(size=(5, 3))}
    return lambda lv: composed.hsic_rbf(lv["x"], lv["y"], bx, by), values


def _case_composite(rng):
    """A deeper chain mixing several primitives into one scalar."""
    y = rng.integers(0, 2, size=3)
    values = {
        "a": rng.normal(size=(3, 4)),
        "w1": rng.normal(size=(4, 5)) * 0.7,
        "w2": rng.normal(size=(5, 2)) * 0.7,
    }

    def build(lv):
        h = ad.sigmoid(ad.matmul(lv["a"], lv["w1"]))
        return ad.head_nll(h, np.arange(3), lv["w2"], np.zeros((1, 2)), y)

    return build, values


PRIMITIVE_CASES = {
    "matmul": _case_matmul,
    "add": _case_add,
    "subtract": _case_subtract,
    "multiply": _case_multiply,
    "exp": _case_exp,
    "log": _case_log,
    "sigmoid": _case_sigmoid,
    "relu": _case_relu,
    "mean": _case_mean,
    "sum": _case_sum,
    "concat_cols": _case_concat_cols,
    "dropout": _case_dropout,
    "take_rows": _case_take_rows,
    "segment_mean_rows": _case_segment_mean,
    "permute_rows": _case_permute_rows,
    "masked_propagate": _case_masked_propagate,
    "masked_propagate_unweighted": _case_masked_propagate_unweighted,
    "gcn_layer": _case_gcn_layer,
    "gcn_layer_last": _case_gcn_layer_last,
    "softmax_head": _case_softmax_head,
    "mean_of_halves": _case_mean_of_halves,
    "edge_scorer": _case_edge_scorer,
    "ego_readout": _case_ego_readout,
    "gce_rows": _case_gce_rows,
    "nll_rows": _case_nll_rows,
    "head_nll": _case_head_nll,
    "two_head_loss": _case_two_head_loss,
    "rbf_gram": _case_rbf_gram,
    "center_gram": _case_center_gram,
    "hsic_rbf": _case_hsic_rbf,
    "composite": _case_composite,
}
