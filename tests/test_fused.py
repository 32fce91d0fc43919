"""Fused autodiff ops against their composed chains (tests/composed.py).

Each fused op must give the same bits as the chain it replaces: the value,
and the gradient of every input, including when an input already holds a
gradient from a consumer recorded after the op (so the order in which the
op adds its parts matters). The CSR propagation must likewise give the bits
of the edge-list gather and bincount scatter it replaced.
"""

import numpy as np
import pytest
from scipy import sparse
from scipy.sparse import _base

import composed
from cdgnn import autodiff as ad
from cdgnn import harness, models, synth

OPS = ("gcn_layer", "softmax_head", "edge_scorer", "ego_readout",
       "head_nll", "two_head_loss", "hsic_rbf")


def _run(op, values, tracked, rng_seed):
    """Value and gradients of op(leaves) under a random linear functional,
    plus a later consumer of every tracked leaf."""
    rng = np.random.default_rng(rng_seed)
    leaves = {k: ad._coerce(v) for k, v in values.items()}
    leaves.update(ad.leaves({k: values[k] for k in tracked}))
    out = op(leaves)
    loss = composed.sum_all(ad.multiply(out, rng.normal(size=out.shape)))
    for k in sorted(tracked):
        later = composed.sum_all(ad.multiply(leaves[k], rng.normal(size=values[k].shape)))
        loss = ad.add(loss, later)
    grads = ad.gradients(loss, {k: leaves[k] for k in tracked})
    return out.data, grads


def _assert_bitwise(fused, chain, values, tracked):
    seed = 1234
    got_value, got = _run(fused, values, tracked, seed)
    want_value, want = _run(chain, values, tracked, seed)
    np.testing.assert_array_equal(got_value, want_value)
    assert got.keys() == want.keys()
    for k in want:
        np.testing.assert_array_equal(got[k], want[k], err_msg=k)


def _hsic_pair(values, sample, names):
    """ad.hsic_rbf of the inputs `names` (two keys of `values`) at the row
    sample `sample` (every row if None), and the composed chain on take_rows
    of both at the median-heuristic bandwidths of the sampled rows."""
    rows = slice(None) if sample is None else sample
    bx, by = (composed.median_bandwidth(values[k][rows]) for k in names)
    a, b = names

    def gather(t):
        return t if sample is None else composed.take_rows(t, sample)

    return (lambda lv: ad.hsic_rbf(lv[a], lv[b], sample),
            lambda lv: composed.hsic_rbf(gather(lv[a]), gather(lv[b]), bx, by))


def _random_plan(rng, n, edgeless=False):
    pairs = np.array([(u, v) for u in range(n) for v in range(u + 1, n)],
                     dtype=np.int64).reshape(-1, 2)
    keep = np.zeros(pairs.shape[0], bool) if edgeless else rng.random(pairs.shape[0]) < 0.4
    return ad.PropagationPlan.from_edges(pairs[keep], n)


class TestBitwiseAgainstComposedChain:
    @pytest.mark.parametrize("edgeless", [False, True])
    @pytest.mark.parametrize("weighted", [True, False])
    @pytest.mark.parametrize("relu", [True, False])
    def test_gcn_layer(self, edgeless, weighted, relu):
        rng = np.random.default_rng(7)
        for trial in range(5):
            plan = _random_plan(rng, 9, edgeless)
            values = {"f": rng.normal(size=(9, 4)),
                      "lw": rng.normal(size=(4, 3)),
                      "w": rng.uniform(0.0, 1.0, size=(plan.num_und_edges, 1))}
            # every grad pattern: the input features of a first layer carry
            # none, and frozen masks or weights carry none either
            for tracked in ({"f", "lw", "w"}, {"lw", "w"}, {"lw"}, {"f"}):
                if not weighted:
                    tracked = tracked - {"w"}

                def op(impl):
                    return lambda lv: impl(lv["f"], lv["w"] if weighted else None,
                                           lv["lw"], plan, relu)

                _assert_bitwise(op(ad.gcn_layer), op(composed.gcn_layer),
                                values, tracked)

    @pytest.mark.parametrize("batch", [2, 7])
    def test_softmax_head(self, batch):
        rng = np.random.default_rng(8)
        for _ in range(10):
            values = {"x": rng.normal(size=(batch, 6)) * 3,
                      "w": rng.normal(size=(6, 4)),
                      "b": rng.normal(size=(1, 4))}
            for tracked in ({"x", "w", "b"}, {"w", "b"}):
                _assert_bitwise(
                    lambda lv: ad.softmax_head(lv["x"], lv["w"], lv["b"]),
                    lambda lv: composed.softmax_head(lv["x"], lv["w"], lv["b"]),
                    values, tracked)

    @pytest.mark.parametrize("num_edges", [0, 1, 2, 13])
    def test_edge_scorer(self, num_edges):
        """Both MLP layers, the relu and the mean of halves, with every
        grad pattern; relu inputs at exactly 0 included."""
        rng = np.random.default_rng(9)
        for _ in range(10):
            x = rng.normal(size=(7, 3))
            x[0] = 0.0
            edges = rng.integers(0, 7, size=(num_edges, 2))
            edges[:1] = 0  # a zero pair row: relu input b1 exactly
            values = {"w1": rng.normal(size=(6, 5)), "b1": rng.normal(size=(1, 5)),
                      "w2": rng.normal(size=(5, 1)), "b2": rng.normal(size=(1, 1))}
            values["b1"][0, 0] = 0.0

            def op(impl):
                return lambda lv: impl(edges, x, lv["w1"], lv["b1"], lv["w2"],
                                       lv["b2"])

            for tracked in ({"w1", "b1", "w2", "b2"}, {"w2", "b2"}, {"w1"}):
                _assert_bitwise(op(ad.edge_scorer), op(composed.edge_scorer),
                                values, tracked)
        assert not ad.edge_scorer(np.zeros((0, 2)), x, *values.values()).requires_grad

    @pytest.mark.parametrize("sizes", [[1, 1], [3, 1, 4, 2], [5, 2]])
    def test_ego_readout(self, sizes):
        rng = np.random.default_rng(10)
        seg = np.repeat(np.arange(len(sizes)), sizes)
        ego = np.concatenate([[0], np.cumsum(sizes)[:-1]])
        for _ in range(10):
            values = {"h": rng.normal(size=(seg.shape[0], 3)),
                      "p": rng.normal(size=(6, 3))}
            for tracked in ({"h", "p"}, {"p"}):
                _assert_bitwise(
                    lambda lv: ad.ego_readout(lv["h"], ego, seg, lv["p"]),
                    lambda lv: composed.ego_readout(lv["h"], ego, seg, lv["p"]),
                    values, tracked)

    @pytest.mark.parametrize("batch", [2, 9])
    def test_head_nll(self, batch):
        """The GCN baseline's loss on unique rows (the adjoint writes them
        into zeros) and on repeated rows (a CSR row sum), with a picked
        probability under the log clamp; h is a leaf, or a node that other
        nodes recorded before and after the loss also read."""
        rng = np.random.default_rng(11)
        n, width, classes = 12, 5, 4
        for trial in range(10):
            unique = trial % 2 == 1
            rows = np.concatenate([[0], 1 + rng.permutation(n - 1)[:batch - 1]]
                                  if unique else [[0, 0], rng.integers(0, n, batch)])
            assert (np.bincount(rows).max() == 1) == unique
            values = {"a": rng.normal(size=(n, 3)),
                      "v": rng.normal(size=(3, width)),
                      "w": rng.normal(size=(width, classes)) * 3,
                      "b": rng.normal(size=(1, classes))}
            values["a"][0] *= 40.0
            values["h"] = values["a"] @ values["v"]
            logits = values["h"][0] @ values["w"] + values["b"][0]
            y = rng.integers(0, classes, size=rows.shape[0])
            y[0] = int(np.argmin(logits))
            assert ad._softmax_rows(logits[None, :])[0, y[0]] < ad.LOG_CLAMP
            before, after = (rng.normal(size=(n, width)) for _ in range(2))

            def op(impl, shared):
                def run(lv):
                    if not shared:
                        return impl(lv["h"], rows, lv["w"], lv["b"], y)
                    h = ad.matmul(lv["a"], lv["v"])
                    side = composed.sum_all(ad.multiply(h, before))
                    loss = impl(h, rows, lv["w"], lv["b"], y)
                    return ad.add(ad.add(side, loss),
                                  composed.sum_all(ad.multiply(h, after)))
                return run

            for shared, tracked in ((False, {"h", "w", "b"}), (False, {"w", "b"}),
                                    (False, {"h"}), (True, {"a", "v", "w", "b"})):
                _assert_bitwise(op(ad.head_nll, shared),
                                op(composed.head_nll, shared), values, tracked)

    @pytest.mark.parametrize("rows", ["none", "all", "distinct", "repeated"])
    def test_hsic_rbf_on_a_row_sample(self, rows):
        """As in training: HSIC of a row sample of two node embeddings (or
        of every row) is the chain at the sampled rows' median-heuristic
        bandwidths."""
        rng = np.random.default_rng(12)
        for _ in range(10):
            n = int(rng.integers(2, 40))
            sample = {"none": None, "all": np.arange(n),
                      "distinct": rng.permutation(n)[:max(2, n // 2)],
                      "repeated": rng.integers(0, n, size=n + 3)}[rows]
            values = {"x": rng.normal(size=(n, 5)), "y": rng.normal(size=(n, 4))}
            for tracked in ({"x", "y"}, {"x"}):
                _assert_bitwise(*_hsic_pair(values, sample, "xy"), values,
                                tracked)

    @pytest.mark.parametrize("num_rows, repeated", [(7, False), (40, False),
                                                    (20, True)])
    def test_hsic_takes_its_own_row_sample(self, num_rows, repeated):
        """hsic_rbf with a row sample, as training draws it (a permutation
        cut to at most max_rows: all rows at 7, a strict subset at 40), or
        with repeated rows, gives the bits of hsic_rbf on take_rows of both
        inputs."""
        rng = np.random.default_rng(num_rows)
        max_rows = 16
        for _ in range(5):
            sample = (rng.integers(0, num_rows, size=max_rows) if repeated
                      else rng.permutation(num_rows)[:max_rows])
            values = {"x": rng.normal(size=(num_rows, 5)),
                      "y": rng.normal(size=(num_rows, 3))}
            for tracked in ({"x", "y"}, {"x"}, {"y"}):
                _assert_bitwise(
                    lambda lv: ad.hsic_rbf(lv["x"], lv["y"], sample),
                    lambda lv: ad.hsic_rbf(composed.take_rows(lv["x"], sample),
                                           composed.take_rows(lv["y"], sample)),
                    values, tracked)
            _assert_bitwise(
                lambda lv: ad.hsic_rbf(lv["x"], lv["x"], sample),
                lambda lv: ad.hsic_rbf(composed.take_rows(lv["x"], sample),
                                       composed.take_rows(lv["x"], sample)),
                values, {"x"})

    def test_hsic_rbf_of_one_input_with_itself(self):
        """Both kernel adjoints land in the same tensor, y's part first, with
        every row, a permutation cut and repeated rows."""
        rng = np.random.default_rng(13)
        values = {"x": rng.normal(size=(12, 3))}
        for sample in (None, rng.permutation(12)[:8],
                       rng.integers(0, 12, size=15)):
            _assert_bitwise(*_hsic_pair(values, sample, "xx"), values, {"x"})


# Every ablation pattern of the three head terms, at unit weights and at
# weights that take multiply nodes, as RunConfig.coefficients gives them.
HEAD_COEFFICIENTS = [
    tuple(weight if on else 0.0 for weight, on in zip(base, mask))
    for base in ((1.0, 1.0, 1.0), (1.0, 1.0, 10.0), (0.5, 3.0, 10.0))
    for mask in ((1, 1, 1), (0, 1, 1), (1, 0, 1), (1, 1, 0), (1, 0, 0),
                 (0, 1, 0), (0, 0, 1))]


def _head_case(rng, batch, classes=3, width=4):
    """Graph embeddings, heads and labels of one batch; the first row is a
    confident miss, so its picked probabilities fall under the log clamp."""
    values = {"h_c": rng.normal(size=(batch, width)),
              "h_s": rng.normal(size=(batch, width)),
              "joint": rng.normal(size=(batch, 2 * width)),
              "w_c": rng.normal(size=(2 * width, classes)) * 2,
              "b_c": rng.normal(size=(1, classes)),
              "w_s": rng.normal(size=(2 * width, classes)) * 2,
              "b_s": rng.normal(size=(1, classes))}
    values["h_c"][0] = values["h_s"][0] = values["joint"][0] = 40.0
    y = rng.integers(0, classes, size=batch)
    y[0] = int(np.argmin(values["joint"][0] @ values["w_s"]))
    return values, y


def _head_op(impl, y, q, perm, coefficients, joined):
    """impl's weighed head terms; with `joined`, joint is concat_cols of
    the two graph embeddings, as in training, else a leaf of its own."""
    def op(lv):
        joint = ad.concat_cols(lv["h_c"], lv["h_s"]) if joined else lv["joint"]
        return impl(joint, lv["h_c"], lv["h_s"], (lv["w_c"], lv["b_c"]),
                    (lv["w_s"], lv["b_s"]), y, q, perm, coefficients)
    return op


class TestTwoHeadLoss:
    """ad.two_head_loss against the chain total_loss built before it."""

    @pytest.mark.parametrize("batch", [2, 3, 16, 17])
    def test_value_breakdown_and_adjoints_are_the_chains(self, batch):
        rng = np.random.default_rng(90 + batch)
        for q in (0.3, 0.7, 1.0):
            values, y = _head_case(rng, batch)
            perm = rng.permutation(batch)
            for coefficients in HEAD_COEFFICIENTS:
                for joined in (True, False):
                    fused = _head_op(ad.two_head_loss, y, q, perm, coefficients, joined)
                    chain = _head_op(composed.two_head_loss, y, q, perm,
                                     coefficients, joined)
                    got, want = fused(ad.leaves(values))[1], chain(ad.leaves(values))[1]
                    assert got == want
                    tracked = set(values) - ({"joint"} if joined else set())
                    _assert_bitwise(lambda lv: fused(lv)[0], lambda lv: chain(lv)[0],
                                    values, tracked)

    def test_frozen_heads_and_embeddings(self):
        """Adjoints reach only the inputs that carry a gradient."""
        rng = np.random.default_rng(95)
        values, y = _head_case(rng, 5)
        perm = rng.permutation(5)
        for tracked in ({"h_c", "h_s"}, {"w_c", "b_c"}, {"joint", "w_s"}):
            for joined in (True, False):
                _assert_bitwise(
                    lambda lv: _head_op(ad.two_head_loss, y, 0.7, perm,
                                        (1.0, 1.0, 10.0), joined)(lv)[0],
                    lambda lv: _head_op(composed.two_head_loss, y, 0.7, perm,
                                        (1.0, 1.0, 10.0), joined)(lv)[0],
                    values, tracked)

    def test_all_ablated_records_no_node(self):
        rng = np.random.default_rng(96)
        values, y = _head_case(rng, 4)
        perm = rng.permutation(4)
        leaves = ad.leaves(values)
        before = next(ad._clock)
        node, got = _head_op(ad.two_head_loss, y, 0.7, perm, (0.0, 0.0, 0.0),
                             False)(leaves)
        assert node is None and next(ad._clock) == before + 1
        _, want = _head_op(composed.two_head_loss, y, 0.7, perm,
                           (1.0, 1.0, 1.0), False)(ad.leaves(values))
        assert got == want

    def test_untracked_inputs_record_nothing(self):
        rng = np.random.default_rng(97)
        values, y = _head_case(rng, 3)
        node, _ = _head_op(ad.two_head_loss, y, 0.7, np.arange(3),
                           (1.0, 1.0, 1.0), False)(values)
        assert not node.requires_grad and node._backward is None

    @pytest.mark.parametrize("perm, match", [
        ([0, 0, 1], "permutation"), ([0, 1], "cover"), ([0, 1, 3], "permutation")])
    def test_bad_permutation_rejected(self, perm, match):
        values, y = _head_case(np.random.default_rng(98), 3)
        with pytest.raises(ValueError, match=match):
            _head_op(ad.two_head_loss, y, 0.7, np.array(perm), (1.0, 1.0, 1.0),
                     False)(values)


def _assert_propagation_bitwise(edges, n, width, rng):
    """masked_propagate and gcn_layer against the gather-scatter oracle,
    weighted and not, under every grad pattern."""
    plan = ad.PropagationPlan.from_edges(edges, n)
    values = {"f": rng.normal(size=(n, width)),
              "w": rng.uniform(0.0, 1.0, size=(edges.shape[0], 1)),
              "lw": rng.normal(size=(width, 3))}
    for weighted in (True, False):
        def weights(lv):
            return lv["w"] if weighted else None

        def oracle(lv):
            return composed.gather_scatter_propagate(lv["f"], weights(lv), edges, n)

        for tracked in ({"f", "w"}, {"f"}, {"w"}):
            if not weighted:
                tracked = tracked - {"w"}
            if tracked:
                _assert_bitwise(
                    lambda lv: composed.masked_propagate(lv["f"], weights(lv), plan),
                    oracle, values, tracked)
            _assert_bitwise(
                lambda lv: ad.gcn_layer(lv["f"], weights(lv), lv["lw"], plan, True),
                lambda lv: composed.relu(ad.matmul(oracle(lv), lv["lw"])),
                values, tracked | {"lw"})


def _unnormalised(rng, edges, n):
    """The same graph with its nodes relabeled and its edge list shuffled,
    so that endpoints come in no particular order."""
    perm = rng.permutation(n)
    return perm[edges[rng.permutation(edges.shape[0])]]


class TestPropagationAgainstGatherScatter:
    @pytest.mark.parametrize("width", [1, 16, 32])
    @pytest.mark.parametrize("normalised", [True, False])
    def test_random_weighted_graphs(self, width, normalised):
        rng = np.random.default_rng(14)
        for _ in range(6):
            n = int(rng.integers(2, 30))
            pairs = np.array([(u, v) for u in range(n) for v in range(u + 1, n)],
                             dtype=np.int64).reshape(-1, 2)
            edges = pairs[rng.random(pairs.shape[0]) < 0.3]
            if not normalised:
                edges = _unnormalised(rng, edges, n)
            _assert_propagation_bitwise(edges, n, width, rng)

    @pytest.mark.parametrize("width", [1, 16])
    def test_edgeless_plan_and_isolated_nodes(self, width):
        rng = np.random.default_rng(15)
        _assert_propagation_bitwise(np.zeros((0, 2), dtype=np.int64), 4, width, rng)
        _assert_propagation_bitwise(np.zeros((0, 2), dtype=np.int64), 1, width, rng)
        star = np.array([[2, 5], [2, 7], [5, 7], [7, 8]])  # 0, 1, 3, 4, 6, 9 alone
        _assert_propagation_bitwise(star, 10, width, rng)
        _assert_propagation_bitwise(_unnormalised(rng, star, 10), 10, width, rng)

    @pytest.mark.parametrize("name", synth.PRESET_NAMES)
    def test_preset_graphs_and_ego_batches(self, name):
        g, _ = synth.preset(name, seed=0)
        rng = np.random.default_rng(16)
        nodes = rng.permutation(g.num_nodes)[:48]
        cache = models.build_ego_cache(g, 2, nodes)
        layouts = [(g.edges, g.num_nodes)]
        for size in (16, 48):
            batch = models.batch_from_cache(g, cache, nodes[:size])
            layouts.append((batch.endpoints, batch.features.shape[0]))
        for edges, n in layouts:
            for width in (1, 16, 32):
                _assert_propagation_bitwise(edges, n, width, rng)


@pytest.mark.parametrize("width", [1, 4, 32])
def test_take_rows_against_add_at(width):
    """Duplicated indices, and rows that no index picks."""
    rng = np.random.default_rng(17)
    for rows in (1, 7, 600):
        values = {"a": rng.normal(size=(rows, width))}
        for idx in (rng.integers(0, rows, size=3 * rows),
                    rng.permutation(rows)[:max(1, rows // 2)]):
            _assert_bitwise(lambda lv: composed.take_rows(lv["a"], idx),
                            lambda lv: composed.add_at_take_rows(lv["a"], idx),
                            values, {"a"})


class TestFusedOpGuards:
    def test_every_fused_op_is_public(self):
        assert set(OPS) <= set(ad.__all__)

    def test_untracked_inputs_record_nothing(self):
        out = ad.softmax_head(np.ones((2, 2)), np.ones((2, 3)),
                              np.zeros((1, 3)))
        assert not out.requires_grad
        assert out._parents is None and out._backward is None

    @pytest.mark.parametrize("rows, labels, match", [
        ([0, 3], [0, 1], "row index outside"), ([-1, 0], [0, 1], "row index outside"),
        ([0, 1], [0, 3], "label outside"), ([0, 1], [-1, 0], "label outside")])
    def test_head_nll_checks_rows_and_labels(self, rows, labels, match):
        """The row scatter of the adjoint checks no bounds."""
        with pytest.raises(ValueError, match=match):
            ad.head_nll(np.ones((3, 2)), rows, np.ones((2, 3)), np.zeros((1, 3)),
                        labels)

    def test_hsic_rows_must_match(self):
        with pytest.raises(ValueError, match="rows"):
            ad.hsic_rbf(np.ones((3, 2)), np.ones((4, 2)))

    @pytest.mark.parametrize("rows, match", [
        ([0, 3], "outside"), ([-1, 0], "outside"), ([1], "at least 2")])
    def test_hsic_row_sample_checked(self, rows, match):
        """The row scatter of the adjoint checks no bounds."""
        with pytest.raises(ValueError, match=match):
            ad.hsic_rbf(np.ones((3, 2)), np.ones((3, 2)), rows)


class TestFlatAdam:
    def test_matches_per_parameter_loop(self):
        """Many steps of two rate groups with weight decay and gradients
        over ten orders of magnitude (zeros of both signs included): the
        bits of the per-parameter loop, sign bits too."""
        rng = np.random.default_rng(16)
        shapes = {"mask.w1": (6, 4), "mask.b1": (1, 4), "gnn.w0": (4, 8),
                  "gnn.w1": (8, 8), "head.w": (8, 3), "head.b": (1, 3)}
        rates = {k: 1e-3 if k.startswith("mask.") else 0.02 for k in shapes}
        start = {k: rng.normal(size=s) for k, s in shapes.items()}
        for lr, decay in ((rates, 5e-4), (0.05, 0.3)):
            state = ad.AdamState(start, lr)
            loop, loop_state = start, None
            for step in range(150):
                grads = {k: rng.normal(size=s) * 10.0 ** rng.integers(-8, 3)
                         for k, s in shapes.items()}
                grads["head.b"][0, 0] = 0.0
                grads["head.b"][0, 1] = -0.0
                ad.adam_step(state, grads, decay)
                loop, loop_state = composed.adam_step(loop, grads, loop_state,
                                                      lr, decay)
                step_count, loop_m, loop_v = loop_state
                assert state.step == step_count == step + 1
                assert list(state.params) == list(shapes)
                for got, want in ((state.flat, loop), (state.m, loop_m),
                                  (state.v, loop_v)):
                    want = np.concatenate([want[k].reshape(-1) for k in shapes])
                    np.testing.assert_array_equal(got.view(np.int64),
                                                  want.view(np.int64))

    def test_returns_views_of_one_buffer(self):
        params = {"a": np.ones((2, 3)), "b": np.ones((1, 1))}
        state = ad.AdamState(params, 0.1)
        ad.adam_step(state, {"a": np.ones((2, 3)), "b": np.zeros((1, 1))})
        assert state.params["a"].base is state.params["b"].base is state.flat
        assert state.params["a"].shape == (2, 3)
        assert state.params["b"].shape == (1, 1)
        assert state.flat[0] < 1.0 and state.flat[-1] == 1.0
        assert state.m.shape == state.v.shape == state.flat.shape == (7,)

    def test_gradient_shape_must_match(self):
        state = ad.AdamState({"w": np.ones((2, 3))}, 0.1)
        with pytest.raises(ValueError, match="shaped"):
            ad.adam_step(state, {"w": np.ones((3, 2))})


@pytest.mark.parametrize("name", synth.PRESET_NAMES)
def test_forward_csr_of_a_full_graph_is_its_adjacency(name):
    """The stable-by-destination order of a graph's directed edges is the
    ascending row order of Graph's own CSR."""
    g, _ = synth.preset(name, seed=0)
    plan = ad.PropagationPlan.from_edges(g.edges, g.num_nodes)
    np.testing.assert_array_equal(plan.indptr, g.indptr)
    np.testing.assert_array_equal(plan.fwd_cols, g.indices)


def _train_one_batch():
    """One batch of the benchmark's CD-GNN run: relabeled tree_cycles,
    2 layers, batch 16."""
    g, _ = synth.preset("tree_cycles", seed=0)
    g = synth.relabel_to_heterophily(g, target=0.5, seed=0).graph
    config = harness.RunConfig(
        learning_rate=0.02, hidden=32, dropout=0.0, layers=2, q=0.7,
        lambda_counterfactual=10.0, lambda_independence=0.1, epochs=1,
        patience=1, batch_size=16, scorer_hidden=16)
    sp = harness.split_nodes(g.num_nodes, seed=0)
    harness.train_cdgnn(g, config, 0, sp.train[:16], sp.val[:8])


def test_one_training_batch_builds_no_sparse_matrix(monkeypatch):
    """Propagation calls the CSR kernel directly; a scipy sparse matrix per
    product would cost more than the kernel on batches this small."""
    built = []
    real = _base._spbase.__init__

    def counting(self, *args, **kwargs):
        built.append(type(self).__name__)
        real(self, *args, **kwargs)

    monkeypatch.setattr(_base._spbase, "__init__", counting)
    sparse.csr_matrix(np.eye(2))
    assert "csr_matrix" in built  # the counter sees a construction
    built.clear()
    _train_one_batch()
    assert built == []


def test_one_training_batch_records_at_most_46_nodes(monkeypatch):
    """The loss of one training batch depends on at most 46 operations."""
    sizes = []
    real = ad.gradients

    def counting(loss, leaves):
        sizes.append(len(ad._reached(loss)))
        return real(loss, leaves)

    monkeypatch.setattr(ad, "gradients", counting)
    _train_one_batch()
    assert len(sizes) == 1
    assert 0 < sizes[0] <= 46, sizes


def _recorded(run):
    """Nodes recorded while `run()` runs: the creation clock's advance."""
    before = next(ad._clock)
    run()
    return next(ad._clock) - before - 1


def test_one_training_batch_records_at_most_18_nodes():
    """The fused edge scorer and head terms keep a CD-GNN batch of the
    benchmark's shape to at most 18 recorded nodes (39 when the scorer
    and the heads were chains of elementary nodes)."""
    assert 0 < _recorded(_train_one_batch) <= 18


def test_one_gcn_baseline_step_records_layers_plus_one_nodes(monkeypatch):
    """A GCN baseline step's loss depends on its L layers and one head_nll
    node (L + 4 when the row gather, head, cross-entropy and mean were
    nodes of their own). Without dropout, the epoch's validation forward
    on the leaves records the L layers the next step reads, so a one-epoch
    run records 2L + 1 nodes."""
    sizes = []
    real = ad.gradients

    def counting(loss, leaves):
        sizes.append(len(ad._reached(loss)))
        return real(loss, leaves)

    monkeypatch.setattr(ad, "gradients", counting)
    g, _ = synth.preset("tree_cycles", seed=0)
    sp = harness.split_nodes(g.num_nodes, seed=0)
    for layers in (1, 2, 3):
        config = harness.RunConfig(learning_rate=0.02, hidden=16, dropout=0.0,
                                   layers=layers, epochs=1, patience=1,
                                   batch_size=32)
        sizes.clear()
        assert _recorded(lambda: harness.train_gcn_baseline(
            g, config, 0, sp.train, sp.val)) == 2 * layers + 1
        assert sizes == [layers + 1]


def _bits_equal(got, want):
    np.testing.assert_array_equal(_bits(np.atleast_1d(got)),
                                  _bits(np.atleast_1d(want)))


@pytest.mark.parametrize("rows", [1, 2, 3, 7, 8, 9, 16, 17, 100, 127, 128,
                                  129, 255, 256, 257, 300])
def test_reduce_mean_is_ndarray_mean(rows):
    """ad._mean gives the bits of ndarray.mean on every axis the tape
    averages over: whole (B, 1) columns and flat vectors, and the rows,
    columns and whole of square grams, with ±0.0, ±inf and NaN among
    the entries."""
    rng = np.random.default_rng(rows)
    specials = np.array([0.0, -0.0, np.inf, -np.inf, np.nan])
    draws = [rng.normal(size=(rows, rows)) * 10.0 ** rng.integers(-3, 4),
             np.full((rows, rows), -0.0),
             np.where(rng.random((rows, rows)) < 0.1,
                      rng.choice(specials, size=(rows, rows)),
                      rng.normal(size=(rows, rows)))]
    with np.errstate(invalid="ignore"):
        for x in draws:
            for arr in (x, x[:, :1].copy(), x[0].copy(), x[:, :3].copy()):
                _bits_equal(ad._mean(arr, None, False), arr.mean())
            for axis in (0, 1):
                _bits_equal(ad._mean(x, axis, True),
                            x.mean(axis=axis, keepdims=True))


def _old_softmax_rows(logits):
    """Row softmax as softmax_head took it before: the max by reduce."""
    e = np.exp(logits - logits.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def _bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


@pytest.mark.parametrize("classes", range(1, 21))
def test_softmax_rows_max_by_column_against_reduce(classes):
    """The max taken a column at a time gives the bits of the reduce on
    rows of ±0.0, ±inf, NaN and finite values. A row that starts with a
    NaN of sign bit 1 is the one exception: numpy's reduce returns a NaN
    of sign bit 0 there, so that row's NaNs differ in the sign bit only."""
    rng = np.random.default_rng(50 + classes)
    specials = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 1.5, -2.0])
    logits = np.vstack([rng.choice(specials, size=(400, classes)),
                        rng.normal(size=(50, classes)) * 30])
    with np.errstate(invalid="ignore"):
        np.testing.assert_array_equal(_bits(ad._softmax_rows(logits)),
                                      _bits(_old_softmax_rows(logits)))
        logits[::7, 0] = -np.nan
        got, want = ad._softmax_rows(logits), _old_softmax_rows(logits)
    np.testing.assert_array_equal(got, want)  # NaN where NaN
    first = np.signbit(logits[:, 0]) & np.isnan(logits[:, 0])
    np.testing.assert_array_equal(_bits(got[~first]), _bits(want[~first]))


def _adjoints(out, tracked, seed):
    """Value and adjoints of the tracked leaves under the output adjoint
    `seed`, walked as ad.gradients walks, which refuses a non-finite
    loss."""
    ops = ad._reached(out)
    out._accumulate(seed)
    while ops:
        node = ops.pop()
        if node.grad is not None:
            node._backward(node.grad)
    return out.data, {k: t.grad for k, t in tracked.items()}


@pytest.mark.parametrize("classes", [1, 2, 5, 20])
def test_softmax_head_on_non_finite_logits_against_chain(classes):
    """Overflowing products give ±inf and NaN logits; the head's value and
    its adjoints keep the chain's bits (NaN signs aside on rows that start
    with a negative NaN), and NaN where the chain has NaN."""
    rng = np.random.default_rng(70 + classes)
    x = np.vstack([rng.normal(size=(30, 3)),
                   [[1e308, 1.0, 0.0], [-1e308, 0.0, 1.0],
                    [1e308, 1e308, 1e308], [0.0, 0.0, 0.0]]])
    w = rng.normal(size=(3, classes)) * 10
    b = rng.normal(size=(1, classes))
    seed = rng.normal(size=(x.shape[0], classes))
    runs = []
    with np.errstate(invalid="ignore", over="ignore"):
        logits = x @ w + b
        for impl in (ad.softmax_head, composed.softmax_head):
            leaves = ad.leaves({"x": x, "w": w, "b": b})
            runs.append(_adjoints(impl(leaves["x"], leaves["w"], leaves["b"]),
                                  leaves, seed))
    (got, got_grads), (want, want_grads) = runs
    assert np.isinf(logits).any() and np.isnan(got).any()
    clean = ~(np.isnan(logits[:, 0]) & np.signbit(logits[:, 0]))
    np.testing.assert_array_equal(_bits(got[clean]), _bits(want[clean]))
    np.testing.assert_array_equal(_bits(got_grads["x"][clean]),
                                  _bits(want_grads["x"][clean]))
    np.testing.assert_array_equal(got, want)
    for k in want_grads:
        np.testing.assert_array_equal(got_grads[k], want_grads[k], err_msg=k)


def _csr_scatter(shape, idx, g):
    """The CSR row sum the unique-index scatter replaces."""
    indptr = np.concatenate([[0], np.cumsum(np.bincount(idx, minlength=shape[0]))])
    return ad._csr_rowsum(indptr, np.argsort(idx, kind="stable"),
                          np.ones(idx.shape[0]), g)


class TestRowScatter:
    def test_unique_indices_give_the_csr_bits(self):
        """A -0.0 gradient lands as +0.0, and rows no index picks are +0.0."""
        rng = np.random.default_rng(60)
        for rows, width in ((1, 1), (7, 3), (600, 16)):
            idx = rng.permutation(rows)[:max(1, rows // 2)]
            g = rng.normal(size=(idx.shape[0], width))
            g[0, 0] = -0.0
            g.flat[-1] = np.nan if g.size > 1 else -0.0
            got = ad._row_scatter((rows, width), idx, g)
            np.testing.assert_array_equal(
                _bits(got), _bits(_csr_scatter((rows, width), idx, g)))
            assert not np.signbit(got[idx[0], 0])
            untouched = np.setdiff1d(np.arange(rows), idx)
            assert not np.signbit(got[untouched]).any()

    def test_repeated_indices_take_the_csr_sum(self, monkeypatch):
        calls = []
        real = ad._csr_rowsum

        def counted(*args):
            calls.append(args[1].shape[0])
            return real(*args)

        monkeypatch.setattr(ad, "_csr_rowsum", counted)
        g = np.arange(8.0).reshape(4, 2)
        ad._row_scatter((3, 2), np.array([2, 0, 1]), g[:3])
        assert calls == []
        got = ad._row_scatter((3, 2), np.array([2, 0, 2, 1]), g)
        assert calls == [4]
        np.testing.assert_array_equal(got, [[2.0, 3.0], [6.0, 7.0],
                                            [0.0 + 4.0, 1.0 + 5.0]])
        assert ad._row_scatter((3, 2), np.array([], dtype=np.int64),
                               np.zeros((0, 2))).tolist() == [[0.0] * 2] * 3


def test_take_rows_output_owns_its_data():
    a = np.arange(12.0).reshape(6, 2)
    for idx in ([1, 3], [0, 0, 5], np.arange(6)):
        out = composed.take_rows(a, np.array(idx))
        assert not np.shares_memory(out.data, a)
        out.data[:] = -1.0
    np.testing.assert_array_equal(a, np.arange(12.0).reshape(6, 2))


@pytest.mark.parametrize("relu", [True, False])
def test_gcn_layer_over_propagated_input_is_the_layer(relu):
    """A layer given ad.propagate of its input and no plan gives the bits of
    the layer that propagates, in its value and its weight's gradient."""
    rng = np.random.default_rng(80)
    for trial in range(5):
        plan = _random_plan(rng, 9, edgeless=trial == 0)
        f = rng.normal(size=(9, 4))
        prop = ad.propagate(f, plan)
        _assert_bitwise(lambda lv: ad.gcn_layer(prop, None, lv["lw"], None, relu),
                        lambda lv: ad.gcn_layer(f, None, lv["lw"], plan, relu),
                        {"lw": rng.normal(size=(4, 3))}, {"lw"})
    with pytest.raises(ValueError, match="plan"):
        ad.gcn_layer(prop, np.ones((plan.num_und_edges, 1)), np.ones((4, 3)),
                     None, relu)
    with pytest.raises(ValueError, match="constant"):
        ad.gcn_layer(ad.leaves({"f": prop})["f"], None, np.ones((4, 3)),
                     None, relu)
