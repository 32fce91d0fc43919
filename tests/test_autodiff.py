"""Reverse-mode autodiff: primitive adjoints, backward semantics, Adam."""

import gc
import weakref

import numpy as np
import pytest

import composed
from cdgnn import autodiff as ad
from fdcheck import PRIMITIVE_CASES, max_relative_error


class TestPrimitiveGradients:
    @pytest.mark.parametrize("name", sorted(PRIMITIVE_CASES))
    def test_matches_central_differences(self, name):
        rng = np.random.default_rng(abs(hash(name)) % 2**32)
        sampler = PRIMITIVE_CASES[name]
        for _ in range(15):
            build, values = sampler(rng)
            err = max_relative_error(build, values)
            assert err < 1e-4, f"{name}: worst relative error {err:.3e}"


class TestForwardValues:
    def test_sigmoid_at_zero(self):
        t = ad.sigmoid(np.zeros((1, 1)))
        assert t.item() == 0.5

    def test_sigmoid_is_the_masked_sigmoid_bit_for_bit(self):
        """One exp of -|a| for both signs gives the bits of gathering each
        sign's rows (composed.masked_sigmoid): at +-0, at |a| >= 710,
        where exp(|a|) overflows, at infinities and at NaN of either
        sign, and over random inputs of six scales; no exp overflows."""
        edge = np.array([0.0, -0.0, 709.0, 710.0, -710.0, 745.0, -746.0,
                         1e308, -1e308, np.inf, -np.inf, np.nan, -np.nan,
                         5e-324, -5e-324]).reshape(-1, 1)
        rng = np.random.default_rng(3)
        cases = [edge] + [rng.normal(size=(int(rng.integers(1, 90)), 2))
                          * 10.0 ** (k % 6 - 2) for k in range(60)]
        for a in cases:
            with np.errstate(over="raise"):
                got = ad.sigmoid(a).data
            with np.errstate(over="ignore"):
                want = composed.masked_sigmoid(a)
            np.testing.assert_array_equal(got.view(np.int64),
                                          want.view(np.int64))

    def test_softmax_of_zeros_is_uniform(self):
        probs = ad.softmax_head(np.zeros((1, 2)), np.zeros((2, 3)),
                                np.zeros((1, 3)))
        np.testing.assert_allclose(probs, [[1 / 3, 1 / 3, 1 / 3]])

    def test_matmul_hand_product(self):
        a = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
        b = np.array([[7.0, 8.0], [9.0, 10.0], [11.0, 12.0]])
        t = ad.matmul(a, b)
        np.testing.assert_array_equal(t.data, [[58.0, 64.0], [139.0, 154.0]])

    def test_log_clamps_tiny_values(self):
        t = composed.log(np.array([[0.0]]))
        assert t.item() == pytest.approx(np.log(1e-12))

    def test_masked_propagate_matches_formula(self):
        plan = ad.PropagationPlan.from_edges(np.array([[0, 1]]), 2)
        out = composed.masked_propagate(np.array([[4.0], [10.0]]),
                                        np.array([[0.5]]), plan)
        np.testing.assert_allclose(out.data, [[(4 + 5) / 2], [(10 + 2) / 2]])


class TestBackwardSemantics:
    def test_sum_gradient_is_ones(self):
        x = ad.leaves({"x": np.arange(6.0).reshape(2, 3)})
        grads = ad.gradients(composed.sum_all(x["x"]), x)
        np.testing.assert_array_equal(grads["x"], np.ones((2, 3)))

    def test_half_square_sum_gradient_is_x(self):
        base = np.array([[1.0, -2.0], [0.5, 3.0]])
        t = ad.leaves({"x": base})
        x = t["x"]
        loss = ad.multiply(composed.sum_all(ad.multiply(x, x)), 0.5)
        grads = ad.gradients(loss, t)
        np.testing.assert_allclose(grads["x"], base)

    def test_gradients_match_closed_form_then_release_the_tape(self):
        """The walk spends the graph: the leaves are left clear, and a
        second walk through a spent node raises."""
        xv = np.array([[1.0, -2.0], [0.5, 3.0]])
        wv = np.array([[0.3], [-0.7]])
        t = ad.leaves({"x": xv, "w": wv})
        loss = composed.mean(ad.sigmoid(ad.matmul(t["x"], t["w"])))
        got = ad.gradients(loss, t)
        s = 1.0 / (1.0 + np.exp(-(xv @ wv)))
        gz = s * (1.0 - s) / 2.0
        np.testing.assert_allclose(got["x"], gz @ wv.T, rtol=1e-12)
        np.testing.assert_allclose(got["w"], xv.T @ gz, rtol=1e-12)
        assert t["x"].grad is None and t["w"].grad is None
        assert loss.grad is None and loss._parents is None
        with pytest.raises(ValueError, match="already ran"):
            ad.gradients(loss, t)

    def test_new_op_on_spent_intermediate_raises(self):
        t = ad.leaves({"x": np.ones((2, 2))})
        h = ad.sigmoid(t["x"])
        ad.gradients(composed.sum_all(h), t)
        again = composed.sum_all(ad.multiply(h, 2.0))
        with pytest.raises(ValueError, match="already ran"):
            ad.gradients(again, t)

    def test_reused_leaves_match_fresh_leaves_bit_for_bit(self):
        rng = np.random.default_rng(41)
        values = {"x": rng.normal(size=(4, 3)), "w": rng.normal(size=(3, 2))}
        r = rng.normal(size=(4, 2))

        def loss_of(t):
            h = composed.relu(ad.matmul(t["x"], t["w"]))
            return composed.sum_all(ad.multiply(ad.multiply(h, h), r))

        reused = ad.leaves(values)
        first = ad.gradients(loss_of(reused), reused)
        second = ad.gradients(loss_of(reused), reused)
        fresh = ad.leaves(values)
        want = ad.gradients(loss_of(fresh), fresh)
        for got in (first, second):
            for k in values:
                np.testing.assert_array_equal(got[k], want[k], err_msg=k)

    def test_spent_tape_dies_by_reference_count(self):
        """After gradients, a step's activations go as soon as the caller
        drops them, with the cyclic collector off: outputs link only to
        their inputs, so a graph holds no cycle."""
        gc.disable()
        try:
            t = ad.leaves({"x": np.ones((3, 2))})
            h = ad.sigmoid(t["x"])
            loss = composed.mean(ad.multiply(h, h))
            refs = [weakref.ref(h.data), weakref.ref(loss.data)]
            ad.gradients(loss, t)
            assert all(ref() is not None for ref in refs)
            del h, loss
            assert [ref() for ref in refs] == [None, None]
        finally:
            gc.enable()

    @pytest.mark.parametrize("case", ["add", "add_self", "subtract", "concat_cols"])
    def test_gradients_share_no_memory(self, case):
        """Adjoints that pass their gradient through (add, subtract) or
        hand out views of it (concat_cols) give each input its own copy.
        `a` also feeds an op recorded before them, whose adjoint runs later
        and adds into a's gradient: with a shared buffer, that add would
        reach another input's gradient too."""
        rng = np.random.default_rng(43)
        t = ad.leaves({"a": rng.normal(size=(3, 2)), "b": rng.normal(size=(3, 2)),
                       "c": rng.normal(size=(3, 4))})
        a, b, c = t["a"], t["b"], t["c"]
        r, early = rng.normal(size=(3, 2)), rng.normal(size=(3, 2))
        first = composed.sum_all(ad.multiply(a, early))
        if case == "add":
            out, want = ad.add(a, b), {"a": early + r, "b": r}
        elif case == "add_self":
            out, want = ad.add(ad.add(a, a), b), {"a": early + 2.0 * r, "b": r}
        elif case == "subtract":
            out, want = ad.subtract(a, b), {"a": early + r, "b": -r}
        else:
            r = rng.normal(size=(3, 6))
            out = composed.concat_cols(a, c)
            want = {"a": early + r[:, :2], "c": r[:, 2:]}
        loss = ad.add(first, composed.sum_all(ad.multiply(out, r)))
        grads = ad.gradients(loss, {k: t[k] for k in want})
        for k in want:
            np.testing.assert_allclose(grads[k], want[k], rtol=1e-15, err_msg=k)
        arrays = list(grads.values())
        for i, x in enumerate(arrays):
            for y in arrays[i + 1:]:
                assert not np.may_share_memory(x, y)

    def test_unused_leaf_gets_zero_gradient(self):
        t = ad.leaves({"x": np.ones((2, 2)), "unused": np.ones((3, 3))})
        grads = ad.gradients(composed.sum_all(t["x"]), t)
        np.testing.assert_array_equal(grads["unused"], np.zeros((3, 3)))

    def test_non_scalar_loss_rejected(self):
        t = ad.leaves({"x": np.ones((2, 2))})
        with pytest.raises(ValueError, match="scalar"):
            ad.gradients(ad.multiply(t["x"], 2.0), t)

    def test_non_finite_loss_rejected(self):
        t = ad.leaves({"x": np.array([[1e308]])})
        with np.errstate(over="ignore"):
            doubled = ad.add(t["x"], t["x"])  # overflows to inf
        with pytest.raises(FloatingPointError):
            ad.gradients(composed.sum_all(doubled), t)

    def test_operation_output_is_not_a_leaf(self):
        t = ad.leaves({"x": np.ones((2, 2))})
        h = ad.sigmoid(t["x"])
        with pytest.raises(ValueError, match="not a leaf"):
            ad.gradients(composed.sum_all(h), {"h": h})


class TestDropout:
    def test_rate_zero_is_identity(self):
        x = ad.leaves({"x": np.ones((3, 3))})["x"]
        out = ad.dropout(x, 0.0, np.random.default_rng(0))
        assert out is x

    def test_same_seed_same_mask(self):
        x = np.ones((8, 8))
        a = ad.dropout(x, 0.4, np.random.default_rng(123)).data
        b = ad.dropout(x, 0.4, np.random.default_rng(123)).data
        np.testing.assert_array_equal(a, b)

    def test_kept_entries_are_rescaled(self):
        x = np.ones((200, 50))
        out = ad.dropout(x, 0.25, np.random.default_rng(7)).data
        kept = out[out != 0]
        np.testing.assert_allclose(kept, 1.0 / 0.75)
        assert abs(kept.size / x.size - 0.75) < 0.03

    def test_invalid_rate_rejected(self):
        with pytest.raises(ValueError, match="rate"):
            ad.dropout(np.ones((2, 2)), 1.0, np.random.default_rng(0))


class TestRbfGram:
    """The kernel and centering oracles behind the bitwise checks of
    hsic_rbf (tests/composed.py)."""

    def test_positive_semidefinite(self):
        rng = np.random.default_rng(29)
        for _ in range(10):
            x = rng.normal(size=(20, 5))
            k = composed.rbf_gram(x, float(rng.uniform(0.5, 3.0))).data
            np.testing.assert_allclose(k, k.T, atol=1e-12)
            eigs = np.linalg.eigvalsh(k)
            assert eigs.min() >= -1e-8

    def test_unit_diagonal(self):
        k = composed.rbf_gram(np.random.default_rng(0).normal(size=(6, 3)), 1.0)
        np.testing.assert_allclose(np.diag(k.data), 1.0)

    def test_center_gram_zeroes_row_means(self):
        k = np.random.default_rng(1).normal(size=(5, 5))
        c = composed.center_gram(k).data
        np.testing.assert_allclose(c.mean(axis=0), 0.0, atol=1e-12)
        np.testing.assert_allclose(c.mean(axis=1), 0.0, atol=1e-12)

    def test_center_gram_needs_square(self):
        with pytest.raises(ValueError, match="square"):
            composed.center_gram(np.ones((2, 3)))


class TestShapeGuards:
    def test_segment_mean_rejects_empty_segment(self):
        with pytest.raises(ValueError, match="segment"):
            composed.segment_mean_rows(np.ones((2, 2)), np.array([0, 0]), 2)

    def test_pick_class_rejects_bad_label(self):
        with pytest.raises(ValueError, match="label"):
            ad.head_nll(np.ones((2, 3)), np.arange(2), np.ones((3, 3)),
                        np.zeros((1, 3)), np.array([0, 5]))
        with pytest.raises(ValueError, match="label"):
            ad.two_head_loss(np.ones((2, 2)), np.ones((2, 2)),
                             (np.ones((4, 3)), np.zeros((1, 3))),
                             (np.ones((4, 3)), np.zeros((1, 3))),
                             np.array([-1, 0]), 0.5, np.arange(2),
                             (1.0, 1.0, 1.0))

    def test_permute_rows_rejects_non_permutation(self):
        for perm in ([0, 0, 2], [0, 1], [0, 1, 2, 3], [0, 1, 3], [-1, 1, 2]):
            with pytest.raises(ValueError, match="perm"):
                composed.permute_rows(np.ones((3, 2)), np.array(perm))

    @pytest.mark.parametrize("idx", [[-1], [0, 3]])
    def test_take_rows_rejects_index_outside_rows(self, idx):
        """Its adjoint sums through a CSR kernel that checks no bounds."""
        with pytest.raises(ValueError, match="outside"):
            composed.take_rows(np.ones((3, 2)), np.array(idx))

    def test_propagate_rejects_wrong_weight_shape(self):
        plan = ad.PropagationPlan.from_edges(np.array([[0, 1]]), 2)
        with pytest.raises(ValueError, match="weights"):
            composed.masked_propagate(np.ones((2, 1)), np.ones((3, 1)), plan)

    @pytest.mark.parametrize("edges, num_nodes, match", [
        ([0, 1], 2, "shaped"),
        ([[0, 1, 2]], 3, "shaped"),
        ([[0, -1]], 2, "outside"),
        ([[0, 2]], 2, "outside"),
        (np.zeros((0, 2)), 0, "num_nodes"),
    ])
    def test_plan_rejects_bad_layout(self, edges, num_nodes, match):
        """The CSR kernel checks no bounds, so the plan checks them once."""
        with pytest.raises(ValueError, match=match) as err:
            ad.PropagationPlan.from_edges(np.array(edges), num_nodes)
        assert "\n" not in str(err.value)


class TestAdam:
    def test_zero_gradient_zero_decay_leaves_params(self):
        params = {"w": np.array([[1.0, -2.0]])}
        state = ad.AdamState(params, 0.1)
        ad.adam_step(state, {"w": np.zeros((1, 2))})
        np.testing.assert_array_equal(state.params["w"], params["w"])
        assert state.step == 1

    def test_moments_decay_without_gradient(self):
        state = ad.AdamState({"w": np.array([[0.0]])}, 0.1)
        state.step = 1
        state.m[:] = state.v[:] = 1.0
        ad.adam_step(state, {"w": np.zeros((1, 1))})
        np.testing.assert_allclose(state.m, [0.9])
        np.testing.assert_allclose(state.v, [0.999])

    def test_first_step_closed_form(self):
        """From zero state the bias-corrected update is g/(|g| + eps)."""
        rng = np.random.default_rng(31)
        g = rng.normal(size=(3, 2))
        theta = rng.normal(size=(3, 2))
        lr, wd, eps = 0.01, 0.05, ad.ADAM_EPS
        state = ad.AdamState({"w": theta}, lr)
        ad.adam_step(state, {"w": g}, weight_decay=wd)
        expected = theta - lr * wd * theta - lr * g / (np.abs(g) + eps)
        np.testing.assert_allclose(state.params["w"], expected, rtol=1e-12)

    def test_deterministic_and_non_mutating(self):
        params = {"w": np.array([[1.0, 2.0]])}
        grads = {"w": np.array([[0.3, -0.7]])}
        before = params["w"].copy()
        a, b = ad.AdamState(params, 0.01), ad.AdamState(params, 0.01)
        for state in (a, b):
            ad.adam_step(state, grads, weight_decay=0.1)
        np.testing.assert_array_equal(a.params["w"], b.params["w"])
        np.testing.assert_array_equal(a.m, b.m)
        np.testing.assert_array_equal(params["w"], before)
        np.testing.assert_array_equal(grads["w"], [[0.3, -0.7]])

    def test_nonpositive_lr_rejected(self):
        with pytest.raises(ValueError, match="learning rate"):
            ad.AdamState({"w": np.ones((1, 1))}, 0.0)
        with pytest.raises(ValueError, match="learning rate"):
            ad.AdamState({"w": np.ones((1, 1)), "b": np.ones((1, 1))},
                         {"w": 0.1, "b": -1.0})
        with pytest.raises(ValueError, match="no learning rate"):
            ad.AdamState({"w": np.ones((1, 1))}, {"b": 0.1})
