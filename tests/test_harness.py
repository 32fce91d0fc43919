"""Splits, training loops, run records, and the variant runner."""

import gc
import json
import time
import warnings
from dataclasses import asdict, fields, replace

import numpy as np
import pytest

import composed
from cdgnn import autodiff as ad
from cdgnn import cli, harness, models, synth
from cdgnn.disentangle import init_cdgnn_params
from cdgnn.graphs import (Graph, GraphError, feature_heterophily,
                          label_heterophily, save_graph)
from cdgnn.harness import (
    RunConfig,
    RunRecord,
    aggregate_runs,
    dataset_hash,
    evaluate,
    load_model,
    run_experiment,
    run_variants,
    save_model,
    save_sweep,
    split_nodes,
    train_cdgnn,
    train_gcn_baseline,
    write_report_csv,
)


def _tiny_graph(n=40, seed=0):
    """Ring plus chords with class-informative features; fast to train on."""
    rng = np.random.default_rng(seed)
    edges = [(i, (i + 1) % n) for i in range(n)]
    edges += [(i, (i + n // 2) % n) for i in range(0, n, 5)]
    edges = np.unique(np.sort(np.array(edges), axis=1), axis=0)
    labels = rng.integers(0, 2, size=n)
    features = rng.normal(size=(n, 5)) * 0.1
    features[:, 0] += np.where(labels == 0, 1.0, -1.0)
    return Graph(n, edges, features, labels, 2)


def _tiny_config(**overrides):
    base = dict(learning_rate=0.01, hidden=8, dropout=0.0, layers=2,
                epochs=2, patience=2, batch_size=16, scorer_hidden=4,
                hsic_max_rows=64)
    base.update(overrides)
    base["patience"] = min(base["patience"], base["epochs"])
    return RunConfig(**base)


def _built_tables(monkeypatch):
    """The list every later harness.build_ego_cache call appends its
    table to."""
    tables, real = [], harness.build_ego_cache

    def recording(g, hops, nodes):
        tables.append(real(g, hops, nodes))
        return tables[-1]

    monkeypatch.setattr(harness, "build_ego_cache", recording)
    return tables


def _each_ego_once(table):
    """The nodes whose egos `table` holds, ascending, after checking that it
    holds each of them once: one row, one span, spans end to end."""
    held = composed.held_egos(table)
    assert table.member_ptr.shape == table.edge_ptr.shape == (len(held) + 1,)
    assert table.member_ptr[-1] == table.members.shape[0]
    assert table.edge_ptr[-1] == table.edges.shape[0]
    return list(held)


def _stub_record(seed, accuracy):
    return RunRecord(
        dataset="stub", dataset_hash="0" * 64, model="cdgnn", seed=seed,
        config={}, split_sizes=(6, 2, 2), label_heterophily=0.5,
        feature_heterophily=0.5, best_epoch=0, epochs_run=1,
        train_accuracy=accuracy, val_accuracy=accuracy,
        test_accuracy=accuracy, history=[], wall_time=0.0)


class TestSplitNodes:
    def test_even_ten_way_split(self):
        sp = split_nodes(10, seed=0)
        assert sp.sizes == (6, 2, 2)

    def test_floor_leaves_remainder_to_test(self):
        sp = split_nodes(7, seed=0)
        assert sp.sizes == (4, 1, 2)

    def test_parts_partition_the_nodes(self):
        sp = split_nodes(53, seed=1)
        merged = np.concatenate([sp.train, sp.val, sp.test])
        np.testing.assert_array_equal(np.sort(merged), np.arange(53))

    def test_parts_are_sorted(self):
        sp = split_nodes(31, seed=2)
        for part in (sp.train, sp.val, sp.test):
            np.testing.assert_array_equal(part, np.sort(part))

    def test_seed_determinism(self):
        a = split_nodes(20, seed=3)
        b = split_nodes(20, seed=3)
        np.testing.assert_array_equal(a.train, b.train)
        assert not np.array_equal(a.train, split_nodes(20, seed=4).train)

    def test_too_few_nodes_rejected(self):
        with pytest.raises(ValueError, match="at least 5"):
            split_nodes(4, seed=0)


class TestRunConfig:
    def test_defaults_validate(self):
        RunConfig().validate()

    @pytest.mark.parametrize("hops", [0, 1.5, True, "2", -2.0])
    def test_ego_hops_not_a_whole_number_of_at_least_one_refused(self, hops):
        """1.5 used to pass and end in a TypeError; True trained at 1 hop."""
        with pytest.raises(ValueError, match=rf"^ego_hops must be a whole "
                                             rf"number >= 1, got {hops!r}$"):
            RunConfig(ego_hops=hops).validate()

    def test_patience_bounded_by_epochs(self):
        with pytest.raises(ValueError, match="patience"):
            RunConfig(epochs=5, patience=10).validate()

    def test_all_terms_ablated_rejected(self):
        with pytest.raises(ValueError, match="ablated"):
            _tiny_config(no_shortcut_term=True, no_causal_term=True,
                         no_counterfactual_term=True,
                         no_independence_term=True).validate()

    def test_all_terms_weighed_zero_rejected(self):
        """Zero lambdas count as ablations: the objective would be empty,
        and run_variants checks every config before any run."""
        with pytest.raises(ValueError, match="nothing to optimize"):
            RunConfig(no_shortcut_term=True, no_causal_term=True,
                      lambda_counterfactual=0.0,
                      lambda_independence=0.0).validate()

    def test_batch_size_floor(self):
        with pytest.raises(ValueError, match="batch_size"):
            _tiny_config(batch_size=1).validate()

    def test_scorer_learning_rate_must_be_positive(self):
        with pytest.raises(ValueError, match="scorer_learning_rate"):
            _tiny_config(scorer_learning_rate=0.0).validate()

    def test_hops_default_to_depth(self):
        assert _tiny_config(layers=3).resolved_hops == 3
        assert _tiny_config(layers=3, ego_hops=1).resolved_hops == 1

    def test_coefficients_mirror_config(self):
        cfg = _tiny_config(q=0.5, lambda_counterfactual=2.0,
                           no_independence_term=True)
        assert cfg.coefficients == (1.0, 1.0, 2.0, 0.0)
        assert _tiny_config(no_shortcut_term=True, no_causal_term=True,
                            lambda_independence=0.3).coefficients == (
            0.0, 0.0, 10.0, 0.3)

    def test_defaults_are_pinned(self):
        """Every record hashes the config dict: its keys and defaults."""
        assert asdict(RunConfig()) == {
            "learning_rate": 1e-4, "scorer_learning_rate": None,
            "weight_decay": 5e-4, "hidden": 150, "dropout": 0.1, "layers": 2,
            "q": 0.7, "lambda_counterfactual": 10.0,
            "lambda_independence": 0.1, "epochs": 200, "patience": 30,
            "batch_size": 32, "ego_hops": None, "scorer_hidden": 16,
            "hsic_max_rows": 256, "no_shortcut_term": False,
            "no_causal_term": False, "no_counterfactual_term": False,
            "no_independence_term": False}

    @pytest.mark.parametrize("value", [float("nan"), float("inf"),
                                       float("-inf")])
    def test_non_finite_float_rejected(self, value):
        floats = [f.name for f in fields(RunConfig) if "float" in str(f.type)]
        assert len(floats) == 7
        for name in floats:
            with pytest.raises(ValueError, match=f"^{name} must be finite"):
                RunConfig(**{name: value}).validate()


class TestDatasetHash:
    def test_matches_manual_sha256(self):
        import hashlib
        from cdgnn.graphs import graph_to_dict
        g = _tiny_graph()
        payload = json.dumps(graph_to_dict(g), sort_keys=True)
        assert dataset_hash(g) == hashlib.sha256(payload.encode()).hexdigest()

    def test_sensitive_to_content(self):
        g = _tiny_graph()
        bumped = Graph(g.num_nodes, g.edges, g.features + 1.0, g.labels,
                       g.num_classes)
        assert dataset_hash(g) != dataset_hash(bumped)


class TestTrainCdgnn:
    def test_history_shape_and_epoch_identity(self):
        g = _tiny_graph()
        cfg = _tiny_config(lambda_counterfactual=2.0, lambda_independence=0.5)
        sp = split_nodes(g.num_nodes, seed=0)
        result = train_cdgnn(g, cfg, seed=0, train_nodes=sp.train,
                             val_nodes=sp.val)
        assert len(result.history) == 2
        for row in result.history:
            for key in ("loss_s", "loss_c", "loss_cf", "loss_hsic", "total",
                        "val_acc", "epoch", "ce_s", "ce_c"):
                assert key in row
            recomposed = (row["loss_s"] + row["loss_c"]
                          + 2.0 * row["loss_cf"] + 0.5 * row["loss_hsic"])
            assert row["total"] == recomposed

    def test_seed_reproducibility(self):
        g = _tiny_graph()
        cfg = _tiny_config()
        sp = split_nodes(g.num_nodes, seed=0)
        a = train_cdgnn(g, cfg, seed=5, train_nodes=sp.train, val_nodes=sp.val)
        b = train_cdgnn(g, cfg, seed=5, train_nodes=sp.train, val_nodes=sp.val)
        assert a.history == b.history
        for key in a.params:
            np.testing.assert_array_equal(a.params[key], b.params[key])

    def test_best_val_is_history_max(self):
        g = _tiny_graph(seed=1)
        cfg = _tiny_config(epochs=3, patience=3)
        sp = split_nodes(g.num_nodes, seed=1)
        result = train_cdgnn(g, cfg, seed=1, train_nodes=sp.train,
                             val_nodes=sp.val)
        assert result.best_val_accuracy == max(r["val_acc"]
                                               for r in result.history)
        best_row = result.history[result.best_epoch]
        assert best_row["val_acc"] == result.best_val_accuracy

    def test_ablation_flag_equals_zero_weight(self):
        """Flagging a term off and zeroing its weight take the same path."""
        g = _tiny_graph(seed=2)
        sp = split_nodes(g.num_nodes, seed=2)
        flagged = train_cdgnn(g, _tiny_config(no_counterfactual_term=True),
                              seed=3, train_nodes=sp.train, val_nodes=sp.val)
        zeroed = train_cdgnn(g, _tiny_config(lambda_counterfactual=0.0),
                             seed=3, train_nodes=sp.train, val_nodes=sp.val)
        assert flagged.history == zeroed.history
        for key in flagged.params:
            np.testing.assert_array_equal(flagged.params[key],
                                          zeroed.params[key])

    def test_caches_only_train_and_val_egos(self, monkeypatch):
        g = _tiny_graph()
        sp = split_nodes(g.num_nodes, seed=0)
        tables = _built_tables(monkeypatch)
        train_cdgnn(g, _tiny_config(epochs=1), seed=0, train_nodes=sp.train,
                    val_nodes=sp.val)
        assert len(tables) == 1
        assert _each_ego_once(tables[0]) == sorted(sp.train.tolist()
                                                   + sp.val.tolist())

    @pytest.mark.parametrize("patience", [1, 4])
    def test_predicts_val_once_per_epoch_run(self, monkeypatch, patience):
        calls, real = [], harness._predict_cdgnn

        def counted(batches, params):
            calls.append(1)
            return real(batches, params)

        monkeypatch.setattr(harness, "_predict_cdgnn", counted)
        g = _tiny_graph(seed=4)
        sp = split_nodes(g.num_nodes, seed=4)
        result = train_cdgnn(g, _tiny_config(epochs=4, patience=patience,
                                             learning_rate=1e-6),
                             0, sp.train, sp.val)
        assert (len(result.history) < 4) == (patience == 1)
        assert len(calls) == len(result.history)

    def test_needs_two_train_nodes(self):
        g = _tiny_graph()
        with pytest.raises(ValueError, match="at least 2"):
            train_cdgnn(g, _tiny_config(), seed=0,
                        train_nodes=np.array([0]), val_nodes=np.array([1]))

    def test_explicit_scorer_rate_matches_shared_rate(self):
        """Setting the scorer rate to the shared rate changes nothing."""
        g = _tiny_graph(seed=5)
        sp = split_nodes(g.num_nodes, seed=5)
        shared = train_cdgnn(g, _tiny_config(), seed=1,
                             train_nodes=sp.train, val_nodes=sp.val)
        explicit = train_cdgnn(g, _tiny_config(scorer_learning_rate=0.01),
                               seed=1, train_nodes=sp.train, val_nodes=sp.val)
        assert shared.history == explicit.history
        for key in shared.params:
            np.testing.assert_array_equal(shared.params[key],
                                          explicit.params[key])

    def test_smaller_scorer_rate_moves_scorer_less(self):
        g = _tiny_graph(seed=6)
        sp = split_nodes(g.num_nodes, seed=6)
        fast = train_cdgnn(g, _tiny_config(), seed=2,
                           train_nodes=sp.train, val_nodes=sp.val)
        slow = train_cdgnn(g, _tiny_config(scorer_learning_rate=1e-4),
                           seed=2, train_nodes=sp.train, val_nodes=sp.val)
        moved_fast = sum(np.abs(fast.params[k]).sum()
                         for k in fast.params if k.startswith("mask.w2"))
        moved_slow = sum(np.abs(slow.params[k]).sum()
                         for k in slow.params if k.startswith("mask.w2"))
        # mask.w2 starts at zero, so its magnitude tracks total movement
        assert moved_slow < moved_fast


class TestTrainBaseline:
    def test_history_and_determinism(self):
        g = _tiny_graph(seed=3)
        cfg = _tiny_config()
        sp = split_nodes(g.num_nodes, seed=3)
        a = train_gcn_baseline(g, cfg, seed=0, train_nodes=sp.train,
                               val_nodes=sp.val)
        b = train_gcn_baseline(g, cfg, seed=0, train_nodes=sp.train,
                               val_nodes=sp.val)
        assert a.history == b.history
        assert set(a.history[0]) == {"epoch", "loss", "val_acc"}
        assert {k.split(".")[0] for k in a.params} == {"gcn", "head"}

    def test_early_stopping_respects_patience(self, monkeypatch):
        """At dropout 0 and above, the two ways the GCN scores val. A run
        cut short keeps its forward count: at dropout 0 the last predict's
        forward is made and never differentiated."""
        calls = self._count_forwards(monkeypatch)
        g = _tiny_graph(seed=4)
        sp = split_nodes(g.num_nodes, seed=4)
        for dropout in (0.0, 0.3):
            calls.clear()
            cfg = _tiny_config(epochs=30, patience=1, learning_rate=1e-6,
                               dropout=dropout)
            result = train_gcn_baseline(g, cfg, seed=0, train_nodes=sp.train,
                                        val_nodes=sp.val)
            n = len(result.history)
            assert n == result.best_epoch + cfg.patience + 1 < cfg.epochs
            assert len(calls) == (n + 1 if dropout == 0.0 else 2 * n), dropout

    @pytest.mark.parametrize("dropout,forwards", [(0.0, 5 + 1),
                                                  (0.3, 2 * 5)])
    def test_full_graph_forwards_per_run(self, monkeypatch, dropout,
                                         forwards):
        """Without dropout each epoch's predict runs on the leaves and the
        next step differentiates that forward, so only the first step makes
        its own; with dropout every step and every predict make one, the
        predict's on the parameter arrays."""
        calls = self._count_forwards(monkeypatch)
        g = _tiny_graph(seed=3)
        sp = split_nodes(g.num_nodes, seed=3)
        result = train_gcn_baseline(g, _tiny_config(epochs=5, patience=5,
                                                    dropout=dropout),
                                    0, sp.train, sp.val)
        assert len(result.history) == 5
        assert calls == ([True] * 6 if dropout == 0.0 else [True, False] * 5)
        assert len(calls) == forwards

    @staticmethod
    def _count_forwards(monkeypatch) -> list[bool]:
        """Record each full-graph forward: True on leaves, False on arrays."""
        calls, real = [], harness.gcn_forward

        def counted(*args, **kwargs):
            calls.append(isinstance(args[4][0], ad.Tensor))
            return real(*args, **kwargs)

        monkeypatch.setattr(harness, "gcn_forward", counted)
        return calls


    def test_layer_weights_apply_in_index_order(self):
        """From 11 layers on, "gcn.w10" sorts before "gcn.w2"; layer l must
        still apply gcn.w<l>."""
        g = _tiny_graph(seed=8)
        params = models.init_gcn_weights(np.random.default_rng(8), 5, 8, 11,
                                         "gcn")
        plan = ad.PropagationPlan.from_edges(g.edges, g.num_nodes)
        ws = [params[f"gcn.w{l}"] for l in range(11)]
        want = models.gcn_forward(plan, g.features, None, None, ws)[-1].data
        got = harness._gcn_hidden(harness._full_graph(g), params).data
        assert np.abs(want).sum() > 0.0
        np.testing.assert_array_equal(got, want)


class TestGcnRunCounts:
    """A GCN run does its fixed work once: the full graph's plan and the
    propagation of the features, which training and both evaluations read."""

    def _count(self, monkeypatch, g):
        plans, props, forwards = [], [], []
        real_plan, real_prop = ad.PropagationPlan.from_edges, ad._propagate
        real_forward = harness.gcn_forward

        def plan(edges, num_nodes):
            plans.append(num_nodes)
            return real_plan(edges, num_nodes)

        def prop(f, w, p):
            if f.shape == g.features.shape and np.array_equal(f, g.features):
                props.append(w)
            return real_prop(f, w, p)

        def forward(*args, **kwargs):
            forwards.append(isinstance(args[4][0], ad.Tensor))  # leaves: training
            return real_forward(*args, **kwargs)

        monkeypatch.setattr(ad.PropagationPlan, "from_edges",
                            staticmethod(plan))
        monkeypatch.setattr(ad, "_propagate", prop)
        monkeypatch.setattr(harness, "gcn_forward", forward)
        return plans, props, forwards

    def test_one_plan_and_one_feature_propagation_per_run(self, monkeypatch):
        g = _tiny_graph(seed=3)
        plans, props, _ = self._count(monkeypatch, g)
        cfg = _tiny_config(epochs=4, patience=4)
        run_experiment(g, cfg, seed=0, model="gcn")
        assert plans == [g.num_nodes]
        assert props == [None]
        run_variants(g, {"a": ("gcn", cfg),
                         "b": ("gcn", replace(cfg, hidden=6))}, [0, 1, 2])
        assert plans == [g.num_nodes] * 2
        assert props == [None] * 2

    def test_train_and_test_share_one_inference_forward(self, monkeypatch):
        """Without dropout: the first step's forward and one predict per
        epoch, all on the leaves, then one forward for both evaluations."""
        g = _tiny_graph(seed=3)
        _, _, forwards = self._count(monkeypatch, g)
        record = run_experiment(g, _tiny_config(epochs=5, patience=5),
                                seed=0, model="gcn")
        assert record.epochs_run == 5
        assert forwards == [True] * 6 + [False]


class TestEvaluate:
    def test_node_outside_the_graph_rejected(self):
        """A negative id would otherwise wrap to a row from the end."""
        g = _tiny_graph(seed=5)
        params = train_gcn_baseline(g, _tiny_config(epochs=1), 0,
                                    np.arange(10), np.arange(10, 14)).params
        for nodes in ([-1], [0, g.num_nodes]):
            with pytest.raises(ValueError, match="outside"):
                evaluate(g, params, np.array(nodes))

    def test_confusion_consistent_with_accuracy(self):
        g = _tiny_graph(seed=5)
        sp = split_nodes(g.num_nodes, seed=5)
        result = train_gcn_baseline(g, _tiny_config(), seed=0,
                                    train_nodes=sp.train, val_nodes=sp.val)
        ev = evaluate(g, result.params, sp.test)
        assert ev.confusion.sum() == sp.test.shape[0]
        np.testing.assert_allclose(np.trace(ev.confusion) / ev.confusion.sum(),
                                   ev.accuracy)
        truth = g.labels[sp.test]
        np.testing.assert_allclose((ev.predictions == truth).mean(),
                                   ev.accuracy)

    def test_dispatches_on_parameter_keys(self):
        g = _tiny_graph(seed=6)
        sp = split_nodes(g.num_nodes, seed=6)
        cdgnn = train_cdgnn(g, _tiny_config(epochs=1), seed=0,
                            train_nodes=sp.train, val_nodes=sp.val)
        gcn = train_gcn_baseline(g, _tiny_config(epochs=1), seed=0,
                                 train_nodes=sp.train, val_nodes=sp.val)
        for params in (cdgnn.params, gcn.params):
            ev = evaluate(g, params, sp.test, hops=2)
            assert ev.predictions.shape == sp.test.shape

    def test_cdgnn_needs_its_ego_hops(self):
        """A CD-GNN reads egos of the hops it was trained at, so evaluate
        takes no default for them."""
        g = _tiny_graph(seed=6)
        sp = split_nodes(g.num_nodes, seed=6)
        params = init_cdgnn_params(np.random.default_rng(0), 5, 4, 1, 4, 2)
        with pytest.raises(ValueError, match="ego hops") as err:
            evaluate(g, params, sp.test)
        assert "\n" not in str(err.value)
        ev = evaluate(g, params, sp.test, hops=1)
        assert ev.predictions.shape == sp.test.shape

    def test_parameters_that_do_not_fit_the_graph_are_refused(self):
        """Scored anyway, a model of another class count or feature width
        would read as an accuracy (the class ids it predicts exist)."""
        g = _tiny_graph(seed=6)  # 5 features, 2 classes
        rng = np.random.default_rng(0)
        gcn = {**models.init_gcn_weights(rng, 5, 4, 1, "gcn"),
               **models.init_head_params(rng, 4, 3, "head")}
        for params, needle in (
                (gcn, "takes 5 features and 3 classes, the graph has 5 and 2"),
                (init_cdgnn_params(rng, 5, 4, 1, 4, 1), "5 features and 1 "),
                (init_cdgnn_params(rng, 6, 4, 1, 4, 2), "6 features and 2 "),
                ({"w": np.ones((1, 1))}, "neither a CD-GNN nor a GCN")):
            with pytest.raises(ValueError, match=needle):
                evaluate(g, params, np.arange(10), hops=1)

    def test_empty_nodes_rejected(self):
        g = _tiny_graph(seed=7)
        result = train_gcn_baseline(g, _tiny_config(epochs=1), seed=0,
                                    train_nodes=np.arange(10),
                                    val_nodes=np.arange(10, 14))
        with pytest.raises(ValueError, match="at least one"):
            evaluate(g, result.params, np.array([], dtype=int))


@pytest.mark.parametrize("train", [train_cdgnn, train_gcn_baseline])
def test_result_params_are_the_best_epoch_in_one_buffer(train):
    """The run's parameters live in one buffer, which ends holding the best
    epoch's values: those of a run cut short after that epoch."""
    g = _tiny_graph(seed=0)
    sp = split_nodes(g.num_nodes, seed=0)
    full = train(g, _tiny_config(epochs=5, patience=5), 0, sp.train, sp.val)
    assert full.best_epoch < len(full.history) - 1
    views = list(full.params.values())
    buffer = views[0].base
    assert buffer is not None and all(v.base is buffer for v in views)
    assert buffer.size == sum(v.size for v in views)
    cut = train(g, _tiny_config(epochs=full.best_epoch + 1), 0, sp.train,
                sp.val)
    assert cut.history == full.history[:full.best_epoch + 1]
    for key in full.params:
        np.testing.assert_array_equal(full.params[key], cut.params[key])


@pytest.mark.parametrize("train", [train_cdgnn, train_gcn_baseline])
def test_one_set_of_leaves_per_run(train, monkeypatch):
    """The leaves share the parameter buffer that Adam updates in place,
    so every batch of every epoch differentiates through the same ones."""
    calls, real = [], ad.leaves

    def counted(values):
        calls.append(sorted(values))
        return real(values)

    monkeypatch.setattr(ad, "leaves", counted)
    g = _tiny_graph(seed=0)
    sp = split_nodes(g.num_nodes, seed=0)
    result = train(g, _tiny_config(epochs=3, batch_size=4), 0, sp.train,
                   sp.val)
    assert len(result.history) == 3
    assert calls == [sorted(result.params)]


@pytest.mark.parametrize("train,message", [
    (train_gcn_baseline, "non-finite loss (nan) at epoch 1"),
    (train_cdgnn, "non-finite loss_s (nan) at epoch 0")])
def test_non_finite_loss_ends_the_run(train, message):
    """A step refuses a loss breakdown that has diverged before it is
    differentiated, naming the term and the epoch; numpy warns of no
    overflow or invalid value on the way."""
    g = _tiny_graph(seed=0)
    sp = split_nodes(g.num_nodes, seed=0)
    with warnings.catch_warnings(), \
            pytest.raises(FloatingPointError) as err:
        warnings.simplefilter("error", RuntimeWarning)
        train(g, _tiny_config(learning_rate=1e200), 0, sp.train, sp.val)
    assert str(err.value) == message


@pytest.mark.parametrize("train", [train_cdgnn, train_gcn_baseline])
def test_empty_val_set_refused(train):
    """Early stopping scores the val set, so a run without one is refused
    before it trains."""
    g = _tiny_graph(seed=0)
    with pytest.raises(ValueError, match="^need at least 1 validation node$"):
        train(g, _tiny_config(), 0, np.arange(10), [])


@pytest.mark.parametrize("train", [train_cdgnn, train_gcn_baseline])
@pytest.mark.parametrize("train_nodes, val_nodes, message", [
    ([0, 1, 2], [-1, -2], "val node id -1 outside [0, 40)"),
    ([0, 40, 41], [10, 11], "train node id 40 outside [0, 40)")],
    ids=["val", "train"])
def test_node_id_outside_the_graph_refused(train, train_nodes, val_nodes,
                                           message, monkeypatch):
    """A negative id would wrap around to score another node, and a large
    one fail in an ego lookup; either is refused, naming the first, before
    any parameter is drawn."""
    def drawn(*args):
        raise AssertionError("parameters drawn")

    monkeypatch.setattr(harness, "init_cdgnn_params", drawn)
    monkeypatch.setattr(harness, "init_gcn_weights", drawn)
    g = _tiny_graph(seed=0)
    with pytest.raises(ValueError) as err:
        train(g, _tiny_config(), 0, np.array(train_nodes), np.array(val_nodes))
    assert str(err.value) == message


def test_training_leaves_no_cyclic_garbage():
    """Each step's graph is freed by reference count: with the cyclic
    collector off, training leaves it no Tensor to find."""
    g = _tiny_graph(seed=8)
    sp = split_nodes(g.num_nodes, seed=8)
    gc.collect()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        train_cdgnn(g, _tiny_config(epochs=3), 0, sp.train, sp.val)
        train_gcn_baseline(g, _tiny_config(epochs=3), 0, sp.train, sp.val)
        gc.collect()
        found = [o for o in gc.garbage if isinstance(o, ad.Tensor)]
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()
    assert found == []


class TestTrainBatches:
    def test_trailing_singleton_merged(self):
        rng = np.random.default_rng(0)
        chunks = harness._train_batches(np.arange(7), 3, rng)
        assert sorted(len(c) for c in chunks) == [3, 4]
        np.testing.assert_array_equal(
            np.sort(np.concatenate(chunks)), np.arange(7))

    def test_exact_division_untouched(self):
        rng = np.random.default_rng(1)
        chunks = harness._train_batches(np.arange(8), 4, rng)
        assert [len(c) for c in chunks] == [4, 4]


class TestRunRecord:
    def test_canonical_form_excludes_wall_time(self):
        record = _stub_record(0, 0.9)
        assert "wall_time" not in record.canonical_dict()
        payload = json.loads(record.canonical_json())
        assert payload["test_accuracy"] == 0.9

    def test_hash_ignores_wall_time(self):
        a = _stub_record(0, 0.9)
        b = _stub_record(0, 0.9)
        b.wall_time = 123.0
        assert a.record_hash() == b.record_hash()

    def test_save_writes_named_json(self, tmp_path):
        record = _stub_record(7, 0.8)
        path = record.save(tmp_path)
        assert path.name == (f"run_cdgnn_stub_{record.record_hash()[:8]}_s7"
                             ".json")
        payload = json.loads(path.read_text())
        assert payload.pop("wall_time") == 0.0
        assert payload["seed"] == 7
        assert json.dumps(payload, sort_keys=True) == record.canonical_json()


class TestRunExperiment:
    def test_record_fields_and_param_return(self):
        g = _tiny_graph(seed=8)
        record, params = run_experiment(g, _tiny_config(epochs=1), seed=0,
                                        dataset="tiny", model="cdgnn",
                                        return_params=True)
        assert record.dataset == "tiny"
        assert record.dataset_hash == dataset_hash(g)
        assert record.split_sizes == (24, 8, 8)
        assert record.config["hidden"] == 8
        np.testing.assert_allclose(record.label_heterophily,
                                   label_heterophily(g))
        np.testing.assert_allclose(record.feature_heterophily,
                                   feature_heterophily(g))
        assert any(k.startswith("gnn_c.") for k in params)

    def test_repeat_runs_are_bitwise_identical(self):
        g = _tiny_graph(seed=9)
        cfg = _tiny_config()
        a = run_experiment(g, cfg, seed=1, dataset="tiny")
        b = run_experiment(g, cfg, seed=1, dataset="tiny")
        assert a.canonical_json() == b.canonical_json()
        assert a.record_hash() == b.record_hash()

    def test_extracts_each_ego_once(self, monkeypatch):
        """Training and both evaluations share one ego cache."""
        g = _tiny_graph(seed=10)
        tables = _built_tables(monkeypatch)
        run_experiment(g, _tiny_config(epochs=1), seed=0)
        assert len(tables) == 1
        assert _each_ego_once(tables[0]) == list(range(g.num_nodes))

    def test_shared_cache_matches_separate_caches(self):
        g = _tiny_graph(seed=11)
        cfg = _tiny_config()
        record = run_experiment(g, cfg, seed=2)
        sp = split_nodes(g.num_nodes, seed=2)
        result = train_cdgnn(g, cfg, 2, sp.train, sp.val)
        assert record.history == result.history
        assert record.train_accuracy == evaluate(
            g, result.params, sp.train, cfg.resolved_hops).accuracy
        assert record.test_accuracy == evaluate(
            g, result.params, sp.test, cfg.resolved_hops).accuracy

    def test_unknown_model_rejected(self):
        with pytest.raises(ValueError, match="unknown model 'mlp'"):
            run_experiment(_tiny_graph(), _tiny_config(), seed=0,
                           model="mlp")

    def test_numpy_integer_seed_records_as_int(self):
        g = _tiny_graph(seed=4)
        cfg = _tiny_config(epochs=1)
        record = run_experiment(g, cfg, seed=np.int64(1), model="gcn")
        assert type(record.seed) is int
        assert record.record_hash() == run_experiment(
            g, cfg, seed=1, model="gcn").record_hash()

    @pytest.mark.parametrize("model", ["cdgnn", "gcn"])
    def test_graph_without_edges_fails_before_any_work(self, monkeypatch,
                                                       model):
        """Its heterophily, which the record holds, is undefined: both
        runners refuse it before a cache is built or a run trains."""
        def unreachable(*args, **kwargs):
            raise AssertionError("an edgeless graph got past _check")

        for name in ("_fit", "build_ego_cache", "_full_graph"):
            monkeypatch.setattr(harness, name, unreachable)
        g = Graph(10, np.zeros((0, 2), dtype=np.int64), np.ones((10, 3)),
                  np.arange(10) % 2, 2)
        with pytest.raises(GraphError, match="graph with no edges"):
            run_experiment(g, _tiny_config(), seed=0, model=model)
        with pytest.raises(GraphError, match="graph with no edges"):
            run_variants(g, {"a": (model, _tiny_config())}, [0, 1])


@pytest.fixture(scope="module")
def relabeled_tree_cycles():
    g, _ = synth.preset("tree_cycles", seed=0)
    return synth.relabel_to_heterophily(g, target=0.5, seed=0).graph


# (model, dropout, patience, epochs run, record hash) of 6-epoch runs on
# relabeled tree_cycles, pinned when every predict ran on the parameter
# arrays: before a dropout-0 GCN's predict came to run on the leaves, for
# its next step to differentiate. Patience 2 stops every run early;
# patience 6 stops none. The widths are small enough that BLAS runs every
# product on one thread.
_PINNED_RUNS = [
    ("gcn", 0.0, 2, 3,
     "844ba2881e01317b20fbd0610aa70ed8d3417aa2cd92a736bc6d6f1415feec41"),
    ("gcn", 0.0, 6, 6,
     "8bfc2ba75a3e7edb9e6e4cd9a20611729a667a7c0d89060ae70dc0641b423d23"),
    ("gcn", 0.3, 2, 3,
     "715c89aa53372e18cd7e2b528a8e0c9ed8ce4989f877450fee63372a55fcdd40"),
    ("gcn", 0.3, 6, 6,
     "2e1318a6a79183d0987a564d76e18555f7e430c368e50264f1bb576beac4b2b0"),
    ("cdgnn", 0.0, 2, 4,
     "6987944229a1ea59e59d07f7304663c4c707c30beda84c53935d6da8b9532365"),
    ("cdgnn", 0.0, 6, 6,
     "2ddec61f131100496bb55c86ac28880bd800b8705337ec927f79bca5c00f40d6"),
    ("cdgnn", 0.3, 2, 3,
     "61d363b8fb76af52c680ca36a3099000487b16310b2696c005856952fadc46ab"),
    ("cdgnn", 0.3, 6, 6,
     "525fd336c89ba99c4f7c04d26c96f82808a8d19f084101ba843fd639c12a1e24"),
]


@pytest.mark.parametrize("model,dropout,patience,epochs_run,digest",
                         _PINNED_RUNS)
def test_record_hash_is_pinned(relabeled_tree_cycles, model, dropout,
                               patience, epochs_run, digest):
    """Early stopping and dropout, which the seed-0 bench pins never
    reach, reproduce the records of the loop that predicted val after
    every step."""
    cfg = RunConfig(learning_rate=0.02, hidden=8, dropout=dropout, layers=2,
                    epochs=6, patience=patience, batch_size=64,
                    scorer_hidden=4, hsic_max_rows=64)
    record = run_experiment(relabeled_tree_cycles, cfg, seed=1,
                            dataset="tree_cycles", model=model)
    assert record.epochs_run == epochs_run
    assert record.record_hash() == digest


class TestAggregation:
    def test_population_std_hand_case(self):
        mean, std = aggregate_runs([0.5, 0.6, 0.7])
        np.testing.assert_allclose(mean, 0.6)
        np.testing.assert_allclose(std, 0.08164965809277258, rtol=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="no accuracies"):
            aggregate_runs([])


def _stub_run(accuracy):
    """A stand-in for harness._run whose record has `accuracy(config, seed)`
    and the config and graph hash it was given."""
    def run(g, config, seed, dataset, model, facts, caches):
        record = _stub_record(seed, accuracy(config, seed))
        record.config = asdict(config)
        record.dataset_hash = facts["dataset_hash"]
        return record, {}
    return run


def _grid(config, counterfactual_weights, independence_weights):
    """Loss-weight grid variants as the CLI's sweep builds them:
    independence weight outer, counterfactual weight inner."""
    return {f"{l1},{l2}": ("cdgnn", replace(config, lambda_counterfactual=l1,
                                           lambda_independence=l2))
            for l2 in independence_weights for l1 in counterfactual_weights}


class TestRunVariants:
    @pytest.mark.parametrize("first", ["cdgnn", "gcn"])
    def test_records_equal_run_experiment(self, first):
        """A GCN row and CD-GNN rows in one call, seeds out of order; the
        model of the first row is `first`."""
        g = _tiny_graph(seed=12)
        variants = {"cdgnn": ("cdgnn", _tiny_config()),
                    "no_cf": ("cdgnn",
                              _tiny_config(no_counterfactual_term=True))}
        gcn = {"gcn": ("gcn", _tiny_config())}
        variants = {**gcn, **variants} if first == "gcn" else {**variants,
                                                               **gcn}
        runs = run_variants(g, variants, [1, 0], "tiny")
        assert list(runs) == list(variants)
        for name, (model, config) in variants.items():
            assert [r.seed for r in runs[name]] == [1, 0]
            assert {r.model for r in runs[name]} == {model}
            for record in runs[name]:
                assert record.record_hash() == run_experiment(
                    g, config, record.seed, "tiny", model).record_hash()

    def test_each_cache_built_once_and_each_trainer_once_per_run(
            self, monkeypatch):
        """The counting wrappers stand where the bench tracer binds its
        own, so _run must look each function up when it runs."""
        calls = []
        for name in ("build_ego_cache", "_full_graph", "train_cdgnn",
                     "train_gcn_baseline"):
            real = getattr(harness, name)

            def counting(*args, name=name, real=real):
                calls.append((name, args[1] if name == "build_ego_cache"
                              else None))
                return real(*args)

            monkeypatch.setattr(harness, name, counting)
        cfg = _tiny_config(epochs=1)
        variants = {"gcn": ("gcn", cfg),
                    "a": ("cdgnn", cfg),
                    "b": ("cdgnn", replace(cfg, lambda_independence=0.5)),
                    "one_hop": ("cdgnn", replace(cfg, ego_hops=1)),
                    "gcn_wide": ("gcn", replace(cfg, hidden=6))}
        run_variants(_tiny_graph(seed=13), variants, [2, 0])
        assert [c for c in calls if not c[0].startswith("train")] == [
            ("_full_graph", None), ("build_ego_cache", 2),
            ("build_ego_cache", 1)]
        trained = [name for name, _ in calls if name.startswith("train")]
        assert trained == (["train_gcn_baseline"] * 2 + ["train_cdgnn"] * 6
                           + ["train_gcn_baseline"] * 2)

    @pytest.mark.parametrize("first", ["cdgnn", "gcn"])
    def test_wall_time_excludes_the_cache_build(self, first, monkeypatch):
        """Every record's wall_time starts once its cache exists, so even
        the run that builds it does not time the build, in a table whose
        first row is a `first` model and for run_experiment."""
        delay = 0.5
        for name in ("build_ego_cache", "_full_graph"):
            real = getattr(harness, name)

            def slow(*args, real=real):
                time.sleep(delay)
                return real(*args)

            monkeypatch.setattr(harness, name, slow)
        g = _tiny_graph(seed=15)
        cfg = _tiny_config(epochs=1)
        other = "gcn" if first == "cdgnn" else "cdgnn"
        runs = run_variants(g, {"a": (first, cfg), "b": (other, cfg)},
                            [0, 1])
        records = [*runs["a"], *runs["b"],
                   run_experiment(g, cfg, 2, model=first)]
        assert [r.wall_time < delay for r in records] == [True] * 5, [
            r.wall_time for r in records]

    def test_shared_cache_is_read_only(self, monkeypatch):
        """Runs sharing a cache whose arrays refuse writes still train."""
        real = harness.build_ego_cache

        def frozen(g, hops, nodes):
            cache = real(g, hops, nodes)
            for a in vars(cache).values():
                a.flags.writeable = False
            return cache

        monkeypatch.setattr(harness, "build_ego_cache", frozen)
        g = _tiny_graph(seed=14)
        cfg = _tiny_config(epochs=1)
        runs = run_variants(g, {"a": ("cdgnn", cfg),
                                "b": ("cdgnn", replace(cfg, q=0.5))}, [0, 1])
        assert runs["b"][1].record_hash() == run_experiment(
            g, replace(cfg, q=0.5), 1).record_hash()

    def test_invalid_last_variant_stops_before_any_work(self, monkeypatch):
        calls = _no_work(monkeypatch)
        cfg = _tiny_config()
        bad = replace(cfg, lambda_counterfactual=-1.0)
        for first, last in (("cdgnn", "gcn"), ("gcn", "cdgnn")):
            with pytest.raises(ValueError, match="must be nonnegative"):
                run_variants(_tiny_graph(),
                             {"ok": (first, cfg), "bad": (last, bad)}, [0, 1])
        with pytest.raises(ValueError,
                           match="variant 'mlp': unknown model 'mlp'"):
            run_variants(_tiny_graph(),
                         {"ok": ("gcn", cfg), "mlp": ("mlp", cfg)}, [0])
        with pytest.raises(TypeError):  # a bare RunConfig is no pair
            run_variants(_tiny_graph(), {"ok": ("gcn", cfg), "old": cfg}, [0])
        assert calls == []

    def test_guards(self):
        g = _tiny_graph()
        with pytest.raises(ValueError, match="at least one variant"):
            run_variants(g, {}, [0])
        with pytest.raises(ValueError, match="variant 'a': unknown model"):
            run_variants(g, {"a": ("mlp", _tiny_config())}, [0])


def _no_work(monkeypatch) -> list:
    """Replace the graph hash, both cache builders and both trainers with
    stubs that log their names; the log."""
    calls = []
    for name in ("dataset_hash", "build_ego_cache", "_full_graph",
                 "train_cdgnn", "train_gcn_baseline"):
        monkeypatch.setattr(harness, name,
                            lambda *a, name=name, **k: calls.append(name))
    return calls


class TestMultirun:
    """One variant over several seeds, as `train --num-runs` runs it."""

    def test_aggregates_stubbed_runs(self, monkeypatch):
        table = {0: 0.5, 1: 0.6, 2: 0.7}
        monkeypatch.setattr(harness, "_run",
                            _stub_run(lambda config, seed: table[seed]))
        runs = run_variants(_tiny_graph(),
                            {"cdgnn": ("cdgnn", _tiny_config())},
                            seeds=[2, 0, 1])
        accs = [r.test_accuracy for r in runs["cdgnn"]]
        assert accs == [0.7, 0.5, 0.6]
        mean, std = aggregate_runs(accs)
        np.testing.assert_allclose(mean, 0.6)
        np.testing.assert_allclose(std, 0.08164965809277258)

    def test_hashes_the_graph_once(self, monkeypatch):
        calls = []

        def counting_hash(g):
            calls.append(g)
            return dataset_hash(g)

        monkeypatch.setattr(harness, "dataset_hash", counting_hash)
        g = _tiny_graph()
        runs = run_variants(g, {"gcn": ("gcn", _tiny_config(epochs=1))},
                            seeds=[0, 1, 2])
        assert len(calls) == 1
        assert {r.dataset_hash for r in runs["gcn"]} == {dataset_hash(g)}

    def test_seed_guards(self, monkeypatch):
        """Every seed is checked before any run, for both runners."""
        calls = _no_work(monkeypatch)
        g = _tiny_graph()
        table = {"a": ("cdgnn", _tiny_config()), "b": ("gcn", _tiny_config())}
        for seeds, message in (
                ([], "at least one seed"),
                ([1, 1], "distinct"),
                ([0, 1, -1], "non-negative integer, got -1"),
                ([0, 1.5], "non-negative integer, got 1.5"),
                ([0, True], "non-negative integer, got True"),
                ([0, "1"], "non-negative integer, got '1'")):
            with pytest.raises(ValueError, match=message):
                run_variants(g, table, seeds)
        for model in ("cdgnn", "gcn"):
            with pytest.raises(ValueError, match="got -2"):
                run_experiment(g, _tiny_config(), -2, model=model)
            with pytest.raises(ValueError, match="got 0.5"):
                run_experiment(g, _tiny_config(), 0.5, model=model)
        assert calls == []

    def test_numpy_integer_seeds_accepted(self, monkeypatch):
        monkeypatch.setattr(harness, "_run", _stub_run(lambda c, s: 0.5))
        runs = run_variants(_tiny_graph(), {"a": ("gcn", _tiny_config())},
                            np.array([3, 1]))
        assert [r.seed for r in runs["a"]] == [3, 1]


class TestAblate:
    """The full objective and its four single-term ablations at one seed,
    as `cdgnn ablate` runs them."""

    def test_five_variants_with_flags(self, monkeypatch, tmp_path):
        captured = {}

        def fake_run_variants(g, variants, seeds, dataset="custom"):
            captured.update(variants=variants, seeds=seeds)
            return {name: [_stub_record(seeds[0], 0.5)] for name in variants}

        monkeypatch.setattr(cli, "run_variants", fake_run_variants)
        save_graph(_tiny_graph(), tmp_path / "tiny.json")
        assert cli.main(["ablate", "--graph", str(tmp_path / "tiny.json"),
                         "--seed", "3", "--out-dir", str(tmp_path)]) == 0
        models = {name: m for name, (m, _) in captured["variants"].items()}
        variants = {name: c for name, (_, c) in captured["variants"].items()}
        flags = ["no_shortcut_term", "no_causal_term",
                 "no_counterfactual_term", "no_independence_term"]
        assert list(variants) == ["full", *flags]
        assert captured["seeds"] == [3]
        assert set(models.values()) == {"cdgnn"}
        assert not any(getattr(variants["full"], f) for f in flags)
        for flag in flags:
            assert [getattr(variants[flag], f) for f in flags] == [
                f == flag for f in flags]
            assert replace(variants[flag], **{flag: False}) == variants["full"]
        assert len((tmp_path / "ablation.csv").read_text().splitlines()) == 6

    def test_passes_one_graph_hash_to_every_variant(self, monkeypatch):
        calls = []
        real = harness.dataset_hash

        def counting_hash(g):
            calls.append(g)
            return real(g)

        monkeypatch.setattr(harness, "dataset_hash", counting_hash)
        monkeypatch.setattr(harness, "_run", _stub_run(lambda c, s: 0.5))
        g = _tiny_graph()
        cfg = _tiny_config()
        variants = {"full": ("cdgnn", cfg)}
        for flag in ("no_shortcut_term", "no_causal_term",
                     "no_counterfactual_term", "no_independence_term"):
            variants[flag] = ("cdgnn", replace(cfg, **{flag: True}))
        runs = run_variants(g, variants, seeds=[0])
        assert len(calls) == 1
        assert [r.dataset_hash for (r,) in runs.values()] == [real(g)] * 5


class TestSweep:
    """A loss-weight grid, one variant per cell, saved by save_sweep."""

    def test_grid_rows_and_plot_series(self, monkeypatch, tmp_path):
        monkeypatch.setattr(harness, "_run", _stub_run(
            lambda cfg, seed: cfg.lambda_counterfactual * 0.01
            + cfg.lambda_independence * 0.1))
        runs = run_variants(_tiny_graph(),
                            _grid(_tiny_config(), [0.0, 1.0], [0.1, 0.2]),
                            seeds=[0])
        csv_path, json_path = save_sweep(runs, tmp_path)
        rows = csv_path.read_text().splitlines()[1:]
        assert [r.split(",")[:2] for r in rows] == [
            ["0.0", "0.1"], ["1.0", "0.1"], ["0.0", "0.2"], ["1.0", "0.2"]]
        assert [r.split(",")[4] for r in rows] == ["1"] * 4
        series = json.loads(json_path.read_text())["series"]
        assert [s["label"] for s in series] == ["independence weight 0.1",
                                                "independence weight 0.2"]
        assert [s["x"] for s in series] == [[0.0, 1.0], [0.0, 1.0]]
        np.testing.assert_allclose(series[0]["y"], [0.01, 0.02])
        np.testing.assert_allclose(series[1]["yerr"], [0.0, 0.0])

    @pytest.mark.parametrize("seeds", [[0], [0, 1]])
    def test_hashes_the_graph_once(self, monkeypatch, seeds, tmp_path):
        calls = []

        def counting_hash(g):
            calls.append(g)
            return dataset_hash(g)

        monkeypatch.setattr(harness, "dataset_hash", counting_hash)
        runs = run_variants(_tiny_graph(),
                            _grid(_tiny_config(epochs=1), [0.0, 1.0],
                                  [0.1, 0.2]), seeds=seeds)
        assert len(calls) == 1
        csv_path, _ = save_sweep(runs, tmp_path)
        rows = csv_path.read_text().splitlines()[1:]
        assert [r.split(",")[4] for r in rows] == [str(len(seeds))] * 4

    def test_duplicate_seeds_rejected(self):
        with pytest.raises(ValueError, match="distinct"):
            run_variants(_tiny_graph(), _grid(_tiny_config(), [1.0], [0.1]),
                         seeds=[1, 1])

    def test_save_sweep_layout(self, tmp_path, monkeypatch):
        monkeypatch.setattr(harness, "_run", _stub_run(lambda c, s: 0.5))
        runs = run_variants(_tiny_graph(), _grid(_tiny_config(), [1.0], [0.1]),
                            seeds=[0])
        csv_path, json_path = save_sweep(runs, tmp_path)
        header = csv_path.read_text().splitlines()[0]
        assert header == ("lambda_counterfactual,lambda_independence,"
                          "mean_accuracy,std_accuracy,num_runs")
        payload = json.loads(json_path.read_text())
        assert payload["series"][0]["label"] == "independence weight 0.1"


class TestReportCsv:
    def test_header_and_baseline_blanks(self, tmp_path):
        cdgnn = _stub_record(0, 0.9)
        cdgnn.history = [{"loss_s": 1.0, "loss_c": 2.0, "loss_cf": 3.0,
                          "loss_hsic": 4.0, "total": 5.0}]
        gcn = _stub_record(1, 0.8)
        gcn.model = "gcn"
        gcn.history = [{"loss": 0.3, "val_acc": 0.8, "epoch": 0.0}]
        path = write_report_csv([cdgnn, gcn], tmp_path / "report.csv")
        lines = path.read_text().splitlines()
        assert lines[0] == ("dataset,seed,h_L,h_F,split,accuracy,"
                            "loss_s,loss_c,loss_cf,loss_hsic")
        first = lines[1].split(",")
        assert first[4] == "test"
        assert first[6:] == ["1.0", "2.0", "3.0", "4.0"]
        second = lines[2].split(",")
        assert second[6:] == ["", "", "", ""]


class TestModelIo:
    def test_round_trip(self, tmp_path):
        params = init_cdgnn_params(np.random.default_rng(0), 5, 6, 3, 4, 7)
        path = save_model(params, tmp_path / "model.npz", hops=2)
        loaded = load_model(path)
        assert set(loaded.params) == set(params)
        for key in params:
            np.testing.assert_array_equal(loaded.params[key], params[key])
        assert loaded.hops == 2

    def test_suffix_added_when_missing(self, tmp_path):
        path = save_model({"a": np.ones((1, 1))}, tmp_path / "model", hops=1)
        assert path.suffix == ".npz"
        assert path.exists()


