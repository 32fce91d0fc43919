"""End-to-end runs of every CLI subcommand, in process."""

import argparse
import gc
import json
import shlex
import warnings
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np
import pytest

from cdgnn import cli, synth
from cdgnn.cli import build_parser, main
from cdgnn.disentangle import init_cdgnn_params
from cdgnn.graphs import (Graph, feature_heterophily, label_heterophily,
                          load_graph, save_graph)
from cdgnn.harness import RunConfig, run_experiment, save_model


def _tiny_graph(n=40, seed=0):
    rng = np.random.default_rng(seed)
    edges = [(i, (i + 1) % n) for i in range(n)]
    edges += [(i, (i + n // 2) % n) for i in range(0, n, 5)]
    edges = np.unique(np.sort(np.array(edges), axis=1), axis=0)
    labels = rng.integers(0, 2, size=n)
    features = rng.normal(size=(n, 5)) * 0.1
    features[:, 0] += np.where(labels == 0, 1.0, -1.0)
    return Graph(n, edges, features, labels, 2)


_FAST = ["--epochs", "2", "--patience", "2", "--hidden", "8",
         "--batch-size", "16", "--scorer-hidden", "4", "--lr", "0.01",
         "--dropout", "0"]


@pytest.fixture
def tiny_graph_file(tmp_path):
    path = tmp_path / "tiny.json"
    save_graph(_tiny_graph(), path)
    return path


class TestGenerate:
    def test_writes_graph_and_blocks(self, tmp_path, capsys):
        out = tmp_path / "tc.json"
        code = main(["generate", "--preset", "tree_cycles", "--seed", "0",
                     "--out", str(out)])
        assert code == 0
        g = load_graph(out)
        assert g.num_nodes > 0
        blocks = json.loads((tmp_path / "tc.blocks.json").read_text())
        assert len(blocks) == g.num_nodes
        assert "nodes" in capsys.readouterr().out

    def test_relabel_option_reports_status(self, tmp_path, capsys):
        out = tmp_path / "tc.json"
        code = main(["generate", "--preset", "tree_cycles", "--seed", "0",
                     "--relabel-to", "0.5", "--out", str(out)])
        assert code == 0
        assert "relabeled to h_L 0.5" in capsys.readouterr().out
        assert label_heterophily(load_graph(out)) >= 0.5

    def test_feature_rules(self, tmp_path):
        """uniform_ones writes all-ones features; block_kind adds the
        contrast to column 0 of the motif rows and nowhere else."""
        graphs = {}
        for rule in ("uniform_ones", "block_kind"):
            out = tmp_path / f"{rule}.json"
            assert main(["generate", "--preset", "tree_cycles",
                         "--feature-rule", rule, "--out", str(out)]) == 0
            graphs[rule] = load_graph(out).features
        ones = graphs["uniform_ones"]
        assert ones.shape[1] == synth.FEATURE_DIM
        assert (ones == 1.0).all()
        blocks = json.loads((tmp_path / "block_kind.blocks.json").read_text())
        motif = [int(v) for v, block in blocks.items() if block > 0]
        assert motif
        expected = np.ones_like(ones)
        expected[motif, 0] += synth.FEATURE_CONTRAST
        np.testing.assert_array_equal(graphs["block_kind"], expected)


class TestRelabel:
    def test_reports_achieved_heterophily(self, tiny_graph_file, tmp_path,
                                          capsys):
        out = tmp_path / "relabeled.json"
        code = main(["relabel", "--graph", str(tiny_graph_file),
                     "--target", "0.6", "--out", str(out)])
        assert code == 0
        achieved = label_heterophily(load_graph(out))
        stdout = capsys.readouterr().out
        assert f"label heterophily {achieved:.4f}" in stdout
        assert ("reached" in stdout) or ("best effort" in stdout)


class TestTraining:
    def test_train_writes_record_and_weights(self, tiny_graph_file, tmp_path,
                                             capsys):
        out_dir = tmp_path / "runs"
        code = main(["train", "--graph", str(tiny_graph_file),
                     "--seed", "0", "--out-dir", str(out_dir)] + _FAST)
        assert code == 0
        records = list(out_dir.glob("run_cdgnn_*.json"))
        assert len(records) == 1
        assert (out_dir / "model_cdgnn_tiny_s0.npz").exists()
        assert "test accuracy" in capsys.readouterr().out

    def test_multirun_aggregates(self, tiny_graph_file, tmp_path, capsys):
        out_dir = tmp_path / "runs"
        code = main(["train", "--graph", str(tiny_graph_file), "--seed", "0",
                     "--num-runs", "2", "--out-dir", str(out_dir)] + _FAST)
        assert code == 0
        assert len(list(out_dir.glob("run_cdgnn_*.json"))) == 2
        assert list(out_dir.glob("*.npz")) == []
        stdout = capsys.readouterr().out
        assert "+/-" in stdout
        assert stdout.endswith("over 2 runs; wrote run records only, no "
                               "weights (--num-runs 1 saves them)\n")

    def test_train_baseline(self, tiny_graph_file, tmp_path, capsys):
        out_dir = tmp_path / "runs"
        code = main(["train-baseline", "--graph", str(tiny_graph_file),
                     "--seed", "0", "--out-dir", str(out_dir)] + _FAST)
        assert code == 0
        assert len(list(out_dir.glob("run_gcn_*.json"))) == 1
        assert "gcn on tiny" in capsys.readouterr().out

    def test_preset_source(self, tmp_path, capsys):
        out_dir = tmp_path / "runs"
        code = main(["train-baseline", "--preset", "tree_cycles",
                     "--seed", "0", "--out-dir", str(out_dir)] + _FAST)
        assert code == 0
        assert "tree_cycles" in capsys.readouterr().out


class TestEvaluate:
    def test_prints_accuracy_and_confusion(self, tiny_graph_file, tmp_path,
                                           capsys):
        g = load_graph(tiny_graph_file)
        cfg = RunConfig(learning_rate=0.01, hidden=8, dropout=0.0, epochs=2,
                        patience=2, batch_size=16, scorer_hidden=4)
        _, params = run_experiment(g, cfg, seed=0, model="gcn",
                                   return_params=True)
        model_path = save_model(params, tmp_path / "model.npz",
                                cfg.resolved_hops)
        code = main(["evaluate", "--graph", str(tiny_graph_file),
                     "--model", str(model_path), "--split", "test",
                     "--seed", "0"])
        assert code == 0
        stdout = capsys.readouterr().out
        assert "accuracy" in stdout
        assert "confusion" in stdout
        assert len(stdout.splitlines()) == 4  # summary + header + 2 rows


class TestAblate:
    def test_five_rows_and_csv(self, tiny_graph_file, tmp_path, capsys):
        out_dir = tmp_path / "runs"
        code = main(["ablate", "--graph", str(tiny_graph_file), "--seed", "0",
                     "--out-dir", str(out_dir)] + _FAST)
        assert code == 0
        stdout = capsys.readouterr().out
        assert stdout.count("test accuracy") == 5
        for name in ("full", "no_shortcut_term", "no_causal_term",
                     "no_counterfactual_term", "no_independence_term"):
            assert name in stdout
        assert (out_dir / "ablation.csv").exists()
        records = [json.loads(p.read_text())
                   for p in out_dir.glob("run_cdgnn_*.json")]
        assert len(records) == 5
        flags = ("no_shortcut_term", "no_causal_term",
                 "no_counterfactual_term", "no_independence_term")
        assert sorted(sum(r["config"][f] for f in flags)
                      for r in records) == [0, 1, 1, 1, 1]

    def test_num_runs_prints_mean_and_std_per_variant(self, tiny_graph_file,
                                                      tmp_path, capsys):
        out_dir = tmp_path / "runs"
        code = main(["ablate", "--graph", str(tiny_graph_file), "--seed", "3",
                     "--num-runs", "2", "--out-dir", str(out_dir)] + _FAST)
        assert code == 0
        records = [json.loads(p.read_text())
                   for p in out_dir.glob("run_cdgnn_*.json")]
        assert sorted(r["seed"] for r in records) == [3] * 5 + [4] * 5
        lines = capsys.readouterr().out.splitlines()
        assert [line.split()[0] for line in lines] == [
            "full", "no_shortcut_term", "no_causal_term",
            "no_counterfactual_term", "no_independence_term"]

        def variant(record):
            return next((flag for flag, on in record["config"].items()
                         if flag.startswith("no_") and on), "full")

        for line in lines:
            name = line.split()[0]
            accs = [r["test_accuracy"] for r in records if variant(r) == name]
            assert len(accs) == 2
            mean, std = np.mean(accs), np.std(accs)
            assert line == (f"{name:24s} test accuracy {mean:.4f} +/- "
                            f"{std:.4f} over 2 runs")
        rows = (out_dir / "ablation.csv").read_text().splitlines()
        assert len(rows) == 1 + 10


class TestSweep:
    def test_writes_grid_outputs(self, tiny_graph_file, tmp_path, capsys):
        out_dir = tmp_path / "runs"
        code = main(["sweep", "--graph", str(tiny_graph_file),
                     "--lambda1-values", "0,1", "--lambda2-values", "0.1",
                     "--seed", "0", "--out-dir", str(out_dir)] + _FAST)
        assert code == 0
        lines = (out_dir / "sweep.csv").read_text().splitlines()
        assert lines[0] == ("lambda_counterfactual,lambda_independence,"
                            "mean_accuracy,std_accuracy,num_runs")
        assert len(lines) == 3
        payload = json.loads((out_dir / "sweep.json").read_text())
        assert payload["series"][0]["label"] == "independence weight 0.1"
        assert "best cell" in capsys.readouterr().out

    def test_cells_run_lambda2_outer_lambda1_inner(self, tiny_graph_file,
                                                    tmp_path):
        out_dir = tmp_path / "runs"
        code = main(["sweep", "--graph", str(tiny_graph_file),
                     "--lambda1-values", "1,0", "--lambda2-values", "0.2,0.1",
                     "--out-dir", str(out_dir)] + _FAST)
        assert code == 0
        lines = (out_dir / "sweep.csv").read_text().splitlines()[1:]
        assert [line.split(",")[:2] for line in lines] == [
            ["1.0", "0.2"], ["0.0", "0.2"], ["1.0", "0.1"], ["0.0", "0.1"]]
        series = json.loads((out_dir / "sweep.json").read_text())["series"]
        assert [s["x"] for s in series] == [[1.0, 0.0], [1.0, 0.0]]


class TestTheoryCheck:
    def test_explicit_grid_with_csv(self, tmp_path, capsys):
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps([
            {"degree": 3, "homophily": 0.5, "cross_class_ratio": 0.0},
            {"degree": 8, "homophily": 0.9, "cross_class_ratio": 1.0},
        ]))
        out = tmp_path / "cells.csv"
        code = main(["theory-check", "--grid", str(grid),
                     "--samples", "20000", "--seed", "0", "--out", str(out)])
        stdout = capsys.readouterr().out
        assert "cells within 3 standard errors" in stdout
        lines = out.read_text().splitlines()
        assert lines[0] == ("degree,homophily,cross_class_ratio,analytic,"
                            "empirical,stderr,deviation,within")
        assert len(lines) == 3
        assert code in (0, 1)

    def test_axes_dict_grid(self, tmp_path, capsys):
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({"degrees": [3], "homophilies": [0.5],
                                    "ratios": [0.0, 1.0]}))
        code = main(["theory-check", "--grid", str(grid),
                     "--samples", "20000", "--seed", "0"])
        assert "2 cells" in capsys.readouterr().out.splitlines()[-1]
        assert code in (0, 1)

    @pytest.mark.parametrize("payload, missing", [
        ({"degrees": [3], "ratios": [0.0]},
         "grid axes missing key homophilies"),
        ([{"degree": 3, "homophily": 0.5, "cross_class_ratio": 0.0},
          {"degree": 8, "homophily": 0.9}],
         "grid cell 1 missing key cross_class_ratio"),
    ])
    def test_missing_grid_key_is_one_line_error(self, tmp_path, capsys,
                                                 payload, missing):
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps(payload))
        code = main(["theory-check", "--grid", str(grid)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("cdgnn theory-check: error: ")
        assert missing in err
        assert err.count("\n") == 1

    _AXES = {"degrees": [3], "homophilies": [0.5], "ratios": [0.0]}
    _CELL = {"degree": 3, "homophily": 0.5, "cross_class_ratio": 0.0}

    @pytest.mark.parametrize("payload, needle", [
        ([], "the grid has no cells"),
        ({**_AXES, "ratios": []}, "the grid has no cells"),
        ({**_AXES, "degrees": 3}, "grid axis degrees must be a list"),
        ({**_AXES, "homophilies": [0.5, None]},
         "grid axis homophilies must be a list"),
        ([_CELL, {**_CELL, "homophily": None}],
         "grid cell 1 homophily must be a number, got null"),
        ([{**_CELL, "total_edge_weight": "3"}],
         "grid cell 0 total_edge_weight must be a number"),
        ([{**_CELL, "degree": 2.7}],
         "grid cell 0 degree must be a whole number, got 2.7"),
        ({**_AXES, "degrees": [3, 3.5]},
         "grid cell 1 degree must be a whole number, got 3.5"),
        ([_CELL, {**_CELL, "degree": 0}],
         "grid cell 1 degree must be at least 1, got 0"),
        ([_CELL, {**_CELL, "degree": -2}],
         "grid cell 1 degree must be at least 1, got -2"),
        ([_CELL, {**_CELL, "degree": 10 ** 400}],
         "grid cell 1 degree is too large for a float"),
        ([{**_CELL, "homophily": 10 ** 400}],
         "grid cell 0 homophily is too large for a float"),
    ])
    @pytest.mark.parametrize("with_out", [False, True])
    def test_bad_grid_is_one_line_error(self, tmp_path, capsys, payload,
                                        needle, with_out):
        """No cell checked is no pass: an empty or malformed grid exits 2
        and writes no CSV."""
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps(payload))
        out = tmp_path / "cells.csv"
        _one_line_error(capsys, ["theory-check", "--grid", grid, "--samples",
                                 "1000", *(["--out", out] if with_out else [])],
                        needle)
        assert not out.exists()


class TestAudit:
    def test_clean_model_passes(self, tiny_graph_file, tmp_path, capsys):
        g = load_graph(tiny_graph_file)
        cfg = RunConfig(learning_rate=0.01, hidden=8, dropout=0.0, epochs=1,
                        patience=1, batch_size=16, scorer_hidden=4)
        _, params = run_experiment(g, cfg, seed=0, return_params=True)
        for key in list(params):
            if key.startswith(("gnn_s.", "readout_s.")):
                params[key] = np.zeros_like(params[key])
        params["mask.w2"] = np.zeros_like(params["mask.w2"])
        params["mask.b2"] = np.full_like(params["mask.b2"], 40.0)
        model_path = save_model(params, tmp_path / "model.npz",
                                cfg.resolved_hops)
        code = main(["audit", "--graph", str(tiny_graph_file),
                     "--model", str(model_path)])
        stdout = capsys.readouterr().out
        assert code == 0
        assert "branch independence" in stdout
        assert "counterfactual sensitivity" in stdout
        assert "shortcut dominance share" in stdout
        assert "assumptions hold" in stdout


class TestIngestAndReport:
    def test_ingest_summary(self, tiny_graph_file, capsys):
        code = main(["ingest", "--graph", str(tiny_graph_file)])
        assert code == 0
        stdout = capsys.readouterr().out
        assert "label heterophily" in stdout
        assert "feature heterophily" in stdout

    def test_ingest_reports_heterophily(self, tmp_path, capsys):
        g = _tiny_graph(seed=10)
        path = tmp_path / "graph.json"
        save_graph(g, path)
        assert main(["ingest", "--graph", str(path)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith(f"{path}: {g.num_nodes} nodes, ")
        assert lines[1] == f"label heterophily   {label_heterophily(g):.4f}"
        assert lines[2] == f"feature heterophily {feature_heterophily(g):.4f}"

    def test_ingest_invalid_file_names_problem(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"num_nodes": 2, "edges": [[0, 1]],
                                    "features": [[1.0], [2.0]],
                                    "labels": [0, 1]}))
        _one_line_error(capsys, ["ingest", "--graph", path], "num_classes")

    def test_report_round_trips_records(self, tiny_graph_file, tmp_path,
                                        capsys):
        out_dir = tmp_path / "runs"
        main(["train-baseline", "--graph", str(tiny_graph_file), "--seed",
              "0", "--out-dir", str(out_dir)] + _FAST)
        capsys.readouterr()
        out = tmp_path / "report.csv"
        code = main(["report", "--records", str(out_dir), "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("dataset,seed,h_L,h_F,split,accuracy")
        assert len(lines) == 2
        assert "1 runs" in capsys.readouterr().out

    def test_report_empty_dir_fails(self, tmp_path, capsys):
        code = main(["report", "--records", str(tmp_path / "empty"),
                     "--out", str(tmp_path / "report.csv")])
        assert code == 1
        assert "no run_" in capsys.readouterr().err


class TestParser:
    def test_missing_subcommand_exits(self):
        with pytest.raises(SystemExit):
            main([])

    def test_conflicting_graph_sources_exit(self, tiny_graph_file):
        with pytest.raises(SystemExit):
            main(["train", "--graph", str(tiny_graph_file),
                  "--preset", "tree_cycles"])

    def test_second_call_builds_no_parser(self, tmp_path):
        """The argparse tree is a reference cycle: a call that built its
        own would leave one for the cyclic collector every time."""
        argv = ["report", "--records", str(tmp_path)]
        main(argv)
        gc.collect()
        gc.disable()
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            main(argv)
            gc.collect()
            found = sorted({type(o).__name__ for o in gc.garbage
                            if isinstance(o, (argparse.ArgumentParser,
                                              argparse.HelpFormatter))})
        finally:
            gc.set_debug(0)
            gc.garbage.clear()
            gc.enable()
        assert found == []


class TestInputErrors:
    def test_negative_seed_is_one_line_error(self, tmp_path, capsys):
        code = main(["train", "--preset", "tree_cycles", "--seed", "-1",
                     "--out-dir", str(tmp_path)] + _FAST)
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("cdgnn train: error: ")
        assert err.count("\n") == 1

    def test_every_negative_seed_is_named(self, capsys):
        sub = next(a for a in build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        seeded = {name for name, p in sub.choices.items()
                  if any("--seed" in a.option_strings for a in p._actions)}
        # Each command's required flags (the check runs before any file is
        # opened), so that only the seed is wrong.
        required = {
            "generate": ["--preset", "tree_cycles", "--out", "g.json"],
            "relabel": ["--graph", "g.json", "--out", "g.json"],
            "train": ["--preset", "tree_cycles"],
            "train-baseline": ["--preset", "tree_cycles"],
            "evaluate": ["--graph", "g.json", "--model", "m.npz"],
            "ablate": ["--preset", "tree_cycles"],
            "sweep": ["--preset", "tree_cycles"],
            "theory-check": [],
            "audit": ["--graph", "g.json", "--model", "m.npz"],
        }
        assert seeded == set(required)
        for command, flags in required.items():
            code = main([command, *flags, "--seed", "-1"])
            assert code == 2, command
            assert capsys.readouterr().err == (
                f"cdgnn {command}: error: --seed must be a non-negative "
                f"integer, got -1\n")

    def test_diverging_run_is_one_line_error(self, tmp_path, capsys):
        """A learning rate that sends the loss to nan ends the run with one
        error line naming the term and the epoch, not a traceback, and
        numpy warns of no overflow or invalid value before it."""
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            _one_line_error(capsys, ["train-baseline", "--preset",
                                     "tree_cycles", "--lr", "1e200",
                                     "--epochs", "3", "--patience", "3",
                                     "--out-dir", tmp_path],
                            "non-finite loss (nan) at epoch 1")
        assert list(tmp_path.glob("run_*.json")) == []

    def test_ingest_out_of_range_edge_is_one_line_error(self, tmp_path,
                                                         capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({
            "num_nodes": 2, "num_classes": 2, "edges": [[0, 5]],
            "features": [[0.0], [1.0]], "labels": [0, 1]}))
        code = main(["ingest", "--graph", str(path)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("cdgnn ingest: error: ")
        assert "outside [0, 2)" in err
        assert err.count("\n") == 1

    def test_non_finite_hyperparameter_is_one_line_error(
            self, tiny_graph_file, tmp_path, capsys):
        for command, flag, value, name in (
                ("train-baseline", "--lr", "nan", "learning_rate"),
                ("train-baseline", "--weight-decay", "nan", "weight_decay"),
                ("train", "--lambda1", "inf", "lambda_counterfactual"),
                ("train", "--lambda2", "-inf", "lambda_independence"),
                ("sweep", "--q", "nan", "q")):
            _one_line_error(capsys, [command, "--graph", tiny_graph_file,
                                     "--out-dir", tmp_path, *_FAST,
                                     f"{flag}={value}"],
                            f"{name} must be finite")
        assert list(tmp_path.glob("run_*.json")) == []

    @pytest.mark.parametrize("flag", ["--lambda1-values", "--lambda2-values"])
    def test_repeated_sweep_value_is_one_line_error(self, flag, tiny_graph_file,
                                                    tmp_path, capsys):
        _one_line_error(capsys, ["sweep", "--graph", tiny_graph_file,
                                 "--out-dir", tmp_path, *_FAST,
                                 flag, "5,0.1,5"],
                        f"{flag} repeats a value: 5,0.1,5")
        assert list(tmp_path.iterdir()) == [tiny_graph_file]

    def test_invalid_sweep_cell_trains_nothing(self, tiny_graph_file,
                                               tmp_path, capsys):
        out_dir = tmp_path / "runs"
        _one_line_error(capsys, ["sweep", "--graph", tiny_graph_file,
                                 "--out-dir", out_dir, *_FAST,
                                 "--lambda1-values", "5,-1",
                                 "--lambda2-values", "0.1"],
                        "loss weights must be nonnegative")
        assert not out_dir.exists()

    @pytest.mark.parametrize("command", ["train", "train-baseline", "ablate",
                                         "sweep"])
    def test_graph_without_edges_is_one_line_error(self, command, tmp_path,
                                                   capsys):
        path = tmp_path / "noedge.json"
        save_graph(Graph(10, np.zeros((0, 2), dtype=np.int64),
                         np.ones((10, 3)), np.arange(10) % 2, 2), path)
        _one_line_error(capsys, [command, "--graph", path,
                                 "--out-dir", tmp_path / "runs"],
                        "label heterophily is undefined on a graph with no "
                        "edges")
        assert not (tmp_path / "runs").exists()

    @pytest.mark.parametrize("command", ["train", "train-baseline", "ablate",
                                         "sweep"])
    def test_num_runs_below_one_is_one_line_error(self, command, capsys):
        for runs in ("0", "-3"):
            _one_line_error(capsys, [command, "--preset", "tree_cycles",
                                     "--num-runs", runs],
                            f"--num-runs must be >= 1, got {runs}")

    def test_malformed_record_is_one_line_error(self, tmp_path, capsys):
        records = tmp_path / "runs"
        records.mkdir()
        path = records / "run_bad.json"
        for payload in ("[1, 2]", '{"dataset": "x"}',
                        '{"dataset": "x", "split_sizes": [1, 1, 1]}', "{"):
            path.write_text(payload)
            _one_line_error(capsys, ["report", "--records", records,
                                     "--out", tmp_path / "report.csv"],
                            f"{path} is not a run record")
        assert not (tmp_path / "report.csv").exists()

    def test_missing_or_directory_input_is_one_line_error(
            self, tiny_graph_file, tmp_path, capsys):
        model = save_model(
            init_cdgnn_params(np.random.default_rng(0), 5, 4, 1, 4, 2),
            tmp_path / "model.npz", hops=1)
        for bad in (tmp_path / "nope.json", tmp_path):
            for argv in (
                    ["relabel", "--graph", bad, "--out", tmp_path / "o.json"],
                    ["evaluate", "--graph", bad, "--model", model],
                    ["audit", "--graph", bad, "--model", model],
                    ["ingest", "--graph", bad],
                    ["evaluate", "--graph", tiny_graph_file, "--model", bad],
                    ["audit", "--graph", tiny_graph_file, "--model", bad],
                    ["theory-check", "--grid", bad]):
                _one_line_error(capsys, argv)


def _one_line_error(capsys, argv, *needles):
    """Run `argv`; it must exit 2 with one error line holding `needles`."""
    code = main([str(a) for a in argv])
    err = capsys.readouterr().err
    assert code == 2, argv
    assert err.startswith(f"cdgnn {argv[0]}: error: "), argv
    assert err.count("\n") == 1, argv
    for needle in needles:
        assert needle in err, argv


_ARCHIVE_RUN = ["--epochs", "15", "--patience", "15", "--lr", "0.02",
                "--hidden", "16", "--batch-size", "16"]


def _train_archive(tmp_path, preset, flags):
    """Generate `preset` at seed 0 and train a CD-GNN on it; the graph,
    record and model archive paths."""
    graph = tmp_path / f"{preset}.json"
    out = tmp_path / f"runs_{preset}"
    assert main(["generate", "--preset", preset, "--seed", "0",
                 "--out", str(graph)]) == 0
    assert main(["train", "--graph", str(graph), "--seed", "0",
                 "--out-dir", str(out), *flags]) == 0
    return graph, next(out.glob("run_*.json")), next(out.glob("model_*.npz"))


class TestModelArchives:
    @pytest.mark.parametrize("shape", [["--layers", "1"],
                                       ["--ego-hops", "1", "--layers", "2"]])
    def test_evaluate_reproduces_the_record(self, tmp_path, capsys, shape):
        graph, record, model = _train_archive(tmp_path, "ba_shapes",
                                              _ARCHIVE_RUN + shape)
        capsys.readouterr()
        assert main(["evaluate", "--graph", str(graph), "--model", str(model),
                     "--split", "test"]) == 0
        accuracy = json.loads(record.read_text())["test_accuracy"]
        first = capsys.readouterr().out.splitlines()[0]
        assert first.startswith(f"accuracy {accuracy:.4f} on ")

    def test_audit_refuses_a_gcn_archive(self, tiny_graph_file, tmp_path,
                                         capsys):
        out = tmp_path / "runs"
        assert main(["train-baseline", "--graph", str(tiny_graph_file),
                     "--out-dir", str(out)] + _FAST) == 0
        model = next(out.glob("model_*.npz"))
        _one_line_error(capsys, ["audit", "--graph", tiny_graph_file,
                                 "--model", model], "gcn")

    def test_class_count_mismatch_is_refused(self, tmp_path, capsys):
        _, _, model = _train_archive(tmp_path, "tree_cycles",
                                     ["--epochs", "1", "--patience", "1",
                                      "--hidden", "8", "--batch-size", "64"])
        graph = tmp_path / "ba_shapes.json"
        assert main(["generate", "--preset", "ba_shapes", "--seed", "0",
                     "--out", str(graph)]) == 0
        _one_line_error(capsys, ["evaluate", "--graph", graph,
                                 "--model", model], "2 classes")

    def test_archive_without_hops_is_refused(self, tiny_graph_file, tmp_path,
                                             capsys):
        path = tmp_path / "old.npz"
        np.savez(path, **init_cdgnn_params(np.random.default_rng(0), 5, 4, 2,
                                           4, 2))
        for command in ("evaluate", "audit"):
            _one_line_error(capsys, [command, "--graph", tiny_graph_file,
                                     "--model", path], "ego hops")

    def test_single_array_file_is_refused(self, tiny_graph_file, tmp_path,
                                          capsys):
        path = tmp_path / "weights.npy"
        np.save(path, np.ones((2, 2)))
        _one_line_error(capsys, ["evaluate", "--graph", tiny_graph_file,
                                 "--model", path], ".npz")

    def test_non_archive_file_is_refused(self, tiny_graph_file, tmp_path,
                                         capsys):
        """numpy takes any other file for a pickle; the error names the
        file as no model archive instead."""
        path = tmp_path / "x.json"
        path.write_text('{"a": 1}')
        empty = tmp_path / "empty.npz"
        empty.write_bytes(b"")
        for bad in (path, empty):
            _one_line_error(capsys, ["evaluate", "--graph", tiny_graph_file,
                                     "--model", bad],
                            f"{bad} is not an .npz model archive")


TRAINING_COMMANDS = ("train", "train-baseline", "ablate", "sweep")


class TestConfigFlags:
    def test_every_flag_names_its_own_field_and_defaults_to_it(self):
        names = list(cli.CONFIG_FLAGS.values())
        assert len(set(names)) == len(names)
        assert set(names) <= {f.name for f in fields(RunConfig)}
        assert set(cli.FLAG_HELP) <= set(cli.CONFIG_FLAGS)
        for command in TRAINING_COMMANDS:
            args = build_parser().parse_args([command, "--preset",
                                              "tree_cycles"])
            for name in names:
                assert getattr(args, name) == getattr(RunConfig(), name)
            assert cli._config_from_args(args) == RunConfig()

    @pytest.mark.parametrize("command", TRAINING_COMMANDS)
    def test_each_flag_sets_exactly_its_field(self, command):
        types = {f.name: f.type for f in fields(RunConfig)}
        argv, expected = [command, "--preset", "tree_cycles"], {}
        for i, (flag, name) in enumerate(cli.CONFIG_FLAGS.items()):
            value = 1000 + i if "int" in types[name] else i + 0.25
            argv += [flag, str(value)]
            expected[name] = value
        config = cli._config_from_args(build_parser().parse_args(argv))
        assert asdict(config) == {**asdict(RunConfig()), **expected}
        for name, value in expected.items():
            assert type(getattr(config, name)) is type(value), name


README = Path(__file__).resolve().parent.parent / "README.md"


def test_every_readme_command_parses():
    lines = [line.strip() for line in README.read_text().splitlines()
             if line.strip().startswith("cdgnn ")]
    assert lines
    for line in lines:
        build_parser().parse_args(shlex.split(line)[1:])
