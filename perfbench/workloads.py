"""The benchmark's workloads: how each builds its inputs, runs one op and
checks what the op produced.

Every workload derives all of its inputs from one seed. cdgnn is imported
from the checkout's `src/` and nowhere else, and only through module
attributes (`harness.run_experiment`, `cli.main`), so that the tracer's
rebinding reaches every call the workload makes.
"""

from __future__ import annotations

import io
import json
import math
import os
import shutil
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# Largest distance, in absolute accuracy, between an op's test accuracy and
# the value pinned for its seed before the op counts as failed. One test
# node is 0.005 of the relabeled tree_cycles test split.
ACC_TOL = 0.05

PINS_PATH = Path(__file__).resolve().parent / "pins.json"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def single_blas_thread() -> None:
    """Pin BLAS to one thread; only effective before numpy is imported."""
    if "numpy" in sys.modules:
        raise RuntimeError("numpy is already imported")
    for var in THREAD_VARS:
        os.environ[var] = "1"


def import_cdgnn():
    """Import cdgnn (and its CLI) from the checkout's src/ directory."""
    if not (SRC / "cdgnn" / "__init__.py").is_file():
        raise ImportError(f"no cdgnn package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import cdgnn
    import cdgnn.cli  # noqa: F401  (the package does not import its CLI)

    where = Path(cdgnn.__file__).resolve()
    if SRC.resolve() not in where.parents:
        raise ImportError(f"cdgnn was imported from {where}, not from {SRC}")
    return cdgnn


@dataclass
class Checked:
    """What the checks found in one op's output."""

    test_acc: float
    hashes: list[str]
    problems: list[str] = field(default_factory=list)


def _finite_history(record) -> bool:
    return all(math.isfinite(v) for row in record.history for v in row.values())


class TreeCycles:
    """One run_experiment of the two-branch model on tree_cycles relabeled
    to label heterophily 0.5 (the graph of acceptance criterion c09).

    QUICK shape of the acceptance suite (lr 0.02, hidden 32, 2 layers,
    batch 16, lambda1 10, lambda2 0.1, dropout 0), 20 epochs with patience
    20, so every op trains the same number of epochs.
    """

    name = "cdgnn_tree_cycles"
    preset = "tree_cycles"
    epochs = 20

    def setup(self, seed: int):
        from cdgnn import harness, synth

        g, _ = synth.preset(self.preset, seed=seed)
        g = synth.relabel_to_heterophily(g, target=0.5, seed=seed).graph
        config = harness.RunConfig(
            learning_rate=0.02, hidden=32, dropout=0.0, layers=2, q=0.7,
            lambda_counterfactual=10.0, lambda_independence=0.1,
            epochs=self.epochs, patience=self.epochs, batch_size=16,
            scorer_hidden=16)
        return g, config

    def run(self, inputs, seed: int, workdir: Path):
        from cdgnn import harness

        g, config = inputs
        return harness.run_experiment(g, config, seed, dataset=self.preset)

    def check(self, record, seed: int, workdir: Path) -> Checked:
        out = Checked(record.test_accuracy, [record.record_hash()])
        if not _finite_history(record):
            out.problems.append("non-finite value in the training history")
        if not 0.0 <= record.test_accuracy <= 1.0:
            out.problems.append(f"test accuracy {record.test_accuracy} outside [0, 1]")
        return out


PRESETS = ("tree_cycles", "tree_grid", "ba_shapes", "ba_community")
GCN_QUICK = ("--lr", "0.02", "--hidden", "16", "--dropout", "0",
             "--layers", "2", "--epochs", "30", "--patience", "30",
             "--batch-size", "32")


class LabCli:
    """The README's laboratory chores, in-process through cdgnn.cli.main:
    generate and ingest every preset, train the GCN baseline on each,
    run the default theory-check and report the saved records."""

    name = "lab_cli"
    num_runs = 5

    def setup(self, seed: int):
        return None

    def commands(self, seed: int, workdir: Path) -> list[list[str]]:
        graphs = {p: str(workdir / f"{p}.json") for p in PRESETS}
        runs = str(workdir / "runs")
        cmds = [["generate", "--preset", p, "--seed", str(seed),
                 "--relabel-to", "0.5", "--out", graphs[p]] for p in PRESETS]
        cmds += [["ingest", "--graph", graphs[p]] for p in PRESETS]
        cmds += [["train-baseline", "--graph", graphs[p], "--seed", str(seed),
                  "--num-runs", str(self.num_runs), "--out-dir", runs,
                  *GCN_QUICK] for p in PRESETS]
        cmds.append(["theory-check"])
        cmds.append(["report", "--records", runs,
                     "--out", str(workdir / "report.csv")])
        return cmds

    def run(self, inputs, seed: int, workdir: Path) -> str:
        from cdgnn import cli

        text = io.StringIO()
        with redirect_stdout(text), redirect_stderr(text):
            for argv in self.commands(seed, workdir):
                try:
                    code = cli.main(argv)
                except SystemExit as exc:
                    code = exc.code
                if code != 0:
                    raise RuntimeError(f"cdgnn {argv[0]} exited {code}")
        return text.getvalue()

    def check(self, output: str, seed: int, workdir: Path) -> Checked:
        from cdgnn import harness

        problems = []
        records = []
        paths = sorted((workdir / "runs").glob("run_*.json"))
        for path in paths:
            payload = json.loads(path.read_text())
            payload["split_sizes"] = tuple(payload["split_sizes"])
            record = harness.RunRecord(**payload)
            if f"_{record.record_hash()[:8]}_" not in path.name:
                problems.append(f"{path.name} does not carry its record hash")
            if not _finite_history(record):
                problems.append(f"{path.name}: non-finite training history")
            records.append(record)
        expected = len(PRESETS) * self.num_runs
        if len(records) != expected:
            problems.append(f"{len(records)} run records, expected {expected}")
        report = workdir / "report.csv"
        rows = report.read_text().splitlines()[1:] if report.is_file() else []
        if len(rows) != len(records):
            problems.append(f"report has {len(rows)} rows for {len(records)} records")
        if "27/27 cells within 3 standard errors" not in output:
            problems.append("theory-check did not report 27/27 cells")
        accs = [r.test_accuracy for r in records]
        mean = sum(accs) / len(accs) if accs else float("nan")
        return Checked(mean, [r.record_hash() for r in records], problems)


WORKLOADS = {w.name: w for w in (TreeCycles(), LabCli())}


def reset_workdir(workdir: Path) -> None:
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)


def load_pins() -> dict:
    return json.loads(PINS_PATH.read_text()) if PINS_PATH.is_file() else {}


def check_against_pin(pins: dict, workload: str, seed: int, test_acc: float,
                      hashes: list[str]) -> tuple[str, list[str]]:
    """Compare an op's output with the values pinned for its seed.

    Returns the hash status ('same', 'changed' or 'unpinned') and the
    problems found. A changed hash is reported but is not a problem; a
    test accuracy further than ACC_TOL from the pinned one is.
    """
    pin = pins.get(workload, {}).get(str(seed))
    if pin is None:
        return "unpinned", []
    problems = []
    if not abs(test_acc - pin["test_acc"]) <= ACC_TOL:
        problems.append(f"test_acc {test_acc:.4f} is more than {ACC_TOL} "
                        f"from the pinned {pin['test_acc']:.4f}")
    status = "same" if sorted(hashes) == sorted(pin["hashes"]) else "changed"
    return status, problems
