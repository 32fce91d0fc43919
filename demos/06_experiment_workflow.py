"""The experiment workflow end to end: single runs, seed aggregation,
term ablations, a loss-weight sweep, and the flat CSV report.

Seeds, model comparisons, ablations and sweeps are all one call,
run_variants: a map of named (model, RunConfig) pairs run over a list of
seeds, with the graph hashed once, one ego cache per hop count shared by
the CD-GNN rows and one full-graph input by the GCN rows. Everything here is deliberately
tiny so the whole tour finishes in about a minute; real runs use more
seeds and epochs.
"""

import tempfile
from dataclasses import replace
from pathlib import Path

from cdgnn.harness import (RunConfig, aggregate_runs, run_experiment,
                           run_variants, save_sweep, write_report_csv)
from cdgnn.synth import planted_shortcut


def main() -> None:
    ds = planted_shortcut(num_egos=30, seed=2)
    g = ds.graph
    config = RunConfig(learning_rate=3e-3, hidden=8, dropout=0.0, layers=2,
                       lambda_counterfactual=10.0, lambda_independence=0.01,
                       epochs=10, patience=10, batch_size=16, scorer_hidden=8)
    out = Path(tempfile.mkdtemp(prefix="cdgnn_demo_"))

    # One run produces a full record; its canonical form (wall time
    # excluded) hashes to a stable id, so reruns are checkable.
    record = run_experiment(g, config, seed=0, dataset="planted")
    print(f"single run: test accuracy {record.test_accuracy:.3f}, "
          f"best epoch {record.best_epoch}")
    print(f"record hash {record.record_hash()[:16]}..., "
          f"saved to {record.save(out).name}")

    # Seeds: a GCN row and a CD-GNN row, three seeds each, in one table.
    table = run_variants(g, {"gcn": ("gcn", config),
                             "cdgnn": ("cdgnn", config)},
                         seeds=(0, 1, 2), dataset="planted")
    print()
    for name, rows in table.items():
        mean, std = aggregate_runs([r.test_accuracy for r in rows])
        print(f"seeds: {name:<5s} mean {mean:.3f} +- {std:.3f} "
              f"over {len(rows)} seeds")
    records = table["cdgnn"]

    # Ablations flip one term off at a time, same seed and data.
    variants = {"full": ("cdgnn", config)}
    for flag in ("no_shortcut_term", "no_causal_term",
                 "no_counterfactual_term", "no_independence_term"):
        variants[flag] = ("cdgnn", replace(config, **{flag: True}))
    ablation = run_variants(g, variants, seeds=(0,), dataset="planted")
    print("\nablation          test accuracy")
    for name, (rec,) in ablation.items():
        print(f"{name:<22s} {rec.test_accuracy:.3f}")

    # A small grid over the two loss weights, one variant per cell; rows
    # go to CSV, and the plot payload groups one series per independence
    # weight.
    grid = {f"l_cf={l1} l_ind={l2}":
            ("cdgnn", replace(config, lambda_counterfactual=l1,
                              lambda_independence=l2))
            for l2 in (0.01,) for l1 in (1.0, 10.0)}
    sweep = run_variants(g, grid, seeds=(0,), dataset="planted")
    csv_path, json_path = save_sweep(sweep, out)
    print(f"\nsweep wrote {csv_path.name} and {json_path.name}")
    for name, cell in sweep.items():
        mean, _ = aggregate_runs([r.test_accuracy for r in cell])
        print(f"  {name:<22s} mean={mean:.3f}")

    report = write_report_csv(records, out / "report.csv")
    print(f"\nper-run report at {report}:")
    print(report.read_text().strip())


if __name__ == "__main__":
    main()
