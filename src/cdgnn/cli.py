"""Command-line entry points.

Subcommands cover the full workflow: generate or relabel benchmark graphs,
train either model, evaluate saved weights, run ablations and loss-weight
sweeps, check the gain theory numerically, audit a trained model's
assumptions, and summarize saved run records as CSV.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np

from .gains import STDERR_MULTIPLE, default_grid_cells, theory_check_grid
from .graphs import (feature_heterophily, label_heterophily, load_graph,
                     save_graph)
from .harness import (RunConfig, RunRecord, aggregate_runs,
                      assumption_audit, evaluate, load_model, run_experiment,
                      run_variants, save_model, save_sweep, split_nodes,
                      write_report_csv)
from .synth import FEATURE_RULES, PRESET_NAMES, preset, relabel_to_heterophily

__all__ = ["main", "build_parser"]


# Each training flag and the RunConfig field it sets; the flag takes the
# field's type and its default in RunConfig().
CONFIG_FLAGS = {
    "--lr": "learning_rate",
    "--weight-decay": "weight_decay",
    "--hidden": "hidden",
    "--dropout": "dropout",
    "--layers": "layers",
    "--q": "q",
    "--lambda1": "lambda_counterfactual",
    "--lambda2": "lambda_independence",
    "--epochs": "epochs",
    "--patience": "patience",
    "--batch-size": "batch_size",
    "--ego-hops": "ego_hops",
    "--scorer-hidden": "scorer_hidden",
    "--hsic-max-rows": "hsic_max_rows",
}
FLAG_HELP = {"--lambda1": "counterfactual loss weight",
             "--lambda2": "independence (HSIC) loss weight"}


def _add_run_flags(p: argparse.ArgumentParser, runs_help) -> None:
    """The flags of the training commands after the graph source: --seed,
    --num-runs, --out-dir and the CONFIG_FLAGS."""
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--num-runs", type=int, default=1, help=runs_help)
    p.add_argument("--out-dir", type=Path, default=Path("runs"))
    defaults = RunConfig()
    # The annotations are strings: "int", "float" or "int | None".
    types = {f.name: f.type for f in fields(RunConfig)}
    for flag, name in CONFIG_FLAGS.items():
        # the metavar argparse derives from the flag itself: --lr LR
        p.add_argument(flag, dest=name,
                       metavar=flag[2:].upper().replace("-", "_"),
                       type=float if types[name] == "float" else int,
                       default=getattr(defaults, name),
                       help=FLAG_HELP.get(flag))


def _config_from_args(args) -> RunConfig:
    return RunConfig(**{name: getattr(args, name)
                        for name in CONFIG_FLAGS.values()})


def _add_graph_source(p: argparse.ArgumentParser) -> None:
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--graph", type=Path, help="graph JSON file")
    src.add_argument("--preset", choices=sorted(PRESET_NAMES),
                     help="built-in benchmark graph")


def _resolve_graph(args):
    if args.graph is not None:
        return load_graph(args.graph), args.graph.stem
    g, _ = preset(args.preset, seed=args.seed)
    return g, args.preset


def _cmd_generate(args) -> int:
    g, blocks = preset(args.preset, seed=args.seed,
                       feature_rule=args.feature_rule)
    note = ""
    if args.relabel_to is not None:
        result = relabel_to_heterophily(g, target=args.relabel_to,
                                        seed=args.seed)
        g = result.graph
        note = (f", relabeled to h_L {args.relabel_to} "
                f"({'reached' if result.reached else 'best effort'})")
    save_graph(g, args.out)
    sidecar = args.out.with_suffix(".blocks.json")
    sidecar.write_text(json.dumps({str(k): v for k, v in blocks.items()}))
    print(f"wrote {args.out} ({g.num_nodes} nodes, {g.num_edges} edges, "
          f"{g.num_classes} classes{note}) and {sidecar}")
    return 0


def _cmd_relabel(args) -> int:
    g = load_graph(args.graph)
    result = relabel_to_heterophily(g, target=args.target, seed=args.seed)
    save_graph(result.graph, args.out)
    achieved = label_heterophily(result.graph)
    status = "reached" if result.reached else "best effort"
    print(f"wrote {args.out}: label heterophily {achieved:.4f} "
          f"({status}) after {result.rounds} rounds")
    return 0


def _seeds(args) -> list[int]:
    """--seed and the --num-runs - 1 seeds after it."""
    return list(range(args.seed, args.seed + args.num_runs))


def _run_table(args, variants: dict) -> dict:
    """Run `variants` (name -> (model, RunConfig)) on the graph of `args`
    at the --seed/--num-runs seeds and save every record to --out-dir;
    the records by variant."""
    g, dataset = _resolve_graph(args)
    runs = run_variants(g, variants, _seeds(args), dataset)
    for records in runs.values():
        for record in records:
            record.save(args.out_dir)
    return runs


def _cmd_train(args) -> int:
    """train and train-baseline: the model is in `args.model`."""
    model = args.model
    config = _config_from_args(args)
    if args.num_runs > 1:
        records = _run_table(args, {model: (model, config)})[model]
        mean, std = aggregate_runs([r.test_accuracy for r in records])
        print(f"{model} on {records[0].dataset}: {mean:.4f} +/- {std:.4f} "
              f"over {args.num_runs} runs; wrote run records only, no "
              f"weights (--num-runs 1 saves them)")
        return 0
    g, dataset = _resolve_graph(args)
    record, params = run_experiment(g, config, args.seed, dataset, model,
                                    return_params=True)
    out_dir = Path(args.out_dir)
    record.save(out_dir)
    model_path = save_model(params,
                            out_dir / f"model_{model}_{dataset}_s{args.seed}.npz",
                            config.resolved_hops)
    print(f"{model} on {dataset}: test accuracy {record.test_accuracy:.4f} "
          f"(best epoch {record.best_epoch}); weights at {model_path}")
    return 0


def _cmd_evaluate(args) -> int:
    g, model = load_graph(args.graph), load_model(args.model)
    if args.split == "all":
        nodes = np.arange(g.num_nodes)
    else:
        sp = split_nodes(g.num_nodes, args.seed)
        nodes = getattr(sp, args.split)
    result = evaluate(g, model.params, nodes, hops=model.hops)
    print(f"accuracy {result.accuracy:.4f} on {nodes.shape[0]} nodes "
          f"({args.split})")
    print("confusion (rows true, cols predicted):")
    for row in result.confusion:
        print("  " + " ".join(f"{int(v):5d}" for v in row))
    return 0


def _cmd_ablate(args) -> int:
    config = _config_from_args(args)
    # The full objective, then each single-term ablation flag of RunConfig.
    variants = {"full": ("cdgnn", config)}
    for flag in (f.name for f in fields(RunConfig) if f.name.startswith("no_")):
        variants[flag] = ("cdgnn", replace(config, **{flag: True}))
    runs = _run_table(args, variants)
    for name, records in runs.items():
        if args.num_runs == 1:
            print(f"{name:24s} test accuracy {records[0].test_accuracy:.4f}")
        else:
            mean, std = aggregate_runs([r.test_accuracy for r in records])
            print(f"{name:24s} test accuracy {mean:.4f} +/- {std:.4f} "
                  f"over {args.num_runs} runs")
    write_report_csv([r for records in runs.values() for r in records],
                     args.out_dir / "ablation.csv")
    return 0


def _distinct_floats(text: str, flag: str) -> list[float]:
    values = [float(v) for v in text.split(",")]
    if len(set(values)) != len(values):
        raise ValueError(f"{flag} repeats a value: {text}")
    return values


def _cmd_sweep(args) -> int:
    l1 = _distinct_floats(args.lambda1_values, "--lambda1-values")
    l2 = _distinct_floats(args.lambda2_values, "--lambda2-values")
    config = _config_from_args(args)
    # One variant per grid cell: independence weight outer, counterfactual inner.
    variants = {f"lambda1={a} lambda2={b}":
                ("cdgnn", replace(config, lambda_counterfactual=a,
                                  lambda_independence=b))
                for b in l2 for a in l1}
    runs = _run_table(args, variants)
    csv_path, json_path = save_sweep(runs, args.out_dir)
    means = {name: aggregate_runs([r.test_accuracy for r in records])[0]
             for name, records in runs.items()}
    best = max(means, key=means.get)
    cell = runs[best][0].config
    print(f"wrote {csv_path} and {json_path}")
    print(f"best cell: lambda1={cell['lambda_counterfactual']} "
          f"lambda2={cell['lambda_independence']} "
          f"accuracy {means[best]:.4f}")
    return 0


def _load_grid_cells(path: Path) -> list[dict]:
    """Grid JSON: either {"degrees": [...], "homophilies": [...],
    "ratios": [...]} (cartesian) or an explicit list of cell dicts, which
    theory_check_grid checks."""
    payload = json.loads(path.read_text())
    if isinstance(payload, list):
        return payload
    axes = ("degrees", "homophilies", "ratios")
    if not isinstance(payload, dict):
        raise ValueError(f"{path}: grid axes must be an object")
    missing = [k for k in axes if k not in payload]
    if missing:
        raise ValueError(f"{path}: grid axes missing key {', '.join(missing)}")
    for key in axes:
        axis = payload[key]
        if not (isinstance(axis, list) and all(
                isinstance(v, (int, float)) and not isinstance(v, bool)
                for v in axis)):
            raise ValueError(f"{path}: grid axis {key} must be a list of "
                             f"numbers, got {json.dumps(axis)}")
    return default_grid_cells(*(payload[key] for key in axes))


def _cmd_theory_check(args) -> int:
    cells = (_load_grid_cells(args.grid) if args.grid is not None
             else default_grid_cells())
    grid = theory_check_grid(cells, num_samples=args.samples, seed=args.seed)
    for row in grid.rows:
        flag = "ok" if row["within"] else "OFF"
        print(f"d={row['degree']:3d} h={row['homophily']:.2f} "
              f"rho={row['cross_class_ratio']:.2f}  "
              f"analytic {row['analytic']:+.5f}  "
              f"empirical {row['empirical']:+.5f} "
              f"(stderr {row['stderr']:.2e})  {flag}")
    print(f"{grid.within_count}/{grid.total} cells within {STDERR_MULTIPLE} "
          f"standard errors")
    if args.out is not None:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        with args.out.open("w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=list(grid.rows[0].keys()))
            writer.writeheader()
            writer.writerows(grid.rows)
        print(f"wrote {args.out}")
    return 0 if grid.within_count == grid.total else 1


def _cmd_audit(args) -> int:
    g, model = load_graph(args.graph), load_model(args.model)
    report = assumption_audit(g, model.params, model.hops, seed=args.seed)
    print(f"branch independence (HSIC) {report.independence:.6f} "
          f"{'ok' if report.independence_ok else 'VIOLATED'}")
    print(f"counterfactual sensitivity {report.sensitivity:.6f} "
          f"{'ok' if report.sensitivity_ok else 'VIOLATED'}")
    ratios = ", ".join("undefined" if np.isnan(r) else f"{r:.4f}"
                       for r in report.cross_class_ratios)
    print(f"shortcut dominance share {report.dominance_share:.4f} "
          f"{'ok' if report.dominance_ok else 'VIOLATED'}")
    live_c, live_s = report.live_units
    distinct_c, distinct_s = report.distinct_embeddings
    print(f"branch liveness: live units by layer causal {live_c}, "
          f"shortcut {live_s}; distinct graph embeddings causal "
          f"{distinct_c}, shortcut {distinct_s} "
          f"{'ok' if report.liveness_ok else 'VIOLATED'}")
    print(f"cross-class ratio by layer  [{ratios}]")
    print("assumptions hold" if report.passed else "assumptions violated")
    return 0 if report.passed else 1


def _cmd_ingest(args) -> int:
    g = load_graph(args.graph)
    print(f"{args.graph}: {g.num_nodes} nodes, {g.num_edges} edges, "
          f"{g.num_classes} classes, {g.feature_dim} feature dims")
    print(f"label heterophily   {label_heterophily(g):.4f}")
    print(f"feature heterophily {feature_heterophily(g):.4f}")
    return 0


def _load_record(path: Path) -> RunRecord:
    try:
        payload = json.loads(path.read_text())
        payload["split_sizes"] = tuple(payload["split_sizes"])
        return RunRecord(**payload)
    except (ValueError, KeyError, TypeError) as exc:
        raise ValueError(f"{path} is not a run record "
                         f"({type(exc).__name__}: {exc})") from None


def _cmd_report(args) -> int:
    paths = sorted(Path(args.records).glob("run_*.json"))
    if not paths:
        print(f"no run_*.json records under {args.records}", file=sys.stderr)
        return 1
    records = [_load_record(p) for p in paths]
    out = write_report_csv(records, args.out)
    print(f"wrote {out} ({len(records)} runs)")
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argparse tree, built once per process: the tree is a reference
    cycle, so a tree per call would be left to the cyclic collector."""
    parser = argparse.ArgumentParser(
        prog="cdgnn",
        description="Disentangled GNN laboratory: data, training, theory checks.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="write a benchmark graph to JSON")
    p.add_argument("--preset", choices=sorted(PRESET_NAMES), required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--feature-rule", choices=FEATURE_RULES,
                   default="block_kind")
    p.add_argument("--relabel-to", type=float, default=None,
                   help="relabel after generation to this label heterophily")
    p.add_argument("--out", type=Path, required=True)
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("relabel", help="push a graph's label heterophily up")
    p.add_argument("--graph", type=Path, required=True)
    p.add_argument("--target", type=float, default=None,
                   help="stop once label heterophily reaches this value")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", type=Path, required=True)
    p.set_defaults(func=_cmd_relabel)

    for name, model, blurb in (
            ("train", "cdgnn", "train the disentangled model"),
            ("train-baseline", "gcn", "train the GCN baseline")):
        p = sub.add_parser(name, help=blurb)
        _add_graph_source(p)
        _add_run_flags(p, "train at seeds --seed, --seed + 1, ... and print "
                          "mean +/- std; above 1 only run records are "
                          "written, --num-runs 1 also saves the weights")
        p.set_defaults(func=_cmd_train, model=model)

    p = sub.add_parser("evaluate", help="evaluate saved weights on a split")
    p.add_argument("--graph", type=Path, required=True)
    p.add_argument("--model", type=Path, required=True, help="weights .npz")
    p.add_argument("--split", choices=["train", "val", "test", "all"],
                   default="test")
    p.add_argument("--seed", type=int, default=0, help="split seed")
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("ablate", help="single-term loss ablations")
    _add_graph_source(p)
    _add_run_flags(p, "run every variant at seeds --seed, --seed + 1, ... "
                      "and print its mean +/- std test accuracy")
    p.set_defaults(func=_cmd_ablate)

    p = sub.add_parser("sweep", help="grid over the two loss weights")
    _add_graph_source(p)
    p.add_argument("--lambda1-values", default="5,10,15,20")
    p.add_argument("--lambda2-values", default="0.1,0.3,0.5,1")
    _add_run_flags(p, None)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("theory-check",
                       help="Monte Carlo the one-layer gain formula")
    p.add_argument("--grid", type=Path, default=None,
                   help="grid JSON (axes dict or explicit cell list); "
                        "default is the built-in 27-cell grid")
    p.add_argument("--samples", type=int, default=100_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", type=Path, default=None, help="write cells CSV")
    p.set_defaults(func=_cmd_theory_check)

    p = sub.add_parser("audit", help="check analysis assumptions on weights")
    p.add_argument("--graph", type=Path, required=True)
    p.add_argument("--model", type=Path, required=True, help="weights .npz")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_audit)

    p = sub.add_parser("ingest", help="validate an external graph JSON")
    p.add_argument("--graph", type=Path, required=True)
    p.set_defaults(func=_cmd_ingest)

    p = sub.add_parser("report", help="summarize saved run records as CSV")
    p.add_argument("--records", type=Path, required=True,
                   help="directory holding run_*.json")
    p.add_argument("--out", type=Path, default=Path("report.csv"))
    p.set_defaults(func=_cmd_report)

    return parser


def main(argv=None) -> int:
    """Run one command; bad input (ValueError), an unreadable file
    (OSError) or a run whose loss diverges (FloatingPointError) exits 2
    with one stderr line."""
    args = build_parser().parse_args(argv)
    try:
        # numpy rejects a negative seed deep inside a command; name it here.
        if getattr(args, "seed", 0) < 0:
            raise ValueError(f"--seed must be a non-negative integer, "
                             f"got {args.seed}")
        if getattr(args, "num_runs", 1) < 1:
            raise ValueError(f"--num-runs must be >= 1, got {args.num_runs}")
        return args.func(args)
    except (ValueError, OSError, FloatingPointError) as exc:
        print(f"cdgnn {args.command}: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
