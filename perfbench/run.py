"""cdgnn benchmark: run one workload for a fixed time and print its metrics.

    python3 perfbench/run.py --workload cdgnn_tree_cycles --seed 0 \
        --seconds 30 --trace 0

Ops run one at a time in this process (a closed loop) with one BLAS
thread. With --trace 0 the last stdout line carries the end-to-end
metrics of BENCHMARK.json; with --trace 1 ops alternate between untraced
and traced, and it carries the per-layer metrics. Either way every op's
output is checked, and the full result, with the environment, is written
to perfbench/out/.
"""

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import workloads

# Before numpy is first imported: record hashes depend on the BLAS thread
# count, and one thread keeps the timings of a shared machine steadier.
workloads.single_blas_thread()

import tracer as tracing  # noqa: E402

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"
BENCHMARK = HERE.parent / "BENCHMARK.json"
SETUP_REPEATS = 3  # this process plus fresh ones
# The machine's speed drifts by tens of percent over seconds to minutes, so
# each timing is rescaled by a calibration loop timed around it (see
# README.md, "Steadiness"). CALIB_REF_S is near the loop's median time on
# the baseline machine, which keeps corrected times close to wall times.
CALIB_REF_S = 0.14
# The first op of a process faults in its working set and is slower by a
# varying amount; it is checked but left out of the timings. MIN_OPS
# counts the ops after it.
WARMUP_OPS = 1
MIN_OPS = 3


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="time importing cdgnn and building the inputs, then exit")
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def environment() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": len(os.sched_getaffinity(0)),
        "threads": {v: os.environ.get(v) for v in workloads.THREAD_VARS},
    }


def setup_in_fresh_process(args) -> tuple[float, float]:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload",
           args.workload, "--seed", str(args.seed), "--setup-only"]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=120,
                          check=True)
    out = json.loads(done.stdout.strip().splitlines()[-1])
    return out["setup_s"], out["calib_s"]


def calibrate() -> float:
    """Seconds that a fixed mix of interpreter and numpy work takes now."""
    import numpy as np

    rng = np.random.default_rng(0)
    x = rng.standard_normal((1000, 16))
    idx = rng.integers(0, 1000, 8000)
    start = time.perf_counter()
    for _ in range(200):
        y = x[idx]
        np.bincount(idx, weights=y[:, 0], minlength=1000)
        y.T @ y
        total = 0
        for i in range(4000):
            total += i * i
    return time.perf_counter() - start


def corrected(seconds: float, calib: float) -> float:
    """`seconds` at the machine speed where calibrate() takes CALIB_REF_S."""
    return seconds * CALIB_REF_S / calib


def run_op(workload, inputs, args, workdir, tracer, index) -> dict:
    """Run one op, timed, and check its output."""
    op = {"op": index, "traced": tracer is not None, "problems": []}
    raw = None
    workloads.reset_workdir(workdir)
    gc.collect()
    op["calib"] = calibrate()
    if tracer is not None:
        tracer.install()
    try:
        start, cpu_start = time.perf_counter(), time.process_time()
        try:
            if tracer is not None:
                with tracer.op(index):
                    raw = workload.run(inputs, args.seed, workdir)
            else:
                raw = workload.run(inputs, args.seed, workdir)
        finally:
            op["seconds"] = time.perf_counter() - start
            op["cpu_seconds"] = time.process_time() - cpu_start
            if tracer is not None:
                tracer.uninstall()
    except Exception:  # an op that raises is a failed op, not a crash
        op["problems"].append(traceback.format_exc(limit=4).strip())
    if raw is None:
        return op
    try:
        checked = workload.check(raw, args.seed, workdir)
    except Exception:  # unreadable output fails the op as well
        op["problems"].append(traceback.format_exc(limit=4).strip())
        return op
    op["test_acc"] = checked.test_acc
    op["hashes"] = checked.hashes
    op["problems"] += checked.problems
    return op


def run_ops(workload, inputs, args, tracer) -> list[dict]:
    """Closed loop: start ops until the next would overrun --seconds."""
    pins = workloads.load_pins()
    workdir = OUT / f"work-{workload.name}-{os.getpid()}"
    ops: list[dict] = []
    begin = time.perf_counter()
    while len(ops) < WARMUP_OPS + MIN_OPS or (
            time.perf_counter() - begin
            + statistics.median(op["seconds"] for op in ops) <= args.seconds):
        traced = tracer is not None and len(ops) > WARMUP_OPS and (
            len(ops) - WARMUP_OPS) % 2 == 1
        op = run_op(workload, inputs, args, workdir,
                    tracer if traced else None, len(ops))
        op["warmup"] = len(ops) < WARMUP_OPS
        if "hashes" in op:
            op["pin"], problems = workloads.check_against_pin(
                pins, workload.name, args.seed, op["test_acc"], op["hashes"])
            op["problems"] += problems
            first = next(o for o in ops + [op] if "hashes" in o)
            if op["hashes"] != first["hashes"]:
                op["problems"].append("record hashes differ from op "
                                      f"{first['op']} of this run")
        ops.append(op)
        status = "ok" if not op["problems"] else "FAILED: " + " | ".join(op["problems"])
        kind = "warmup" if op["warmup"] else "traced" if traced else "untraced"
        print(f"op {op['op']} {kind} "
              f"{op['seconds']:.3f} s (cpu {op['cpu_seconds']:.3f} s) test_acc {op.get('test_acc', float('nan')):.4f} "
              f"pin {op.get('pin', '-')} hashes "
              f"{','.join(h[:12] for h in op.get('hashes', [])) or '-'} {status}",
              flush=True)
    calibs = [op["calib"] for op in ops] + [calibrate()]
    for op, before, after in zip(ops, calibs, calibs[1:]):
        op["corrected_seconds"] = corrected(op["seconds"], (before + after) / 2)
    workloads.reset_workdir(workdir)
    workdir.rmdir()
    return ops


def select(values: dict, specs: list[dict]) -> dict:
    missing = [s["name"] for s in specs if s["name"] not in values]
    if missing:
        raise KeyError(f"benchmark does not compute {', '.join(missing)}")
    return {s["name"]: {"value": values[s["name"]], "unit": s["unit"]}
            for s in specs}


def main(argv=None) -> int:
    args = parse_args(argv)
    workload = workloads.WORKLOADS[args.workload]
    tracer = tracing.Tracer() if args.trace else None
    start = time.perf_counter()
    try:
        workloads.import_cdgnn()
    except ImportError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if tracer is not None:
        with tracer.installed(), tracer.op("setup"):
            inputs = workload.setup(args.seed)
    else:
        inputs = workload.setup(args.seed)
    setup_times = [time.perf_counter() - start]
    setup_calib = [calibrate()]
    if args.setup_only:
        print(json.dumps({"setup_s": setup_times[0], "calib_s": setup_calib[0]}))
        return 0
    spec = json.loads(BENCHMARK.read_text())
    if tracer is None:
        for _ in range(SETUP_REPEATS - 1):
            seconds, calib = setup_in_fresh_process(args)
            setup_times.append(seconds)
            setup_calib.append(calib)
    env = environment()
    print(f"workload {workload.name} seed {args.seed} trace {args.trace}")
    print("env " + json.dumps(env, sort_keys=True))

    ops = run_ops(workload, inputs, args, tracer)
    failed = sum(1 for op in ops if op["problems"])
    measured = [op for op in ops if not op["traced"] and not op["warmup"]]
    untraced = [op["seconds"] for op in measured]
    accs = [op["test_acc"] for op in ops if "test_acc" in op]
    summary = {
        "setup_s": statistics.median(
            corrected(t, c) for t, c in zip(setup_times, setup_calib)),
        "setup_wall_s": statistics.median(setup_times),
        "run_s": statistics.median(op["corrected_seconds"] for op in measured),
        "run_wall_s": statistics.median(untraced),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "test_acc": accs[0] if accs else float("nan"),
        "error_rate": failed / len(ops),
    }
    print(f"setup_s {summary['setup_s']:.4f} s (median of {len(setup_times)}; "
          f"wall {summary['setup_wall_s']:.4f} s)")
    print(f"run_s {summary['run_s']:.4f} s (median of {len(untraced)} untraced ops; "
          f"wall {summary['run_wall_s']:.4f} s)")
    print(f"test_acc {summary['test_acc']:.4f} (mean over the op's records)")
    print(f"peak_rss_mb {summary['peak_rss_mb']:.1f} MB")
    print(f"error_rate {summary['error_rate']:.4f} ({failed}/{len(ops)} ops failed)")

    OUT.mkdir(exist_ok=True)
    stem = f"{workload.name}-s{args.seed}-t{args.trace}"
    result = {"workload": workload.name, "seed": args.seed,
              "seconds": args.seconds, "env": env, "summary": summary,
              "ops": ops}
    if tracer is None:
        metrics = select(summary, spec["end_to_end"])
    else:
        values = tracer.layer_values(
            [op["op"] for op in ops if op["traced"]], untraced)
        metrics = select(values, spec["per_layer"])
        tracer.dump(OUT / f"{stem}.spans.tsv")
        result["layers"] = values
        for name, m in metrics.items():
            print(f"{name} {m['value']:.6g} {m['unit']}")
        print(f"spans written to {OUT / (stem + '.spans.tsv')}")
    result["metrics"] = metrics
    (OUT / f"{stem}.json").write_text(json.dumps(result, indent=1))
    print(json.dumps({"correct": failed == 0, "attempted": len(ops),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
