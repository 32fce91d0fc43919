"""Regenerate pins.json: per workload and seed, the test accuracy and the
record hashes of one op, with one BLAS thread.

    python3 perfbench/pin.py --seeds 32

The benchmark fails an op whose test accuracy is more than
workloads.ACC_TOL away from the pinned value, and reports a changed hash
without failing. Re-pin only in a change that means to alter results, and
state there the largest accuracy change the new pins show.
"""

import argparse
import json
import os
import sys

import workloads

workloads.single_blas_thread()


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--seeds", type=int, default=32,
                   help="pin seeds 0 .. N-1 (default 32)")
    args = p.parse_args(argv)
    workloads.import_cdgnn()
    pins = {}
    workdir = workloads.PINS_PATH.parent / "out" / f"pin-{os.getpid()}"
    for name, workload in sorted(workloads.WORKLOADS.items()):
        pins[name] = {}
        for seed in range(args.seeds):
            workloads.reset_workdir(workdir)
            inputs = workload.setup(seed)
            checked = workload.check(workload.run(inputs, seed, workdir),
                                     seed, workdir)
            if checked.problems:
                print(f"{name} seed {seed}: {checked.problems}", file=sys.stderr)
                return 1
            pins[name][str(seed)] = {"test_acc": checked.test_acc,
                                     "hashes": sorted(checked.hashes)}
            print(f"{name} seed {seed} test_acc {checked.test_acc:.4f}", flush=True)
    workloads.reset_workdir(workdir)
    workdir.rmdir()
    workloads.PINS_PATH.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
