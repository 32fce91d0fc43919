"""Golden behaviour pin: seeds 0 and 1 of each benchmark workload must
reproduce the record hashes stored in perfbench/pins.json. Seed 0's
cdgnn_tree_cycles model predicts one class in every epoch, so seed 1 is
the pin that exercises a live model.

Record hashes depend on the BLAS thread count, so each op runs in a fresh
interpreter that pins BLAS to one thread before numpy is imported. The
pins are regenerated only by `python3 perfbench/pin.py --seeds 32`, in a
change that means to alter results.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
PINS = json.loads((PERFBENCH / "pins.json").read_text())

_RUN_SEED = """
import json, sys, tempfile
from pathlib import Path

import workloads

workloads.single_blas_thread()
workloads.import_cdgnn()
workload, seed = workloads.WORKLOADS[sys.argv[1]], int(sys.argv[2])
with tempfile.TemporaryDirectory() as tmp:
    workdir = Path(tmp) / "op"
    workloads.reset_workdir(workdir)
    out = workload.run(workload.setup(seed), seed, workdir)
    checked = workload.check(out, seed, workdir)
print(json.dumps({"hashes": sorted(checked.hashes),
                  "problems": checked.problems}))
"""


def _assert_reproduces_pin(workload, seed):
    proc = subprocess.run([sys.executable, "-c", _RUN_SEED, workload,
                           str(seed)],
                          cwd=PERFBENCH, capture_output=True, text=True,
                          timeout=600)
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout.splitlines()[-1])
    assert got["problems"] == []
    assert got["hashes"] == PINS[workload][str(seed)]["hashes"]


@pytest.mark.parametrize("workload", sorted(PINS))
def test_seed_0_reproduces_pinned_record_hashes(workload):
    _assert_reproduces_pin(workload, 0)


@pytest.mark.parametrize("workload", sorted(PINS))
def test_seed_1_reproduces_pinned_record_hashes(workload):
    _assert_reproduces_pin(workload, 1)
