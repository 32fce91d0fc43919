"""Golden behaviour pin: seed 0 of each benchmark workload must reproduce
the record hashes stored in perfbench/pins.json.

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

_RUN_SEED_0 = """
import json, sys, tempfile
from pathlib import Path

import workloads

workloads.single_blas_thread()
workloads.import_cdgnn()
workload = workloads.WORKLOADS[sys.argv[1]]
with tempfile.TemporaryDirectory() as tmp:
    workdir = Path(tmp) / "op"
    workloads.reset_workdir(workdir)
    out = workload.run(workload.setup(0), 0, workdir)
    checked = workload.check(out, 0, workdir)
print(json.dumps({"hashes": sorted(checked.hashes),
                  "problems": checked.problems}))
"""


@pytest.mark.parametrize("workload", sorted(PINS))
def test_seed_0_reproduces_pinned_record_hashes(workload):
    proc = subprocess.run([sys.executable, "-c", _RUN_SEED_0, workload],
                          cwd=PERFBENCH, capture_output=True, text=True,
                          timeout=600)
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout.splitlines()[-1])
    assert got["problems"] == []
    assert got["hashes"] == PINS[workload]["0"]["hashes"]
