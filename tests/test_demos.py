"""Every demo script runs to completion (exit 0) in its own process, and
so does the README's Python quick start, printing its pinned record."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
# Record hash that the README's quick start prints with one BLAS thread.
README_RECORD_HASH = (
    "04f211e15ecd52caec2316c37ca1cd415d13523d103a041e8c26a51b17caa80d")


def _run_python(argv, tmp_path):
    env = dict(os.environ, TMPDIR=str(tmp_path), OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    return subprocess.run([sys.executable, *argv], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)


def test_all_six_demos_are_found():
    assert len(DEMOS) == 6


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_exits_zero(demo, tmp_path):
    proc = _run_python([str(demo)], tmp_path)
    assert proc.returncode == 0, proc.stderr[-2000:]


def test_readme_python_block_prints_its_pinned_record(tmp_path):
    readme = (ROOT / "README.md").read_text()
    (block,) = re.findall(r"```python\n(.*?)```", readme, re.S)
    proc = _run_python(["-c", block], tmp_path)
    assert proc.returncode == 0, proc.stderr[-2000:]
    accuracy, record_hash = proc.stdout.split()
    assert 0.0 <= float(accuracy) <= 1.0
    assert record_hash == README_RECORD_HASH
