"""The repository benchmark runs against this checkout and reports correct.

``perfbench/run.py`` exits non-zero without a verdict when something
raises outside its item loop: the import, a workload's set-up, a set-up
probe or the tracer resolving its patch targets.  A toy run of every
workload, untraced and traced, catches each of these.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("trace", ["0", "1"])
def test_toy_benchmark_run_is_correct(trace):
    cmd = [sys.executable, "perfbench/run.py", "--workload", "all", "--toy",
           "--seconds", "0", "--trace", trace]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert out.returncode == 0, out.stdout[-3000:] + out.stderr[-3000:]
    assert json.loads(out.stdout.splitlines()[-1])["correct"] is True
