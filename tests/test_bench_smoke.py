"""The benchmark's smoke run: every workload, traced and untraced, on
small inputs.

Its output checks compare the tape against the tape-free forward, and
sampled tape gradients against extended-precision finite differences,
at the workloads' widths: k=r=d=32, the paper's k=r=150 with d=300, and
k=r=32 with a 2,001-row trainable table at d=300.  A wrong factored
gradient or optimizer step fails here as well as in the unit suites.
Takes about 15 s.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_smoke_run_is_correct():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    summary = json.loads(proc.stdout.strip().splitlines()[-1])
    failing = [line for line in proc.stdout.splitlines() if line.startswith("check FAIL")]
    assert summary["correct"] is True, failing
    assert all(run["correct"] for run in summary["runs"].values())
