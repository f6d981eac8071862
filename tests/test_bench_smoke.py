"""Smoke run of the benchmark harness on its smallest workload."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_reference_session_smoke_run_has_no_failed_checks():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "reference_session", "--smoke", "--seconds", "1"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["failed"] == 0, result
