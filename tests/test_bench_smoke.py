"""Smoke run of the benchmark harness on its smallest workload."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_reference_session_smoke_run_has_no_failed_checks():
    # traced, so that the record view and side-channel paths the traced
    # decomposition reads are exercised too
    proc = subprocess.run(
        [
            sys.executable, "perfbench/run.py",
            "--workload", "reference_session", "--smoke", "--seconds", "1", "--trace", "1",
        ],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["failed"] == 0, result
    errors = {name: m["value"] for name, m in result["metrics"].items() if name.endswith(".errors")}
    assert errors and not any(errors.values()), errors
