"""Smoke runs of the benchmark harness on its smallest workloads."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


# wide_ensemble takes the harness through parse, hash and transcript at d > 4;
# verify_suite through vlqc verify and many small sessions with their records
@pytest.mark.parametrize("workload", ["reference_session", "wide_ensemble", "verify_suite"])
def test_smoke_run_has_no_failed_checks(workload):
    # traced, so that the record view and side-channel paths the traced
    # decomposition reads are exercised too
    proc = subprocess.run(
        [
            sys.executable, "perfbench/run.py",
            "--workload", workload, "--smoke", "--seconds", "1", "--trace", "1",
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
