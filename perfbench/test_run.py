"""Smoke test of the benchmark harness.

Runs every workload at toy size and checks that each metric declared in
BENCHMARK.json, plus first_job_s and fail_rate, is printed by name with its
unit, and that no output check failed. Run with
``python -m pytest perfbench/test_run.py``.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(args, cwd):
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, timeout=600, cwd=cwd
    )


@pytest.mark.parametrize("trace, kind", [(0, "end_to_end"), (1, "per_layer")])
def test_smoke_prints_every_metric_with_its_unit(trace, kind):
    done = _run(
        [str(HERE / "run.py"), "--workload", "all", "--smoke", "--seconds", "0.5", "--trace", str(trace)],
        ROOT,
    )
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    result = json.loads(lines[-1])
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] > 0

    declared = {m["name"]: m["unit"] for m in SPEC[kind]}
    for workload in WORKLOADS:
        printed = {
            name.split(".", 1)[1]: m["unit"]
            for name, m in result["metrics"].items()
            if name.startswith(workload + ".")
        }
        assert printed == declared

    table = [line.split() for line in lines if line and not line.startswith(("#", "{"))]
    for name, unit in declared.items():
        rows = [row for row in table if row[0] == name]
        assert len(rows) == len(WORKLOADS) and all(row[2] == unit for row in rows), name
    fail_rows = [row for row in table if row[0] == "fail_rate"]
    assert len(fail_rows) == len(WORKLOADS)
    assert all(float(row[1]) == 0.0 and row[2] == "ratio" for row in fail_rows)
    if kind == "end_to_end":
        first_rows = [row for row in table if row[0] == "first_job_s"]
        assert len(first_rows) == len(WORKLOADS) and all(row[2] == "s" for row in first_rows)


def test_refuses_to_run_without_the_package_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    done = _run(SPEC["command"][1:] + ["--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1", "--trace", "0"], tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
