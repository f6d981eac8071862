"""The fork helper: its parent side, the imports it leaves out, and output that
does not depend on the CPU count."""

import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from test_verify import LINUX, assert_no_child_left
from vlqc import workers
from vlqc.ensemble_io import _FORK_FLOATS, canonical_ensemble_bytes, dump_ensemble, load_ensemble
from vlqc.verify import random_ensemble

SRC = Path(__file__).resolve().parents[1] / "src"


def run_python(args, prefix=(), **kwargs):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run(
        [*prefix, sys.executable, *args], env=env, capture_output=True, text=True, timeout=300, check=True, **kwargs
    )


def test_importing_vlqc_loads_no_process_pool():
    # multiprocessing and concurrent.futures would add to every command's start-up
    probe = (
        "import sys, vlqc, vlqc.cli\n"
        "print([m for m in ('multiprocessing', 'concurrent.futures') if m in sys.modules])\n"
    )
    assert run_python(["-c", probe]).stdout.strip() == "[]"


@pytest.mark.skipif(not LINUX, reason="forking is Linux-only")
def test_a_worker_result_larger_than_the_pipe_arrives_in_bounded_pieces():
    sizes = []
    got = bytearray()

    def consume(piece):
        sizes.append(len(piece))
        got.extend(piece)

    data = bytes(range(256)) * 4099
    assert workers.start_worker(bytes, data)(consume) is None
    assert got == data
    assert max(sizes) <= workers.PIECE_BYTES
    assert_no_child_left()


@pytest.mark.skipif(not LINUX, reason="forking is Linux-only")
def test_a_consumer_that_raises_leaves_no_child():
    def consume(piece):
        raise KeyError("consumer failed")

    def too_late(signum, frame):
        raise TimeoutError("a worker was never reaped")

    # the second worker holds a copy of the first pipe's read end, so the
    # first worker, still writing, would never see it close
    first = workers.start_worker(bytes, 1 << 20)
    second = workers.start_worker(bytes, 1 << 20)
    previous = signal.signal(signal.SIGALRM, too_late)
    signal.alarm(60)
    try:
        with pytest.raises(KeyError, match="consumer failed"):
            first(consume)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert second(lambda piece: None) is None
    assert_no_child_left()


@pytest.mark.skipif(
    not LINUX or shutil.which("taskset") is None or len(os.sched_getaffinity(0)) < 2,
    reason="needs taskset and two CPUs",
)
def test_simulate_writes_the_same_transcript_on_one_cpu(tmp_path):
    ensemble = random_ensemble(np.random.default_rng(11), 192, 288)
    assert 2 * 192 * 288 >= _FORK_FLOATS  # above the bound, so the hash forks
    path = tmp_path / "ensemble.json"
    dump_ensemble(ensemble, 2, path)
    digests = []
    for prefix in [(), ("taskset", "-c", str(min(os.sched_getaffinity(0))))]:
        out = tmp_path / f"transcript{len(digests)}.jsonl"
        run_python(
            ["-m", "vlqc.cli", "simulate", "--ensemble", str(path), "--n", "20", "--seed", "3", "--out", str(out)],
            prefix,
        )
        digests.append(hashlib.sha256(out.read_bytes()).hexdigest())
    assert digests[0] == digests[1]
    header = json.loads(out.read_text().splitlines()[0])
    expected = hashlib.sha256(canonical_ensemble_bytes(load_ensemble(path).ensemble)).hexdigest()
    assert header["ensembleHash"] == expected
