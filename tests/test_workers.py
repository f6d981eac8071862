"""The fork helpers: a worker's parent side, the task pool's semantics, the
imports they leave out, and output that does not depend on the CPU count."""

import dataclasses
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from support import LINUX, assert_no_child_left, count_forks, document_bytes, set_cpus
from vlqc import ensemble_io, protocol, workers
from vlqc.codec import SourceEnsemble, SourceMessage, build_codebook
from vlqc.ensemble_io import _FORK_FLOATS, dump_ensemble, load_ensemble
from vlqc.protocol import run_session, transcript_lines, write_transcript
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


NEEDS_TASKSET = pytest.mark.skipif(
    not LINUX or shutil.which("taskset") is None or len(os.sched_getaffinity(0)) < 2,
    reason="needs taskset and two CPUs",
)


@NEEDS_TASKSET
def test_verify_prints_the_pinned_output_on_one_cpu():
    # the pool's one-process path, next to test_cli's pin of the same output
    first_cpu = str(min(os.sched_getaffinity(0)))
    out = run_python(["-m", "vlqc.cli", "verify", "--trials", "300"], ("taskset", "-c", first_cpu))
    digest = hashlib.sha256(out.stdout.encode()).hexdigest()
    assert digest == "b2097635cd3affc0898dba0b36da1d23199a7867ad1b4d5be85c0cad6a2431f2"


@NEEDS_TASKSET
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
    expected = hashlib.sha256(document_bytes(load_ensemble(path).ensemble)).hexdigest()
    assert header["ensembleHash"] == expected


def open_fds() -> set[str]:
    return set(os.listdir("/proc/self/fd"))


@pytest.mark.skipif(not LINUX, reason="forking is Linux-only")
def test_an_abandoned_worker_is_killed_at_once(alarm):
    def slow():
        time.sleep(40)
        return b""

    before, start = open_fds(), time.monotonic()
    assert workers.start_worker(slow)(None) is None
    assert time.monotonic() - start < 20
    assert open_fds() == before
    assert_no_child_left()


def _one_message_session():
    ensemble = SourceEnsemble((SourceMessage("only", np.array([1, 1j]), 1.0),), 2)
    return run_session(ensemble, build_codebook(ensemble, k=2), n=5, seed=1)


def _session(d, m, k, n):
    ensemble = random_ensemble(np.random.default_rng(d * m + k), d, m)
    return run_session(ensemble, build_codebook(ensemble, k=k), n=n, seed=3)


POOL_SESSIONS = {
    # 360 payload floats against 24 hash floats: this process formats no message
    "payloads-above-a-share": lambda: _session(2, 6, 36, 200),
    "fewer-messages-than-processes": lambda: _session(4, 2, 2, 40),
    # this process formats the payload, a worker the message
    "one-message": _one_message_session,
    "more-messages-than-processes": lambda: _session(8, 13, 2, 200),
}


def _written(transcript):
    """The joined lines of a copy of ``transcript`` with no cached hash, and its header's hash."""
    lines = transcript_lines(dataclasses.replace(transcript))
    return "\n".join(lines), json.loads(lines[0])["ensembleHash"]


@pytest.fixture()
def pieces_here(monkeypatch):
    """The (start, stop) of each block of hash messages formatted in this process."""
    blocks, pieces, parent = [], ensemble_io._message_pieces, os.getpid()

    def recording(ensemble, start, stop):
        if os.getpid() == parent:
            blocks.append((start, stop))
        return pieces(ensemble, start, stop)

    monkeypatch.setattr(ensemble_io, "_message_pieces", recording)
    return blocks


@pytest.mark.skipif(not LINUX, reason="forking is Linux-only")
@pytest.mark.parametrize("name", list(POOL_SESSIONS))
@pytest.mark.parametrize("refused", [False, True], ids=["forked", "fork-refused"])
def test_the_transcript_pool_writes_what_one_process_writes(monkeypatch, alarm, pieces_here, name, refused):
    transcript = POOL_SESSIONS[name]()
    count = len(transcript.ensemble.messages)
    set_cpus(monkeypatch, 1)
    expected = _written(transcript)
    assert expected[1] == hashlib.sha256(document_bytes(transcript.ensemble)).hexdigest()
    monkeypatch.setattr(ensemble_io, "_FORK_FLOATS", 0)
    forks = count_forks(monkeypatch) if refused else None
    for cpus in [1, 2, 3, 4]:
        set_cpus(monkeypatch, cpus)
        pieces_here.clear()
        assert _written(transcript) == expected
        assert_no_child_left()
        if refused:
            # the blocks refused workers would have formatted follow this process's own
            assert [start for start, _ in pieces_here] == [0] + [stop for _, stop in pieces_here[:-1]]
            assert pieces_here[-1][1] == count
            assert len(forks) == len(pieces_here) - 1 <= cpus - 1
            forks.clear()
        elif cpus == 1:
            assert pieces_here == [(0, count)]
        elif name in ("payloads-above-a-share", "one-message"):
            assert pieces_here == [(0, 0)]


@pytest.mark.skipif(not LINUX, reason="forking is Linux-only")
@pytest.mark.parametrize("refused", [False, True], ids=["forked", "fork-refused"])
def test_a_raise_in_the_payload_text_leaves_no_child_or_pipe(monkeypatch, alarm, refused):
    """The workers' blocks take 40 s each: only killing the workers, or not
    running a refused worker's block here, ends the call sooner."""
    transcript = _session(8, 13, 2, 200)
    set_cpus(monkeypatch, 3)
    monkeypatch.setattr(ensemble_io, "_FORK_FLOATS", 0)
    if refused:
        forks = count_forks(monkeypatch)
    else:
        forks, fork = [], os.fork

        def counted_fork():
            forks.append(1)
            return fork()

        monkeypatch.setattr(os, "fork", counted_fork)

    def slow_block(*args):
        time.sleep(40)

    def line_halves(*args):
        raise LookupError("planted crash")

    monkeypatch.setattr(ensemble_io, "_message_block", slow_block)
    monkeypatch.setattr(protocol, "_line_halves", line_halves)
    before, start = open_fds(), time.monotonic()
    with pytest.raises(LookupError, match="planted crash"):
        transcript_lines(transcript)
    assert time.monotonic() - start < 20
    assert len(forks) == 2
    assert open_fds() == before
    assert_no_child_left()


@pytest.mark.skipif(not LINUX, reason="forking is Linux-only")
def test_a_written_file_above_the_fork_bound_equals_the_joined_lines(monkeypatch, alarm, tmp_path):
    transcript = _session(64, 600, 2, 3000)
    assert 2 * 64 * 600 >= _FORK_FLOATS
    set_cpus(monkeypatch, 2)
    path = tmp_path / "t.jsonl"
    write_transcript(dataclasses.replace(transcript), path)
    assert_no_child_left()
    text, digest = _written(transcript)
    assert path.read_text() == text + "\n"
    assert digest == hashlib.sha256(document_bytes(transcript.ensemble)).hexdigest()


def squares_logged(log_fd: int, failing=()):
    """A task that writes its number to ``log_fd``, then raises for a task in
    ``failing`` or returns its square. Each 4-byte write is atomic in a pipe."""

    def task(t):
        os.write(log_fd, t.to_bytes(4, "little"))
        if t in failing:
            raise ValueError(f"task {t} failed")
        return t * t

    return task


def tasks_run(read_fd: int) -> list[int]:
    os.set_blocking(read_fd, False)
    data = b""
    try:
        while chunk := os.read(read_fd, 1 << 16):
            data += chunk
    except BlockingIOError:
        pass
    return sorted(int.from_bytes(data[i : i + 4], "little") for i in range(0, len(data), 4))


@pytest.mark.skipif(not LINUX, reason="forking is Linux-only")
@pytest.mark.parametrize("cpus", [2, 4])
@pytest.mark.parametrize("failing", [(), (5, 60, 61)], ids=["passing", "failing"])
def test_every_task_runs_exactly_once(monkeypatch, alarm, cpus, failing):
    set_cpus(monkeypatch, cpus)
    read_fd, write_fd = os.pipe()
    try:
        if failing:
            # a failed task does not stop its process: the others still run
            with pytest.raises(ValueError, match="task 5 failed"):
                workers.run_tasks(squares_logged(write_fd, failing), 300)
        else:
            assert workers.run_tasks(squares_logged(write_fd), 300) == [t * t for t in range(300)]
        assert tasks_run(read_fd) == list(range(300))
    finally:
        os.close(read_fd)
        os.close(write_fd)
    assert_no_child_left()


@pytest.mark.skipif(not LINUX, reason="forking is Linux-only")
def test_more_tasks_than_the_pipe_holds_share_records(monkeypatch, alarm):
    import fcntl

    # task pipes of one page, and the record cap to match, so that a record per
    # task would fill the pipe before any process reads it
    real_pipe = os.pipe

    def small_pipe():
        read_fd, write_fd = real_pipe()
        fcntl.fcntl(write_fd, fcntl.F_SETPIPE_SZ, 4096)
        return read_fd, write_fd

    monkeypatch.setattr(os, "pipe", small_pipe)
    monkeypatch.setattr(workers, "TASK_RECORDS", 4096 // 4)
    set_cpus(monkeypatch, 3)
    count = 10 * 4096
    assert workers.run_tasks(lambda t: t * t, count) == [t * t for t in range(count)]
    monkeypatch.setattr(workers, "TASK_RECORDS", 7)
    assert workers.run_tasks(lambda t: -t, 100) == [-t for t in range(100)]
    assert_no_child_left()


@pytest.mark.skipif(not LINUX, reason="forking is Linux-only")
@pytest.mark.parametrize("failing_in", ["this process", "the worker"])
def test_the_lowest_numbered_failure_reraises(monkeypatch, alarm, failing_in):
    """Every task that one of two processes runs fails. Each process waits in
    its first task until the other has begun one, so both run tasks; the
    failure that re-raises is the lowest task number that process ran."""
    set_cpus(monkeypatch, 2)
    parent = os.getpid()
    (log_r, log_w), (here_r, here_w), (there_r, there_w) = os.pipe(), os.pipe(), os.pipe()
    begun = []

    def task(t):
        here = os.getpid() == parent
        if not begun:  # each process has its own copy, forked before any task
            begun.append(t)
            os.write(here_w if here else there_w, b"!")
            os.read(there_r if here else here_r, 1)
        if here == (failing_in == "this process"):
            os.write(log_w, t.to_bytes(4, "little"))
            raise ValueError(f"task {t}")
        return t

    try:
        with pytest.raises(ValueError) as info:
            workers.run_tasks(task, 40)
        failed = tasks_run(log_r)
    finally:
        for fd in (log_r, log_w, here_r, here_w, there_r, there_w):
            os.close(fd)
    assert 0 < len(failed) < 40
    assert str(info.value) == f"task {failed[0]}"
    cause = info.value.__cause__
    if failing_in == "this process":
        assert cause is None
    else:
        assert isinstance(cause, workers.WorkerTraceback) and f"task {failed[0]}" in str(cause)
    assert_no_child_left()


@pytest.mark.skipif(not LINUX, reason="forking is Linux-only")
@pytest.mark.parametrize("case", ["passing", "failing", "dying", "fork refused"])
def test_no_child_or_pipe_is_left(monkeypatch, alarm, case):
    set_cpus(monkeypatch, 3)
    if case == "fork refused":
        count_forks(monkeypatch)
    parent = os.getpid()

    def task(t):
        if case == "failing" and t % 7 == 3:
            raise ValueError(f"task {t}")
        if case == "dying" and os.getpid() != parent:
            os._exit(3)
        return t

    before = open_fds()
    try:
        assert workers.run_tasks(task, 50) == list(range(50))
        assert case != "failing"  # in "dying", this process may have taken every task
    except ValueError:
        assert case == "failing"
    except RuntimeError as exc:
        assert case == "dying" and "left no result" in str(exc)
    assert open_fds() == before
    assert_no_child_left()


def test_one_process_opens_no_pipe_and_forks_no_worker(monkeypatch):
    # one CPU, or no more than one task
    set_cpus(monkeypatch, 1)
    calls = count_forks(monkeypatch)

    def no_pipe():
        raise AssertionError("a pipe was opened")

    monkeypatch.setattr(os, "pipe", no_pipe)
    assert workers.run_tasks(lambda t: 2 * t, 5) == [0, 2, 4, 6, 8]
    with pytest.raises(KeyError):
        workers.run_tasks(lambda t: {}[t], 5)
    set_cpus(monkeypatch, 4)
    assert workers.run_tasks(lambda t: 2 * t, 1) == [0]
    assert workers.run_tasks(lambda t: 2 * t, 0) == []
    assert calls == []
