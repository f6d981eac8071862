"""Forked workers: a function run in a child process, its bytes read back in pieces,
and a pool of numbered tasks shared by this process and one worker per other CPU.

Every fork of the package happens here. ``verify.run_all`` gives its suites and
subjects to the pool, ``run_tasks``, and ``ensemble_io.ensemble_hash``
formats blocks of messages in workers started by ``start_worker``. A bare
fork, not a spawned or forkserver worker: those import numpy and the package
again, which costs about as much as the work they would do, and
``multiprocessing`` itself would add to every command's start-up and
memory. The package starts no thread of its own, and OpenBLAS, numpy's
threaded BLAS, stops its threads before a fork through its own fork
handler, so a child inherits no lock held mid-update.
"""

from __future__ import annotations

import os
import pickle

# The parent reads a worker's bytes in pieces of at most this size, into one
# buffer, so it never holds a whole result; the default pipe holds 64 KiB.
PIECE_BYTES = 1 << 15

# run_tasks writes its task records into one pipe before any process reads
# them, so they must fit in the default pipe's 64 KiB or the write would
# block; past this count, a record names a run of consecutive tasks.
_RECORD_BYTES = 4
TASK_RECORDS = (1 << 16) // _RECORD_BYTES

_DONE, _RAISED = b"\x01", b"\x00"


def worker_count(tasks: int) -> int:
    """Processes to run ``tasks`` independent tasks in: one per CPU in this
    process's affinity mask, where the platform reports one (Linux), and never
    more than there are tasks."""
    if not hasattr(os, "sched_getaffinity"):
        return 1
    return min(len(os.sched_getaffinity(0)), tasks)


class WorkerTraceback(Exception):
    """A worker's formatted traceback, chained as the cause of its re-raised exception."""


def _exception_record(exc: BaseException) -> tuple[str, bytes | None]:
    """A worker's exception as its formatted traceback and its pickle, None if it has none."""
    import traceback

    try:
        raised = pickle.dumps(exc)
    except Exception:
        raised = None
    return "".join(traceback.format_exception(exc)), raised


def _rebuilt(record: tuple[str, bytes | None], who: str) -> BaseException:
    """The exception of an ``_exception_record``, with the worker's traceback as its cause."""
    text, raised = record
    try:
        exc = pickle.loads(raised)
    except Exception:
        exc = RuntimeError(f"{who} raised an exception that cannot be rebuilt here")
    exc.__cause__ = WorkerTraceback(text)
    return exc


def start_worker(fn, *args):
    """Start ``fn(*args)``, which returns bytes, in a forked child process.

    Returns ``finish(consume)``: it feeds the child's bytes to ``consume`` in
    order, as memoryviews of at most PIECE_BYTES that are only valid during
    the call, waits for the child, and returns None, or the exception the
    child raised, with the child's traceback as its cause. It raises only
    what ``consume`` raises, after it has killed and waited for the child.

    The child runs ``fn`` to the end before it writes anything, so it never
    waits on the parent while it works. It leaves by ``os._exit``, so it runs
    no exit handler and flushes no buffer it inherited. If the process cannot
    fork, ``finish`` runs ``fn`` in this process instead.
    """
    read_fd, write_fd = os.pipe()
    try:
        pid = os.fork()
    except OSError:  # out of processes or memory
        os.close(read_fd)
        os.close(write_fd)
        return lambda consume: _run_here(consume, fn, *args)
    if pid == 0:
        code = 1
        try:
            os.close(read_fd)
            try:
                status, payload = _DONE, fn(*args)
            except BaseException as exc:  # every failure goes to the parent
                status, payload = _RAISED, pickle.dumps(_exception_record(exc))
            with open(write_fd, "wb") as pipe:
                pipe.write(status)
                pipe.write(payload)
            code = 0
        finally:
            os._exit(code)
    os.close(write_fd)

    def finish(consume):
        payload, ended = b"", False
        try:
            with open(read_fd, "rb", buffering=0) as pipe:
                status = pipe.read(1)
                if status == _DONE:
                    buffer = bytearray(PIECE_BYTES)
                    view = memoryview(buffer)
                    while count := pipe.readinto(buffer):
                        consume(view[:count])
                else:
                    payload = pipe.read()
                ended = True
        finally:
            if not ended:  # consume raised, or this process was interrupted
                import signal

                os.kill(pid, signal.SIGKILL)
            _, wait_status = os.waitpid(pid, 0)
        if status == _DONE and wait_status == 0:
            return None
        try:
            record = pickle.loads(payload)
        except Exception:  # the child died before it wrote its whole result
            return RuntimeError(f"worker {pid} left no result (wait status {wait_status})")
        return _rebuilt(record, f"worker {pid}")

    return finish


def _run_here(consume, fn, *args):
    """``finish`` for a worker that could not fork: ``fn`` runs in this process."""
    try:
        consume(memoryview(fn(*args)))
    except Exception as exc:
        return exc
    return None


def run_tasks(fn, count: int) -> list:
    """``[fn(0), ..., fn(count - 1)]``, run in this process and in one forked
    worker per other CPU in the affinity mask (see ``worker_count``).

    The task numbers are written to one pipe before the fork, and each
    process takes the next one as it becomes free, so a slow task holds up
    no other. A task that raises is recorded and its process goes on to the
    next. Once every worker has been waited for, the results come back in
    task order, or the failure with the lowest task number re-raises here;
    a worker's comes with its traceback as the cause, and a task whose
    worker died before it reported fails with that worker's error. If a
    fork is refused, this process takes that worker's share. With one
    process there is no pipe and no fork, and the first failure raises.
    """
    processes = worker_count(count)
    if processes <= 1:
        return [fn(task) for task in range(count)]
    span = -(-count // TASK_RECORDS)  # tasks per record
    read_fd, write_fd = os.pipe()
    try:
        with open(write_fd, "wb") as pipe:
            pipe.write(b"".join(s.to_bytes(_RECORD_BYTES, "little") for s in range(0, count, span)))
        finishes = []
        try:
            for _ in range(processes - 1):
                finishes.append(start_worker(_worker_tasks, fn, read_fd, span, count))
            outcomes = dict(_take_tasks(fn, read_fd, span, count))
        finally:
            reports = [_report(finish) for finish in finishes]
    finally:
        os.close(read_fd)
    lost = []
    for report in reports:
        if isinstance(report, BaseException):
            lost.append(report)
            continue
        for task, outcome in report:
            outcomes[task] = outcome if outcome[0] else (False, _rebuilt(outcome[1], f"task {task}"))
    results = []
    for task in range(count):
        if task not in outcomes:  # taken by a worker that failed before it reported
            raise lost[0]
        ok, value = outcomes[task]
        if not ok:
            raise value
        results.append(value)
    return results


def _take_tasks(fn, read_fd: int, span: int, count: int) -> list:
    """``(task, (True, result))`` or ``(task, (False, exception))`` for every
    task taken from the pipe, until it is empty."""
    outcomes = []
    while record := os.read(read_fd, _RECORD_BYTES):
        start = int.from_bytes(record, "little")
        for task in range(start, min(start + span, count)):
            try:
                outcomes.append((task, (True, fn(task))))
            except Exception as exc:
                outcomes.append((task, (False, exc)))
    return outcomes


def _worker_tasks(fn, read_fd: int, span: int, count: int) -> bytes:
    """``_take_tasks`` in a worker, pickled, each exception as its ``_exception_record``."""
    outcomes = _take_tasks(fn, read_fd, span, count)
    return pickle.dumps(
        [(task, outcome if outcome[0] else (False, _exception_record(outcome[1]))) for task, outcome in outcomes]
    )


def _report(finish):
    """A worker's unpickled outcomes, or the exception that took their place."""
    data = bytearray()
    exc = finish(data.extend)
    return pickle.loads(data) if exc is None else exc
