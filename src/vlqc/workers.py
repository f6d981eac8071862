"""Forked workers: a function run in a child process, its bytes read back in pieces.

The one fork helper of the package. ``verify.run_all`` checks blocks of
subjects in workers and ``ensemble_io.ensemble_hash`` formats blocks of
messages in them. A bare fork, not a spawned or forkserver worker: those
import numpy and the package again, which costs about as much as the work
they would do, and ``multiprocessing`` itself would add to every command's
start-up and memory. The package starts no thread of its own, and
OpenBLAS, numpy's threaded BLAS, stops its threads before a fork through
its own fork handler, so a child inherits no lock held mid-update.
"""

from __future__ import annotations

import os
import pickle

# The parent reads a worker's bytes in pieces of at most this size, into one
# buffer, so it never holds a whole result; the default pipe holds 64 KiB.
PIECE_BYTES = 1 << 15

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
                import traceback

                try:
                    raised = pickle.dumps(exc)
                except Exception:
                    raised = None
                status, payload = _RAISED, pickle.dumps((traceback.format_exc(), raised))
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
            text, raised = pickle.loads(payload)
        except Exception:  # the child died before it wrote its whole result
            return RuntimeError(f"worker {pid} left no result (wait status {wait_status})")
        try:
            exc = pickle.loads(raised)
        except Exception:
            exc = RuntimeError(f"worker {pid} raised an exception that cannot be rebuilt here")
        exc.__cause__ = WorkerTraceback(text)
        return exc

    return finish


def _run_here(consume, fn, *args):
    """``finish`` for a worker that could not fork: ``fn`` runs in this process."""
    try:
        consume(memoryview(fn(*args)))
    except Exception as exc:
        return exc
    return None


def start_call(fn, *args):
    """``start_worker`` for a ``fn`` that returns any picklable value.

    Returns ``wait()``, which never raises and gives ``(True, result)`` or
    ``(False, exception)``.
    """
    finish = start_worker(_pickled, fn, *args)

    def wait():
        data = bytearray()
        exc = finish(data.extend)
        return (True, pickle.loads(data)) if exc is None else (False, exc)

    return wait


def _pickled(fn, *args) -> bytes:
    return pickle.dumps(fn(*args))
