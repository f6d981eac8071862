"""Helpers that several test modules share: CPU-count and fork stand-ins, a
check that no child process is left, and the ensemble hash's oracle."""

import json
import multiprocessing
import os

import numpy as np
import pytest

LINUX = hasattr(os, "sched_getaffinity")


def set_cpus(monkeypatch, cpus: int) -> None:
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)


def assert_no_child_left():
    assert multiprocessing.active_children() == []
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def count_forks(monkeypatch) -> list[int]:
    """Make os.fork record each call and fail, so that the caller falls back to this process."""
    calls = []

    def fork():
        calls.append(1)
        raise OSError("fork refused by the test")

    monkeypatch.setattr(os, "fork", fork)
    return calls


def document_bytes(ensemble) -> bytes:
    """The canonical bytes that ``ensemble_hash`` digests, as the whole-document
    JSON encoding defines them."""
    doc = {
        "ambientDim": ensemble.ambient_dim,
        "messages": [
            {"id": m.id, "p": m.probability, "amps": m.amps.view(np.float64).reshape(-1, 2).tolist()}
            for m in ensemble.messages
        ],
    }
    return json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()
