import gc
import sys

import numpy as np
import pytest

from vlqc.codec import SourceEnsemble, SourceMessage
from vlqc.linalg import DEPENDENCE_TOL, independent_rows
from vlqc.sidechannel import build_huffman
from vlqc.verify import random_unit, random_units_in_span


@pytest.fixture()
def huffman_builds(monkeypatch):
    """The distributions of the Huffman tables built while the test runs:
    ``build_huffman`` is wrapped in every vlqc module that looks it up."""
    calls = []

    def counting(dist):
        calls.append(dist)
        return build_huffman(dist)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "vlqc" and getattr(module, "build_huffman", None) is build_huffman:
            monkeypatch.setattr(module, "build_huffman", counting)
    return calls


@pytest.fixture()
def collections():
    """The generation of each cyclic-collector pass that starts while the test
    runs, counted from a fresh collection so that no pass is already due."""
    started = []

    def hook(phase, info):
        if phase == "start":
            started.append(info["generation"])

    gc.collect()
    gc.callbacks.append(hook)
    yield started
    gc.callbacks.remove(hook)


@pytest.fixture(params=[True, False], ids=["collector-on", "collector-off"])
def collector_enabled(request):
    """Runs the test with the cyclic collector on, then off; turns it back on after."""
    gc.enable() if request.param else gc.disable()
    yield request.param
    gc.enable()


def _span_edge_member(seed: int, visit: str) -> SourceEnsemble:
    """Six random states in C^12 plus x = u + eps * w, all from ``default_rng(seed)``.

    u is a random unit in the span of the first three states (``visit ==
    "early"``) or of all six (``"last"``), w a unit orthogonal to all six, and
    eps = DEPENDENCE_TOL * (1 + delta) with |delta| <= 2e-6. Selection visits x
    fourth or last, so whether it keeps x is decided by rounding alone.
    """
    rng = np.random.default_rng(seed)
    d = 12
    states = [random_unit(rng, d) for _ in range(6)]
    _, span = independent_rows(states)
    (u,) = random_units_in_span(rng, span[:3] if visit == "early" else span, 1)
    w = random_unit(rng, d)
    w -= (span.conj() @ w) @ span
    x = u + DEPENDENCE_TOL * (1 + rng.uniform(-2e-6, 2e-6)) * w / np.linalg.norm(w)
    probs, p_x = ([0.2] * 3 + [0.25 / 3] * 3, 0.15) if visit == "early" else ([0.15] * 6, 0.1)
    messages = [SourceMessage(f"s{i}", v, p) for i, (v, p) in enumerate(zip(states, probs))]
    return SourceEnsemble((*messages, SourceMessage("x", x, p_x)), d)


@pytest.fixture(scope="session")
def span_edge_member():
    """``span_edge_member(seed, visit)``: one member of the span-edge families,
    where x lies within rounding of DEPENDENCE_TOL of the other states' span."""
    return _span_edge_member
