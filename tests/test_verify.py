"""run_all checks its subjects in forked workers: the same results on any CPU count."""

import multiprocessing
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vlqc import verify, workers
from vlqc.codec import SourceMessage
from vlqc.reference_example import REFERENCE_K, reference_ensemble

SEED = 7
LINUX = hasattr(os, "sched_getaffinity")


def child_seeds(trials: int, seed: int = SEED) -> list[int]:
    return [int(s.generate_state(1)[0]) for s in np.random.SeedSequence(seed).spawn(trials + 8)]


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


def plant(monkeypatch, trials: int, outcomes: dict) -> None:
    """check_session returns or raises outcomes[t] for subject t, and runs as usual for the rest."""
    planted = {child_seeds(trials)[t]: outcome for t, outcome in outcomes.items()}
    real = verify.check_session

    def check_session(ensemble, codebook, n, seed, tol):
        outcome = planted.get(seed)
        if isinstance(outcome, BaseException):
            raise outcome
        if outcome is not None:
            return outcome
        return real(ensemble, codebook, n=n, seed=seed, tol=tol)

    monkeypatch.setattr(verify, "check_session", check_session)


@pytest.mark.parametrize("trials", [0, 1, 40, 100])
def test_results_do_not_depend_on_the_cpu_count(monkeypatch, trials):
    default = verify.run_all(trials=trials, seed=SEED)
    assert_no_child_left()
    set_cpus(monkeypatch, 4)
    four = verify.run_all(trials=trials, seed=SEED)
    assert_no_child_left()
    set_cpus(monkeypatch, 1)
    calls = count_forks(monkeypatch)
    one = verify.run_all(trials=trials, seed=SEED)
    assert calls == []
    assert default == four == one
    assert all(r.passed for r in one)
    assert one[0].detail == f"{trials + 1} ensemble(s) checked"


@pytest.mark.skipif(not LINUX, reason="forking is Linux-only")
@pytest.mark.parametrize("cpus", [2, 3])
def test_one_worker_is_forked_per_other_cpu(monkeypatch, cpus):
    set_cpus(monkeypatch, cpus)
    calls = count_forks(monkeypatch)
    reference = verify.run_all(trials=10, seed=SEED)
    # every fork was refused, so this process took every task instead
    assert len(calls) == cpus - 1
    monkeypatch.undo()
    assert verify.run_all(trials=10, seed=SEED) == reference


@pytest.mark.parametrize("cpus", [None, 1, 4])
def test_planted_failures_keep_their_subject_index_and_detail(monkeypatch, cpus):
    if cpus is not None:
        set_cpus(monkeypatch, cpus)
    plant(
        monkeypatch,
        40,
        {
            3: (False, "planted failure"),
            17: ValueError("planted abort"),
            38: (False, "late planted failure"),
        },
    )
    results = {r.name: r for r in verify.run_all(trials=40, seed=SEED)}
    assert_no_child_left()
    session = results["session-round-trip"]
    assert not session.passed
    assert session.detail == (
        "subject 3: planted failure; subject 17: session aborted: planted abort; "
        "subject 38: late planted failure"
    )
    assert all(r.passed for name, r in results.items() if name != "session-round-trip")


@pytest.mark.parametrize("cpus", [None, 1, 4])
def test_an_exception_in_a_subject_reraises_here(monkeypatch, cpus):
    if cpus is not None:
        set_cpus(monkeypatch, cpus)
    plant(monkeypatch, 40, {12: RuntimeError("planted crash"), 30: KeyError("later crash")})
    with pytest.raises(RuntimeError, match="planted crash") as info:
        verify.run_all(trials=40, seed=SEED)
    assert_no_child_left()
    cause = info.value.__cause__
    if cause is not None:
        # raised in a worker: its traceback comes along as the cause
        assert isinstance(cause, workers.WorkerTraceback)
        assert "planted crash" in str(cause) and "check_subjects" in str(cause)


@pytest.fixture()
def subject_in_a_worker(monkeypatch, alarm):
    """``install(in_worker)`` makes a worker run ``in_worker(*args)`` in place of
    every ``check_subjects`` call it takes, after it tells this process so.
    This process's first subject waits for that word, so some worker takes a
    subject whichever tasks each process happens to take. Two CPUs."""
    set_cpus(monkeypatch, 2)
    parent, (read_fd, write_fd) = os.getpid(), os.pipe()
    real, waited = verify.check_subjects, []

    def install(in_worker):
        def check_subjects(*args):
            if os.getpid() != parent:
                os.write(write_fd, b"!")
                return in_worker(*args)
            if not waited:
                waited.append(os.read(read_fd, 1))
            return real(*args)

        monkeypatch.setattr(verify, "check_subjects", check_subjects)

    try:
        yield install
        os.set_blocking(read_fd, False)
        assert waited or os.read(read_fd, 1) == b"!"
    finally:
        os.close(read_fd)
        os.close(write_fd)


@pytest.mark.skipif(not LINUX, reason="forking is Linux-only")
def test_an_exception_that_cannot_be_pickled_reraises_as_runtime_error(subject_in_a_worker):
    class LocalError(Exception):
        pass

    def crash(*args):
        raise LocalError("local crash")

    subject_in_a_worker(crash)
    with pytest.raises(RuntimeError, match="cannot be rebuilt") as info:
        verify.run_all(trials=10, seed=SEED)
    assert_no_child_left()
    assert "local crash" in str(info.value.__cause__)


@pytest.mark.skipif(not LINUX, reason="forking is Linux-only")
def test_a_worker_that_dies_without_a_result_is_reported(subject_in_a_worker):
    subject_in_a_worker(lambda *args: os._exit(3))
    with pytest.raises(RuntimeError, match="left no result"):
        verify.run_all(trials=10, seed=SEED)
    assert_no_child_left()


def test_one_ensemble_and_no_trials_leave_no_process(monkeypatch):
    # with the five suites, one subject is six tasks, so they may fork
    set_cpus(monkeypatch, 4)
    results = verify.run_all(trials=100, seed=SEED, ensemble=reference_ensemble(), k=REFERENCE_K)
    assert all(r.passed for r in results)
    assert results[0].detail == "1 ensemble(s) checked"
    assert_no_child_left()
    none = verify.run_all(trials=0, seed=SEED)
    assert_no_child_left()
    set_cpus(monkeypatch, 1)
    assert verify.run_all(trials=0, seed=SEED) == none
    assert verify.run_all(trials=100, seed=SEED, ensemble=reference_ensemble(), k=REFERENCE_K) == results


def test_subjects_follow_the_seed_rule(monkeypatch):
    # subject t >= 1 is drawn from child seed t - 1, its consistency draws come
    # from child seed t ^ 0x5EED and its session seed is child seed t; the
    # benchmark's traced checks mirror this rule
    trials = 6
    seeds = child_seeds(trials)
    set_cpus(monkeypatch, 1)
    seen = []
    real_consistency, real_session = verify.check_codebook_consistency, verify.check_session

    def check_codebook_consistency(ensemble, codebook, rng, tol):
        seen.append([rng.bit_generator.state["state"], ensemble, codebook.spec.k])
        return real_consistency(ensemble, codebook, rng, tol)

    def check_session(ensemble, codebook, n, seed, tol):
        seen[-1].append(seed)
        return real_session(ensemble, codebook, n=n, seed=seed, tol=tol)

    monkeypatch.setattr(verify, "check_codebook_consistency", check_codebook_consistency)
    monkeypatch.setattr(verify, "check_session", check_session)
    verify.run_all(trials=trials, seed=SEED)
    assert len(seen) == trials + 1
    for t, (state, ensemble, k, session_seed) in enumerate(seen):
        assert state == np.random.default_rng(seeds[t] ^ 0x5EED).bit_generator.state["state"]
        assert session_seed == seeds[t]
        if t == 0:
            assert ensemble is not None and k == REFERENCE_K
            assert [m.id for m in ensemble.messages] == [m.id for m in reference_ensemble().messages]
            continue
        rng = np.random.default_rng(seeds[t - 1])
        ambient, count = int(rng.integers(2, 7)), int(rng.integers(3, 13))
        expected = verify.random_ensemble(rng, ambient, count)
        assert k == int(rng.choice([2, 2, 3]))
        for got, want in zip(ensemble.messages, expected.messages, strict=True):
            np.testing.assert_array_equal(got.amps, want.amps)
            assert got.probability == want.probability


def test_check_subjects_builds_one_huffman_table_per_subject(huffman_builds):
    seeds = child_seeds(6)
    failures = verify.check_subjects((reference_ensemble(), REFERENCE_K), 0, 6, seeds, 1e-9)
    assert failures == ([], [], [])
    assert len(huffman_builds) == 6


@given(seed=st.integers(0, 2**63 - 1), d=st.integers(1, 8), m=st.integers(1, 12))
@settings(max_examples=200, deadline=None)
def test_random_ensemble_draws_what_one_draw_per_message_drew(seed, d, m):
    got_rng, rng = np.random.default_rng(seed), np.random.default_rng(seed)
    got = verify.random_ensemble(got_rng, d, m)
    # the reference: one real and one imaginary draw per message, each through
    # the public constructor
    probs = rng.random(m) + 0.05
    probs /= probs.sum()
    expected = []
    for i in range(m):
        amps = rng.normal(size=d) + 1j * rng.normal(size=d)
        expected.append(SourceMessage(id=f"m{i}", amps=amps, probability=float(probs[i])))
    assert got.ambient_dim == d
    assert [(g.id, g.probability) for g in got.messages] == [(e.id, e.probability) for e in expected]
    for g, e in zip(got.messages, expected, strict=True):
        assert g.amps.tobytes() == e.amps.tobytes()
        assert g.unit_amps().tobytes() == e.unit_amps().tobytes()
        assert not g.amps.flags.writeable and not g.unit_amps().flags.writeable
    # the subject's k is drawn next, from the same generator state
    assert got_rng.bit_generator.state == rng.bit_generator.state
