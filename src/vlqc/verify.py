"""Randomized self-checks: theorems every constructed code must satisfy.

Each check returns a :class:`PropertyResult`; :func:`run_all` drives the whole
suite with per-trial seeds derived deterministically from one master seed, so
a verification run is reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, partial
from itertools import combinations, pairwise

import numpy as np

from .codec import Codebook, DensityMatrix, SourceEnsemble, SourceMessage, build_codebook
from .linalg import as_int
from .metrics import BOUND_TOL, compile_report, no_go_block_code, no_go_universal, dephasing_entropy_check
from .protocol import (
    FIDELITY_ROUNDING_TOL,
    FIDELITY_TOL,
    alice_send_many,
    check_tolerance,
    run_session,
    transcript_lines,
    verify_lossless,
)
from .reference_example import REFERENCE_K, reference_ensemble
from .sidechannel import (
    LengthDistribution,
    build_huffman,
    decode_lengths,
    encode_lengths,
    expected_code_length,
    shannon_entropy,
)
from .workers import run_tasks

DEFAULT_SEED = 20260810
GRID_MAX_SYMBOLS = 5  # the exhaustive Huffman oracle's largest alphabet


@dataclass(frozen=True)
class PropertyResult:
    name: str
    passed: bool
    detail: str


# ---------------------------------------------------------------------------
# deterministic random generators


def random_unit(rng, dim: int) -> np.ndarray:
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return v / np.linalg.norm(v)


def random_unitary(rng, dim: int) -> np.ndarray:
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_ensemble(rng, ambient_dim: int, n_messages: int) -> SourceEnsemble:
    """Random probabilities, then each message's real and imaginary normals in
    turn, drawn in one call: the numbers of one real and one imaginary draw
    per message."""
    probs = rng.random(n_messages) + 0.05
    probs /= probs.sum()
    normals = rng.normal(size=(n_messages, 2, ambient_dim))
    amps = normals[:, 0] + 1j * normals[:, 1]
    with np.errstate(over="ignore"):
        messages = tuple(SourceMessage.of_finite(f"m{i}", amps[i], float(probs[i])) for i in range(n_messages))
    return SourceEnsemble(messages=messages, ambient_dim=ambient_dim)


def near_dependent_ensemble(rng, ambient_dim: int, n_messages: int, eps: float) -> SourceEnsemble:
    """States v0 + eps * v_i clustered around one random unit v0: nearly dependent for small eps."""
    v0 = random_unit(rng, ambient_dim)
    probs = rng.random(n_messages) + 0.05
    probs /= probs.sum()
    messages = []
    for i in range(n_messages):
        amps = v0 + eps * (rng.normal(size=ambient_dim) + 1j * rng.normal(size=ambient_dim))
        messages.append(SourceMessage(id=f"m{i}", amps=amps, probability=float(probs[i])))
    return SourceEnsemble(messages=tuple(messages), ambient_dim=ambient_dim)


def random_density(rng, dim: int) -> DensityMatrix:
    weights = rng.random(dim) + 0.05
    weights /= weights.sum()
    sigma = np.zeros((dim, dim), dtype=complex)
    for w in weights:
        x = random_unit(rng, dim)
        sigma += w * np.outer(x, x.conj())
    return DensityMatrix(sigma)


def random_units_in_span(rng, basis: np.ndarray, count: int) -> np.ndarray:
    """``count`` random unit vectors (rows) in the span of the orthonormal rows of
    ``basis``; each draws its real then its imaginary coefficients, in turn."""
    normals = rng.normal(size=(count, 2, len(basis)))
    v = (normals[:, 0] + 1j * normals[:, 1]) @ basis
    return v / np.linalg.norm(v, axis=1, keepdims=True)


# ---------------------------------------------------------------------------
# exhaustive Huffman oracle on the 0.05 probability grid


@lru_cache(maxsize=None)
def optimal_prefix_mean_twentieths(counts: tuple[int, ...]) -> int:
    """Minimal expected prefix-code length, exhaustively, in integer twentieths.

    ``counts`` are probabilities times 20. Every binary code tree corresponds
    to a sequence of pairwise merges whose accumulated merged mass is the
    expected length, so minimizing over all merge orders is exact.
    """
    if len(counts) <= 1:
        return 0
    best = None
    items = sorted(counts)
    for i, j in combinations(range(len(items)), 2):
        merged = items[i] + items[j]
        rest = tuple(
            sorted([x for pos, x in enumerate(items) if pos not in (i, j)] + [merged])
        )
        cost = merged + optimal_prefix_mean_twentieths(rest)
        if best is None or cost < best:
            best = cost
    return best


def grid_distributions() -> list[tuple[int, ...]]:
    """All probability-count tuples on the 0.05 grid with 2..GRID_MAX_SYMBOLS symbols:
    the compositions of 20, each cut into parts at symbols - 1 of the points 1..19,
    in lexicographic order for each symbol count."""
    return [
        tuple(b - a for a, b in pairwise((0, *cuts, 20)))
        for symbols in range(2, GRID_MAX_SYMBOLS + 1)
        for cuts in combinations(range(1, 20), symbols - 1)
    ]


# ---------------------------------------------------------------------------
# individual checks


def check_codebook_consistency(ensemble: SourceEnsemble, codebook: Codebook, rng, tol: float):
    """Isometry, losslessness, and base-length soundness on one codebook.

    Draws 20 pairs of random unit vectors in the span of the basis and checks, as
    matrix products, that the encoder keeps every inner product among them
    (within ``tol``) and that the decoder returns each one. Both run at code
    width, over the rows of the basis: a codeword is zero past code_dim, and
    the decoder's first code_dim columns are the basis. Then the sender,
    :func:`alice_send_many`, must accept every message of the ensemble: its
    refusal (a state with support past its base length, say) is the failure.
    """
    check_tolerance(tol)
    x = random_units_in_span(rng, codebook.basis, 40)
    encoded = x @ np.conj(codebook.basis).T
    deviation = float(np.max(np.abs(encoded.conj() @ encoded.T - x.conj() @ x.T)))
    if deviation > tol:
        return False, f"isometry violated by {deviation:.3e}"
    fidelity = np.abs(np.sum(x.conj() * (encoded @ codebook.basis), axis=1)) ** 2
    if float(fidelity.min()) < 1.0 - FIDELITY_ROUNDING_TOL:
        return False, f"round-trip fidelity fell below 1 - {FIDELITY_ROUNDING_TOL:g}"
    try:
        alice_send_many(codebook, list(ensemble.messages))
    except ValueError as exc:
        return False, str(exc)
    return True, "ok"


def check_session(ensemble: SourceEnsemble, codebook: Codebook, n: int, seed: int, tol: float):
    """Losslessness, plus accounting recomputed from the codebook and the draws alone.

    The expected per-draw base lengths come from ``codebook.base_lengths``
    and the ensemble indices in ``picks``, not from the transcript's own
    table; the side-channel stream must decode to exactly that sequence.
    """
    transcript = run_session(ensemble, codebook, n=n, seed=seed)
    if not verify_lossless(transcript, ensemble, tol=tol):
        return False, f"lossy record in session with seed {seed}"
    base_lengths = np.array([codebook.base_lengths[m.id] for m in ensemble.messages])
    expected = base_lengths[transcript.picks].tolist()
    if transcript.total_qubits != sum(expected):
        return False, "qubit accounting does not match base lengths"
    if decode_lengths(codebook.table, transcript.side_channel_stream(), transcript.n) != expected:
        return False, "side-channel stream does not decode to the base lengths"
    return True, "ok"


def _result(name: str, failures: list[str], ok_detail: str) -> PropertyResult:
    """Passed iff nothing failed; the detail names up to three failures."""
    if failures:
        return PropertyResult(name, False, "; ".join(failures[:3]))
    return PropertyResult(name, True, ok_detail)


def _random_subject(seed: int) -> tuple[SourceEnsemble, int]:
    """The random ensemble and letter dimension drawn from ``seed``: d in 2..6,
    3..12 messages, k = 2 twice as often as 3."""
    rng = np.random.default_rng(seed)
    ambient = int(rng.integers(2, 7))
    count = int(rng.integers(3, 13))
    return random_ensemble(rng, ambient, count), int(rng.choice([2, 2, 3]))


def check_subject(first, t: int, child_seeds: list[int], tol: float):
    """Check subject ``t`` of a run; returns its codebook, entropy-bound and
    session failure lists.

    Subject 0 is ``first``, an (ensemble, k) pair; subject t >= 1 is the random
    ensemble drawn from ``child_seeds[t - 1]``. Its consistency draws come from
    ``child_seeds[t] ^ 0x5EED`` and its session seed is ``child_seeds[t]``, so
    its checks do not depend on which process runs them.
    """
    subject, subject_k = first if t == 0 else _random_subject(child_seeds[t - 1])
    rng = np.random.default_rng(child_seeds[t] ^ 0x5EED)
    codebook = build_codebook(subject, k=subject_k)
    ok, detail = check_codebook_consistency(subject, codebook, rng, tol)
    if not ok:
        return [f"subject {t}: {detail}"], [], []
    lower_failures: list[str] = []
    if codebook.code_dim > 1:
        report = compile_report(subject, codebook)
        if not report.lower_bound_satisfied:
            lower_failures.append(
                f"subject {t}: Ic+I' = "
                f"{report.avg_base_length_bits + report.side_channel_entropy_bits:.6f} "
                f"< S = {report.von_neumann_entropy_bits:.6f}"
            )
        if not report.upper_bound_satisfied:
            lower_failures.append(f"subject {t}: upper bound violated")
    try:
        ok, detail = check_session(subject, codebook, n=64, seed=child_seeds[t], tol=tol)
    except ValueError as exc:
        ok, detail = False, f"session aborted: {exc}"
    return [], lower_failures, ([] if ok else [f"subject {t}: {detail}"])


def run_all(
    trials: int = 100,
    seed: int = DEFAULT_SEED,
    tol: float = FIDELITY_TOL,
    ensemble: SourceEnsemble | None = None,
    k: int = 2,
) -> list[PropertyResult]:
    """Run every property suite and return one result per property.

    The subjects are the ``ensemble`` given, or else the reference ensemble
    and ``trials`` random ones. The five subject-free suites, the Huffman
    grid first, and then each subject are one task apiece of
    ``workers.run_tasks``: on Linux, with more than one CPU in the affinity
    mask, this process and one forked worker per other CPU each take the
    next task as they become free. The results come back in task order and
    the subjects' failures are merged in subject order, so they are the same
    on any CPU count; an exception in a task re-raises here, the
    lowest-numbered task's. ``trials`` and ``seed`` are integers by
    ``linalg.as_int``, and ``trials`` must be >= 0.
    """
    check_tolerance(tol)
    trials, seed = as_int("trials", trials), as_int("seed", seed)
    if trials < 0:
        raise ValueError(f"trials must be >= 0, got {trials}")
    master = np.random.SeedSequence(seed)
    child_seeds = [int(s.generate_state(1)[0]) for s in master.spawn(trials + 8)]
    if ensemble is not None:
        first, count = (ensemble, k), 1
    else:
        first, count = (reference_ensemble(), REFERENCE_K), trials + 1
    suites = _suites(*first, child_seeds, trials, seed, tol)

    def task(t: int):
        if t < len(suites):
            return suites[t]()
        return check_subject(first, t - len(suites), child_seeds, tol)

    outcomes = run_tasks(task, len(suites) + count)
    scanned, subjects = outcomes[: len(suites)], outcomes[len(suites) :]
    failures, lower_failures, session_failures = (
        [line for subject in subjects for line in subject[i]] for i in range(3)
    )
    checked = f"{count} ensemble(s) checked"
    return [
        _result("codebook-isometry-and-losslessness", failures, checked),
        _result("entropy-lower-bound", lower_failures, checked),
        _result("session-round-trip", session_failures, f"{count} session(s) checked"),
        *scanned,
    ]


def _suites(
    det_subject: SourceEnsemble, det_k: int, child_seeds: list[int], trials: int, seed: int, tol: float
) -> list:
    """The suites that need no random subject, in report order: calls that each
    return one PropertyResult. The Huffman grid, the longest, comes first."""
    return [
        _huffman_suite,
        partial(_stream_suite, child_seeds[trials]),
        _nogo_suite,
        partial(_dephasing_suite, child_seeds[trials + 1], tol),
        partial(_determinism_suite, det_subject, det_k, seed),
    ]


def _huffman_suite() -> PropertyResult:
    """Huffman optimality + Shannon chain on the 0.05 grid; PrefixCodeTable itself
    rejects a table that is not prefix-free, which also rules out breaking Kraft."""
    huffman_failures: list[str] = []
    grid = grid_distributions()
    for counts in grid:
        dist = LengthDistribution({i: c / 20 for i, c in enumerate(counts)})
        table = build_huffman(dist)
        mean = expected_code_length(table, dist)
        optimum = optimal_prefix_mean_twentieths(tuple(sorted(counts))) / 20
        if round(mean * 20) != round(optimum * 20):
            huffman_failures.append(f"counts {counts}: mean {mean} vs optimum {optimum}")
            continue
        entropy = shannon_entropy(dist.probs.values())
        if not (entropy - BOUND_TOL <= mean < entropy + 1.0):
            huffman_failures.append(f"counts {counts}: Shannon chain violated")
    return _result("huffman-optimality-and-admissibility", huffman_failures, f"{len(grid)} grid distributions")


def _stream_suite(stream_seed: int) -> PropertyResult:
    """Length stream round trips on random tables and sequences."""
    stream_failures: list[str] = []
    rng = np.random.default_rng(stream_seed)
    for trial in range(32):
        symbols = int(rng.integers(1, 9))
        probs = rng.random(symbols) + 0.05
        probs /= probs.sum()
        dist = LengthDistribution({i: float(p) for i, p in enumerate(probs)})
        table = build_huffman(dist)
        seq = [int(x) for x in rng.integers(0, symbols, size=int(rng.integers(0, 200)))]
        stream = encode_lengths(table, seq)
        if decode_lengths(table, stream, len(seq)) != seq:
            stream_failures.append(f"trial {trial}: round trip mismatch")
    return _result("length-stream-round-trip", stream_failures, "32 random tables")


def _nogo_suite() -> PropertyResult:
    """No-go scans by exact counting."""
    nogo_failures: list[str] = []
    for dim_v in range(1, 65):
        for scan_k in range(2, 5):
            for n in range(0, 7):
                verdict = no_go_block_code(dim_v, scan_k, n)
                if verdict.feasible and verdict.compressive:
                    nogo_failures.append(f"block code ({dim_v}, {scan_k}, {n}) compressive")
    for scan_k in range(2, 5):
        for r in range(1, 11):
            for s in range(0, r):
                verdict = no_go_universal(scan_k, r, s)
                if verdict.block_to_variable_feasible or verdict.variable_to_variable_feasible:
                    nogo_failures.append(f"universal ({scan_k}, {r}, {s}) feasible")
    return _result("no-go-scans", nogo_failures, "exact integer scans")


def _dephasing_suite(dephasing_seed: int, tol: float) -> PropertyResult:
    """Dephasing never lowers entropy."""
    dephasing_failures: list[str] = []
    rng = np.random.default_rng(dephasing_seed)
    for trial in range(100):
        dim = int(rng.integers(2, 7))
        sigma = random_density(rng, dim)
        basis = list(random_unitary(rng, dim).T)
        if not dephasing_entropy_check(sigma, basis, tol=tol):
            dephasing_failures.append(f"trial {trial}: entropy decreased")
    return _result("dephasing-entropy-nondecrease", dephasing_failures, "100 random pairs")


def _determinism_suite(det_subject: SourceEnsemble, det_k: int, seed: int) -> PropertyResult:
    """Identical seeds give byte-identical transcripts."""
    try:
        det_codebook = build_codebook(det_subject, k=det_k)
        first = transcript_lines(run_session(det_subject, det_codebook, n=200, seed=seed))
        second = transcript_lines(run_session(det_subject, det_codebook, n=200, seed=seed))
        det_ok = first == second
        det_detail = "200-message session replayed identically" if det_ok else "transcripts differ"
    except ValueError as exc:
        det_ok, det_detail = False, f"session aborted: {exc}"
    return PropertyResult("transcript-determinism", det_ok, det_detail)
