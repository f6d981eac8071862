"""The benchmark's workloads: input generation, the timed job, output checks.

A job repeats what ``vlqc analyze --out`` followed by ``vlqc simulate`` do,
through the package's public functions: ensemble text -> parse -> codebook ->
report -> report document bytes, then session -> lossless check ->
transcript bytes. Serialized output stays in memory; writing it to disk
would add file-system noise the program does not control. The
``verify_suite`` job also runs ``vlqc verify``.

Inputs are drawn with the benchmark's own generator and serialized by the
benchmark, never by vlqc, so a change to the package cannot change them.

When tracing, each pipeline call sits in a span named ``<module>.<function>``.
After the pipeline, a traced job also times some of the calls those
functions make internally (``select_independent``, ``gram_schmidt``,
``alice_send``, ...) by calling them again on the same inputs, in spans
marked ``extra``; self times are then computed by subtraction.
"""

from __future__ import annotations

import hashlib
import json
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from vlqc import verify
from vlqc.cli import report_document
from vlqc.codec import build_codebook, decode, density_matrix, encode, select_independent
from vlqc.ensemble_io import ensemble_hash, parse_ensemble
from vlqc.linalg import gram_schmidt, hermitian_eigenvalues
from vlqc.metrics import compile_report, von_neumann_entropy
from vlqc.protocol import (
    alice_send,
    bob_receive,
    replay_decode,
    run_session,
    transcript_lines,
    verify_lossless,
)
from vlqc.reference_example import REFERENCE_K, golden_rows, reference_ensemble
from vlqc.sidechannel import build_huffman, decode_lengths, length_distribution

VERIFY_TOL = 1e-9
# `vlqc verify --ensemble` keeps the CLI's default trial count, which fixes
# the seeds run_all derives for its one subject.
CLI_VERIFY_TRIALS = 100
SESSION_SEED_SALT = 0x5EED

# The built-in ten-message reference ensemble (d = 4, k = 2), as integer
# amplitude vectors that the file format normalizes on load.
REFERENCE_VECTORS = {
    "a": (1, 1, 1, 1),
    "b": (1, 2, 1, 1),
    "c": (1, 3, 1, 1),
    "d": (1, 4, 1, 1),
    "e": (1, 0, 1, 0),
    "f": (2, 0, 1, 0),
    "g": (3, 0, 1, 0),
    "h": (0, 1, 0, 1),
    "i": (0, 2, 0, 1),
    "j": (0, 3, 0, 1),
}
REFERENCE_PROBABILITIES = {"a": 0.6, "b": 0.1, "c": 0.1, "d": 0.1}
RARE_PROBABILITY = 1 / 60


@dataclass(frozen=True)
class Sizes:
    """Input sizes of one workload. ``d``/``m`` are None for fixed or drawn ensembles."""

    d: int | None
    m: int | None
    k: int | None
    n: int
    batch: int = 1
    verify_trials: int | None = None


SIZES = {
    "wide_ensemble": Sizes(d=384, m=576, k=2, n=200),
    "reference_session": Sizes(d=4, m=10, k=2, n=100_000),
    "verify_suite": Sizes(d=None, m=None, k=None, n=64, batch=100, verify_trials=300),
}
SMOKE_SIZES = {
    "wide_ensemble": Sizes(d=24, m=36, k=2, n=50),
    "reference_session": Sizes(d=4, m=10, k=2, n=2_000),
    "verify_suite": Sizes(d=None, m=None, k=None, n=64, batch=5, verify_trials=10),
}


@dataclass(frozen=True)
class Unit:
    """One ensemble document that a job analyzes and simulates."""

    text: str
    n: int
    seed: int


@dataclass(frozen=True)
class Inputs:
    workload: str
    seed: int
    units: tuple[Unit, ...]
    verify_trials: int | None


def _ensemble_text(k: int, d: int, messages) -> str:
    doc = {
        "k": k,
        "ambientDim": d,
        "normalize": True,
        "messages": [{"id": i, "p": p, "amps": amps} for i, p, amps in messages],
    }
    return json.dumps(doc)


def _random_ensemble_text(rng, d: int, m: int, k: int) -> str:
    probs = rng.random(m) + 0.05
    probs /= probs.sum()
    amps = rng.normal(size=(m, d, 2))
    return _ensemble_text(k, d, ((f"m{i}", float(probs[i]), amps[i].tolist()) for i in range(m)))


def reference_text() -> str:
    return _ensemble_text(
        REFERENCE_K,
        4,
        (
            (name, REFERENCE_PROBABILITIES.get(name, RARE_PROBABILITY), [[x, 0] for x in vec])
            for name, vec in REFERENCE_VECTORS.items()
        ),
    )


def generate(workload: str, seed: int, sizes: Sizes) -> Inputs:
    """The workload's inputs; the same seed always gives the same inputs."""
    rng = np.random.default_rng(seed)
    if workload == "wide_ensemble":
        units = (Unit(_random_ensemble_text(rng, sizes.d, sizes.m, sizes.k), sizes.n, seed),)
    elif workload == "reference_session":
        units = (Unit(reference_text(), sizes.n, seed),)
    elif workload == "verify_suite":
        # the size mix run_all draws: d in 2..6, 3..12 messages, k = 2 twice as often as 3
        units = tuple(
            Unit(
                _random_ensemble_text(
                    rng, int(rng.integers(2, 7)), int(rng.integers(3, 13)), int(rng.choice([2, 2, 3]))
                ),
                sizes.n,
                seed + i,
            )
            for i in range(sizes.batch)
        )
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return Inputs(workload, seed, units, sizes.verify_trials)


# ---------------------------------------------------------------------------
# the timed job


@dataclass
class UnitOutput:
    efile: object = None
    codebook: object = None
    report: object = None
    report_bytes: bytes = b""
    transcript: object = None
    lossless: bool = False
    transcript_bytes: bytes = b""


@dataclass
class JobOutput:
    job_s: float = 0.0
    analyze_s: float = 0.0
    simulate_s: float = 0.0
    properties: list = field(default_factory=list)
    units: list[UnitOutput] = field(default_factory=list)
    error: str | None = None


def analyze(text: str, out: UnitOutput, span) -> None:
    """``vlqc analyze --out``: ensemble text to report document bytes."""
    with span("ensemble_io.parse_ensemble"):
        out.efile = parse_ensemble(text)
    ensemble = out.efile.ensemble
    with span("codec.build_codebook"):
        out.codebook = build_codebook(ensemble, k=out.efile.k)
    with span("metrics.compile_report"):
        out.report = compile_report(ensemble, out.codebook)
    with span("cli.report_document"):
        doc = report_document(ensemble, out.codebook, out.report)
        out.report_bytes = (json.dumps(doc, indent=2, sort_keys=True) + "\n").encode("utf-8")


def simulate(unit: Unit, out: UnitOutput, span) -> None:
    """``vlqc simulate`` on the analyzed ensemble: session, lossless check, transcript bytes."""
    ensemble = out.efile.ensemble
    with span("protocol.run_session"):
        out.transcript = run_session(ensemble, out.codebook, n=unit.n, seed=unit.seed)
    with span("protocol.verify_lossless"):
        out.lossless = verify_lossless(out.transcript, ensemble)
    with span("protocol.transcript_lines"):
        out.transcript_bytes = ("\n".join(transcript_lines(out.transcript)) + "\n").encode("utf-8")


def run_job(inputs: Inputs, span) -> JobOutput:
    """One job. An exception ends the job, is recorded, and never propagates."""
    job = JobOutput()
    start = time.perf_counter()
    try:
        if inputs.verify_trials is not None:
            with span("verify.run_all"):
                job.properties = verify.run_all(trials=inputs.verify_trials, seed=inputs.seed)
        for unit in inputs.units:
            out = UnitOutput()
            job.units.append(out)
            t0 = time.perf_counter()
            analyze(unit.text, out, span)
            t1 = time.perf_counter()
            job.analyze_s += t1 - t0
            simulate(unit, out, span)
            job.simulate_s += time.perf_counter() - t1
    except Exception as exc:
        job.error = f"{type(exc).__name__}: {exc}"
    job.job_s = time.perf_counter() - start
    return job


# ---------------------------------------------------------------------------
# output checks, outside the timed region


class Checks:
    """Counts output checks; a failed check is recorded and never aborts the run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)


def _digest(chunks) -> str:
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk)
    return h.hexdigest()


def check_job(inputs: Inputs, job: JobOutput, checks: Checks, first: dict, span) -> None:
    """Check a job's outputs; ``first`` holds the first job's digests."""
    checks.check(job.error is None, f"job raised {job.error}")
    if job.error is not None:
        return
    for pos, out in enumerate(job.units):
        where = f"unit {pos}"
        checks.check(out.lossless, f"{where}: verify_lossless is false")
        checks.check(out.report.lower_bound_satisfied, f"{where}: lower bound violated")
        checks.check(out.report.upper_bound_satisfied, f"{where}: upper bound violated")
        records = out.transcript.records
        try:
            table = build_huffman(length_distribution(out.efile.ensemble, out.codebook.base_lengths))
            stream = out.transcript.side_channel_stream()
            with span("sidechannel.decode_lengths", extra=True):
                lengths = decode_lengths(table, stream, len(records))
            ok = lengths == [r.base_length for r in records]
        except ValueError:
            ok = False
        checks.check(ok, f"{where}: side-channel stream does not decode to the base lengths")
    if inputs.workload == "reference_session":
        for row in golden_rows():
            checks.check(row.passed, f"reference value {row.name!r} out of tolerance")
    for result in job.properties:
        checks.check(result.passed, f"property {result.name} failed: {result.detail}")

    digests = {
        "report": _digest(out.report_bytes for out in job.units),
        "transcript": _digest(out.transcript_bytes for out in job.units),
    }
    if job.properties:
        digests["properties"] = _digest(repr(r).encode() for r in job.properties)
    if not first:
        first.update(digests)
        return
    for kind, digest in digests.items():
        checks.check(digest == first.get(kind), f"{kind} bytes differ from the first job's")


# ---------------------------------------------------------------------------
# traced-only decomposition


def _trace_unit(unit: Unit, out: UnitOutput, tracer) -> None:
    span = tracer.span
    ensemble, codebook = out.efile.ensemble, out.codebook
    tracer.count("ensemble_io.input_bytes", len(unit.text.encode("utf-8")))
    tracer.count("cli.report_bytes", len(out.report_bytes))
    tracer.count("protocol.transcript_bytes", len(out.transcript_bytes))
    tracer.count("protocol.records", len(out.transcript.records))
    tracer.count("sidechannel.stream_bits", len(out.transcript.side_channel_stream()))

    with span("codec.select_independent", extra=True):
        kept = select_independent(ensemble)
    tracer.count("codec.kept", len(kept))
    tracer.count("codec.messages", len(ensemble.messages))
    vectors = [m.unit_amps() for m in kept]
    with span("linalg.gram_schmidt", extra=True):
        gram_schmidt(vectors)
    with span("codec.density_matrix", extra=True):
        sigma = density_matrix(ensemble)
    with span("linalg.hermitian_eigenvalues", extra=True):
        hermitian_eigenvalues(sigma.matrix)
    with span("metrics.von_neumann_entropy", extra=True):
        von_neumann_entropy(sigma)
    with span("ensemble_io.ensemble_hash", extra=True):
        ensemble_hash(ensemble)
    with span("sidechannel.build_huffman", extra=True):
        table = build_huffman(length_distribution(ensemble, codebook.base_lengths))

    first_records = {}
    for record in out.transcript.records:
        first_records.setdefault(record.message_id, record)
    tracer.count("protocol.distinct_sent", len(first_records))
    messages = {m.id: m for m in ensemble.messages}
    lines = out.transcript_bytes.decode("utf-8").split("\n")
    for message_id, record in first_records.items():
        msg = messages[message_id]
        with span("protocol.alice_send", extra=True):
            bits, payload = alice_send(codebook, table, msg)
        with span("protocol.bob_receive", extra=True):
            bob_receive(codebook, table, bits, payload)
        with span("codec.encode", extra=True):
            state = encode(codebook, msg.unit_amps())
        with span("codec.decode", extra=True):
            decode(codebook, state)
        record_doc = json.loads(lines[record.index + 1])
        with span("protocol.replay_decode", extra=True):
            replay_decode(codebook, table, record_doc)


def trace_job(inputs: Inputs, job: JobOutput, tracer) -> None:
    """Separately timed calls for a traced job, after its pipeline and checks."""
    for unit, out in zip(inputs.units, job.units):
        try:
            _trace_unit(unit, out, tracer)
        except Exception as exc:
            # a failing span has recorded the error for its layer's count
            print(f"perfbench: traced call failed: {type(exc).__name__}: {exc}", file=sys.stderr)
    if inputs.verify_trials is not None:
        trace_verify_checks(_run_all_subjects(inputs.verify_trials, inputs.seed), tracer)


def _run_all_subjects(trials: int, seed: int):
    """The (ensemble, k, child seed) subjects ``verify.run_all`` draws for this seed.

    This mirrors run_all's own derivation so the separately timed checks run
    on the same subjects as the timed run_all call.
    """
    master = np.random.SeedSequence(seed)
    child_seeds = [int(s.generate_state(1)[0]) for s in master.spawn(trials + 8)]
    subjects = [(reference_ensemble(), REFERENCE_K, child_seeds[0])]
    for t in range(trials):
        rng = np.random.default_rng(child_seeds[t])
        ambient = int(rng.integers(2, 7))
        count = int(rng.integers(3, 13))
        subject = verify.random_ensemble(rng, ambient, count)
        subjects.append((subject, int(rng.choice([2, 2, 3])), child_seeds[t + 1]))
    return subjects


def trace_verify_checks(subjects, tracer) -> None:
    tracer.count("verify.subjects", len(subjects))
    for subject, k, child_seed in subjects:
        try:
            codebook = build_codebook(subject, k=k)
            rng = np.random.default_rng(child_seed ^ SESSION_SEED_SALT)
            with tracer.span("verify.check_codebook_consistency", extra=True):
                verify.check_codebook_consistency(subject, codebook, rng, VERIFY_TOL)
            with tracer.span("verify.check_session", extra=True):
                verify.check_session(subject, codebook, n=64, seed=child_seed, tol=VERIFY_TOL)
        except Exception as exc:
            print(f"perfbench: traced verify check failed: {type(exc).__name__}: {exc}", file=sys.stderr)


def trace_verify_once(inputs: Inputs, checks: Checks, tracer) -> None:
    """``vlqc verify --ensemble`` on a single-ensemble workload, traced once per run."""
    unit = inputs.units[0]
    try:
        efile = parse_ensemble(unit.text)
        with tracer.span("verify.run_all"):
            results = verify.run_all(
                trials=CLI_VERIFY_TRIALS, seed=inputs.seed, ensemble=efile.ensemble, k=efile.k
            )
    except Exception as exc:
        checks.check(False, f"vlqc verify --ensemble raised {type(exc).__name__}: {exc}")
        return
    for result in results:
        checks.check(result.passed, f"property {result.name} failed: {result.detail}")
    child_seed = int(np.random.SeedSequence(inputs.seed).spawn(CLI_VERIFY_TRIALS + 8)[0].generate_state(1)[0])
    trace_verify_checks([(efile.ensemble, efile.k, child_seed)], tracer)
