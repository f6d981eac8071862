"""Command-line front door: analyze, simulate, verify, example.

Exit codes are the machine-readable contract: 0 success, 1 property or
reference-value failure, 2 unreadable/malformed ensemble file, 3 degenerate
ensemble, 4 output write failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .codec import Codebook, SourceEnsemble, build_codebook
from .ensemble_io import EnsembleFormatError, load_ensemble
from .linalg import complex_pairs
from .metrics import CompressionReport, compile_report
from .protocol import FIDELITY_TOL, check_tolerance, run_session, verify_lossless, write_transcript
from .reference_example import REFERENCE_K, golden_rows, reference_ensemble
from .sidechannel import build_huffman, length_distribution
from .verify import DEFAULT_SEED, run_all

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_PARSE = 2
EXIT_DEGENERATE = 3
EXIT_WRITE = 4


def _int_at_least(minimum: int):
    """argparse type: an integer no smaller than ``minimum``."""

    def parse(text: str) -> int:
        value = int(text)
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be >= {minimum}, got {value}")
        return value

    parse.__name__ = "integer"  # argparse names the type in its "invalid ... value" message
    return parse


def _tolerance(text: str) -> float:
    """argparse type: a tolerance that ``check_tolerance`` accepts."""
    value = float(text)
    try:
        return check_tolerance(value)
    except ValueError:
        raise argparse.ArgumentTypeError(f"must be finite, >= 0 and < 1, got {text}") from None


_tolerance.__name__ = "float"


def report_document(ensemble: SourceEnsemble, codebook: Codebook, report: CompressionReport) -> dict:
    """The full analyze document: report, codebook summary, side-channel table.

    The codebook section carries the basis but not the encoder or decoder,
    which :class:`vlqc.codec.Codebook` derives from it bit-exactly.
    """
    dist = length_distribution(ensemble, codebook.base_lengths)
    table = build_huffman(dist)
    return {
        "report": report.as_dict(),
        "codebook": {
            "k": codebook.spec.k,
            "r": codebook.spec.r,
            "ambientDim": codebook.ambient_dim,
            "codeDim": codebook.code_dim,
            "codeLengths": list(codebook.code_lengths),
            "baseLengths": dict(codebook.base_lengths),
            "basis": complex_pairs(codebook.basis),
        },
        "sidechannel": {
            "lengthProbabilities": {str(l): p for l, p in sorted(dist.probs.items())},
            "huffman": {str(l): w for l, w in sorted(table.codewords.items())},
        },
    }


def _write_json(doc: dict, path) -> None:
    Path(path).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _print_report(report: CompressionReport) -> None:
    rows = [
        ("shannon entropy H (bits)", f"{report.shannon_entropy_bits:.9g}"),
        ("von Neumann entropy S (bits)", f"{report.von_neumann_entropy_bits:.9g}"),
        ("raw classical information (bits)", f"{report.raw_classical_bits:.9g}"),
        ("raw quantum information (bits)", f"{report.raw_quantum_bits:.9g}"),
        ("mean base length (bits)", f"{report.avg_base_length_bits:.9g}"),
        ("side-channel entropy I' (bits)", f"{report.side_channel_entropy_bits:.9g}"),
        ("huffman mean L' (bits)", f"{report.huffman_mean_bits:.9g}"),
        ("quantum-channel rate", f"{report.rate_quantum:.9g}"),
        ("total rate", f"{report.rate_total:.9g}"),
        ("effective rate", f"{report.rate_effective:.9g}"),
        ("huffman Kraft sum", f"{report.huffman_kraft_sum:.9g}"),
        ("quantum Kraft trace", f"{report.quantum_kraft_trace:.9g}"),
        ("quantum Kraft within 1", "yes" if report.quantum_kraft_within_bound else "no"),
        ("lower bound Ic+I' >= S", "yes" if report.lower_bound_satisfied else "NO"),
        ("upper bound", "yes" if report.upper_bound_satisfied else "NO"),
    ]
    width = max(len(label) for label, _ in rows)
    for label, value in rows:
        print(f"{label:<{width}}  {value}")


def _load(path: str):
    try:
        return load_ensemble(path), None
    except (EnsembleFormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return None, EXIT_PARSE


def _cmd_analyze(args) -> int:
    efile, code = _load(args.ensemble)
    if efile is None:
        return code
    try:
        codebook = build_codebook(efile.ensemble, k=efile.k)
        report = compile_report(efile.ensemble, codebook)
    except ValueError as exc:
        print(f"error: degenerate ensemble: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE
    _print_report(report)
    if args.out:
        try:
            _write_json(report_document(efile.ensemble, codebook, report), args.out)
        except OSError as exc:
            print(f"error: cannot write report: {exc}", file=sys.stderr)
            return EXIT_WRITE
    return EXIT_OK


def _cmd_simulate(args) -> int:
    efile, code = _load(args.ensemble)
    if efile is None:
        return code
    try:
        codebook = build_codebook(efile.ensemble, k=efile.k)
        transcript = run_session(efile.ensemble, codebook, n=args.n, seed=args.seed)
    except ValueError as exc:
        print(f"error: degenerate ensemble: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE
    try:
        write_transcript(transcript, args.out)
    except OSError as exc:
        print(f"error: cannot write transcript: {exc}", file=sys.stderr)
        return EXIT_WRITE
    n = transcript.n
    print(f"messages        {n}")
    print(f"quantum digits  {transcript.total_qubits} ({transcript.total_qubits / n:.4f} per message)")
    print(
        f"classical bits  {transcript.total_classical_bits}"
        f" ({transcript.total_classical_bits / n:.4f} per message)"
    )
    print(f"mean fidelity   {transcript.mean_fidelity:.12f}")
    lossless = verify_lossless(transcript, efile.ensemble, tol=args.tol)
    print(f"lossless        {'yes' if lossless else 'NO'}")
    return EXIT_OK if lossless else EXIT_FAILURE


def _cmd_verify(args) -> int:
    ensemble = None
    k = 2
    if args.ensemble:
        efile, code = _load(args.ensemble)
        if efile is None:
            return code
        ensemble, k = efile.ensemble, efile.k
    results = run_all(trials=args.trials, seed=args.seed, tol=args.tol, ensemble=ensemble, k=k)
    for result in results:
        status = "PASS" if result.passed else "FAIL"
        print(f"{status}  {result.name}: {result.detail}")
    return EXIT_OK if all(r.passed for r in results) else EXIT_FAILURE


def _cmd_example(args) -> int:
    rows = golden_rows()
    name_width = max(len(r.name) for r in rows)
    print(f"{'quantity':<{name_width}}  {'expected':>13}  {'computed':>13}  {'|diff|':>10}  status")
    for row in rows:
        status = "ok" if row.passed else "MISMATCH"
        print(
            f"{row.name:<{name_width}}  {row.expected:>13.9g}  {row.actual:>13.9g}"
            f"  {row.difference:>10.3e}  {status}"
        )
    passed = sum(r.passed for r in rows)
    print(f"\n{passed}/{len(rows)} comparisons within tolerance")
    if args.out:
        ensemble = reference_ensemble()
        codebook = build_codebook(ensemble, k=REFERENCE_K)
        try:
            _write_json(report_document(ensemble, codebook, compile_report(ensemble, codebook)), args.out)
        except OSError as exc:
            print(f"error: cannot write report: {exc}", file=sys.stderr)
            return EXIT_WRITE
    return EXIT_OK if passed == len(rows) else EXIT_FAILURE


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vlqc",
        description="Lossless variable-length quantum coding: build codes, simulate the protocol, check the theory.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    analyze = sub.add_parser(
        "analyze", help="build the code for an ensemble file and report every information measure"
    )
    analyze.add_argument("--ensemble", required=True, metavar="PATH", help="ensemble JSON file")
    analyze.add_argument("--out", metavar="PATH", help="write the full report document as JSON")
    analyze.set_defaults(func=_cmd_analyze)

    simulate = sub.add_parser(
        "simulate", help="run a seeded transmission session and write its transcript"
    )
    simulate.add_argument("--ensemble", required=True, metavar="PATH", help="ensemble JSON file")
    simulate.add_argument("--n", required=True, type=_int_at_least(1), metavar="COUNT", help="messages to send")
    simulate.add_argument("--seed", required=True, type=_int_at_least(0), metavar="INT", help="sampling seed")
    simulate.add_argument("--out", required=True, metavar="PATH", help="transcript file to write")
    simulate.add_argument("--tol", type=_tolerance, default=FIDELITY_TOL, metavar="FLOAT", help="fidelity tolerance")
    simulate.set_defaults(func=_cmd_simulate)

    verify = sub.add_parser(
        "verify", help="run the property suites on random ensembles (or one ensemble file)"
    )
    verify.add_argument("--ensemble", metavar="PATH", help="check this ensemble instead of random ones")
    verify.add_argument("--trials", type=_int_at_least(0), default=100, metavar="INT", help="random ensembles to draw")
    verify.add_argument("--seed", type=_int_at_least(0), default=DEFAULT_SEED, metavar="INT", help="master seed")
    verify.add_argument("--tol", type=_tolerance, default=FIDELITY_TOL, metavar="FLOAT", help="numeric tolerance")
    verify.set_defaults(func=_cmd_verify)

    example = sub.add_parser(
        "example",
        help="rebuild the built-in reference ensemble and compare against frozen expected values",
        description=(
            "Builds the ten-message reference ensemble end to end and compares every derived "
            "quantity against its frozen six-significant-digit expected value. Amplitude vectors "
            "are stored as integers and unit-normalized on load; the six rare messages carry "
            "probability 1/60 each (the unique uniform choice summing to 1); the decoder is the "
            "conjugate transpose of the encoder."
        ),
    )
    example.add_argument("--out", metavar="PATH", help="also write the full report document as JSON")
    example.set_defaults(func=_cmd_example)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
