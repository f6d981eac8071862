import gc
import hashlib
import json

import pytest

import numpy as np

from support import register_encoder
from vlqc.cli import main, report_document
from vlqc.codec import build_codebook
from vlqc.ensemble_io import dump_ensemble, load_ensemble
from vlqc.metrics import compile_report
from vlqc.protocol import run_session, transcript_lines
from vlqc.reference_example import REFERENCE_K, reference_ensemble
from vlqc.verify import random_ensemble


@pytest.fixture()
def ensemble_path(tmp_path):
    path = tmp_path / "reference.json"
    dump_ensemble(reference_ensemble(), REFERENCE_K, path)
    return path


def test_analyze_prints_report_and_exits_zero(ensemble_path, capsys):
    assert main(["analyze", "--ensemble", str(ensemble_path)]) == 0
    out = capsys.readouterr().out
    assert "0.571240997" in out
    assert "2.02944684" in out


def test_analyze_writes_report_document(ensemble_path, tmp_path, capsys):
    out_path = tmp_path / "report.json"
    assert main(["analyze", "--ensemble", str(ensemble_path), "--out", str(out_path)]) == 0
    doc = json.loads(out_path.read_text())
    assert doc["report"]["rateQuantum"] == 0.25
    assert doc["codebook"]["codeLengths"] == [0, 1, 2, 2]
    assert doc["codebook"]["baseLengths"]["a"] == 0
    assert doc["sidechannel"]["lengthProbabilities"]["0"] == pytest.approx(0.6, abs=1e-12)
    # every report number is recomputable and the document parses losslessly
    round_tripped = json.loads(json.dumps(doc))
    assert round_tripped == doc
    capsys.readouterr()


def test_analyze_is_byte_idempotent(ensemble_path, tmp_path, capsys):
    first = tmp_path / "r1.json"
    second = tmp_path / "r2.json"
    assert main(["analyze", "--ensemble", str(ensemble_path), "--out", str(first)]) == 0
    assert main(["analyze", "--ensemble", str(ensemble_path), "--out", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()
    capsys.readouterr()


def test_analyze_malformed_file_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"k": 2, "ambientDim": oops}')
    assert main(["analyze", "--ensemble", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "line" in err and "column" in err


def test_analyze_malformed_file_leaves_the_collector_as_it_was(ensemble_path, tmp_path, capsys, collector_enabled):
    doc = json.loads(ensemble_path.read_text())
    doc["messages"][1]["amps"][0] = [1, "x"]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert main(["analyze", "--ensemble", str(bad)]) == 2
    assert "messages[1].amps[0]" in capsys.readouterr().err
    assert gc.isenabled() is collector_enabled


@pytest.mark.parametrize(
    "mutate",
    [
        lambda d: d["messages"][0]["amps"][0].__setitem__(0, float("nan")),
        lambda d: d["messages"][0].__setitem__("p", float("inf")),
        lambda d: d.__setitem__("normalize", "false"),
        lambda d: d.__setitem__("k", 37),
        lambda d: d.__setitem__("k", 40),
    ],
)
def test_analyze_bad_values_exit_2(ensemble_path, tmp_path, capsys, mutate):
    doc = json.loads(ensemble_path.read_text())
    mutate(doc)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))  # writes NaN/Infinity literals
    assert main(["analyze", "--ensemble", str(bad)]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "data",
    [
        b'\xff\xfe{"k": 2}',  # not UTF-8
        b"[" * 200_000,  # nested deeper than the JSON decoder recurses
        b'{"k": ' + b"1" * 5000 + b"}",  # integer beyond the int-conversion digit limit
    ],
    ids=["non-utf8", "deep-nesting", "huge-integer"],
)
def test_analyze_unreadable_text_exits_2(tmp_path, capsys, data):
    bad = tmp_path / "bad.json"
    bad.write_bytes(data)
    assert main(["analyze", "--ensemble", str(bad)]) == 2
    assert "error:" in capsys.readouterr().err


CODEBOOK_KEYS = {"k", "r", "ambientDim", "codeDim", "codeLengths", "baseLengths", "basis"}
# sha256 of this document as written while it still held encoder and decoder, with those two
# keys deleted: every kept field must serialize exactly as it did then
PINNED_DOC_SHA256 = "2151f93d0231860d0c1a511fe773ae817f455fcb6823593181b9150fca359937"


def _document_bytes(doc):
    return (json.dumps(doc, indent=2, sort_keys=True) + "\n").encode("utf-8")


def test_report_document_bytes_match_per_element_conversion():
    ensemble = random_ensemble(np.random.default_rng(5), 6, 9)
    codebook = build_codebook(ensemble, k=3)  # code_dim 6 in a 3^2 register: 3 zero rows
    doc = report_document(ensemble, codebook, compile_report(ensemble, codebook))

    def pairs(vec):
        return [[float(a.real), float(a.imag)] for a in vec]

    expected = json.loads(json.dumps(doc))
    expected["codebook"]["basis"] = [pairs(w) for w in codebook.basis]
    assert json.dumps(doc, indent=2, sort_keys=True) == json.dumps(expected, indent=2, sort_keys=True)
    assert set(doc["codebook"]) == CODEBOOK_KEYS
    assert hashlib.sha256(_document_bytes(doc)).hexdigest() == PINNED_DOC_SHA256


def _rebuild_encoder_decoder(codebook_doc):
    basis = np.array([[complex(re, im) for re, im in row] for row in codebook_doc["basis"]])
    encoder = np.zeros((codebook_doc["k"] ** codebook_doc["r"], codebook_doc["ambientDim"]), dtype=complex)
    encoder[: codebook_doc["codeDim"]] = np.conj(basis)
    return encoder, encoder.conj().T


def _assert_bit_exact(rebuilt, expected):
    assert rebuilt.shape == expected.shape
    assert np.array_equal(rebuilt, expected)
    assert np.array_equal(np.signbit(rebuilt.real), np.signbit(expected.real))
    assert np.array_equal(np.signbit(rebuilt.imag), np.signbit(expected.imag))


def _analyze_to_file(tmp_path, source):
    """Run ``vlqc analyze --out`` (or ``vlqc example --out``); return the in-memory
    ensemble and codebook the command built, and the written report path."""
    out_path = tmp_path / "report.json"
    if source == "example":
        ensemble = reference_ensemble()
        codebook = build_codebook(ensemble, k=REFERENCE_K)
        assert main(["example", "--out", str(out_path)]) == 0
        return ensemble, codebook, out_path
    if source == "reference":
        ensemble, k = reference_ensemble(), REFERENCE_K
    else:
        ensemble, k = random_ensemble(np.random.default_rng(5), 6, 9), 3
    ensemble_path = tmp_path / "ensemble.json"
    dump_ensemble(ensemble, k, ensemble_path)
    loaded = load_ensemble(ensemble_path)
    assert main(["analyze", "--ensemble", str(ensemble_path), "--out", str(out_path)]) == 0
    return loaded.ensemble, build_codebook(loaded.ensemble, k=loaded.k), out_path


@pytest.mark.parametrize("source", ["reference", "padded-random", "example"])
def test_written_report_rebuilds_encoder_and_decoder_bit_exactly(tmp_path, capsys, source):
    _, codebook, out_path = _analyze_to_file(tmp_path, source)
    capsys.readouterr()
    doc = json.loads(out_path.read_text(encoding="utf-8"))
    assert set(doc["codebook"]) == CODEBOOK_KEYS
    encoder, decoder = _rebuild_encoder_decoder(doc["codebook"])
    _assert_bit_exact(encoder, register_encoder(codebook))
    _assert_bit_exact(decoder, codebook.decoder)


@pytest.mark.parametrize("source", ["reference", "padded-random", "example"])
def test_report_file_bytes_are_the_benchmarked_serialization(tmp_path, capsys, source):
    """The CLI writes exactly the bytes the benchmark's analyze job builds and times."""
    ensemble, codebook, out_path = _analyze_to_file(tmp_path, source)
    capsys.readouterr()
    doc = report_document(ensemble, codebook, compile_report(ensemble, codebook))
    assert out_path.read_bytes() == _document_bytes(doc)


def _tiny_ensemble_text(seed: int, d: int, m: int, k: int) -> str:
    """An ensemble file as the benchmark's verify_suite writes one: normal
    [re, im] floats, normalized on load, and float probabilities."""
    rng = np.random.default_rng(seed)
    probs = rng.random(m) + 0.05
    probs /= probs.sum()
    amps = rng.normal(size=(m, d, 2))
    messages = [{"id": f"m{i}", "p": float(probs[i]), "amps": amps[i].tolist()} for i in range(m)]
    return json.dumps({"k": k, "ambientDim": d, "normalize": True, "messages": messages})


# (seed, d, m, k, sha256 of the analyze --out report, sha256 of the n = 64
# transcript), taken while each message was parsed and normalized on its own
TINY_PINS = [
    (
        11, 2, 5, 2,
        "e8ab10faf3e54ee8f42d3201343d2da29a365c7f5af7f6c3c2ede76ea3d79f60",
        "6c5aff045d7c1534ab92a7d19dde57821753934e109aa8b0fcd7d9ae2be5d8f9",
    ),
    (
        12, 4, 9, 3,
        "34969a6b0706b74178921462decb368fcbc1c03d73625ed41a139ed6478d9726",
        "1287144a1b8ce3e5fb40380ea08f641e5c25a4a2a55b77ec48e50b22ebe8c3b9",
    ),
    (
        13, 6, 12, 2,
        "79f0375a56e1dfab5b28bae9d26030d2d82d3d4ea0a20090d062a684232f232a",
        "350512b658b60e0d105dda9a5346ab49764fda1741a9b7bbc26d8ee487889f7b",
    ),
]


@pytest.mark.parametrize("seed, d, m, k, report_digest, transcript_digest", TINY_PINS, ids=["d2-k2", "d4-k3", "d6-k2"])
def test_tiny_ensemble_outputs_are_pinned(tmp_path, capsys, seed, d, m, k, report_digest, transcript_digest):
    path, report, transcript = tmp_path / "ensemble.json", tmp_path / "report.json", tmp_path / "transcript.jsonl"
    path.write_text(_tiny_ensemble_text(seed, d, m, k), encoding="utf-8")
    assert main(["analyze", "--ensemble", str(path), "--out", str(report)]) == 0
    assert main(["simulate", "--ensemble", str(path), "--n", "64", "--seed", str(seed), "--out", str(transcript)]) == 0
    capsys.readouterr()
    assert hashlib.sha256(report.read_bytes()).hexdigest() == report_digest
    efile = load_ensemble(path)
    session = run_session(efile.ensemble, build_codebook(efile.ensemble, k=efile.k), n=64, seed=seed)
    lines = ("\n".join(transcript_lines(session)) + "\n").encode("utf-8")
    assert lines == transcript.read_bytes()
    assert hashlib.sha256(lines).hexdigest() == transcript_digest


def test_analyze_missing_file_exits_2(tmp_path, capsys):
    assert main(["analyze", "--ensemble", str(tmp_path / "nope.json")]) == 2
    capsys.readouterr()


def test_analyze_degenerate_ensemble_exits_3(tmp_path, capsys):
    path = tmp_path / "degenerate.json"
    path.write_text(
        json.dumps(
            {
                "k": 2,
                "ambientDim": 2,
                "messages": [
                    {"id": "x", "p": 0.5, "amps": [[1, 0], [1, 0]]},
                    {"id": "y", "p": 0.5, "amps": [[2, 0], [2, 0]]},
                ],
            }
        )
    )
    assert main(["analyze", "--ensemble", str(path)]) == 3
    err = capsys.readouterr().err
    assert "degenerate ensemble: source space of dimension < 2, so compression rates are undefined" in err


def test_simulate_writes_transcript_and_reports_totals(ensemble_path, tmp_path, capsys):
    transcript = tmp_path / "t.jsonl"
    code = main(
        [
            "simulate",
            "--ensemble",
            str(ensemble_path),
            "--n",
            "200",
            "--seed",
            "6",
            "--out",
            str(transcript),
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "lossless        yes" in out
    lines = transcript.read_text().splitlines()
    header = json.loads(lines[0])
    assert header["n"] == 200 and header["seed"] == 6
    assert len(lines) == 201


def test_simulate_single_message(ensemble_path, tmp_path, capsys):
    transcript = tmp_path / "one.jsonl"
    assert (
        main(
            [
                "simulate",
                "--ensemble",
                str(ensemble_path),
                "--n",
                "1",
                "--seed",
                "0",
                "--out",
                str(transcript),
            ]
        )
        == 0
    )
    record = json.loads(transcript.read_text().splitlines()[1])
    assert record["fidelity"] >= 1 - 1e-9
    capsys.readouterr()


def test_simulate_identical_invocations_byte_identical(ensemble_path, tmp_path, capsys):
    a = tmp_path / "a.jsonl"
    b = tmp_path / "b.jsonl"
    for out in (a, b):
        assert (
            main(
                [
                    "simulate",
                    "--ensemble",
                    str(ensemble_path),
                    "--n",
                    "500",
                    "--seed",
                    "99",
                    "--out",
                    str(out),
                ]
            )
            == 0
        )
    assert a.read_bytes() == b.read_bytes()
    capsys.readouterr()


def test_simulate_unwritable_output_exits_4(ensemble_path, tmp_path, capsys):
    missing_dir = tmp_path / "not" / "there" / "t.jsonl"
    code = main(
        [
            "simulate",
            "--ensemble",
            str(ensemble_path),
            "--n",
            "2",
            "--seed",
            "1",
            "--out",
            str(missing_dir),
        ]
    )
    assert code == 4
    capsys.readouterr()


def test_verify_default_passes(capsys):
    assert main(["verify", "--trials", "5"]) == 0
    out = capsys.readouterr().out
    assert "PASS  codebook-isometry-and-losslessness" in out
    assert "FAIL" not in out


@pytest.mark.parametrize(
    "argv, expected",
    [
        (["verify", "--trials", "100"], "73ea10dcada2d05f4db5b621d3c61a7537ab568cf6f7cfeeb60ea464f4c1e5bf"),
        (["verify", "--trials", "300"], "b2097635cd3affc0898dba0b36da1d23199a7867ad1b4d5be85c0cad6a2431f2"),
        # the 91 golden rows to nine significant digits, not only within their tolerances
        (["example"], "99f5ab5003663f934673e238646e8dab782a7dd5193273554dc355c51cec55c0"),
    ],
    ids=["verify-100", "verify-300", "example"],
)
def test_verify_output_is_pinned(capsys, argv, expected):
    assert main(argv) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == expected


@pytest.mark.parametrize("trials", [[], ["--trials", "0"]], ids=["default-trials", "no-trials"])
def test_verify_on_an_ensemble_file_is_pinned(ensemble_path, capsys, trials):
    # the one-subject run: the file's ensemble and the five subject-free suites
    assert main(["verify", "--ensemble", str(ensemble_path), *trials]) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == "335c235998d06d229c035afc1c5a3ec3d8fc502db449b00f3542034ab0341b1a"


def _refused(capsys, argv, code):
    """``main(argv)`` exits with ``code`` and one ``error:`` line on stderr, without a traceback."""
    assert main(argv) == code
    err = capsys.readouterr().err
    assert any(line.startswith("error: ") for line in err.splitlines())
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["analyze", "example"])
def test_report_into_missing_directory_exits_4(ensemble_path, tmp_path, capsys, command):
    argv = [command, "--out", str(tmp_path / "not" / "there" / "report.json")]
    if command == "analyze":
        argv += ["--ensemble", str(ensemble_path)]
    _refused(capsys, argv, 4)


@pytest.mark.parametrize("command", ["simulate", "verify"])
def test_malformed_ensemble_exits_2(tmp_path, capsys, command):
    bad = tmp_path / "bad.json"
    bad.write_text('{"k": 2, "ambientDim": oops}')
    argv = [command, "--ensemble", str(bad)]
    if command == "simulate":
        argv += ["--n", "2", "--seed", "1", "--out", str(tmp_path / "t.jsonl")]
    _refused(capsys, argv, 2)


def test_span_edge_member_analyzes_simulates_and_verifies(span_edge_member, tmp_path, capsys):
    # analyze accepted this member, and simulate refused it while the sender
    # judged span membership by a second rule of its own
    path = tmp_path / "span-edge.json"
    dump_ensemble(span_edge_member(381, "last"), 2, path)
    assert main(["analyze", "--ensemble", str(path)]) == 0
    simulate = ["simulate", "--ensemble", str(path), "--n", "50", "--seed", "1", "--out", str(tmp_path / "t.jsonl")]
    assert main(simulate) == 0
    assert "lossless        yes" in capsys.readouterr().out
    assert main(["verify", "--ensemble", str(path)]) == 0


def test_verify_on_reference_ensemble(ensemble_path, capsys):
    assert main(["verify", "--ensemble", str(ensemble_path), "--trials", "1"]) == 0
    assert "FAIL" not in capsys.readouterr().out


def test_verify_named_property_fails_on_tampered_codebook(monkeypatch, capsys):
    # tamper with the basis after construction: the isometry check must name it
    import dataclasses

    import vlqc.verify as verify_module
    from vlqc.codec import build_codebook as real_build

    def sabotaged(ensemble, k=2, **kwargs):
        codebook = real_build(ensemble, k=k, **kwargs)
        basis = codebook.basis.copy()
        basis[0, 0] += 0.05
        return dataclasses.replace(codebook, basis=basis)

    monkeypatch.setattr(verify_module, "build_codebook", sabotaged)
    assert main(["verify", "--trials", "2"]) == 1
    out = capsys.readouterr().out
    assert "FAIL  codebook-isometry-and-losslessness" in out


def test_example_passes_and_prints_table(capsys):
    assert main(["example"]) == 0
    out = capsys.readouterr().out
    assert "MISMATCH" not in out
    assert "von Neumann entropy S" in out
    assert "91/91" in out


def test_example_writes_report(tmp_path, capsys):
    out_path = tmp_path / "reference_report.json"
    assert main(["example", "--out", str(out_path)]) == 0
    doc = json.loads(out_path.read_text())
    assert doc["report"]["rateEffective"] == pytest.approx(0.95, abs=1e-12)
    capsys.readouterr()


# example builds two codebooks: the golden rows' and the one it writes
@pytest.mark.parametrize("command, tables", [("analyze", 1), ("simulate", 1), ("example", 2)])
def test_each_codebook_builds_one_huffman_table(ensemble_path, tmp_path, capsys, huffman_builds, command, tables):
    out = str(tmp_path / "out")
    args = {
        "analyze": ["analyze", "--ensemble", str(ensemble_path), "--out", out],
        "simulate": ["simulate", "--ensemble", str(ensemble_path), "--n", "500", "--seed", "3", "--out", out],
        "example": ["example", "--out", out],
    }[command]
    assert main(args) == 0
    assert len(huffman_builds) == tables
    capsys.readouterr()


@pytest.mark.parametrize("n, seed, flag", [("0", "1", "--n"), ("10", "-1", "--seed")])
def test_simulate_bad_counts_are_usage_errors(ensemble_path, tmp_path, capsys, n, seed, flag):
    out = tmp_path / "t.jsonl"
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--ensemble", str(ensemble_path), "--n", n, "--seed", seed, "--out", str(out)])
    assert exc.value.code == 2
    assert f"argument {flag}: must be >=" in capsys.readouterr().err
    assert not out.exists()


def test_simulate_builds_no_per_draw_records(ensemble_path, tmp_path, capsys, monkeypatch):
    from vlqc import protocol

    def refuse(*args, **kwargs):
        raise AssertionError("simulate built a per-draw record")

    monkeypatch.setattr(protocol, "TransmissionRecord", refuse)
    out = tmp_path / "t.jsonl"
    assert main(["simulate", "--ensemble", str(ensemble_path), "--n", "5000", "--seed", "3", "--out", str(out)]) == 0
    assert "messages        5000" in capsys.readouterr().out
    assert len(out.read_text().splitlines()) == 5001


@pytest.mark.parametrize("tol", ["nan", "inf", "-1", "1"])
@pytest.mark.parametrize("command", ["simulate", "verify"])
def test_bad_tolerance_is_usage_error(ensemble_path, tmp_path, capsys, command, tol):
    out = tmp_path / "t.jsonl"
    argv = ["--ensemble", str(ensemble_path), f"--tol={tol}"]
    if command == "simulate":
        argv += ["--n", "5", "--seed", "1", "--out", str(out)]
    with pytest.raises(SystemExit) as exc:
        main([command, *argv])
    assert exc.value.code == 2
    assert "argument --tol: must be finite, >= 0 and < 1" in capsys.readouterr().err
    assert not out.exists()
