import json

import numpy as np
import pytest

from vlqc.ensemble_io import (
    EnsembleFormatError,
    canonical_ensemble_bytes,
    dump_ensemble,
    ensemble_hash,
    load_ensemble,
    parse_ensemble,
)
from vlqc.reference_example import REFERENCE_K, reference_ensemble

VALID_DOC = {
    "k": 2,
    "ambientDim": 2,
    "messages": [
        {"id": "x", "p": 0.75, "amps": [[1, 0], [0, 0]]},
        {"id": "y", "p": 0.25, "amps": [[3, 0], [4, 0]]},
    ],
}


def test_parse_valid_document():
    efile = parse_ensemble(json.dumps(VALID_DOC))
    assert efile.k == 2
    assert efile.normalize is True
    assert efile.ensemble.ambient_dim == 2
    # amplitudes are normalized on load by default
    np.testing.assert_allclose(efile.ensemble.find("y").amps, [0.6, 0.8], atol=1e-12)


def test_parse_without_normalization():
    doc = dict(VALID_DOC, normalize=False)
    efile = parse_ensemble(json.dumps(doc))
    np.testing.assert_allclose(efile.ensemble.find("y").amps, [3, 4])


def test_parse_reports_json_position():
    with pytest.raises(EnsembleFormatError, match=r"line \d+, column \d+"):
        parse_ensemble('{"k": 2,,}')


@pytest.mark.parametrize(
    "mutate, message",
    [
        (lambda d: d.pop("k"), "missing key 'k'"),
        (lambda d: d.update(k=1), "k: must be >= 2"),
        (lambda d: d.update(k=37), "k: must be >= 2 and <= 36, got 37"),
        (lambda d: d.update(k=40), "k: must be >= 2 and <= 36, got 40"),
        (lambda d: d.update(ambientDim=0), "ambientDim"),
        (lambda d: d.update(messages=[]), "nonempty"),
        (lambda d: d["messages"][0].pop("p"), "missing key 'p'"),
        (lambda d: d["messages"][0].update(p=-0.1), "positive"),
        (lambda d: d["messages"][0].update(amps=[[1, 0]]), r"messages\[0\]"),
        (lambda d: d["messages"][1].update(id="x"), "duplicate"),
        (lambda d: d["messages"][0].update(amps=[[0, 0], [0, 0]]), "near-zero"),
    ],
)
def test_parse_schema_errors_carry_location(mutate, message):
    doc = json.loads(json.dumps(VALID_DOC))
    mutate(doc)
    with pytest.raises(EnsembleFormatError, match=message):
        parse_ensemble(json.dumps(doc))


def test_parse_rejects_probability_sum_off_by_much():
    doc = json.loads(json.dumps(VALID_DOC))
    doc["messages"][0]["p"] = 0.80
    with pytest.raises(EnsembleFormatError, match="sum"):
        parse_ensemble(json.dumps(doc))


def test_parse_rescales_probability_sum_within_window():
    doc = json.loads(json.dumps(VALID_DOC))
    doc["messages"][0]["p"] = 0.75 + 2e-7
    efile = parse_ensemble(json.dumps(doc))
    assert sum(m.probability for m in efile.ensemble.messages) == pytest.approx(1.0, abs=1e-12)


def test_dump_load_round_trip(tmp_path):
    ensemble = reference_ensemble()
    path = tmp_path / "ensemble.json"
    dump_ensemble(ensemble, REFERENCE_K, path)
    loaded = load_ensemble(path)
    assert loaded.k == REFERENCE_K
    assert [m.id for m in loaded.ensemble.messages] == [m.id for m in ensemble.messages]
    for got, expected in zip(loaded.ensemble.messages, ensemble.messages):
        assert got.probability == expected.probability
        # dump writes raw integer amplitudes; load normalizes them
        np.testing.assert_allclose(got.amps, expected.unit_amps(), atol=1e-15)


def test_hash_is_stable_and_content_sensitive():
    ensemble = reference_ensemble()
    assert ensemble_hash(ensemble) == ensemble_hash(reference_ensemble())
    assert len(ensemble_hash(ensemble)) == 64
    other = parse_ensemble(json.dumps(VALID_DOC)).ensemble
    assert ensemble_hash(ensemble) != ensemble_hash(other)


def test_reference_hash_is_pinned():
    # stored transcripts carry this value in their headers
    assert ensemble_hash(reference_ensemble()) == (
        "4e2d74f96dad39efe4d0ce03716b2dec666a09a13a6091858457c02c05562484"
    )


@pytest.mark.parametrize("bad", ["NaN", "Infinity", "-Infinity", "1e400", "1" + "0" * 400, "true", '"1"'])
def test_parse_rejects_non_finite_amplitudes(bad):
    text = json.dumps(VALID_DOC).replace("[3, 0]", f"[3, {bad}]")
    with pytest.raises(EnsembleFormatError, match=r"messages\[1\]\.amps\[0\]"):
        parse_ensemble(text)


@pytest.mark.parametrize("bad", ["NaN", "Infinity", "1e400"])
def test_parse_rejects_non_finite_probability(bad):
    text = json.dumps(VALID_DOC).replace("0.25", bad)
    with pytest.raises(EnsembleFormatError, match=r"messages\[1\]\.p: expected a finite number"):
        parse_ensemble(text)


def test_parse_rejects_amplitude_norm_overflow():
    text = json.dumps(VALID_DOC).replace("[3, 0]", "[1e308, 1e308]")
    with pytest.raises(EnsembleFormatError, match="overflow"):
        parse_ensemble(text)


@pytest.mark.parametrize("flag", ["false", 0, None])
def test_parse_requires_boolean_normalize(flag):
    with pytest.raises(EnsembleFormatError, match="normalize"):
        parse_ensemble(json.dumps(dict(VALID_DOC, normalize=flag)))


def test_canonical_bytes_deterministic():
    ensemble = reference_ensemble()
    assert canonical_ensemble_bytes(ensemble) == canonical_ensemble_bytes(reference_ensemble())


@pytest.mark.parametrize(
    "text, message",
    [("[" * 200_000, "recursion"), ('{"k": ' + "1" * 5000 + "}", "digits")],
    ids=["deep-nesting", "huge-integer"],
)
def test_parse_maps_decoder_failures_to_format_errors(text, message):
    with pytest.raises(EnsembleFormatError, match=message):
        parse_ensemble(text)


def test_load_rejects_non_utf8_file(tmp_path):
    path = tmp_path / "ensemble.json"
    path.write_bytes(b'\xff\xfe{"k": 2}')
    with pytest.raises(EnsembleFormatError, match="not UTF-8"):
        load_ensemble(path)

