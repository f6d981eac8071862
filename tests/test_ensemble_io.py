import gc
import hashlib
import json
import os
import sys
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from support import LINUX, assert_no_child_left, count_forks, document_bytes, set_cpus
from vlqc import ensemble_io, linalg, workers
from vlqc.codec import SourceEnsemble, SourceMessage
from vlqc.ensemble_io import (
    EnsembleFormatError,
    _is_finite_number,
    parse_amps,
    dump_ensemble,
    ensemble_hash,
    load_ensemble,
    parse_ensemble,
    require_key,
)
from vlqc.reference_example import REFERENCE_K, reference_ensemble
from vlqc.verify import random_ensemble

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
        # without normalization SourceMessage refuses the vector, and the file names the message
        (
            lambda d: (d.update(normalize=False), d["messages"][0].update(amps=[[1e-13, 0], [0, 0]])),
            r"messages\[0\]: message 'x': cannot normalize a near-zero vector",
        ),
        (
            lambda d: (d.update(normalize=False), d["messages"][1].update(amps=[[1e308, 1e308], [1e308, 0]])),
            r"messages\[1\]: message 'y': cannot normalize a vector whose norm overflows a float",
        ),
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


def _realistic_ensemble():
    """d = 64, m = 96 of normalized floats, shaped like the benchmark's ensembles."""
    rng = np.random.default_rng(20240611)
    d, m = 64, 96
    probs = rng.random(m) + 0.05
    probs /= probs.sum()
    amps = rng.normal(size=(m, d, 2))
    doc = {
        "k": 2,
        "ambientDim": d,
        "messages": [{"id": f"m{i}", "p": float(probs[i]), "amps": amps[i].tolist()} for i in range(m)],
    }
    return parse_ensemble(json.dumps(doc)).ensemble


def test_realistic_shape_hash_is_pinned():
    assert ensemble_hash(_realistic_ensemble()) == (
        "49ad60b527177c9d040f6fa986603f7f0a066c5f393cd1afae518755fda314c0"
    )


def test_hash_holds_one_message_at_a_time():
    ensemble = _realistic_ensemble()
    size = len(document_bytes(ensemble))
    tracemalloc.start()
    try:
        ensemble_hash(ensemble)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # building the whole document and its nested pair lists peaks at about 8x its size
    assert peak < size / 4


@pytest.fixture()
def forked(monkeypatch):
    """ensemble_hash splits every ensemble into blocks, however small."""
    monkeypatch.setattr(ensemble_io, "_FORK_FLOATS", 0)


def test_forked_hash_holds_one_piece_at_a_time(monkeypatch, forked):
    set_cpus(monkeypatch, 2)
    ensemble = _realistic_ensemble()
    size = len(document_bytes(ensemble))
    tracemalloc.start()
    try:
        digest = ensemble_hash(ensemble)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert_no_child_left()
    assert digest == hashlib.sha256(document_bytes(ensemble)).hexdigest()
    # the worker's half would be size / 2 if it were read back whole
    assert peak < size / 4


# signed zero, the smallest subnormal and normal, extremes whose squares still
# fit, the points where repr switches notation, and integral floats
EDGE_COMPONENTS = [
    -0.0, 0.0, 5e-324, 2.2250738585072014e-308, 1e150, -1e150, 1e-150, -1e-150,
    1e16, 9999999999999998.0, 1e-5, 1e-4, 1.0, -3.0,
]
components = st.sampled_from(EDGE_COMPONENTS) | st.floats(-1e150, 1e150)
message_ids = st.text(
    st.sampled_from(['"', "\\", "\x00", "\x1f", "\n", "\x7f", "é", "漢", "😀"]) | st.characters(),
    max_size=6,
)


@st.composite
def edge_ensembles(draw):
    d = draw(st.sampled_from([1, 2, 7]))
    m = draw(st.sampled_from([1, 3]))
    ids = draw(st.lists(message_ids, min_size=m, max_size=m, unique=True))
    rows = [
        draw(
            st.lists(components, min_size=2 * d, max_size=2 * d).filter(
                lambda xs: np.linalg.norm(xs) > 1e-12
            )
        )
        for _ in range(m)
    ]
    if m == 1:
        probs = [draw(st.sampled_from([1, 1.0, np.float64(1.0)]))]
    else:
        weights = np.array(draw(st.lists(st.floats(0.05, 1.0), min_size=m, max_size=m)))
        kinds = draw(st.lists(st.sampled_from([float, np.float64]), min_size=m, max_size=m))
        probs = [kind(w) for kind, w in zip(kinds, weights / weights.sum())]
    messages = tuple(
        SourceMessage(i, np.array(row, dtype=np.float64).view(complex), p)
        for i, row, p in zip(ids, rows, probs)
    )
    return SourceEnsemble(messages=messages, ambient_dim=d)


@given(edge_ensembles())
@settings(max_examples=200, deadline=None)
def test_canonical_bytes_match_the_document_encoding(ensemble):
    assert ensemble_hash(ensemble) == hashlib.sha256(document_bytes(ensemble)).hexdigest()


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
    # two builds of one ensemble give the hash the same bytes
    ensemble = reference_ensemble()
    digest = hashlib.sha256(document_bytes(ensemble)).hexdigest()
    assert ensemble_hash(ensemble) == ensemble_hash(reference_ensemble()) == digest


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


@pytest.fixture(scope="module")
def wide_text():
    """An ensemble file shaped like the benchmark's wide ensemble: d = 384, m = 576."""
    d, m = 384, 576
    rng = np.random.default_rng(7)
    probs = rng.random(m) + 0.05
    probs /= probs.sum()
    amps = rng.normal(size=(m, d, 2))
    doc = {
        "k": 2,
        "ambientDim": d,
        "messages": [{"id": f"m{i}", "p": float(probs[i]), "amps": amps[i].tolist()} for i in range(m)],
    }
    return json.dumps(doc)


def test_parse_runs_no_collection(wide_text, collections):
    # the decoded document holds one list per [re, im] pair, 221k of them here
    efile = parse_ensemble(wide_text)
    passes = len(collections)
    assert passes == 0
    assert len(efile.ensemble.messages) == 576


def test_parse_leaves_the_collector_as_it_was(collector_enabled):
    parse_ensemble(json.dumps(VALID_DOC))
    assert gc.isenabled() is collector_enabled
    text = json.dumps(VALID_DOC).replace("[3, 0]", "[3, null]")
    with pytest.raises(EnsembleFormatError, match=r"messages\[1\]\.amps\[0\]"):
        parse_ensemble(text)
    assert gc.isenabled() is collector_enabled


def _reference_parse_amps(raw, ambient_dim: int, where: str) -> np.ndarray:
    """The amplitude check as written before its whole-list passes: a per-pair
    shape test, then one np.array over the nested pairs."""
    if not isinstance(raw, list) or len(raw) != ambient_dim:
        raise EnsembleFormatError(f"{where}: expected {ambient_dim} [re, im] pairs")
    pairs = None
    well_formed = all(type(p) is list and len(p) == 2 for p in raw)
    if well_formed and {type(x) for p in raw for x in p} <= {int, float}:
        try:
            pairs = np.array(raw, dtype=float)
        except OverflowError:
            pass
    if pairs is None or not np.isfinite(pairs).all():
        pos = next(
            pos for pos, pair in enumerate(raw)
            if not (type(pair) is list and len(pair) == 2 and all(map(_is_finite_number, pair)))
        )
        raise EnsembleFormatError(f"{where}[{pos}]: expected an [re, im] pair of finite numbers")
    return pairs.view(complex)[:, 0]


FLOAT_MAX = sys.float_info.max
# the integers around the float maximum: up to 2**1024 - 2**970 they round to it,
# from there on converting them overflows
OVERFLOW_INT = 2**1024 - 2**970
AMPLITUDE_EDGES = [
    0, 1, -7, 0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e308, -1e308, FLOAT_MAX, -FLOAT_MAX,
    int(FLOAT_MAX) - 1, int(FLOAT_MAX), int(FLOAT_MAX) + 1, -(int(FLOAT_MAX) + 1),
    OVERFLOW_INT - 1, OVERFLOW_INT, -OVERFLOW_INT, 2**1024,
    float("nan"), float("inf"), -float("inf"),
]
amplitude_numbers = st.sampled_from(AMPLITUDE_EDGES) | st.integers() | st.floats()
refused_values = (
    st.booleans() | st.none() | st.text(max_size=3) | st.dictionaries(st.text(max_size=2), st.integers(), max_size=2)
)
good_pairs = st.lists(amplitude_numbers, min_size=2, max_size=2)
any_pairs = (
    good_pairs
    | st.lists(amplitude_numbers | refused_values, min_size=1, max_size=3)
    | refused_values
)


@st.composite
def raw_amplitudes(draw):
    d = draw(st.integers(1, 4))
    pairs = draw(st.sampled_from([good_pairs, any_pairs]))
    return d, draw(st.lists(pairs, min_size=d, max_size=d) | st.lists(any_pairs, max_size=5))


@given(raw_amplitudes(), st.integers(0, 3))
@settings(max_examples=400, deadline=None)
def test_amplitude_check_accepts_and_refuses_as_the_per_pair_check(case, pos):
    d, raw = case
    where = f"messages[{pos}].amps"
    try:
        expected = _reference_parse_amps(raw, d, where)
    except EnsembleFormatError as exc:
        with pytest.raises(EnsembleFormatError) as refused:
            parse_amps(raw, d, where)
        assert str(refused.value) == str(exc)
    else:
        got = parse_amps(raw, d, where)
        assert got.dtype == expected.dtype and got.shape == expected.shape == (d,)
        assert got.tobytes() == expected.tobytes()


def _per_message_parse(text: str) -> list[SourceMessage]:
    """The parse's messages as read one message at a time: ``parse_amps``, then
    ``linalg.normalize`` and the public constructor, then the probability rescale."""
    doc = json.loads(text)
    messages = []
    for pos, raw in enumerate(doc["messages"]):
        where = f"messages[{pos}]"
        if not isinstance(raw, dict):
            raise EnsembleFormatError(f"{where}: expected an object")
        msg_id = require_key(raw, "id", str, where)
        p = require_key(raw, "p", float, where)
        amps = parse_amps(raw.get("amps"), doc["ambientDim"], f"{where}.amps")
        try:
            messages.append(SourceMessage(msg_id, linalg.normalize(amps) if doc.get("normalize", True) else amps, p))
        except ValueError as exc:
            raise EnsembleFormatError(f"{where}: {exc}") from None
    total = sum(m.probability for m in messages)
    if abs(total - 1.0) > linalg.PROBABILITY_SUM_TOL:
        messages = [replace(m, probability=m.probability / total) for m in messages]
    return messages


# a number the documents below write as 1e400, which json.dumps cannot write
OVERFLOW_MARKER = 7.77e77
# a fault per message kind, each with the end of its refusal's text
MESSAGE_FAULTS = {
    "missing amps": (lambda raw, d: raw.pop("amps"), ".amps: expected {d} [re, im] pairs"),
    "3-element pair": (lambda raw, d: raw["amps"][-1].append(0), ".amps[{last}]: expected an [re, im] pair of finite numbers"),
    "bool": (lambda raw, d: raw["amps"][0].__setitem__(1, True), ".amps[0]: expected an [re, im] pair of finite numbers"),
    "1e400": (lambda raw, d: raw["amps"][0].__setitem__(0, OVERFLOW_MARKER), ".amps[0]: expected an [re, im] pair of finite numbers"),
    "int beyond float": (lambda raw, d: raw["amps"][-1].__setitem__(0, -(2**1024)), ".amps[{last}]: expected an [re, im] pair of finite numbers"),
    "non-object": (None, ": expected an object"),
    "missing p": (lambda raw, d: raw.pop("p"), ": missing key 'p'"),
    "zero vector": (lambda raw, d: raw.update(amps=[[0, -0.0]] * d), ": cannot normalize a near-zero vector"),
}
# amplitudes whose norm stays finite in dimension 5
amplitude_values = st.integers(-9, 9) | st.sampled_from(
    [-0.0, 5e-324, -2.2250738585072014e-308, 1e-200, 0.1, -3.5, 1e150]
) | st.floats(-1e6, 1e6)


@st.composite
def ensemble_documents(draw, faults=0, sum_offsets=(0.0, 2e-7, -5e-7)):
    """An ensemble file's text: 1-6 messages in dimension 1-5, int or float
    amplitudes, normalize true, false or absent, and a probability sum off by
    one of ``sum_offsets``: exact or a rescalable amount. Without ``faults`` an amplitude may be
    -1.5e154, whose square alone overflows; with them, that many messages in
    file order are broken, and the rest parse."""
    d, m = draw(st.integers(1, 5)), draw(st.integers(max(1, faults), 6))
    values = amplitude_values | st.just(-1.5e154) if not faults else amplitude_values
    vectors = draw(st.lists(st.lists(st.tuples(values, values), min_size=d, max_size=d), min_size=m, max_size=m))
    for vector in vectors:
        vector[0] = (1, 0)  # no vector is zero, so every fault below is the only one in its message
    probs = [1 / m] * m
    probs[0] += draw(st.sampled_from(sum_offsets))
    doc = {"k": draw(st.integers(2, 3)), "ambientDim": d}
    normalize = draw(st.sampled_from([True, False, None]))
    if normalize is not None:
        doc["normalize"] = normalize
    doc["messages"] = [
        {"id": f"m{i}", "p": probs[i], "amps": [list(pair) for pair in vector]} for i, vector in enumerate(vectors)
    ]
    broken = sorted(draw(st.sets(st.integers(0, m - 1), min_size=faults, max_size=faults)))
    kinds = [draw(st.sampled_from(sorted(MESSAGE_FAULTS))) for _ in broken]
    for pos, kind in zip(broken, kinds):
        mutate = MESSAGE_FAULTS[kind][0]
        if mutate is None:
            doc["messages"][pos] = [doc["messages"][pos]]
        else:
            mutate(doc["messages"][pos], d)
    return json.dumps(doc).replace(repr(OVERFLOW_MARKER), "1e400"), d, list(zip(broken, kinds))


@given(ensemble_documents())
@settings(max_examples=300, deadline=None)
def test_parse_equals_the_per_message_parse(case):
    text, _, _ = case
    try:
        expected = _per_message_parse(text)
    except EnsembleFormatError as exc:  # a vector whose norm overflows a float
        with pytest.raises(EnsembleFormatError) as refused:
            parse_ensemble(text)
        assert str(refused.value) == str(exc)
        return
    assert_same_messages(parse_ensemble(text).ensemble.messages, expected)


def assert_same_messages(got, expected):
    assert [(m.id, m.probability) for m in got] == [(m.id, m.probability) for m in expected]
    for g, e in zip(got, expected, strict=True):
        assert g.amps.tobytes() == e.amps.tobytes()
        assert g.unit_amps().tobytes() == e.unit_amps().tobytes()
        assert not g.amps.flags.writeable and not g.unit_amps().flags.writeable


@given(ensemble_documents(sum_offsets=(2e-7, -5e-7)))
@settings(max_examples=200, deadline=None)
def test_a_rescaled_sum_gives_the_messages_replace_gives(case):
    # the parse hands its built states to the rescaled messages; the reference
    # builds each message again through dataclasses.replace
    text, _, _ = case
    try:
        expected = _per_message_parse(text)
    except EnsembleFormatError:  # a vector whose norm overflows a float
        assume(False)
    got = parse_ensemble(text).ensemble.messages
    assert [m.probability for m in got] != [raw["p"] for raw in json.loads(text)["messages"]]
    assert_same_messages(got, expected)


@given(ensemble_documents(faults=2))
@settings(max_examples=300, deadline=None)
def test_parse_raises_the_first_faulty_messages_error(case):
    text, d, [(pos, kind), _] = case
    with pytest.raises(EnsembleFormatError) as expected:
        _per_message_parse(text)
    with pytest.raises(EnsembleFormatError) as refused:
        parse_ensemble(text)
    assert str(refused.value) == str(expected.value)
    # the refusal names the first broken message and its fault; without
    # normalization the constructor's near-zero refusal also names the id
    assert str(refused.value).startswith(f"messages[{pos}]")
    assert str(refused.value).endswith(MESSAGE_FAULTS[kind][1].format(d=d, last=d - 1))


def _small_ensemble(m: int, d: int = 2) -> SourceEnsemble:
    rng = np.random.default_rng(m)
    return SourceEnsemble(
        tuple(SourceMessage(f"m{i}", rng.normal(size=d) + 1j * rng.normal(size=d), 1 / m) for i in range(m)),
        ambient_dim=d,
    )


def _edge_ensemble() -> SourceEnsemble:
    """A -0.0 amplitude, a non-ASCII id and an int probability, one per block on three CPUs."""
    return SourceEnsemble(
        (
            SourceMessage("a", np.array([-0.0, 1.0, 1.0, -0.0]).view(complex), 1e-10),
            SourceMessage('é漢😀"\\', np.array([1e-5, -0.0, -0.0, 1e150]).view(complex), 1e-10),
            SourceMessage("z", np.array([-0.0, 0.0, 3.0, -0.0]).view(complex), 1),
        ),
        ambient_dim=2,
    )


def test_forked_hash_equals_the_pins(forked):
    assert ensemble_hash(reference_ensemble()) == (
        "4e2d74f96dad39efe4d0ce03716b2dec666a09a13a6091858457c02c05562484"
    )
    assert ensemble_hash(_realistic_ensemble()) == (
        "49ad60b527177c9d040f6fa986603f7f0a066c5f393cd1afae518755fda314c0"
    )
    assert_no_child_left()


@pytest.mark.parametrize(
    "ensemble",
    [_small_ensemble(1), _small_ensemble(3), _small_ensemble(5), _edge_ensemble()],
    ids=["one-message", "fewer-messages-than-cpus", "one-more-message-than-cpus", "edge-values"],
)
@pytest.mark.parametrize("cpus", [3, 4])
def test_forked_hash_equals_the_document_digest(monkeypatch, forked, ensemble, cpus):
    set_cpus(monkeypatch, cpus)
    assert ensemble_hash(ensemble) == hashlib.sha256(document_bytes(ensemble)).hexdigest()
    assert_no_child_left()


def test_hash_makes_no_fork_in_one_cpu_or_below_the_bound(monkeypatch):
    # the pinned ensembles and the reference_session and verify_suite benchmark
    # ensembles (d <= 6, m <= 12) stay in this process however many CPUs
    set_cpus(monkeypatch, 4)
    calls = count_forks(monkeypatch)
    rng = np.random.default_rng(0)
    for ensemble in [reference_ensemble(), _realistic_ensemble(), random_ensemble(rng, 6, 12)]:
        ensemble_hash(ensemble)
    assert calls == []
    monkeypatch.setattr(ensemble_io, "_FORK_FLOATS", 0)
    set_cpus(monkeypatch, 1)
    assert ensemble_hash(_realistic_ensemble()) == (
        "49ad60b527177c9d040f6fa986603f7f0a066c5f393cd1afae518755fda314c0"
    )
    assert calls == []


def test_hash_falls_back_to_this_process_when_fork_is_refused(monkeypatch, forked):
    set_cpus(monkeypatch, 3)
    calls = count_forks(monkeypatch)
    ensemble = _realistic_ensemble()
    assert ensemble_hash(ensemble) == "49ad60b527177c9d040f6fa986603f7f0a066c5f393cd1afae518755fda314c0"
    assert len(calls) == 2


@pytest.mark.skipif(not LINUX, reason="forking is Linux-only")
def test_an_exception_in_a_hash_worker_reraises_here(monkeypatch, forked):
    set_cpus(monkeypatch, 2)
    ensemble, parent = _realistic_ensemble(), os.getpid()
    last = ensemble.messages[-1].id
    real = ensemble_io._message_tail

    def message_tail(m):
        if m.id == last:
            assert os.getpid() != parent, "the last message was formatted in the test process"
            raise LookupError("planted crash")
        return real(m)

    monkeypatch.setattr(ensemble_io, "_message_tail", message_tail)
    with pytest.raises(LookupError, match="planted crash") as info:
        ensemble_hash(ensemble)
    assert_no_child_left()
    cause = info.value.__cause__
    assert isinstance(cause, workers.WorkerTraceback)
    assert "planted crash" in str(cause) and "_message_block" in str(cause)
