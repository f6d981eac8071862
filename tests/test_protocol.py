import dataclasses
import hashlib
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vlqc import verify
from vlqc.linalg import complex_pairs, independent_rows
from vlqc.message_space import AMP_TOL, RegisterSpec, VariableLengthState, support_lengths
from vlqc.metrics import compile_report
from vlqc.protocol import (
    FIDELITY_TOL,
    SessionTranscript,
    _line_halves,
    alice_send,
    alice_send_many,
    bob_receive,
    bob_receive_many,
    read_transcript,
    replay_decode,
    run_session,
    transcript_lines,
    verify_lossless,
    write_transcript,
)
from vlqc.reference_example import reference_codebook, reference_ensemble
from vlqc.sidechannel import PrefixCodeTable
from vlqc.verify import near_dependent_ensemble, random_ensemble
from vlqc.codec import SourceEnsemble, SourceMessage, build_codebook, decode_many, encode_many


@pytest.fixture(scope="module")
def ensemble():
    return reference_ensemble()


@pytest.fixture(scope="module")
def codebook():
    return reference_codebook()


@pytest.fixture(scope="module")
def table(codebook):
    return codebook.table


def test_alice_send_empty_payload(ensemble, codebook, table):
    bits, payload = alice_send(codebook, table, ensemble.find("a"))
    assert bits == table.codewords[0]
    assert payload.spec.r == 0
    assert payload.amps.shape == (1,)
    np.testing.assert_allclose(payload.amps, [1.0], atol=1e-12)


def test_alice_send_one_digit(ensemble, codebook, table):
    bits, payload = alice_send(codebook, table, ensemble.find("b"))
    assert bits == table.codewords[1]
    assert payload.spec.r == 1
    np.testing.assert_allclose(
        payload.amps.real, [5 / (2 * math.sqrt(7)), 3 / (2 * math.sqrt(21))], atol=1e-12
    )


def test_alice_send_full_length(ensemble, codebook, table):
    bits, payload = alice_send(codebook, table, ensemble.find("e"))
    assert bits == table.codewords[2]
    assert payload.spec.r == 2
    assert payload.amps.shape == (4,)


def test_alice_send_unknown_message(codebook, table):
    from vlqc.codec import SourceMessage

    stranger = SourceMessage("zz", np.array([1, 0, 0, 0], dtype=complex), 1.0)
    with pytest.raises(ValueError, match="unknown"):
        alice_send(codebook, table, stranger)


def test_bob_receive_empty_payload(ensemble, codebook, table):
    payload = VariableLengthState(RegisterSpec(2, 0), np.array([1.0 + 0j]))
    decoded = bob_receive(codebook, table, table.codewords[0], payload)
    np.testing.assert_allclose(decoded, ensemble.find("a").unit_amps(), atol=1e-12)


def test_bob_receive_round_trip_every_message(ensemble, codebook, table):
    for msg in ensemble.messages:
        bits, payload = alice_send(codebook, table, msg)
        decoded = bob_receive(codebook, table, bits, payload)
        assert abs(np.vdot(msg.unit_amps(), decoded)) ** 2 >= 1 - 1e-12


def test_bob_receive_header_payload_mismatch(codebook, table):
    payload = VariableLengthState(RegisterSpec(2, 1), np.array([1, 0], dtype=complex))
    with pytest.raises(ValueError, match="digits"):
        bob_receive(codebook, table, table.codewords[2], payload)


def test_bob_receive_rejects_payload_over_other_letter_dimension(codebook, table):
    # right digit count, wrong digits: one base-3 digit sent to a base-2 codebook
    payload = VariableLengthState(RegisterSpec(3, 1), np.array([1, 0, 0], dtype=complex))
    with pytest.raises(ValueError, match="header says 1 digits"):
        bob_receive(codebook, table, table.codewords[1], payload)


def test_bob_receive_trailing_bits(codebook, table):
    payload = VariableLengthState(RegisterSpec(2, 0), np.array([1.0 + 0j]))
    with pytest.raises(ValueError, match="trailing"):
        bob_receive(codebook, table, table.codewords[0] + "0", payload)


# a prefix code for the reference lengths, but not the codebook's: 0 -> "1" there
FOREIGN_TABLE = PrefixCodeTable({0: "11", 1: "10", 2: "0"})


@pytest.mark.parametrize("call", [alice_send, bob_receive, replay_decode], ids=lambda f: f.__name__)
def test_one_message_calls_refuse_a_table_that_is_not_the_codebooks(ensemble, codebook, table, call):
    a = ensemble.find("a")
    bits, payload = alice_send(codebook, table, a)
    record = json.loads(transcript_lines(run_session(ensemble, codebook, n=20, seed=3))[1])
    args = {alice_send: (a,), bob_receive: (bits, payload), replay_decode: (record,)}[call]
    call(codebook, table, *args)
    call(codebook, PrefixCodeTable(dict(table.codewords)), *args)  # an equal table built apart
    assert FOREIGN_TABLE.codewords[0] != table.codewords[0] == bits
    with pytest.raises(ValueError, match="side-channel table is not the codebook's"):
        call(codebook, FOREIGN_TABLE, *args)


def test_session_expected_accounting(ensemble, codebook):
    transcript = run_session(ensemble, codebook, n=100, seed=11)
    assert len(transcript.records) == 100
    assert transcript.total_qubits == sum(r.base_length for r in transcript.records)
    assert transcript.total_classical_bits == sum(len(r.classical_bits) for r in transcript.records)
    assert verify_lossless(transcript, ensemble)
    # typical cost near 0.5 digits/message; generous window for n=100
    assert 0.2 <= transcript.total_qubits / 100 <= 0.9


def test_single_message_session_costs_one_bit_no_qubits(ensemble, codebook):
    # seed 1 draws the most probable message, whose codeword is empty
    transcript = run_session(ensemble, codebook, n=1, seed=1)
    record = transcript.records[0]
    assert record.message_id == "a"
    assert transcript.total_qubits == 0
    assert transcript.total_classical_bits == 1
    assert record.fidelity >= 1 - 1e-12


def test_session_deterministic(ensemble, codebook):
    first = run_session(ensemble, codebook, n=500, seed=42)
    second = run_session(ensemble, codebook, n=500, seed=42)
    assert transcript_lines(first) == transcript_lines(second)
    third = run_session(ensemble, codebook, n=500, seed=43)
    assert transcript_lines(first) != transcript_lines(third)


def test_session_statistics_converge(ensemble, codebook):
    n = 10_000
    transcript = run_session(ensemble, codebook, n=n, seed=5)
    qubits_per_message = transcript.total_qubits / n
    bits_per_message = transcript.total_classical_bits / n
    # 3 sigma bands: Var(L) = 0.45, Var(|c|) = 0.24
    assert abs(qubits_per_message - 0.5) <= 3 * math.sqrt(0.45 / n)
    assert abs(bits_per_message - 1.4) <= 3 * math.sqrt(0.24 / n)


def test_session_preserves_order(ensemble, codebook):
    transcript = run_session(ensemble, codebook, n=50, seed=9)
    by_id = {m.id: m.unit_amps() for m in ensemble.messages}
    for i, record in enumerate(transcript.records):
        assert record.index == i
        assert abs(np.vdot(by_id[record.message_id], record.decoded)) ** 2 >= 1 - 1e-12


def test_side_channel_stream_concatenation(ensemble, codebook):
    transcript = run_session(ensemble, codebook, n=64, seed=3)
    stream = transcript.side_channel_stream()
    assert stream == "".join(r.classical_bits for r in transcript.records)
    assert len(stream) == transcript.total_classical_bits


def test_verify_lossless_rejects_corruption(ensemble, codebook, table):
    transcript = run_session(ensemble, codebook, n=30, seed=21)
    assert verify_lossless(transcript, ensemble)
    # corrupt one stored payload (swap a basis amplitude pair) and re-decode
    target = next(r for r in transcript.records if r.base_length == 2)
    doc = {
        "baseLength": target.base_length,
        "classicalBits": target.classical_bits,
        "payloadAmps": [[float(a.real), float(a.imag)] for a in target.payload.amps[::-1]],
    }
    corrupted = replay_decode(codebook, table, doc)
    source = ensemble.find(target.message_id).unit_amps()
    assert abs(np.vdot(source, corrupted)) ** 2 < 1 - 1e-9


TABLE_COLUMNS = ("message_indices", "message_ids", "classical_bits", "payloads", "decoded", "fidelities")


def _rows(transcript):
    """The transcript's table as one list per row, its entries in TABLE_COLUMNS order."""
    return [list(row) for row in zip(*(getattr(transcript, name) for name in TABLE_COLUMNS))]


def _from_rows(transcript, rows, **changes):
    """``transcript`` with its table rebuilt from ``rows`` and any other init field in ``changes``."""
    columns = dict(zip(TABLE_COLUMNS, map(list, zip(*rows))))
    columns["decoded"] = np.array(columns["decoded"])
    return dataclasses.replace(transcript, **columns, **changes)


def _forged_transcript(ensemble, codebook):
    """A session whose first non-symmetric table row has its decoded state reversed."""
    transcript = run_session(ensemble, codebook, n=200, seed=4)
    rows = _rows(transcript)
    for row in rows:
        source = ensemble.find(row[1]).unit_amps()
        reversed_state = row[4][::-1].copy()
        if abs(np.vdot(source, reversed_state)) ** 2 < 0.99:
            row[4] = reversed_state
            return _from_rows(transcript, rows)
    raise AssertionError("every drawn message is symmetric under reversal")


def test_default_tolerance_rejects_forged_transcript(ensemble, codebook):
    forged = _forged_transcript(ensemble, codebook)
    assert not verify_lossless(forged, ensemble)


@pytest.mark.parametrize("tol", [float("nan"), float("inf"), -1.0, 2.0])
@pytest.mark.parametrize("check", ["verify_lossless", "run_all", "check_codebook_consistency"])
def test_bad_tolerance_raises(ensemble, codebook, check, tol):
    forged = _forged_transcript(ensemble, codebook)  # a vacuous tolerance (NaN, >= 1) would pass it
    with pytest.raises(ValueError, match="tolerance must be finite"):
        if check == "verify_lossless":
            verify_lossless(forged, ensemble, tol=tol)
        elif check == "run_all":
            verify.run_all(trials=1, tol=tol)
        else:
            verify.check_codebook_consistency(ensemble, codebook, np.random.default_rng(3), tol)


def test_transcript_file_round_trip(tmp_path, ensemble, codebook, table):
    transcript = run_session(ensemble, codebook, n=25, seed=8)
    path = tmp_path / "session.jsonl"
    write_transcript(transcript, path)
    header, records = read_transcript(path)
    assert header == {
        "k": 2,
        "r": 2,
        "seed": 8,
        "n": 25,
        "ensembleHash": transcript.ensemble_hash,
    }
    assert len(records) == 25
    for record, original in zip(records, transcript.records):
        assert record["messageId"] == original.message_id
        assert record["classicalBits"] == original.classical_bits
        # amplitudes survive the file bit-exactly (shortest round-trip floats)
        amps = np.array([complex(re, im) for re, im in record["payloadAmps"]])
        assert np.array_equal(amps, original.payload.amps)
    # replay every record from the file alone and check losslessness
    by_id = {m.id: m.unit_amps() for m in ensemble.messages}
    for record in records:
        decoded = replay_decode(codebook, table, record)
        assert abs(np.vdot(by_id[record["messageId"]], decoded)) ** 2 >= 1 - 1e-12


def test_transcript_write_is_byte_identical(tmp_path, ensemble, codebook):
    a = tmp_path / "a.jsonl"
    b = tmp_path / "b.jsonl"
    write_transcript(run_session(ensemble, codebook, n=40, seed=77), a)
    write_transcript(run_session(ensemble, codebook, n=40, seed=77), b)
    assert a.read_bytes() == b.read_bytes()


def test_transcript_header_is_json_line(tmp_path, ensemble, codebook):
    path = tmp_path / "t.jsonl"
    write_transcript(run_session(ensemble, codebook, n=3, seed=1), path)
    first_line = path.read_text().splitlines()[0]
    header = json.loads(first_line)
    assert set(header) == {"k", "r", "seed", "n", "ensembleHash"}


def test_sessions_on_random_ensembles():
    rng = np.random.default_rng(123)
    for trial in range(10):
        ens = random_ensemble(rng, int(rng.integers(2, 6)), int(rng.integers(3, 10)))
        cb = build_codebook(ens, k=2)
        transcript = run_session(ens, cb, n=200, seed=trial)
        assert verify_lossless(transcript, ens)


def test_storage_mode_decodes_later(tmp_path, ensemble, codebook, table):
    # write today, decode tomorrow: only the file and the decoder are needed
    path = tmp_path / "stored.jsonl"
    original = run_session(ensemble, codebook, n=12, seed=2)
    write_transcript(original, path)
    _, records = read_transcript(path)
    decoded_stream = [replay_decode(codebook, table, record) for record in records]
    for record, decoded in zip(original.records, decoded_stream):
        np.testing.assert_allclose(decoded, record.decoded, atol=1e-12)


def test_replay_decode_rejects_huge_base_length_at_once(ensemble, codebook, table):
    record = json.loads(transcript_lines(run_session(ensemble, codebook, n=1, seed=2))[1])
    record["baseLength"] = 10**8
    with pytest.raises(ValueError, match="too large"):
        replay_decode(codebook, table, record)


# Digests of "\n".join(transcript_lines(t)) + "\n" as written by the per-draw
# implementation that preceded the per-message table; the table must
# reproduce those bytes and totals exactly.
PINNED_TRANSCRIPTS = [
    (
        "reference",
        10_000,
        7,
        "2ee00b1793a1b0b4088989c5a22e27b3592748bb55b5cc35cf2e8bd91d10feda",
        1_467_380,
        5081,
        14039,
    ),
    (
        "random-6x12-k3",
        2000,
        5,
        "1780c6add60796ed146d287948e2f26e9c22e81f656f2ea708bd62c4358fa3b4",
        675_237,
        2914,
        2801,
    ),
]


def _pinned_subject(name):
    if name == "reference":
        return reference_ensemble(), reference_codebook()
    ens = random_ensemble(np.random.default_rng(0), 6, 12)
    return ens, build_codebook(ens, k=3)


@pytest.mark.parametrize(
    "name, n, seed, digest, size, qubits, bits", PINNED_TRANSCRIPTS, ids=[p[0] for p in PINNED_TRANSCRIPTS]
)
def test_transcript_bytes_are_pinned(name, n, seed, digest, size, qubits, bits):
    ens, cb = _pinned_subject(name)
    transcript = run_session(ens, cb, n=n, seed=seed)
    data = ("\n".join(transcript_lines(transcript)) + "\n").encode("utf-8")
    assert hashlib.sha256(data).hexdigest() == digest
    assert len(data) == size
    assert (transcript.total_qubits, transcript.total_classical_bits) == (qubits, bits)


@pytest.mark.parametrize("seed", [0, 1, 7, 123456])
def test_batched_picks_equal_scalar_draws(ensemble, codebook, seed):
    n = 300
    cumulative = np.cumsum([m.probability for m in ensemble.messages])
    cumulative[-1] = max(cumulative[-1], 1.0)
    rng = np.random.default_rng(seed)
    scalar = [
        min(int(np.searchsorted(cumulative, rng.random(), side="right")), len(ensemble.messages) - 1)
        for _ in range(n)
    ]
    transcript = run_session(ensemble, codebook, n=n, seed=seed)
    assert transcript.n == n
    assert transcript.picks.tolist() == scalar
    assert [r.message_id for r in transcript.records] == [ensemble.messages[p].id for p in scalar]


def test_repeated_messages_share_one_read_only_array(ensemble, codebook):
    transcript = run_session(ensemble, codebook, n=200, seed=4)
    assert len(transcript.message_ids) < transcript.n
    assert transcript.message_indices.tolist() == sorted(set(transcript.picks.tolist()))
    by_id = {}
    for record in transcript.records:
        first = by_id.setdefault(record.message_id, record)
        assert record.decoded is first.decoded
        assert record.payload is first.payload
    assert len(by_id) == len(transcript.message_ids)
    for row, message_id in enumerate(transcript.message_ids):
        record = by_id[message_id]
        assert np.shares_memory(record.decoded, transcript.decoded)
        assert record.decoded.tobytes() == transcript.decoded[row].tobytes()
        assert record.payload.amps.tobytes() == transcript.payloads[row].tobytes()
        assert not transcript.payloads[row].flags.writeable
        with pytest.raises(ValueError):
            transcript.payloads[row][0] = 0
    for column in (transcript.picks, transcript.message_indices, transcript.decoded, transcript.fidelities):
        assert not column.flags.writeable
        with pytest.raises(ValueError):
            column[0] = 0


def test_transcript_rejects_inconsistent_columns(ensemble, codebook):
    transcript = run_session(ensemble, codebook, n=50, seed=6)
    fields = {f.name: getattr(transcript, f.name) for f in dataclasses.fields(transcript) if f.init}
    rows = _rows(transcript)
    undrawn = [99] + rows[-1][1:]
    with pytest.raises(ValueError, match="no table row"):
        SessionTranscript(**{**fields, "picks": np.append(transcript.picks, 99)})
    with pytest.raises(ValueError, match="no table row"):
        SessionTranscript(**{**fields, "picks": np.append(transcript.picks, -1)})
    with pytest.raises(ValueError, match="never drawn"):
        _from_rows(transcript, rows + [undrawn])
    with pytest.raises(ValueError, match="ensemble order"):
        _from_rows(transcript, rows[::-1])
    with pytest.raises(ValueError, match="ensemble order"):
        _from_rows(transcript, [rows[0]] + rows)
    with pytest.raises(ValueError, match="one entry per row"):
        SessionTranscript(**{**fields, "fidelities": transcript.fidelities[:-1]})
    with pytest.raises(ValueError, match="one entry per row"):
        SessionTranscript(**{**fields, "message_ids": transcript.message_ids + ("zz",)})


@pytest.mark.parametrize(
    "attr, detail", [("classical_bits", "side-channel"), ("payload", "qubit accounting")]
)
def test_check_session_recomputes_accounting_from_codebook(monkeypatch, ensemble, codebook, attr, detail):
    honest = run_session(ensemble, codebook, n=100, seed=12)
    assert verify.check_session(ensemble, codebook, n=100, seed=12, tol=1e-9) == (True, "ok")
    assert honest.payloads[0].size != honest.payloads[1].size
    # a self-consistent transcript whose table disagrees with the codebook:
    # the first two rows trade their length codewords or their payloads
    column = list(getattr(honest, {"classical_bits": "classical_bits", "payload": "payloads"}[attr]))
    column[:2] = column[1::-1]
    forged = dataclasses.replace(honest, **{"classical_bits" if attr == "classical_bits" else "payloads": column})
    monkeypatch.setattr(verify, "run_session", lambda *args, **kwargs: forged)
    ok, message = verify.check_session(ensemble, codebook, n=100, seed=12, tol=1e-9)
    assert not ok and detail in message


@pytest.mark.parametrize("n", [1, 40_000])
def test_written_file_equals_joined_lines(ensemble, codebook, tmp_path, n):
    # 40k draws span three of the writer's 2^14-line chunks
    transcript = run_session(ensemble, codebook, n=n, seed=8)
    path = tmp_path / "t.jsonl"
    write_transcript(transcript, path)
    assert path.read_bytes() == ("\n".join(transcript_lines(transcript)) + "\n").encode("utf-8")


def test_totals_are_derived_from_the_table(ensemble, codebook):
    transcript = run_session(ensemble, codebook, n=300, seed=13)
    init_fields = [f.name for f in dataclasses.fields(SessionTranscript) if f.init]
    assert init_fields == ["spec", "seed", "ensemble_hash", "picks", *TABLE_COLUMNS]
    records = transcript.records
    assert transcript.total_qubits == sum(r.base_length for r in records)
    assert transcript.total_classical_bits == len(transcript.side_channel_stream())
    assert transcript.mean_fidelity == sum(r.fidelity for r in records) / len(records)


def _forged_b_as_c(ensemble, codebook):
    """The n = 200, seed 3 session with b's table row replaced by c's, kept at b's index.

    b and c have the same base length, so the forged table still matches the
    codebook's accounting; only the index/id pairing gives it away.
    """
    transcript = run_session(ensemble, codebook, n=200, seed=3)
    rows = {row[1]: row for row in _rows(transcript)}
    b, c = rows["b"], rows["c"]
    assert codebook.base_lengths["b"] == codebook.base_lengths["c"]
    assert int((transcript.picks == b[0]).sum()) == 23
    swapped = [b[0]] + c[1:]
    return _from_rows(transcript, [swapped if row is b else row for row in rows.values()])


def test_outcome_carrying_another_messages_id_is_rejected(monkeypatch, ensemble, codebook):
    forged = _forged_b_as_c(ensemble, codebook)
    assert not verify_lossless(forged, ensemble)
    monkeypatch.setattr(verify, "run_session", lambda *args, **kwargs: forged)
    ok, message = verify.check_session(ensemble, codebook, n=200, seed=3, tol=1e-9)
    assert not ok and "lossy" in message


def test_outcome_index_past_the_ensemble_is_rejected(ensemble, codebook):
    transcript = run_session(ensemble, codebook, n=200, seed=3)
    rows, beyond = _rows(transcript), len(ensemble.messages)
    last = rows[-1][0]
    rows[-1][0] = beyond
    forged = _from_rows(transcript, rows, picks=np.where(transcript.picks == last, beyond, transcript.picks))
    assert verify_lossless(forged, ensemble) is False


# Subjects for the stacked transmit path: zero-padded registers, the d = 1 and
# m = 1 edges, a two-digit base-36 register and nearly dependent states.
STACK_SUBJECTS = {
    "reference": lambda: (reference_ensemble(), 2),
    "random-6x12-k3": lambda: (random_ensemble(np.random.default_rng(0), 6, 12), 3),
    "d1": lambda: (random_ensemble(np.random.default_rng(1), 1, 4), 2),
    "m1": lambda: (random_ensemble(np.random.default_rng(2), 5, 1), 2),
    "k36-d40": lambda: (random_ensemble(np.random.default_rng(3), 40, 45), 36),
    **{
        f"near-{eps:g}": (lambda eps=eps: (near_dependent_ensemble(np.random.default_rng(4), 5, 8, eps), 2))
        for eps in (1e-4, 1e-6, 1e-8)
    },
}


def _outcome_bits(index, message_id, bits, payload, decoded, fidelity):
    """Everything a table row carries, floats as raw bytes (signs of zeros included) or hex."""
    return (index, message_id, bits, payload.dtype, payload.tobytes(), decoded.tobytes(), fidelity.hex())


@pytest.mark.parametrize("name", list(STACK_SUBJECTS))
def test_stacked_session_equals_per_message_loop(name):
    ens, k = STACK_SUBJECTS[name]()
    cb = build_codebook(ens, k=k)
    if name == "k36-d40":
        assert cb.code_dim > 36 and cb.spec.r == 2
    table = cb.table
    transcript = run_session(ens, cb, n=2000, seed=5)
    assert len(transcript.message_ids) == len(ens.messages)
    expected = []
    for msg in ens.messages:
        bits, payload = alice_send(cb, table, msg)
        assert payload.spec == RegisterSpec(cb.spec.k, cb.base_lengths[msg.id])
        decoded = bob_receive(cb, table, bits, payload)
        fidelity = float(abs(np.vdot(msg.unit_amps(), decoded)) ** 2)
        expected.append(_outcome_bits(len(expected), msg.id, bits, payload.amps, decoded, fidelity))
    columns = (getattr(transcript, name) for name in TABLE_COLUMNS[:-1])
    got = [_outcome_bits(*row) for row in zip(*columns, transcript.fidelities.tolist())]
    assert got == expected
    # the stacked products are the plain matvecs a one-message encoder applies
    units = np.array([m.unit_amps() for m in ens.messages])
    codewords = encode_many(cb, units)
    assert codewords.tobytes() == np.array([cb.encoder @ x for x in units]).tobytes()
    assert decode_many(cb, codewords).tobytes() == np.array([cb.decoder @ c for c in codewords]).tobytes()


def test_session_with_another_ensembles_codebook_names_the_unknown_message(ensemble):
    other = build_codebook(random_ensemble(np.random.default_rng(0), 4, 6))
    with pytest.raises(ValueError, match="message 'a'"):
        run_session(ensemble, other, n=50, seed=1)


def test_session_with_another_span_is_rejected():
    ens = random_ensemble(np.random.default_rng(1), 6, 3)
    other = build_codebook(random_ensemble(np.random.default_rng(2), 6, 3))  # same ids, another span
    with pytest.raises(ValueError, match="vector lies outside the source space"):
        run_session(ens, other, n=50, seed=1)


def test_stacked_send_names_the_unknown_message(ensemble, codebook):
    stranger = SourceMessage("zz", np.array([1, 0, 0, 0], dtype=complex), 1.0)
    with pytest.raises(ValueError, match="message 'zz' is unknown"):
        alice_send_many(codebook, [ensemble.messages[0], stranger, ensemble.messages[1]])


def test_stacked_send_checks_every_row_before_truncating(ensemble, codebook):
    # base lengths claimed too short: the sender's AMP_TOL tail test fires
    short = dataclasses.replace(codebook, base_lengths={m.id: 0 for m in ensemble.messages})
    with pytest.raises(ValueError, match="support beyond length 0"):
        run_session(ensemble, short, n=50, seed=1)


def test_stacked_receive_checks_each_header_against_its_payload(ensemble, codebook):
    bits, payloads = alice_send_many(codebook, list(ensemble.messages[:5]))
    assert payloads[0].size != payloads[-1].size
    with pytest.raises(ValueError, match="header says"):
        bob_receive_many(codebook, "".join(bits), payloads[::-1])
    with pytest.raises(ValueError, match="trailing"):
        bob_receive_many(codebook, "".join(bits) + bits[0], payloads)
    decoded = bob_receive_many(codebook, "".join(bits), payloads)
    for msg, row in zip(ensemble.messages, decoded):
        assert abs(np.vdot(msg.unit_amps(), row)) ** 2 >= 1 - 1e-12


def test_stacked_send_tail_error_names_the_message(ensemble, codebook):
    short = dataclasses.replace(codebook, base_lengths={**codebook.base_lengths, "b": 0})
    with pytest.raises(ValueError, match="message 'b': state has support beyond length 0"):
        alice_send_many(short, [ensemble.find("a"), ensemble.find("b")])


def test_base_lengths_are_what_the_sender_cuts_to_at_the_amp_tol_edge():
    # 48 random states fix the basis; a least probable 49th message x = c @ basis
    # has one coefficient within a few ulps of AMP_TOL at index 40 (6 digits), so
    # its base length is 3 or 6 depending only on how the product rounds
    rng = np.random.default_rng(0)
    d = 48
    probs = np.linspace(2, 1, d)
    probs *= 0.99 / probs.sum()
    states = [
        SourceMessage(f"m{i}", rng.normal(size=d) + 1j * rng.normal(size=d), float(p))
        for i, p in enumerate(probs)
    ]
    _, basis = independent_rows(m.unit_amps() for m in states)
    for member in range(60):
        c = np.zeros(d, dtype=complex)
        c[:5] = verify.random_unit(rng, 5)
        c[40] = AMP_TOL * (1 + rng.uniform(-4e-15, 4e-15)) * np.exp(2j * np.pi * rng.random())
        ens = SourceEnsemble(tuple(states) + (SourceMessage("x", c @ basis, 0.01),), d)
        codebook = build_codebook(ens)
        alice_send_many(codebook, list(ens.messages))  # must not raise
        units = [m.unit_amps() for m in ens.messages]
        lengths = support_lengths(encode_many(codebook, units), codebook.spec.k).tolist()
        assert lengths == [codebook.base_lengths[m.id] for m in ens.messages]
        assert verify.check_session(ens, codebook, n=2000, seed=member, tol=1e-9) == (True, "ok")


# span-edge members (see conftest) that analyze accepted and the sender then
# refused while it judged span membership by a second rule of its own
SPAN_EDGE_REFUSED = [
    ("last", 381), ("last", 1044), ("last", 1082), ("last", 1195),
    ("early", 84), ("early", 115), ("early", 122),
]


@pytest.mark.parametrize("visit, seed", SPAN_EDGE_REFUSED)
def test_span_edge_member_that_analyze_accepts_is_sent_losslessly(span_edge_member, visit, seed):
    ens = span_edge_member(seed, visit)
    codebook = build_codebook(ens)
    compile_report(ens, codebook)  # analyze accepts it
    assert verify.check_session(ens, codebook, n=2000, seed=seed, tol=FIDELITY_TOL) == (True, "ok")


@pytest.mark.parametrize("visit", ["last", "early"])
def test_span_edge_families_are_sent_losslessly(span_edge_member, visit):
    for seed in range(1000):
        ens = span_edge_member(seed, visit)
        assert verify_lossless(run_session(ens, build_codebook(ens), n=20, seed=seed), ens)


def _with_row(transcript, row, **entries):
    """``transcript`` with the given columns' entries at table row ``row`` replaced."""
    rows = _rows(transcript)
    for name, value in entries.items():
        rows[row][TABLE_COLUMNS.index(name)] = value
    return _from_rows(transcript, rows)


@pytest.mark.parametrize(
    "forge, match",
    [
        (lambda t: {"payloads": 2 * t.payloads[1]}, "not unit norm"),
        (lambda t: {"payloads": np.full(3, 3**-0.5, dtype=complex)}, "k\\^L amplitudes"),
        (lambda t: {"payloads": np.full(8, 8**-0.5, dtype=complex)}, "k\\^L amplitudes"),
        (lambda t: {"payloads": t.payloads[1].reshape(1, -1)}, "k\\^L amplitudes"),
        (lambda t: {"payloads": np.array([np.nan, 1], dtype=complex)}, "not unit norm"),
        (lambda t: {"decoded": np.where(np.arange(4) == 2, np.nan, t.decoded[1])}, "NaN"),
        (lambda t: {"fidelities": 1.0 + 2e-12}, "outside \\[0, 1\\]"),
        (lambda t: {"fidelities": -1e-300}, "outside \\[0, 1\\]"),
        (lambda t: {"fidelities": float("nan")}, "outside \\[0, 1\\]"),
        (lambda t: {"classical_bits": '1", "x": "'}, "0 and 1"),
        (lambda t: {"message_ids": 7}, "strings"),
    ],
    ids=[
        "payload-not-unit", "payload-3-amps", "payload-past-r", "payload-2d", "payload-nan",
        "decoded-nan", "fidelity-above-1", "fidelity-negative", "fidelity-nan", "bits-not-binary",
        "id-not-str",
    ],
)
def test_transcript_rejects_forged_table_entries(ensemble, codebook, forge, match):
    transcript = run_session(ensemble, codebook, n=200, seed=3)
    assert transcript.payloads[1].size == 2  # row 1 is message b, one digit
    forged = forge(transcript)
    with pytest.raises(ValueError, match=match):
        _with_row(transcript, 1, **forged)
    # the honest row passes the same constructor, and a fidelity at the bound is kept
    assert _with_row(transcript, 1, fidelities=1.0 + 1e-12).fidelities[1] == 1.0 + 1e-12


def test_payload_length_that_disagrees_with_its_header_is_rejected(ensemble, codebook, table):
    transcript = run_session(ensemble, codebook, n=200, seed=3)
    # a length-2 payload under message b's one-digit header: each is well formed alone
    rows = _rows(transcript)
    assert len(rows[1][3]) == 2 and len(rows[-1][3]) == 4
    forged = _with_row(transcript, 1, payloads=rows[-1][3])
    with pytest.raises(ValueError, match="header says 1 digits but payload has 4 amplitudes"):
        bob_receive_many(codebook, forged.classical_bits[1], [forged.payloads[1]])
    record = json.loads(transcript_lines(forged)[1 + int(np.argmax(forged.picks == rows[1][0]))])
    with pytest.raises(ValueError, match="header says"):
        replay_decode(codebook, table, record)


def test_session_builds_no_state_objects_until_records(monkeypatch, ensemble, codebook):
    built = []
    post_init = VariableLengthState.__post_init__

    def counting(self):
        built.append(self.spec)
        post_init(self)

    monkeypatch.setattr(VariableLengthState, "__post_init__", counting)
    transcript = run_session(ensemble, codebook, n=500, seed=3)
    assert verify_lossless(transcript, ensemble)
    transcript_lines(transcript)
    assert built == []
    records = transcript.records
    assert len(records) == 500
    assert built == [RegisterSpec(2, length) for length in transcript._lengths]
    assert transcript.records is records and len(built) == len(transcript.message_ids) == 10


@pytest.mark.parametrize("base_length", [2.0, True, np.float64(1.0)])
def test_replay_decode_rejects_non_integer_base_length(ensemble, codebook, table, base_length):
    transcript = run_session(ensemble, codebook, n=200, seed=3)
    line = 1 + int(np.argmax(transcript.picks == ensemble.messages.index(ensemble.find("e"))))
    record = json.loads(transcript_lines(transcript)[line])
    assert record["baseLength"] == 2
    replay_decode(codebook, table, record)
    if base_length in (True, 1.0):
        record = json.loads(transcript_lines(transcript)[1 + int(np.argmax(transcript.picks == 1))])
        assert record["baseLength"] == 1
    record["baseLength"] = base_length
    with pytest.raises(ValueError, match="register length r must be an integer"):
        replay_decode(codebook, table, record)


def _oracle_halves(base_length, bits, fidelity, message_id, amps):
    """The record-line halves as sorted-key json.dumps writes them (the writer's oracle)."""
    before = {"baseLength": base_length, "classicalBits": bits, "fidelity": fidelity}
    after = {"messageId": message_id, "payloadAmps": complex_pairs(amps)}
    return (
        json.dumps(before, sort_keys=True)[:-1] + ', "index": ',
        ", " + json.dumps(after, sort_keys=True)[1:],
    )


# signed zero, the smallest subnormal, extremes, and the points where repr switches notation
LINE_COMPONENTS = [-0.0, 0.0, 5e-324, 1e150, -1e150, 1e-150, 1e16, 9999999999999998.0, 1e-5, 1e-4, 1.0]
line_ids = st.text(
    st.sampled_from(['"', "\\", "\x00", "\x1f", "\n", "\x7f", "é", "漢", "😀"]) | st.characters(),
    max_size=6,
)


@st.composite
def line_rows(draw):
    k = draw(st.sampled_from([2, 3, 36]))
    r = draw(st.integers(1, 2 if k == 36 else 3))
    length = draw(st.sampled_from([0, r]))
    # a few drawn components repeated over the k^length amplitudes
    values = draw(st.lists(st.sampled_from(LINE_COMPONENTS) | st.floats(-1e150, 1e150), min_size=1, max_size=8))
    amps = np.resize(np.array(values), 2 * k**length).view(complex)
    fidelity = draw(st.sampled_from([1.0, 0.9999999999999998, 5e-324, 0.0]) | st.floats(0.0, 1.0))
    bits = draw(st.text("01", min_size=1, max_size=12))
    return length, bits, fidelity, draw(line_ids), amps


@given(st.lists(line_rows(), min_size=1, max_size=4))
@settings(max_examples=200, deadline=None)
def test_line_templates_equal_sorted_key_json(rows):
    prefixes, suffixes = _line_halves(*map(list, zip(*rows)))
    assert list(zip(prefixes, suffixes)) == [_oracle_halves(*row) for row in rows]
