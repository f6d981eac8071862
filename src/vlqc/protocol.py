"""Sender/receiver simulation with per-message accounting and transcript files.

One transmission: the sender encodes a known source message, truncates the
codeword to its tabulated base length, and emits (Huffman length codeword,
truncated quantum payload). The receiver decodes the length header, restores
the leading zero digits, and inverts the encoder. The quantum channel is
simulated as an explicit state-vector hand-off; there is no noise model, so
round trips are exact up to floating-point arithmetic.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain
from json.encoder import encode_basestring_ascii
from pathlib import Path

import numpy as np

from . import ensemble_io, linalg
from .codec import Codebook, SourceEnsemble, SourceMessage, decode_many, encode_many
from .ensemble_io import parse_amps, require_key
from .message_space import RegisterSpec, VariableLengthState, support_lengths, unit_rows
from .sidechannel import PrefixCodeTable, decode_lengths

FIDELITY_TOL = 1e-9
# Rounding slack of a fidelity between unit states: a computed fidelity may
# exceed 1 by this much, and an exact round trip falls short of 1 by no more.
FIDELITY_ROUNDING_TOL = 1e-12
_CHUNK_LINES = 1 << 14  # transcript lines per write: about 2.4 MB on the reference ensemble


def check_tolerance(tol: float) -> float:
    """``tol`` itself if it is finite and in [0, 1), else ``ValueError``.

    A fidelity check passes when ``fidelity >= 1 - tol``; NaN would make that
    comparison vacuous and tol >= 1 would accept any state.
    """
    if not 0.0 <= tol < 1.0:
        raise ValueError(f"tolerance must be finite, >= 0 and < 1, got {tol!r}")
    return tol


@dataclass(frozen=True, slots=True)
class TransmissionRecord:
    """Accounting for one draw; ``base_length`` is also the k-ary digits sent (× log2(k) qubits)."""

    index: int
    message_id: str
    base_length: int
    classical_bits: str
    payload: VariableLengthState
    decoded: np.ndarray
    fidelity: float


def _read_only(a) -> np.ndarray:
    """``a`` as a complex array that nobody can write through: kept if it
    already is read-only, else copied and frozen."""
    a = np.asarray(a, dtype=complex)
    if a.flags.writeable:
        a = a.copy()
        a.flags.writeable = False
    return a


def _drawn(picks: np.ndarray, m: int) -> np.ndarray:
    """The distinct draws among ``picks``, each in 0..m-1, ascending: a session table's rows."""
    return np.flatnonzero(np.bincount(picks, minlength=m))


@dataclass(frozen=True, eq=False)
class SessionTranscript:
    """A session as one table over the distinct messages drawn, plus the draw order; immutable.

    ``picks[i]`` is the ensemble index of the message sent at step i, in
    ``ensemble``, whose hash is computed only when the transcript is
    written. Row j of the table is one distinct message drawn,
    in ensemble order: ``classical_bits[j]`` is its length codeword,
    ``payloads[j]`` its codeword cut to the k^L amplitudes of its base length
    L and ``decoded[j]`` the receiver's output; every draw of the message
    reuses its row. Derived here, once: ``message_indices[j]``, its position
    in the ensemble; ``message_ids[j]``, its id; ``fidelities[j]``, the
    output's fidelity against it; and the session totals. ``records``
    expands the table into one :class:`TransmissionRecord` per draw.
    """

    spec: RegisterSpec
    seed: int
    ensemble: SourceEnsemble
    picks: np.ndarray
    classical_bits: tuple[str, ...]
    payloads: tuple[np.ndarray, ...]
    decoded: np.ndarray
    message_indices: np.ndarray = field(init=False)
    message_ids: tuple[str, ...] = field(init=False)
    fidelities: np.ndarray = field(init=False)
    # each row's base length, the row of each draw's message, and each row's draw count
    _lengths: tuple[int, ...] = field(init=False, repr=False)
    _slots: np.ndarray = field(init=False, repr=False)
    _counts: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        seed = linalg.as_int("seed", self.seed)
        picks = np.array(self.picks)
        bits = tuple(self.classical_bits)
        payloads = tuple([_read_only(p) for p in self.payloads])
        decoded = _read_only(self.decoded)
        messages = self.ensemble.messages
        if picks.ndim != 1 or picks.size == 0:
            raise ValueError("transcript has no draws")
        # a float or bool pick would be truncated to an index, not refused
        if picks.dtype.kind not in "iu":
            raise ValueError(f"picks must have an integer dtype, got {picks.dtype}")
        picks = picks.astype(np.intp, copy=False)
        if picks.min() < 0 or picks.max() >= len(messages):
            raise ValueError(f"a draw lies outside the ensemble's {len(messages)} messages")
        indices = _drawn(picks, len(messages))
        if decoded.ndim != 2 or {len(bits), len(payloads), len(decoded)} != {len(indices)}:
            raise ValueError("table columns must have one entry per row")
        # the line writer prints the bits unescaped
        if any(not isinstance(b, str) or b.strip("01") for b in bits):
            raise ValueError("classical bits must be strings of 0 and 1")
        register = {self.spec.k**length: length for length in range(self.spec.r + 1)}
        lengths = tuple([register.get(p.size, -1) if p.ndim == 1 else -1 for p in payloads])
        if -1 in lengths:
            raise ValueError(f"a payload does not hold k^L amplitudes for a base length L <= {self.spec.r}")
        if not unit_rows(payloads):
            raise ValueError("a payload is not unit norm")
        if not np.isfinite(decoded).all():
            raise ValueError("decoded states contain NaN or Inf")
        rows = [messages[i] for i in indices.tolist()]
        # one vdot per row: a batched product rounds the fidelity differently
        with np.errstate(over="ignore"):
            fidelities = np.array([abs(np.vdot(msg.unit_amps(), row)) ** 2 for msg, row in zip(rows, decoded)])
        if not all(0.0 <= f <= 1.0 + FIDELITY_ROUNDING_TOL for f in fidelities.tolist()):
            raise ValueError("a fidelity lies outside [0, 1]")
        slots = np.searchsorted(indices, picks)
        counts = np.bincount(slots)
        for a in (picks, indices, fidelities, slots, counts):
            a.flags.writeable = False
        for name, value in zip(
            ("seed", "picks", "classical_bits", "payloads", "decoded", "message_indices", "message_ids",
             "fidelities", "_lengths", "_slots", "_counts"),
            (seed, picks, bits, payloads, decoded, indices, tuple([msg.id for msg in rows]),
             fidelities, lengths, slots, counts),
        ):
            object.__setattr__(self, name, value)

    @property
    def n(self) -> int:
        """Number of messages sent."""
        return self.picks.size

    @property
    def total_qubits(self) -> int:
        """Quantum digits sent over the whole session."""
        return int(self._counts @ self._lengths)

    @property
    def total_classical_bits(self) -> int:
        """Side-channel bits sent over the whole session."""
        return int(self._counts @ [len(b) for b in self.classical_bits])

    @cached_property
    def mean_fidelity(self) -> float:
        """Fidelity summed over the draws in send order, as a per-draw loop would, over n."""
        return sum(self.fidelities[self._slots].tolist()) / self.n

    @cached_property
    def records(self) -> tuple[TransmissionRecord, ...]:
        """One record per draw, in send order, built from the table on first access;
        the draws of one message share its payload state and decoded row."""
        k = self.spec.k
        rows = [
            (message_id, length, bits, VariableLengthState(RegisterSpec(k, length), payload), decoded, fidelity)
            for message_id, length, bits, payload, decoded, fidelity in zip(
                self.message_ids,
                self._lengths,
                self.classical_bits,
                self.payloads,
                self.decoded,
                self.fidelities.tolist(),
            )
        ]
        return tuple(
            TransmissionRecord(index, *rows[slot]) for index, slot in enumerate(self._slots.tolist())
        )

    def side_channel_stream(self) -> str:
        """The full classical bit stream of the session, in send order."""
        words = self.classical_bits
        return "".join([words[slot] for slot in self._slots.tolist()])


def _own_table(codebook: Codebook, table: PrefixCodeTable) -> None:
    """Refuse a side-channel table other than the codebook's own."""
    if table != codebook.table:
        raise ValueError("the side-channel table is not the codebook's")


def alice_send_many(codebook: Codebook, messages: list[SourceMessage]) -> tuple[list[str], list[np.ndarray]]:
    """Each message's length codeword in the codebook's table and its codeword
    truncated to the k^L amplitudes of its tabulated base length L: one encoder
    product over the stacked unit states, whose rows the payloads are read-only
    views of."""
    bases = [codebook.base_lengths.get(m.id) for m in messages]
    if None in bases:
        raise ValueError(f"message {messages[bases.index(None)].id!r} is unknown to this codebook")
    bits = [codebook.table.codewords[base] for base in bases]
    codewords = encode_many(codebook, [m.unit_amps() for m in messages])
    cut = support_lengths(codewords, codebook.spec.k) > bases  # checked on every row before any is cut
    if cut.any():
        i = int(cut.argmax())
        raise ValueError(f"message {messages[i].id!r}: state has support beyond length {bases[i]}")
    codewords.flags.writeable = False
    k = codebook.spec.k
    return bits, [row[: k**base] for base, row in zip(bases, codewords)]


def alice_send(
    codebook: Codebook, table: PrefixCodeTable, message: SourceMessage
) -> tuple[str, VariableLengthState]:
    """:func:`alice_send_many` for one message, its payload on a register of
    base-length digits; ``table`` must be the codebook's own."""
    _own_table(codebook, table)
    [bits], [row] = alice_send_many(codebook, [message])
    return bits, VariableLengthState(RegisterSpec(codebook.spec.k, codebook.base_lengths[message.id]), row)


def bob_receive_many(codebook: Codebook, stream: str, payloads: list[np.ndarray]) -> np.ndarray:
    """Decode one length header per payload row from the stream with the
    codebook's table, check that the row holds k^length amplitudes, restore
    leading zero digits, and invert the encoder: one decoder product over the
    stacked payloads."""
    lengths = decode_lengths(codebook.table, stream, len(payloads))
    k = codebook.spec.k
    padded = np.zeros((len(payloads), codebook.spec.dim), dtype=complex)
    for row, length, payload in zip(padded, lengths, payloads):
        if payload.size != k**length:
            raise ValueError(f"header says {length} digits but payload has {payload.size} amplitudes")
        row[: payload.size] = payload
    return decode_many(codebook, padded)


def bob_receive(
    codebook: Codebook, table: PrefixCodeTable, bits: str, payload: VariableLengthState
) -> np.ndarray:
    """:func:`bob_receive_many` for one payload and its length header; ``table``
    must be the codebook's own, and the payload's digits must have the
    codebook's dimension k."""
    _own_table(codebook, table)
    decoded = bob_receive_many(codebook, bits, [payload.amps])[0]
    if payload.spec.k != codebook.spec.k:
        raise ValueError(f"payload is on {payload.spec}, the codebook sends base-{codebook.spec.k} digits")
    return decoded


def run_session(
    ensemble: SourceEnsemble, codebook: Codebook, n: int, seed: int
) -> SessionTranscript:
    """Draw n messages i.i.d. from the ensemble and transmit each one.

    Sampling is inverse-CDF over the messages in input order, driven by
    numpy's seeded PCG64 generator, so a (ensemble, n, seed) triple always
    produces the identical transcript. Send/receive is deterministic per
    message, so the distinct messages drawn are transmitted once, as one stack.
    """
    n, seed = linalg.as_int("n", n), linalg.as_int("seed", seed)
    if n < 1:
        raise ValueError("n must be >= 1")
    m = len(ensemble.messages)
    cumulative = np.cumsum([msg.probability for msg in ensemble.messages])
    cumulative[-1] = max(cumulative[-1], 1.0)  # guard the rounding edge at u ~ 1
    # one batched draw gives the same numbers as n scalar rng.random() calls
    uniforms = np.random.default_rng(seed).random(n)
    picks = np.minimum(np.searchsorted(cumulative, uniforms, side="right"), m - 1)

    bits, payloads = alice_send_many(codebook, [ensemble.messages[i] for i in _drawn(picks, m).tolist()])
    decoded = bob_receive_many(codebook, "".join(bits), payloads)
    decoded.flags.writeable = False
    return SessionTranscript(codebook.spec, seed, ensemble, picks, tuple(bits), tuple(payloads), decoded)


def verify_lossless(
    transcript: SessionTranscript, ensemble: SourceEnsemble, tol: float = FIDELITY_TOL
) -> bool:
    """Every decoded message reproduces its source with fidelity >= 1 - tol.

    Each table row is checked once, against the ensemble message at its
    message index, whose id it must carry; the transcript guarantees that
    every draw maps to one of these rows.
    """
    check_tolerance(tol)
    messages = ensemble.messages
    for index, message_id, row in zip(
        transcript.message_indices.tolist(), transcript.message_ids, transcript.decoded
    ):
        source = messages[index] if 0 <= index < len(messages) else None
        if source is None or source.id != message_id:
            return False
        if abs(np.vdot(source.unit_amps(), row)) ** 2 < 1.0 - tol:
            return False
    return True


# The halves of a record line around its index: the sorted-key json.dumps of
# the draw's object, written by template. The bits are 0/1 text, and the
# fidelity and the payload's components finite floats, whose %r is their JSON
# text; the payload's [re, im] pairs carry json.dumps's default separators,
# and the id is escaped as json.dumps escapes it.
_LINE_PREFIX = '{"baseLength": %d, "classicalBits": "%s", "fidelity": %r, "index": '
_LINE_SUFFIX = ', "messageId": %s, "payloadAmps": [%s]}'


def _line_halves(base_lengths, classical_bits, fidelities, message_ids, payloads):
    """Each message's record-line text before and after the draw index.

    ``base_lengths`` are ints and ``fidelities`` Python floats: under numpy 2,
    %r of an np.float64 is not its JSON text. Each payload is formatted from
    its flat row of floats, through one template per payload size.
    """
    prefixes = [_LINE_PREFIX % row for row in zip(base_lengths, classical_bits, fidelities)]
    templates: dict[int, str] = {}
    suffixes = []
    for message_id, payload in zip(message_ids, payloads):
        size = payload.size
        if size not in templates:
            templates[size] = _LINE_SUFFIX % ("%s", ", ".join(["[%r, %r]"] * size))
        row = np.ascontiguousarray(payload).view(np.float64).tolist()
        suffixes.append(templates[size] % (encode_basestring_ascii(message_id), *row))
    return prefixes, suffixes


def _line_chunks(transcript: SessionTranscript):
    """The transcript's lines in lists of at most ``_CHUNK_LINES``: the header, then the draws.

    Each record line is the sorted-key JSON object of its draw; only
    ``index`` varies between draws of one message, and it sorts between
    ``fidelity`` and ``messageId``, so every line is one message's fixed
    prefix and suffix around the index. The first chunk comes once every
    float of the text is formatted: the line halves, and the ensemble hash,
    which ``ensemble_hash_beside`` computes in forked workers while this
    process formats the halves.
    """
    payloads = transcript.payloads

    def halves():
        return _line_halves(
            transcript._lengths,
            transcript.classical_bits,
            transcript.fidelities.tolist(),
            transcript.message_ids,
            payloads,
        )

    floats = 2 * sum([p.size for p in payloads])
    digest, (prefixes, suffixes) = ensemble_io.ensemble_hash_beside(transcript.ensemble, halves, floats)
    header = {
        "k": transcript.spec.k,
        "r": transcript.spec.r,
        "seed": transcript.seed,
        "n": transcript.n,
        "ensembleHash": digest,
    }
    yield [json.dumps(header, sort_keys=True)]
    slots = transcript._slots
    for start in range(0, slots.size, _CHUNK_LINES):
        yield [
            prefixes[slot] + str(index) + suffixes[slot]
            for index, slot in enumerate(slots[start : start + _CHUNK_LINES].tolist(), start)
        ]


def transcript_lines(transcript: SessionTranscript) -> list[str]:
    """Serialized transcript: a JSON header line, then one JSON line per draw.

    Concatenating the records' classicalBits strings in order reproduces the
    session's full side-channel stream bit-exactly.
    """
    lines = []
    for chunk in _line_chunks(transcript):
        lines += chunk
    return lines


def write_transcript(transcript: SessionTranscript, path) -> None:
    """Write the transcript lines, newline-terminated, one chunk of lines at a time.

    The text is formatted before ``path`` is opened, so a failure there
    leaves a file already at ``path`` as it was.
    """
    chunks = _line_chunks(transcript)
    header = next(chunks)
    with open(path, "w", encoding="utf-8") as f:
        for lines in chain([header], chunks):
            f.write("\n".join(lines) + "\n")


def read_transcript(path) -> tuple[dict, list[dict]]:
    """Parse a transcript file back into its header and record documents."""
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    if not lines:
        raise ValueError("transcript file is empty")
    header = _json_line(lines[0], 1)
    if not isinstance(header, dict):
        raise ValueError("transcript header: expected an object")
    records = [_json_line(line, number) for number, line in enumerate(lines[1:], 2) if line.strip()]
    if require_key(header, "n", int, "transcript header") != len(records):
        raise ValueError("header count does not match the number of records")
    return header, records


def _json_line(line: str, number: int):
    """The JSON document on line ``number`` of a transcript file, counted from 1."""
    try:
        return json.loads(line)
    except json.JSONDecodeError as exc:
        raise ValueError(f"transcript line {number}: invalid JSON at column {exc.colno}: {exc.msg}") from None
    except (ValueError, RecursionError) as exc:
        # an integer literal beyond the int-conversion digit limit, or nesting too deep
        raise ValueError(f"transcript line {number}: invalid JSON: {exc}") from None


def replay_decode(codebook: Codebook, table: PrefixCodeTable, record_doc: dict) -> np.ndarray:
    """Re-run the receiving side from a stored transcript record.

    This is the storage mode: decoding happens from persisted classical bits
    and quantum payload, independent of the original session. ``table`` must
    be the codebook's own. A refusal is a ValueError that names the record by
    its ``index``, when that is an integer.
    """
    if not isinstance(record_doc, dict):
        raise ValueError("record: expected an object")
    index = record_doc.get("index")
    where = f"record {index}" if type(index) is int else "record"
    length = require_key(record_doc, "baseLength", object, where)
    try:
        # RegisterSpec judges the stored length, and caps k^r before the pairs are read
        spec = RegisterSpec(codebook.spec.k, length)
    except ValueError as exc:
        raise ValueError(f"{where}.baseLength: {exc}") from None
    amps = parse_amps(record_doc.get("payloadAmps"), spec.dim, f"{where}.payloadAmps")
    bits = require_key(record_doc, "classicalBits", str, where)
    try:
        return bob_receive(codebook, table, bits, VariableLengthState(spec, amps))
    except ValueError as exc:
        raise ValueError(f"{where}: {exc}") from None
