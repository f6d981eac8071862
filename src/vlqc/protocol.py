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
from json.encoder import encode_basestring_ascii
from pathlib import Path

import numpy as np

from . import linalg
from .codec import Codebook, SourceEnsemble, SourceMessage, decode_many, encode_many
from .ensemble_io import ensemble_hash
from .message_space import RegisterSpec, VariableLengthState, support_lengths, unit_rows
from .sidechannel import PrefixCodeTable, decode_lengths

FIDELITY_TOL = 1e-9
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


def _read_only(a, dtype) -> np.ndarray:
    """``a`` as an array of ``dtype`` that nobody can write through: kept if it
    already is read-only, else copied and frozen."""
    a = np.asarray(a, dtype=dtype)
    if a.flags.writeable:
        a = a.copy()
        a.flags.writeable = False
    return a


@dataclass(frozen=True)
class SessionTranscript:
    """A session as one table over the distinct messages drawn, plus the draw order; immutable.

    Row j of the table is one distinct message drawn, in ensemble order:
    ``message_indices[j]`` is its position in the ensemble, ``message_ids[j]``
    its id, ``classical_bits[j]`` its length codeword, ``payloads[j]`` its
    codeword cut to the k^L amplitudes of its base length L, ``decoded[j]``
    the receiver's output and ``fidelities[j]`` that output's fidelity
    against the message. The sender knows the message, so every draw of it
    reuses its row. ``picks[i]`` is the ensemble index of the message sent at
    step i. The session totals are derived from the table and the draw
    counts; ``records`` expands it into one :class:`TransmissionRecord` per draw.
    """

    spec: RegisterSpec
    seed: int
    ensemble_hash: str
    picks: np.ndarray
    message_indices: np.ndarray
    message_ids: tuple[str, ...]
    classical_bits: tuple[str, ...]
    payloads: tuple[np.ndarray, ...]
    decoded: np.ndarray
    fidelities: np.ndarray
    # each row's base length, the row of each draw's message, and each row's draw count
    _lengths: tuple[int, ...] = field(init=False, repr=False, compare=False)
    _slots: np.ndarray = field(init=False, repr=False, compare=False)
    _counts: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        picks = np.array(self.picks, dtype=np.intp)
        indices = np.array(self.message_indices, dtype=np.intp)
        ids, bits = tuple(self.message_ids), tuple(self.classical_bits)
        payloads = tuple([_read_only(p, complex) for p in self.payloads])
        decoded = _read_only(self.decoded, complex)
        fidelities = _read_only(self.fidelities, float)
        if picks.ndim != 1 or picks.size == 0:
            raise ValueError("transcript has no draws")
        drawn = indices.tolist() if indices.ndim == 1 else []
        if not drawn or drawn[0] < 0 or any(a >= b for a, b in zip(drawn, drawn[1:])):
            raise ValueError("table rows must be one per message, in ensemble order")
        if decoded.ndim != 2 or fidelities.ndim != 1 or {
            len(ids), len(bits), len(payloads), len(decoded), len(fidelities)
        } != {len(drawn)}:
            raise ValueError("table columns must have one entry per row")
        slots = np.searchsorted(indices, picks)
        # a pick past the last row gets slot len(drawn), which "clip" maps onto another message
        if (indices.take(slots, mode="clip") != picks).any():
            raise ValueError("a draw has no table row")
        counts = np.bincount(slots, minlength=len(drawn))
        if not counts.all():
            raise ValueError("a table row was never drawn")
        if not all(isinstance(i, str) for i in ids):
            raise ValueError("message ids must be strings")
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
        if not all(0.0 <= f <= 1.0 + 1e-12 for f in fidelities.tolist()):
            raise ValueError("a fidelity lies outside [0, 1]")
        picks.flags.writeable = indices.flags.writeable = slots.flags.writeable = counts.flags.writeable = False
        for name, value in zip(
            ("picks", "message_indices", "message_ids", "classical_bits", "payloads", "decoded", "fidelities",
             "_lengths", "_slots", "_counts"),
            (picks, indices, ids, bits, payloads, decoded, fidelities, lengths, slots, counts),
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
    if n < 1:
        raise ValueError("n must be >= 1")
    m = len(ensemble.messages)
    cumulative = np.cumsum([msg.probability for msg in ensemble.messages])
    cumulative[-1] = max(cumulative[-1], 1.0)  # guard the rounding edge at u ~ 1
    # one batched draw gives the same numbers as n scalar rng.random() calls
    uniforms = np.random.default_rng(seed).random(n)
    picks = np.minimum(np.searchsorted(cumulative, uniforms, side="right"), m - 1)

    drawn = np.flatnonzero(np.bincount(picks, minlength=m))
    messages = [ensemble.messages[i] for i in drawn.tolist()]
    bits, payloads = alice_send_many(codebook, messages)
    decoded = bob_receive_many(codebook, "".join(bits), payloads)
    decoded.flags.writeable = False
    # one vdot per row: a batched product rounds the fidelity differently
    fidelities = np.array([abs(np.vdot(msg.unit_amps(), row)) ** 2 for msg, row in zip(messages, decoded)])
    return SessionTranscript(
        codebook.spec, seed, ensemble_hash(ensemble), picks,
        message_indices=drawn,
        message_ids=tuple(msg.id for msg in messages),
        classical_bits=tuple(bits),
        payloads=tuple(payloads),
        decoded=decoded,
        fidelities=fidelities,
    )


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
# the draw's object, written by template. The bits are 0/1 text, the fidelity
# a finite float and the payload a nested list of finite floats, whose %r is
# their JSON text with the default separators; the id is escaped as json.dumps
# escapes it.
_LINE_PREFIX = '{"baseLength": %d, "classicalBits": "%s", "fidelity": %r, "index": '
_LINE_SUFFIX = ', "messageId": %s, "payloadAmps": %r}'


def _line_halves(base_lengths, classical_bits, fidelities, message_ids, payloads):
    """Each message's record-line text before and after the draw index.

    ``base_lengths`` are ints and ``fidelities`` Python floats: under numpy 2,
    %r of an np.float64 is not its JSON text.
    """
    prefixes = [_LINE_PREFIX % row for row in zip(base_lengths, classical_bits, fidelities)]
    suffixes = [
        _LINE_SUFFIX % (encode_basestring_ascii(message_id), linalg.complex_pairs(payload))
        for message_id, payload in zip(message_ids, payloads)
    ]
    return prefixes, suffixes


def _line_chunks(transcript: SessionTranscript):
    """The transcript's lines in lists of at most ``_CHUNK_LINES``: the header, then the draws.

    Each record line is the sorted-key JSON object of its draw; only
    ``index`` varies between draws of one message, and it sorts between
    ``fidelity`` and ``messageId``, so every line is one message's fixed
    prefix and suffix around the index.
    """
    header = {
        "k": transcript.spec.k,
        "r": transcript.spec.r,
        "seed": transcript.seed,
        "n": transcript.n,
        "ensembleHash": transcript.ensemble_hash,
    }
    yield [json.dumps(header, sort_keys=True)]
    prefixes, suffixes = _line_halves(
        transcript._lengths,
        transcript.classical_bits,
        transcript.fidelities.tolist(),
        transcript.message_ids,
        transcript.payloads,
    )
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
    """Write the transcript lines, newline-terminated, one chunk of lines at a time."""
    with open(path, "w", encoding="utf-8") as f:
        for lines in _line_chunks(transcript):
            f.write("\n".join(lines) + "\n")


def read_transcript(path) -> tuple[dict, list[dict]]:
    """Parse a transcript file back into its header and record documents."""
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    if not lines:
        raise ValueError("transcript file is empty")
    header = json.loads(lines[0])
    records = [json.loads(line) for line in lines[1:] if line.strip()]
    if header.get("n") != len(records):
        raise ValueError("header count does not match the number of records")
    return header, records


def replay_decode(codebook: Codebook, table: PrefixCodeTable, record_doc: dict) -> np.ndarray:
    """Re-run the receiving side from a stored transcript record.

    This is the storage mode: decoding happens from persisted classical bits
    and quantum payload, independent of the original session. ``table`` must
    be the codebook's own.
    """
    payload = VariableLengthState(
        RegisterSpec(codebook.spec.k, record_doc["baseLength"]),
        np.array([complex(re, im) for re, im in record_doc["payloadAmps"]]),
    )
    return bob_receive(codebook, table, record_doc["classicalBits"], payload)
