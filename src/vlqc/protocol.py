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
from pathlib import Path

import numpy as np

from . import linalg
from .codec import Codebook, SourceEnsemble, SourceMessage, decode_many, encode_many
from .ensemble_io import ensemble_hash
from .message_space import AMP_TOL, RegisterSpec, VariableLengthState
from .sidechannel import PrefixCodeTable, build_huffman, decode_lengths, length_distribution

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


@dataclass(frozen=True)
class MessageOutcome:
    """One distinct message's transmission; every draw of that message reuses it.

    The sender knows the message, so its length codeword, truncated payload
    and the receiver's output are fixed by the message, not by the draw.
    ``message_index`` is the message's position in the ensemble.
    """

    message_index: int
    message_id: str
    classical_bits: str
    payload: VariableLengthState
    decoded: np.ndarray
    fidelity: float

    def __post_init__(self):
        if not 0.0 <= self.fidelity <= 1.0 + 1e-12:
            raise ValueError(f"fidelity {self.fidelity!r} outside [0, 1]")
        decoded = linalg.as_state(self.decoded).copy()
        decoded.flags.writeable = False
        object.__setattr__(self, "decoded", decoded)


@dataclass(frozen=True)
class SessionTranscript:
    """A session as a per-message table plus the draw order; immutable.

    ``outcomes`` holds one entry per distinct message drawn, in ensemble
    order; ``picks[i]`` is the ensemble index of the message sent at step i.
    The session totals are derived from the table and the draw counts.
    ``records`` expands this into one :class:`TransmissionRecord` per draw.
    """

    spec: RegisterSpec
    seed: int
    ensemble_hash: str
    outcomes: tuple[MessageOutcome, ...]
    picks: np.ndarray
    # position in ``outcomes`` of each draw's message, and each outcome's draw count
    _slots: np.ndarray = field(init=False, repr=False, compare=False)
    _counts: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        outcomes = tuple(self.outcomes)
        picks = np.array(self.picks, dtype=np.intp)
        picks.flags.writeable = False
        object.__setattr__(self, "outcomes", outcomes)
        object.__setattr__(self, "picks", picks)
        if picks.ndim != 1 or picks.size == 0:
            raise ValueError("transcript has no draws")
        drawn = np.array([o.message_index for o in outcomes], dtype=np.intp)
        if drawn.size == 0 or drawn[0] < 0 or (np.diff(drawn) <= 0).any():
            raise ValueError("outcomes must be one per message, in ensemble order")
        slots = np.searchsorted(drawn, picks)
        if (slots == drawn.size).any() or (drawn[slots] != picks).any():
            raise ValueError("a draw has no outcome")
        counts = np.bincount(slots, minlength=drawn.size)
        if not counts.all():
            raise ValueError("an outcome was never drawn")
        slots.flags.writeable = counts.flags.writeable = False
        object.__setattr__(self, "_slots", slots)
        object.__setattr__(self, "_counts", counts)

    @property
    def n(self) -> int:
        """Number of messages sent."""
        return self.picks.size

    @property
    def total_qubits(self) -> int:
        """Quantum digits sent over the whole session."""
        return int(self._counts @ [o.payload.spec.r for o in self.outcomes])

    @property
    def total_classical_bits(self) -> int:
        """Side-channel bits sent over the whole session."""
        return int(self._counts @ [len(o.classical_bits) for o in self.outcomes])

    @cached_property
    def mean_fidelity(self) -> float:
        """Fidelity summed over the draws in send order, as a per-draw loop would, over n."""
        fidelities = np.array([o.fidelity for o in self.outcomes])
        return sum(fidelities[self._slots].tolist()) / self.n

    @cached_property
    def records(self) -> tuple[TransmissionRecord, ...]:
        """One record per draw, in send order, built from the table on first access."""
        rows = [
            (o.message_id, o.payload.spec.r, o.classical_bits, o.payload, o.decoded, o.fidelity)
            for o in self.outcomes
        ]
        return tuple(
            TransmissionRecord(index, *rows[slot]) for index, slot in enumerate(self._slots.tolist())
        )

    def side_channel_stream(self) -> str:
        """The full classical bit stream of the session, in send order."""
        words = [o.classical_bits for o in self.outcomes]
        return "".join([words[slot] for slot in self._slots.tolist()])


def alice_send_many(
    codebook: Codebook, table: PrefixCodeTable, messages: list[SourceMessage]
) -> tuple[list[str], list[VariableLengthState]]:
    """Each message's length codeword and its codeword truncated to the tabulated
    base length, as a payload on a register of base-length digits (none for base
    length 0): one encoder product over the stacked unit states."""
    bases = [codebook.base_lengths.get(m.id) for m in messages]
    if None in bases:
        raise ValueError(f"message {messages[bases.index(None)].id!r} is unknown to this codebook")
    bits = [table.codewords.get(base) for base in bases]
    if None in bits:
        raise ValueError(f"length {bases[bits.index(None)]} is missing from the side-channel table")
    codewords = encode_many(codebook, [m.unit_amps() for m in messages])
    keep = codebook.spec.k ** np.array(bases)
    beyond = np.arange(codebook.spec.dim) >= keep[:, None]
    cut = (np.abs(codewords) * beyond).max(axis=1) > AMP_TOL  # truncate's check, on every row
    if cut.any():
        raise ValueError(f"state has support beyond length {bases[int(cut.argmax())]}")
    return bits, [
        VariableLengthState(RegisterSpec(codebook.spec.k, base), row[:size])
        for base, size, row in zip(bases, keep.tolist(), codewords)
    ]


def alice_send(
    codebook: Codebook, table: PrefixCodeTable, message: SourceMessage
) -> tuple[str, VariableLengthState]:
    """:func:`alice_send_many` for one message."""
    [bits], [payload] = alice_send_many(codebook, table, [message])
    return bits, payload


def bob_receive_many(
    codebook: Codebook, table: PrefixCodeTable, stream: str, payloads: list[VariableLengthState]
) -> np.ndarray:
    """Decode one length header per payload from the stream, restore leading zero
    digits, and invert the encoder: one decoder product over the stacked payloads."""
    lengths = decode_lengths(table, stream, len(payloads))
    padded = np.zeros((len(payloads), codebook.spec.dim), dtype=complex)
    for row, length, payload in zip(padded, lengths, payloads):
        if payload.spec != RegisterSpec(codebook.spec.k, length):
            raise ValueError(f"header says {length} digits but payload is on {payload.spec}")
        row[: payload.amps.size] = payload.amps
    return decode_many(codebook, padded)


def bob_receive(
    codebook: Codebook, table: PrefixCodeTable, bits: str, payload: VariableLengthState
) -> np.ndarray:
    """:func:`bob_receive_many` for one payload and its length header."""
    return bob_receive_many(codebook, table, bits, [payload])[0]


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
    table = build_huffman(length_distribution(ensemble, codebook.base_lengths))
    m = len(ensemble.messages)
    cumulative = np.cumsum([msg.probability for msg in ensemble.messages])
    cumulative[-1] = max(cumulative[-1], 1.0)  # guard the rounding edge at u ~ 1
    # one batched draw gives the same numbers as n scalar rng.random() calls
    uniforms = np.random.default_rng(seed).random(n)
    picks = np.minimum(np.searchsorted(cumulative, uniforms, side="right"), m - 1)

    drawn = np.flatnonzero(np.bincount(picks, minlength=m)).tolist()
    messages = [ensemble.messages[i] for i in drawn]
    bits, payloads = alice_send_many(codebook, table, messages)
    decoded = bob_receive_many(codebook, table, "".join(bits), payloads)
    outcomes = tuple(
        # one vdot per outcome: a batched product rounds the fidelity differently
        MessageOutcome(i, msg.id, b, p, row, float(abs(np.vdot(msg.unit_amps(), row)) ** 2))
        for i, msg, b, p, row in zip(drawn, messages, bits, payloads, decoded)
    )
    return SessionTranscript(codebook.spec, seed, ensemble_hash(ensemble), outcomes, picks)


def verify_lossless(
    transcript: SessionTranscript, ensemble: SourceEnsemble, tol: float = FIDELITY_TOL
) -> bool:
    """Every decoded message reproduces its source with fidelity >= 1 - tol.

    Each distinct message is checked once, against the ensemble message at its
    ``message_index``, whose id it must carry; the transcript guarantees that
    every draw maps to one of these outcomes.
    """
    check_tolerance(tol)
    messages = ensemble.messages
    for o in transcript.outcomes:
        source = messages[o.message_index] if 0 <= o.message_index < len(messages) else None
        if source is None or source.id != o.message_id:
            return False
        if abs(np.vdot(source.unit_amps(), o.decoded)) ** 2 < 1.0 - tol:
            return False
    return True


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
    prefixes, suffixes = [], []
    for o in transcript.outcomes:
        before = {"baseLength": o.payload.spec.r, "classicalBits": o.classical_bits, "fidelity": o.fidelity}
        after = {"messageId": o.message_id, "payloadAmps": linalg.complex_pairs(o.payload.amps)}
        prefixes.append(json.dumps(before, sort_keys=True)[:-1] + ', "index": ')
        suffixes.append(", " + json.dumps(after, sort_keys=True)[1:])
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
    and quantum payload, independent of the original session.
    """
    payload = VariableLengthState(
        RegisterSpec(codebook.spec.k, record_doc["baseLength"]),
        np.array([complex(re, im) for re, im in record_doc["payloadAmps"]]),
    )
    return bob_receive(codebook, table, record_doc["classicalBits"], payload)
