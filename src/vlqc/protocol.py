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
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import linalg
from .codec import Codebook, SourceEnsemble, SourceMessage, decode, encode
from .ensemble_io import ensemble_hash
from .message_space import RegisterSpec, pad, truncate
from .sidechannel import BitStream, PrefixCodeTable, build_huffman, length_distribution

FIDELITY_TOL = 1e-9


@dataclass(frozen=True)
class QuantumPayload:
    """The truncated codeword actually sent: ``length`` digits, dim k^length."""

    length: int
    amps: np.ndarray

    def __post_init__(self):
        if self.length < 0:
            raise ValueError("payload length must be >= 0")
        amps = linalg.as_state(self.amps)
        if not linalg.is_unit(amps):
            raise ValueError("payload is not unit norm")
        amps = amps.copy()
        amps.flags.writeable = False
        object.__setattr__(self, "amps", amps)


@dataclass(frozen=True)
class TransmissionRecord:
    """Accounting for one message: what crossed each channel and what came back."""

    index: int
    message_id: str
    base_length: int
    classical_bits: str
    qubits_sent: int  # quantum digits; multiply by log2(k) for qubit units
    payload: QuantumPayload
    decoded: np.ndarray
    fidelity: float

    def __post_init__(self):
        if self.qubits_sent != self.base_length:
            raise ValueError("digit count must equal the announced base length")
        if not 0.0 <= self.fidelity <= 1.0 + 1e-12:
            raise ValueError(f"fidelity {self.fidelity!r} outside [0, 1]")
        decoded = linalg.as_state(self.decoded)
        decoded = decoded.copy()
        decoded.flags.writeable = False
        object.__setattr__(self, "decoded", decoded)


@dataclass(frozen=True)
class SessionTranscript:
    """Ordered transmission records plus totals; immutable once complete."""

    spec: RegisterSpec
    seed: int
    ensemble_hash: str
    records: tuple[TransmissionRecord, ...]
    total_qubits: int
    total_classical_bits: int
    mean_fidelity: float

    def __post_init__(self):
        object.__setattr__(self, "records", tuple(self.records))
        if not self.records:
            raise ValueError("transcript has no records")
        if [r.index for r in self.records] != list(range(len(self.records))):
            raise ValueError("record indices must be 0..n-1 in send order")
        if self.total_qubits != sum(r.qubits_sent for r in self.records):
            raise ValueError("qubit total does not match the records")
        if self.total_classical_bits != sum(len(r.classical_bits) for r in self.records):
            raise ValueError("classical bit total does not match the records")
        mean = sum(r.fidelity for r in self.records) / len(self.records)
        if abs(mean - self.mean_fidelity) > 1e-12:
            raise ValueError("mean fidelity does not match the records")

    def side_channel_stream(self) -> str:
        """The full classical bit stream of the session, in send order."""
        return "".join(r.classical_bits for r in self.records)


def alice_send(
    codebook: Codebook, table: PrefixCodeTable, message: SourceMessage
) -> tuple[str, QuantumPayload]:
    """Encode, truncate to the tabulated base length, and look up the length codeword.

    For base length 0 the payload is empty and only classical bits are emitted.
    """
    try:
        base = codebook.base_lengths[message.id]
    except KeyError:
        raise ValueError(f"message {message.id!r} is unknown to this codebook") from None
    try:
        bits = table.codewords[base]
    except KeyError:
        raise ValueError(f"length {base} is missing from the side-channel table") from None
    state = encode(codebook, message.unit_amps())
    return bits, QuantumPayload(length=base, amps=truncate(state, base))


def bob_receive(
    codebook: Codebook, table: PrefixCodeTable, bits: str, payload: QuantumPayload
) -> np.ndarray:
    """Decode the length header, restore leading zero digits, invert the encoder."""
    stream = BitStream(bits)
    length = stream.read_symbol(table)
    if stream.remaining:
        raise ValueError("trailing bits after the length codeword")
    if length != payload.length:
        raise ValueError(f"header says {length} digits but payload has {payload.length}")
    if payload.amps.shape[0] != codebook.spec.k**length:
        raise ValueError("payload dimension does not match its length")
    return decode(codebook, pad(payload.amps, codebook.spec))


def run_session(
    ensemble: SourceEnsemble, codebook: Codebook, n: int, seed: int
) -> SessionTranscript:
    """Draw n messages i.i.d. from the ensemble and transmit each one.

    Sampling is inverse-CDF over the messages in input order, driven by
    numpy's seeded PCG64 generator, so a (ensemble, n, seed) triple always
    produces the identical transcript.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    table = build_huffman(length_distribution(ensemble, codebook.base_lengths))
    cumulative = np.cumsum([m.probability for m in ensemble.messages])
    cumulative[-1] = max(cumulative[-1], 1.0)  # guard the rounding edge at u ~ 1
    rng = np.random.default_rng(seed)

    # send/receive is deterministic per message, so transmit each distinct
    # message once and reuse the outcome for repeated draws
    transmitted: dict[int, tuple[str, QuantumPayload, np.ndarray, float]] = {}
    records = []
    for index in range(n):
        pick = int(np.searchsorted(cumulative, rng.random(), side="right"))
        pick = min(pick, len(ensemble.messages) - 1)
        if pick not in transmitted:
            msg = ensemble.messages[pick]
            bits, payload = alice_send(codebook, table, msg)
            decoded = bob_receive(codebook, table, bits, payload)
            fidelity = float(abs(np.vdot(msg.unit_amps(), decoded)) ** 2)
            transmitted[pick] = (bits, payload, decoded, fidelity)
        bits, payload, decoded, fidelity = transmitted[pick]
        records.append(
            TransmissionRecord(
                index=index,
                message_id=ensemble.messages[pick].id,
                base_length=payload.length,
                classical_bits=bits,
                qubits_sent=payload.length,
                payload=payload,
                decoded=decoded,
                fidelity=fidelity,
            )
        )

    return SessionTranscript(
        spec=codebook.spec,
        seed=seed,
        ensemble_hash=ensemble_hash(ensemble),
        records=tuple(records),
        total_qubits=sum(r.qubits_sent for r in records),
        total_classical_bits=sum(len(r.classical_bits) for r in records),
        mean_fidelity=sum(r.fidelity for r in records) / len(records),
    )


def verify_lossless(
    transcript: SessionTranscript, ensemble: SourceEnsemble, tol: float = FIDELITY_TOL
) -> bool:
    """Every decoded record reproduces its source message with fidelity >= 1 - tol."""
    by_id = {m.id: m.unit_amps() for m in ensemble.messages}
    for record in transcript.records:
        source = by_id.get(record.message_id)
        if source is None:
            return False
        if abs(np.vdot(source, record.decoded)) ** 2 < 1.0 - tol:
            return False
    return True


def transcript_lines(transcript: SessionTranscript) -> list[str]:
    """Serialized transcript: a JSON header line, then one JSON line per record.

    Concatenating the records' classicalBits strings in order reproduces the
    session's full side-channel stream bit-exactly.
    """
    lines = [
        json.dumps(
            {
                "k": transcript.spec.k,
                "r": transcript.spec.r,
                "seed": transcript.seed,
                "n": len(transcript.records),
                "ensembleHash": transcript.ensemble_hash,
            },
            sort_keys=True,
        )
    ]
    for record in transcript.records:
        lines.append(
            json.dumps(
                {
                    "index": record.index,
                    "messageId": record.message_id,
                    "baseLength": record.base_length,
                    "classicalBits": record.classical_bits,
                    "payloadAmps": linalg.complex_pairs(record.payload.amps),
                    "fidelity": record.fidelity,
                },
                sort_keys=True,
            )
        )
    return lines


def write_transcript(transcript: SessionTranscript, path) -> None:
    Path(path).write_text("\n".join(transcript_lines(transcript)) + "\n", encoding="utf-8")


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
    payload = QuantumPayload(
        length=record_doc["baseLength"],
        amps=np.array([complex(re, im) for re, im in record_doc["payloadAmps"]]),
    )
    return bob_receive(codebook, table, record_doc["classicalBits"], payload)
