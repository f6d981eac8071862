"""Classical length side-channel: length statistics, Huffman coding, bitstreams.

The quantum codewords here are deliberately not prefix-free (their lengths
violate the classical Kraft inequality), so the receiver cannot split the
quantum stream on his own. Each codeword's base length travels as a Huffman
codeword over an auxiliary classical channel instead.
"""

from __future__ import annotations

import heapq
from collections.abc import Iterable, Mapping
from dataclasses import dataclass, field
from math import log2

PROBABILITY_SUM_TOL = 1e-9


@dataclass(frozen=True)
class LengthDistribution:
    """Probability of each base-length value appearing in the stream."""

    probs: dict[int, float]

    def __post_init__(self):
        probs = dict(self.probs)
        if not probs:
            raise ValueError("distribution has no symbols")
        for length, p in probs.items():
            if not (isinstance(length, int) and length >= 0):
                raise ValueError(f"length {length!r} must be a nonnegative integer")
            if not p > 0.0:
                raise ValueError(f"probability of length {length} must be positive")
        total = float(sum(probs.values()))
        if abs(total - 1.0) > PROBABILITY_SUM_TOL:
            raise ValueError(f"probabilities sum to {total!r}, expected 1")
        object.__setattr__(self, "probs", probs)


def length_distribution(ensemble, base_lengths: Mapping[str, int]) -> LengthDistribution:
    """Aggregate message probabilities by their tabulated base length."""
    probs: dict[int, float] = {}
    for msg in ensemble.messages:
        try:
            length = base_lengths[msg.id]
        except KeyError:
            raise ValueError(f"no base length tabulated for message {msg.id!r}") from None
        probs[length] = probs.get(length, 0.0) + msg.probability
    return LengthDistribution(probs)


def is_prefix_free(codewords: Iterable[str]) -> bool:
    """True iff no codeword is a prefix of another (duplicates are not prefix-free)."""
    words = sorted(codewords)
    return all(not words[i + 1].startswith(words[i]) for i in range(len(words) - 1))


def kraft_sum(lengths: Iterable[int], k: int) -> float:
    """Sum of k^(-L) over the codeword lengths."""
    if k < 2:
        raise ValueError("k must be >= 2")
    total = 0.0
    for length in lengths:
        if length < 0:
            raise ValueError("codeword lengths must be >= 0")
        total += float(k) ** (-length)
    return total


@dataclass(frozen=True)
class PrefixCodeTable:
    """Prefix-free binary codewords for length values."""

    codewords: dict[int, str]
    decode_map: dict[str, int] = field(init=False, repr=False, compare=False)
    max_word_length: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        codewords = dict(self.codewords)
        if not codewords:
            raise ValueError("code table has no entries")
        for length, word in codewords.items():
            if not word or set(word) - {"0", "1"}:
                raise ValueError(f"codeword for length {length} must be a nonempty 0/1 string")
        if not is_prefix_free(codewords.values()):
            raise ValueError("codewords are not prefix-free")
        if kraft_sum((len(w) for w in codewords.values()), 2) > 1.0 + 1e-12:
            raise ValueError("codewords violate the binary Kraft inequality")
        object.__setattr__(self, "codewords", codewords)
        object.__setattr__(self, "decode_map", {w: s for s, w in codewords.items()})
        object.__setattr__(self, "max_word_length", max(len(w) for w in codewords.values()))


def build_huffman(dist: LengthDistribution) -> PrefixCodeTable:
    """Deterministic optimal binary prefix code for the length values.

    The merge queue is keyed by (probability, smallest contained length
    value); of the two nodes merged, the first popped takes branch 0. A
    single-symbol alphabet gets the one-bit codeword "0" so that concatenated
    streams stay decodable without an external message count.
    """
    items = sorted(dist.probs.items())
    if len(items) == 1:
        return PrefixCodeTable({items[0][0]: "0"})
    heap: list[tuple[float, int, tuple[int, ...]]] = [(p, l, (l,)) for l, p in items]
    heapq.heapify(heap)
    prefixes = {l: "" for l, _ in items}
    while len(heap) > 1:
        p0, min0, syms0 = heapq.heappop(heap)
        p1, min1, syms1 = heapq.heappop(heap)
        for s in syms0:
            prefixes[s] = "0" + prefixes[s]
        for s in syms1:
            prefixes[s] = "1" + prefixes[s]
        heapq.heappush(heap, (p0 + p1, min(min0, min1), syms0 + syms1))
    return PrefixCodeTable(prefixes)


def expected_code_length(table: PrefixCodeTable, dist: LengthDistribution) -> float:
    """Mean codeword bit length under the distribution."""
    total = 0.0
    for length, p in dist.probs.items():
        try:
            total += p * len(table.codewords[length])
        except KeyError:
            raise ValueError(f"length {length} missing from the code table") from None
    return total


def shannon_entropy(probs: Iterable[float]) -> float:
    """-sum p log2 p in bits, with 0 log 0 = 0."""
    total = 0.0
    for p in probs:
        if p < 0.0:
            raise ValueError("probabilities must be nonnegative")
        if p > 0.0:
            total -= p * log2(p)
    return total


def _check_bits(bits: str) -> None:
    if set(bits) - {"0", "1"}:
        raise ValueError("bits must be a string over {'0', '1'}")


class BitStream:
    """Append-only bit sequence with a monotone read cursor.

    Bits are the characters '0'/'1'. Appended chunks are buffered and joined
    once, when the bits are next read, so n appends cost O(total length).
    Decoding is stateful; a stream being decoded belongs to a single owner.
    """

    def __init__(self, bits: str = ""):
        _check_bits(bits)
        self._bits = bits
        self._pending: list[str] = []
        self._length = len(bits)
        self._cursor = 0

    def _joined(self) -> str:
        if self._pending:
            self._pending.insert(0, self._bits)
            self._bits = "".join(self._pending)
            self._pending = []
        return self._bits

    @property
    def bits(self) -> str:
        return self._joined()

    @property
    def cursor(self) -> int:
        return self._cursor

    @property
    def remaining(self) -> int:
        return self._length - self._cursor

    def __len__(self) -> int:
        return self._length

    def append(self, bits: str) -> None:
        _check_bits(bits)
        self._pending.append(bits)
        self._length += len(bits)

    def read_symbol(self, table: PrefixCodeTable) -> int:
        """Greedy prefix decode of one codeword starting at the cursor."""
        bits = self._joined()
        word = ""
        while True:
            if self._cursor >= len(bits):
                raise ValueError("bit stream exhausted in the middle of a codeword")
            word += bits[self._cursor]
            self._cursor += 1
            symbol = table.decode_map.get(word)
            if symbol is not None:
                return symbol
            if len(word) >= table.max_word_length:
                raise ValueError(f"bits {word!r} match no codeword")


def encode_lengths(table: PrefixCodeTable, lengths: Iterable[int]) -> BitStream:
    """Concatenate the codewords for a sequence of length values."""
    parts = []
    for length in lengths:
        try:
            parts.append(table.codewords[length])
        except KeyError:
            raise ValueError(f"length {length} missing from the code table") from None
    return BitStream("".join(parts))


def decode_lengths(
    table: PrefixCodeTable,
    stream: BitStream | str,
    count: int,
    require_exhausted: bool = True,
) -> list[int]:
    """Decode exactly ``count`` codewords left to right.

    With ``require_exhausted`` (the strict framing used at session close),
    leftover bits after the last codeword are an error.
    """
    if count < 0:
        raise ValueError("count must be >= 0")
    if isinstance(stream, str):
        stream = BitStream(stream)
    out = [stream.read_symbol(table) for _ in range(count)]
    if require_exhausted and stream.remaining:
        raise ValueError(f"{stream.remaining} unread bits remain after {count} codewords")
    return out


def pack_bits(bits: str) -> tuple[bytes, int]:
    """Pack bits most-significant-bit-first into bytes.

    The trailing partial byte is zero-padded; the true bit length is returned
    alongside and must be stored with the payload.
    """
    _check_bits(bits)
    out = bytearray()
    for i in range(0, len(bits), 8):
        out.append(int(bits[i : i + 8].ljust(8, "0"), 2))
    return bytes(out), len(bits)


def unpack_bits(data: bytes, bit_length: int) -> str:
    if not 0 <= bit_length <= 8 * len(data):
        raise ValueError("bit length does not fit the payload")
    if len(data) and bit_length <= 8 * (len(data) - 1):
        raise ValueError("payload has surplus bytes beyond the bit length")
    bits = "".join(format(b, "08b") for b in data)
    return bits[:bit_length]
