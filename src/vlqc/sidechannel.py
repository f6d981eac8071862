"""Classical length side-channel: length statistics, Huffman coding, bit strings.

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

from .linalg import PROBABILITY_SUM_TOL, as_int, as_probability


@dataclass(frozen=True)
class LengthDistribution:
    """Probability of each base-length value appearing in the stream."""

    probs: dict[int, float]

    def __post_init__(self):
        probs = {}
        for length, p in self.probs.items():
            if type(length) is not int:  # a numpy integer is stored as int; a bool is refused
                length = as_int("length", length)
            if length < 0:
                raise ValueError(f"length {length!r} must be a nonnegative integer")
            probs[length] = as_probability(f"length {length}", p)
        if not probs:
            raise ValueError("distribution has no symbols")
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
    """Prefix-free binary codewords for length values; by Kraft-McMillan they meet Kraft's inequality."""

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
    """-sum p log2 p in bits, with 0 log 0 = 0; a negative or NaN p is refused."""
    total = 0.0
    for p in probs:
        if not p >= 0.0:
            raise ValueError(f"probabilities must be nonnegative numbers, got {p!r}")
        if p > 0.0:
            total -= p * log2(p)
    return total


def encode_lengths(table: PrefixCodeTable, lengths: Iterable[int]) -> str:
    """Concatenate the codewords for a sequence of length values."""
    try:
        return "".join([table.codewords[length] for length in lengths])
    except KeyError as exc:
        raise ValueError(f"length {exc.args[0]} missing from the code table") from None


def decode_lengths(table: PrefixCodeTable, bits: str, count: int) -> list[int]:
    """Decode exactly ``count`` codewords from ``bits``, left to right.

    Framing is strict: bits ending inside a codeword, a prefix no codeword
    matches (any character other than 0/1 is one) and bits left over after
    the last codeword are all errors.
    """
    if count < 0:
        raise ValueError("count must be >= 0")
    decode_map, longest, end = table.decode_map, table.max_word_length, len(bits)
    out, pos = [], 0
    for _ in range(count):
        stop = pos + 1
        symbol = decode_map.get(bits[pos:stop])
        while symbol is None:
            # a probe past the end ran out of bits, unless a non-bit character
            # already rules out every codeword
            if stop > end and not bits[pos:].strip("01"):
                raise ValueError("bit stream exhausted in the middle of a codeword")
            if stop - pos == longest:
                raise ValueError(f"bits {bits[pos:stop]!r} match no codeword")
            stop += 1
            symbol = decode_map.get(bits[pos:stop])
        out.append(symbol)
        pos = stop
    if pos < end:
        raise ValueError(f"{end - pos} trailing bits remain unread after {count} codewords")
    return out
