"""Variable-length quantum messages held in a fixed-width k-ary register.

A register of ``r`` quantum digits (each of dimension ``k``) stores codewords
as k-ary numerals padded with leading zeros: basis index ``i`` represents the
numeral of ``i`` and therefore carries ``ceil(log_k(i+1))`` significant
digits, with index 0 standing for the empty message. Superpositions across
indices of different significant length are variable-length messages; the
length observable is the family of projectors onto equal-significant-length
index blocks.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from . import linalg

DIGIT_ALPHABET = "0123456789ABCDEFGHIJKLMNOPQRSTUVWXYZ"

# A component counts as present when its amplitude magnitude exceeds this;
# separates true zeros from orthonormalization rounding residue.
AMP_TOL = 1e-12


@dataclass(frozen=True)
class RegisterSpec:
    """A register of ``r`` quantum digits, each of dimension ``k``; both are stored as int."""

    k: int
    r: int

    def __post_init__(self):
        # 2.0 or True would otherwise pass every comparison below and give a float or bool dim
        object.__setattr__(self, "k", linalg.as_int("letter dimension k", self.k))
        object.__setattr__(self, "r", linalg.as_int("register length r", self.r))
        if self.k < 2:
            raise ValueError("letter dimension k must be >= 2")
        if self.k > len(DIGIT_ALPHABET):
            raise ValueError(f"digit printing supports k <= {len(DIGIT_ALPHABET)}")
        if self.r < 0:
            raise ValueError("register length r must be >= 0")
        # k >= 2, so r > 22 already exceeds the cap; test it before computing k^r
        if self.r > 22 or self.k**self.r > 2**22:
            raise ValueError("register dimension k^r too large for dense simulation")

    @property
    def dim(self) -> int:
        return self.k**self.r


def significant_length(i: int, k: int) -> int:
    """Number of base-k digits of ``i``, with 0 -> 0; exact integer arithmetic."""
    if k < 2:
        raise ValueError("k must be >= 2")
    if i < 0:
        raise ValueError("i must be >= 0")
    n = 0
    while i:
        i //= k
        n += 1
    return n


def dim_general_message_space(k: int, r: int) -> int:
    """Dimension of the space of all messages of length <= r: sum over n of k^n."""
    if k < 2:
        raise ValueError("k must be >= 2")
    if r < 0:
        raise ValueError("r must be >= 0")
    return (k ** (r + 1) - 1) // (k - 1)


def length_projector_indices(n: int, spec: RegisterSpec) -> range:
    """Register basis indices whose numerals have exactly ``n`` significant digits."""
    if not 0 <= n <= spec.r:
        raise ValueError(f"length {n} outside [0, {spec.r}]")
    if n == 0:
        return range(0, 1)
    return range(spec.k ** (n - 1), spec.k**n)


def unit_rows(rows: Sequence[np.ndarray]) -> bool:
    """Whether every row of ``rows`` (nonempty 1-d complex arrays, any lengths,
    or the rows of a 2-d complex array) has a norm within UNIT_TOL of 1.

    The one unit test for register states and encoder input: a
    :class:`VariableLengthState` applies it to its one row, a session
    transcript to all its payloads at once, ``encode_many`` to its input
    rows. NaN or Inf in a row, or a square that overflows, fails the test.
    """
    # each row's re, im components, row after row; no rows pass
    if isinstance(rows, np.ndarray):
        flat = np.ascontiguousarray(rows).view(np.float64).reshape(-1)
        starts = range(0, flat.size, 2 * rows.shape[1])
    else:
        starts, end = [], 0
        for row in rows:
            starts.append(end)
            end += 2 * row.size
        flat = np.concatenate(rows).view(np.float64) if starts else np.empty(0)
    with np.errstate(over="ignore", invalid="ignore"):
        norms = np.sqrt(np.add.reduceat(flat * flat, starts))
        return bool((abs(norms - 1.0) <= linalg.UNIT_TOL).all())


@dataclass(frozen=True, eq=False)
class VariableLengthState:
    """Unit amplitude vector over the k^r register basis."""

    spec: RegisterSpec
    amps: np.ndarray

    def __post_init__(self):
        amps = linalg.as_state(self.amps)
        if amps.shape[0] != self.spec.dim:
            raise ValueError(
                f"amplitude vector has dim {amps.shape[0]}, register needs {self.spec.dim}"
            )
        if not unit_rows([amps]):
            raise ValueError("state is not unit norm")
        amps = amps.copy()
        amps.flags.writeable = False
        object.__setattr__(self, "amps", amps)


def length_probabilities(state: VariableLengthState) -> dict[int, float]:
    """Born probability of each length outcome n = 0..r."""
    p = np.abs(state.amps) ** 2
    out = {}
    for n in range(state.spec.r + 1):
        idx = length_projector_indices(n, state.spec)
        out[n] = float(p[idx.start : idx.stop].sum())
    return out


def support_lengths(amps: np.ndarray, k: int) -> np.ndarray:
    """Per row of ``amps``, the significant length of its last component whose
    magnitude exceeds AMP_TOL, or 0 when none does.

    This is the one support rule: base lengths, the sender's tail test and the
    verifier all apply it, and all to the same per-row encoder products, so
    what the codebook tabulates is exactly what the sender can cut to.
    """
    if k < 2:
        raise ValueError("k must be >= 2")
    present = np.abs(amps) > AMP_TOL
    width = present.shape[1]
    last = np.where(present.any(axis=1), width - 1 - present[:, ::-1].argmax(axis=1), 0)
    # the significant length of i is the number of powers k^0, k^1, ... at or below i
    powers = [1]
    while powers[-1] * k < width:
        powers.append(powers[-1] * k)
    return np.searchsorted(powers, last, side="right")


def base_length(state: VariableLengthState) -> int:
    """Length of the longest component whose amplitude exceeds AMP_TOL:
    :func:`support_lengths` of the one state."""
    return int(support_lengths(state.amps[None], state.spec.k)[0])


@dataclass(frozen=True)
class LengthMeasurementOutcome:
    length: int
    probability: float
    collapsed: VariableLengthState


def measure_length(state: VariableLengthState, rng) -> LengthMeasurementOutcome:
    """Sample one length outcome and project onto it; disturbs the message.

    ``rng`` is a caller-owned numpy Generator, so sampling is reproducible.
    """
    probs = length_probabilities(state)
    supported = [n for n in range(state.spec.r + 1) if probs[n] > 0.0]
    outcome = supported[-1]
    u = float(rng.random())
    acc = 0.0
    for n in supported:
        acc += probs[n]
        if u < acc:
            outcome = n
            break
    idx = length_projector_indices(outcome, state.spec)
    collapsed = np.zeros_like(state.amps)
    collapsed[idx.start : idx.stop] = state.amps[idx.start : idx.stop]
    collapsed /= np.linalg.norm(collapsed)
    return LengthMeasurementOutcome(
        length=outcome,
        probability=probs[outcome],
        collapsed=VariableLengthState(state.spec, collapsed),
    )
