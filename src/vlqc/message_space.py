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


def _integer(name: str, value) -> int:
    """``value`` as an int if it is a Python or numpy integer other than a bool, else ``ValueError``."""
    if type(value) is int:
        return value
    if isinstance(value, (bool, np.bool_)) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


@dataclass(frozen=True)
class RegisterSpec:
    """A register of ``r`` quantum digits, each of dimension ``k``; both are stored as int."""

    k: int
    r: int

    def __post_init__(self):
        # 2.0 or True would otherwise pass every comparison below and give a float or bool dim
        object.__setattr__(self, "k", _integer("letter dimension k", self.k))
        object.__setattr__(self, "r", _integer("register length r", self.r))
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


def k_ary_digits(i: int, k: int) -> str:
    """k-ary numeral of ``i`` with no leading zeros; 0 maps to the empty string."""
    if k < 2:
        raise ValueError("k must be >= 2")
    if k > len(DIGIT_ALPHABET):
        raise ValueError(f"digit printing supports k <= {len(DIGIT_ALPHABET)}")
    if i < 0:
        raise ValueError("i must be >= 0")
    digits = []
    while i:
        i, rem = divmod(i, k)
        digits.append(DIGIT_ALPHABET[rem])
    return "".join(reversed(digits))


def extended_k_ary(i: int, k: int, n: int) -> str:
    """k-ary numeral of ``i`` left-padded with zeros to exactly ``n`` digits."""
    if n < 0:
        raise ValueError("n must be >= 0")
    if i >= k**n:
        raise ValueError(f"{i} does not fit in {n} base-{k} digits")
    return k_ary_digits(i, k).rjust(n, "0")


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


@dataclass(frozen=True)
class GeneralRegisterIndex:
    """Position of a marker-prefixed codeword in an (r+1)-digit register.

    The codeword |0..0 1 d_1..d_n> (a start marker followed by the n-digit
    extended numeral of ``i``) sits at register index k^n + i when the digits
    are read as one base-k numeral.
    """

    n: int
    i: int
    register_index: int


def general_basis_index(n: int, i: int, spec: RegisterSpec) -> GeneralRegisterIndex:
    if not 0 <= n <= spec.r:
        raise ValueError(f"significant length {n} outside [0, {spec.r}]")
    if not 0 <= i < spec.k**n:
        raise ValueError(f"value {i} outside [0, k^{n})")
    return GeneralRegisterIndex(n=n, i=i, register_index=spec.k**n + i)


def length_projector_indices(n: int, spec: RegisterSpec) -> range:
    """Register basis indices whose numerals have exactly ``n`` significant digits."""
    if not 0 <= n <= spec.r:
        raise ValueError(f"length {n} outside [0, {spec.r}]")
    if n == 0:
        return range(0, 1)
    return range(spec.k ** (n - 1), spec.k**n)


def unit_rows(rows: Sequence[np.ndarray]) -> bool:
    """Whether every row of ``rows`` (nonempty 1-d complex arrays, any lengths)
    has a norm within UNIT_TOL of 1.

    The one unit test for register states: a :class:`VariableLengthState`
    applies it to its one row, a session transcript to all its payloads at
    once. NaN or Inf in a row, or a square that overflows, fails the test.
    """
    starts, end = [], 0
    for row in rows:
        starts.append(end)
        end += 2 * row.size
    flat = np.concatenate(rows).view(np.float64)  # each row's re, im components, row after row
    with np.errstate(over="ignore", invalid="ignore"):
        norms = np.sqrt(np.add.reduceat(flat * flat, starts))
        return bool((abs(norms - 1.0) <= linalg.UNIT_TOL).all())


@dataclass(frozen=True)
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


def expected_length(state: VariableLengthState) -> float:
    return float(sum(n * q for n, q in length_probabilities(state).items()))


def support_lengths(amps: np.ndarray, k: int) -> np.ndarray:
    """Per row of ``amps``, the significant length of its last component whose
    magnitude exceeds AMP_TOL, or 0 when none does.

    This is the one support rule: base lengths, the sender's tail test and the
    verifier all apply it, and all to the same per-row encoder products, so
    what the codebook tabulates is exactly what the sender can cut to.
    """
    present = np.abs(amps) > AMP_TOL
    last = np.where(present.any(axis=1), present.shape[1] - 1 - present[:, ::-1].argmax(axis=1), 0)
    return np.array([significant_length(int(i), k) for i in last], dtype=int)


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
