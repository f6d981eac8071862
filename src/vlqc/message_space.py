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

from dataclasses import dataclass

import numpy as np

from . import linalg

DIGIT_ALPHABET = "0123456789ABCDEFGHIJKLMNOPQRSTUVWXYZ"

# A component counts as present when its amplitude magnitude exceeds this;
# separates true zeros from orthonormalization rounding residue.
AMP_TOL = 1e-12


@dataclass(frozen=True)
class RegisterSpec:
    """A register of ``r`` quantum digits, each of dimension ``k``."""

    k: int
    r: int

    def __post_init__(self):
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
        if not linalg.is_unit(amps):
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


def base_length(state: VariableLengthState) -> int:
    """Length of the longest component whose amplitude exceeds AMP_TOL, the
    rule :func:`truncate` and the codebook's base lengths also apply."""
    present = np.flatnonzero(np.abs(state.amps) > AMP_TOL)
    return significant_length(int(present[-1]), state.spec.k) if present.size else 0


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


def truncate(state: VariableLengthState, length: int) -> np.ndarray:
    """Drop the leading all-zero digits, keeping the first k^length amplitudes.

    Valid only when every component fits in ``length`` digits; raises if
    measurable amplitude sits beyond the cut, which would lose information
    and signals a base-length violation. ``length`` 0 yields the dim-1
    empty payload.
    """
    if not 0 <= length <= state.spec.r:
        raise ValueError(f"length {length} outside [0, {state.spec.r}]")
    keep = state.spec.k**length
    tail = state.amps[keep:]
    if tail.size and float(np.max(np.abs(tail))) > AMP_TOL:
        raise ValueError(f"state has support beyond length {length}")
    return state.amps[:keep].copy()


def pad(payload, spec: RegisterSpec) -> VariableLengthState:
    """Embed a unit k^L payload into the k^r register by restoring leading zeros.

    Inverse of :func:`truncate` on valid inputs.
    """
    payload = linalg.as_state(payload)
    dim = payload.shape[0]
    length = significant_length(dim - 1, spec.k)
    if spec.k**length != dim:
        raise ValueError(f"payload dimension {dim} is not a power of {spec.k}")
    if length > spec.r:
        raise ValueError(f"payload of length {length} exceeds register length {spec.r}")
    amps = np.zeros(spec.dim, dtype=complex)
    amps[:dim] = payload
    return VariableLengthState(spec, amps)
