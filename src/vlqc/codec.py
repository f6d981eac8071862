"""Build lossless variable-length codebooks from weighted state ensembles.

The construction: sort messages by descending probability, keep a maximal
linearly independent subset, orthonormalize it in order, and map the i-th
basis vector to the register numeral of i-1. More probable directions get
shorter codewords; the empty codeword goes to the most probable message.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import linalg
from .message_space import RegisterSpec, VariableLengthState, significant_length, support_lengths, unit_rows
from .sidechannel import LengthDistribution, PrefixCodeTable, build_huffman, length_distribution

DECODE_SUPPORT_TOL = 1e-10


@dataclass(frozen=True, eq=False)
class SourceMessage:
    """One source state: raw (possibly unnormalized) amplitudes plus its probability.

    The unit state |x> is computed once, here, and shared read-only.
    """

    id: str
    amps: np.ndarray
    probability: float
    _unit: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        amps = linalg.as_state(self.amps).copy()
        with np.errstate(over="ignore"):
            self._set_states(amps)

    @classmethod
    def of_finite(cls, id: str, amps: np.ndarray, probability: float) -> SourceMessage:
        """The message whose ``amps`` as_state's rules already passed (a parsed
        file's row), built by the same rules without testing them again. It
        keeps ``amps`` itself, so no one else may write it; the caller holds
        np.errstate(over="ignore")."""
        msg = cls.__new__(cls)
        object.__setattr__(msg, "id", id)
        object.__setattr__(msg, "probability", probability)
        msg._set_states(amps)
        return msg

    def _set_states(self, amps: np.ndarray) -> None:
        """Store ``amps``, its unit state and the probability as a float, by the
        rules both constructors share; the id must be a string."""
        if not isinstance(self.id, str):
            raise ValueError(f"message id must be a string, got {self.id!r}")
        try:
            unit = linalg.normalize_finite(amps)
        except ValueError as exc:
            raise ValueError(f"message {self.id!r}: {exc}") from None
        object.__setattr__(self, "probability", linalg.as_probability(f"message {self.id!r}", self.probability))
        for name, value in (("amps", amps), ("_unit", unit)):
            value.flags.writeable = False
            object.__setattr__(self, name, value)

    def unit_amps(self) -> np.ndarray:
        return self._unit


@dataclass(frozen=True, eq=False)
class SourceEnsemble:
    """Weighted source messages spanning the space to be encoded."""

    messages: tuple[SourceMessage, ...]
    ambient_dim: int

    def __post_init__(self):
        object.__setattr__(self, "messages", tuple(self.messages))
        object.__setattr__(self, "ambient_dim", linalg.as_int("ambient_dim", self.ambient_dim))
        if self.ambient_dim < 1:
            raise ValueError(f"ambient_dim must be >= 1, got {self.ambient_dim}")
        if not self.messages:
            raise ValueError("ensemble has no messages")
        seen: set[str] = set()
        for msg in self.messages:
            if msg.amps.shape[0] != self.ambient_dim:
                raise ValueError(
                    f"message {msg.id!r} has dim {msg.amps.shape[0]}, expected {self.ambient_dim}"
                )
            if msg.id in seen:
                raise ValueError(f"duplicate message id {msg.id!r}")
            seen.add(msg.id)
        total = float(sum(m.probability for m in self.messages))
        if abs(total - 1.0) > linalg.PROBABILITY_SUM_TOL:
            raise ValueError(f"probabilities sum to {total!r}, expected 1")

    def probabilities(self) -> list[float]:
        return [m.probability for m in self.messages]

    def find(self, message_id: str) -> SourceMessage:
        for msg in self.messages:
            if msg.id == message_id:
                return msg
        raise KeyError(message_id)


def _independent(ensemble: SourceEnsemble):
    """Message positions most probable first (input order breaks ties), the unit states
    in that order, select_independent's messages, and orthonormal rows spanning them."""
    order = sorted(range(len(ensemble.messages)), key=lambda i: -ensemble.messages[i].probability)
    units = np.array([ensemble.messages[i].unit_amps() for i in order])
    kept, rows = linalg.independent_rows(units)
    return order, units, [ensemble.messages[order[i]] for i in kept], rows


def _per_row(matrix: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """``matrix @ row`` for each row of ``rows``, one matvec per row.

    Not a gemm (``rows @ matrix.T``): a gemm rounds differently from
    ``matrix @ row``. Base lengths, the sender's cut and the receiver's
    decoded rows all read these products, and stored transcripts pin their
    rounding.
    """
    return np.matmul(matrix, rows[:, :, None])[:, :, 0]


def _code_products(basis: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """<omega_i|x> for i = 1..code_dim and each row x of ``rows``: the sender's
    products over the rows of conj(basis), one matvec per row: the first
    code_dim components of a codeword, whose rest is exactly zero.
    """
    return _per_row(np.conj(basis), rows)


def select_independent(ensemble: SourceEnsemble) -> list[SourceMessage]:
    """Greedy maximal linearly independent subset, visited most probable first
    (input order breaks ties) and kept as by linalg.independent_rows."""
    return _independent(ensemble)[2]


@dataclass(frozen=True, eq=False)
class Codebook:
    """The code: an ordered orthonormal basis mapped onto leading-zero-padded
    k-ary register numerals, and the classical length code agreed with it.

    ``basis`` (code_dim x ambient_dim) holds omega_i as row i-1 and is the one
    stored form of the quantum code; the sender's products are taken over its
    rows, so building a code and reporting on it allocate nothing k^r wide.
    ``code_lengths[i-1]`` is the significant length of codeword i, i.e.
    ceil(log_k(i)). ``base_lengths`` maps each source message id to the
    longest codeword component its encoding touches, and ``lengths`` gives
    each base length its probability. ``table``, the Huffman code over
    ``lengths`` that carries each base length over the side-channel, is
    derived from ``lengths`` here; every base length must be in ``lengths``,
    so that it has a codeword.

    ``decoder`` is derived from ``basis`` on first use and kept, read-only:
    the (ambient_dim, k^r) matrix whose column i-1 is |omega_i> and whose
    columns past code_dim are zero, the inverse of the encoder on the code
    space. It stays k^r wide because the receiver's product is a k^r-long dot
    over the padded codeword, and a dot over code_dim terms would round some
    decoded rows differently, which stored transcripts pin.
    """

    spec: RegisterSpec
    basis: np.ndarray
    base_lengths: dict[str, int]
    lengths: LengthDistribution
    table: PrefixCodeTable = field(init=False, repr=False)

    def __post_init__(self):
        basis = np.array(self.basis, dtype=complex)
        if basis.ndim != 2 or basis.shape[1] == 0:
            raise ValueError("basis must be a 2-d array with at least one column")
        if not 1 <= basis.shape[0] <= self.spec.dim:
            raise ValueError(f"basis size {basis.shape[0]} does not fit register of dim {self.spec.dim}")
        if not np.isfinite(basis).all():
            raise ValueError("basis contains NaN or Inf")
        for length in self.base_lengths.values():
            if length not in self.lengths.probs:
                raise ValueError(f"base length {length!r} is missing from the side-channel lengths")
        basis.flags.writeable = False
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "table", build_huffman(self.lengths))

    @cached_property
    def decoder(self) -> np.ndarray:
        # C-ordered, built in one allocation: the layout fixes how decoder products
        # round, and stored transcripts pin that; the padding is conj(0) = 0 - 0j
        decoder = np.empty((self.ambient_dim, self.spec.dim), dtype=complex)
        decoder[:, : self.code_dim] = self.basis.T
        decoder[:, self.code_dim :] = complex(0.0, -0.0)
        decoder.flags.writeable = False
        return decoder

    @property
    def ambient_dim(self) -> int:
        return self.basis.shape[1]

    @property
    def code_dim(self) -> int:
        return self.basis.shape[0]

    @property
    def code_lengths(self) -> tuple[int, ...]:
        return tuple(significant_length(i, self.spec.k) for i in range(self.code_dim))


def build_codebook(ensemble: SourceEnsemble, k: int = 2) -> Codebook:
    """Construct the code for an ensemble over a minimal k-ary register.

    The register length is the smallest r with k^r >= dim span(messages).
    Base lengths record, per source message, the longest codeword component
    its encoding touches; that is what the sender must announce. They are the
    :func:`support_lengths` of the products the sender computes,
    :func:`_code_products`, so the sender's cut never meets amplitude the
    table left out, however close to AMP_TOL a component rounds. Their
    distribution under the message probabilities fixes the side-channel code.
    """
    order, units, _, rows = _independent(ensemble)
    spec = RegisterSpec(k=k, r=significant_length(len(rows) - 1, k))
    lengths = support_lengths(_code_products(rows, units), k)[np.argsort(order)].tolist()
    del units  # free the m x ambient_dim states before the codebook copies its basis
    base_lengths = {msg.id: n for msg, n in zip(ensemble.messages, lengths)}
    return Codebook(spec, rows, base_lengths, length_distribution(ensemble, base_lengths))


def encode_many(codebook: Codebook, x) -> np.ndarray:
    """The encoder isometry applied to each row of ``x``, each a unit vector inside
    the source span: a row is inside when its codeword is unit, so one with more
    than about sqrt(2 * UNIT_TOL) of its norm outside the span is refused.
    Each codeword is its code-width products zero-padded to k^r."""
    x = np.asarray(x, dtype=complex)
    if x.ndim != 2 or x.shape[1] != codebook.ambient_dim:
        raise ValueError(f"vector has dim {x.shape[-1]}, expected {codebook.ambient_dim}")
    if not unit_rows(x):
        raise ValueError("encode input must be a unit vector")
    codewords = np.zeros((len(x), codebook.spec.dim), dtype=complex)
    codewords[:, : codebook.code_dim] = _code_products(codebook.basis, x)
    if not unit_rows(codewords):
        raise ValueError("vector lies outside the source space")
    return codewords


def encode(codebook: Codebook, x) -> VariableLengthState:
    """Apply the encoder isometry to a unit vector inside the source span."""
    return VariableLengthState(codebook.spec, encode_many(codebook, linalg.as_state(x)[None])[0])


def decode_many(codebook: Codebook, amps: np.ndarray) -> np.ndarray:
    """Invert the encoder on each row of ``amps``; every row must live on the first code_dim indices."""
    tail = amps[:, codebook.code_dim :]
    if tail.size and float(np.max(np.abs(tail))) > DECODE_SUPPORT_TOL:
        raise ValueError("state lies outside the code space")
    return _per_row(codebook.decoder, amps)


def decode(codebook: Codebook, state: VariableLengthState) -> np.ndarray:
    """Invert the encoder. The state must live on the first code_dim indices."""
    if state.spec != codebook.spec:
        raise ValueError("state register does not match the codebook register")
    return decode_many(codebook, state.amps[None])[0]


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Hermitian, unit-trace, positive-semidefinite matrix; ``eigenvalues`` is its hermitian_eigenvalues."""

    matrix: np.ndarray
    eigenvalues: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        eigs = linalg.hermitian_eigenvalues(m)
        trace = complex(np.trace(m))
        if abs(trace - 1.0) > linalg.PROBABILITY_SUM_TOL:
            raise ValueError(f"trace is {trace!r}, expected 1")
        if float(eigs[-1]) < -linalg.HERMITIAN_TOL:
            raise ValueError("matrix is not positive semidefinite")
        m = m.copy()
        m.flags.writeable = False
        eigs.flags.writeable = False
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "eigenvalues", eigs)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def density_matrix(ensemble: SourceEnsemble) -> DensityMatrix:
    """sigma = sum_x p(x) |x><x| over the unit states X, as one product (X^T p) conj(X)."""
    units = np.array([m.unit_amps() for m in ensemble.messages])
    weighted = units.T * np.asarray(ensemble.probabilities())
    np.conjugate(units, out=units)
    return DensityMatrix(weighted @ units)
