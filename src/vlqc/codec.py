"""Build lossless variable-length codebooks from weighted state ensembles.

The construction: sort messages by descending probability, keep a maximal
linearly independent subset, orthonormalize it in order, and map the i-th
basis vector to the register numeral of i-1. More probable directions get
shorter codewords; the empty codeword goes to the most probable message.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .message_space import AMP_TOL, RegisterSpec, VariableLengthState, significant_length

PROBABILITY_SUM_TOL = 1e-9
DECODE_SUPPORT_TOL = 1e-10


@dataclass(frozen=True)
class SourceMessage:
    """One source state: raw (possibly unnormalized) amplitudes plus its probability."""

    id: str
    amps: np.ndarray
    probability: float

    def __post_init__(self):
        amps = linalg.as_state(self.amps)
        if float(np.linalg.norm(amps)) <= linalg.ZERO_TOL:
            raise ValueError(f"message {self.id!r} has a near-zero amplitude vector")
        if not self.probability > 0.0:
            raise ValueError(f"message {self.id!r} must have positive probability")
        amps = amps.copy()
        amps.flags.writeable = False
        object.__setattr__(self, "amps", amps)

    def unit_amps(self) -> np.ndarray:
        return linalg.normalize(self.amps)


@dataclass(frozen=True)
class SourceEnsemble:
    """Weighted source messages spanning the space to be encoded."""

    messages: tuple[SourceMessage, ...]
    ambient_dim: int

    def __post_init__(self):
        object.__setattr__(self, "messages", tuple(self.messages))
        if not self.messages:
            raise ValueError("ensemble has no messages")
        for msg in self.messages:
            if msg.amps.shape[0] != self.ambient_dim:
                raise ValueError(
                    f"message {msg.id!r} has dim {msg.amps.shape[0]}, expected {self.ambient_dim}"
                )
        ids = [m.id for m in self.messages]
        if len(set(ids)) != len(ids):
            raise ValueError("message ids are not unique")
        total = float(sum(m.probability for m in self.messages))
        if abs(total - 1.0) > PROBABILITY_SUM_TOL:
            raise ValueError(f"probabilities sum to {total!r}, expected 1")

    def probabilities(self) -> list[float]:
        return [m.probability for m in self.messages]

    def find(self, message_id: str) -> SourceMessage:
        for msg in self.messages:
            if msg.id == message_id:
                return msg
        raise KeyError(message_id)


def _unit_rows(ensemble: SourceEnsemble) -> np.ndarray:
    units = np.empty((len(ensemble.messages), ensemble.ambient_dim), dtype=complex)
    for row, msg in zip(units, ensemble.messages):
        row[:] = msg.unit_amps()
    return units


def _independent(ensemble: SourceEnsemble, tol: float):
    """The unit states (input order), select_independent's messages, and orthonormal rows spanning them."""
    units = _unit_rows(ensemble)
    order = sorted(range(len(units)), key=lambda i: -ensemble.messages[i].probability)
    kept, rows = linalg.independent_rows((units[i] for i in order), tol)
    return units, [ensemble.messages[order[i]] for i in kept], rows


def select_independent(
    ensemble: SourceEnsemble, tol: float = linalg.DEPENDENCE_TOL
) -> list[SourceMessage]:
    """Greedy maximal linearly independent subset, visited most probable first
    (input order breaks ties) and kept as by linalg.independent_rows."""
    return _independent(ensemble, tol)[1]


@dataclass(frozen=True)
class Codebook:
    """Encoder/decoder pair onto leading-zero-padded k-ary register numerals.

    ``encoder`` is the (k^r, ambient_dim) matrix whose row i-1 is <omega_i|;
    ``decoder`` is its conjugate transpose, the inverse on the code space.
    ``code_lengths[i-1]`` is the significant length of codeword i, i.e.
    ceil(log_k(i)) for the 1-based basis index i. Both matrices follow from
    ``basis``, so the analyze report document carries only the basis.
    """

    spec: RegisterSpec
    ambient_dim: int
    basis: tuple[np.ndarray, ...]
    encoder: np.ndarray
    decoder: np.ndarray
    code_lengths: tuple[int, ...]
    base_lengths: dict[str, int]

    def __post_init__(self):
        basis = tuple(linalg.as_state(w) for w in self.basis)
        d = len(basis)
        if not 1 <= d <= self.spec.dim:
            raise ValueError(f"basis size {d} does not fit register of dim {self.spec.dim}")
        for w in basis:
            if w.shape[0] != self.ambient_dim:
                raise ValueError("basis vector dimension mismatch")
            w.flags.writeable = False
        encoder = np.asarray(self.encoder, dtype=complex)
        decoder = np.asarray(self.decoder, dtype=complex)
        if encoder.shape != (self.spec.dim, self.ambient_dim):
            raise ValueError("encoder has wrong shape")
        if decoder.shape != (self.ambient_dim, self.spec.dim):
            raise ValueError("decoder has wrong shape")
        if len(self.code_lengths) != d:
            raise ValueError("one code length per basis vector required")
        encoder.flags.writeable = False
        decoder.flags.writeable = False
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "encoder", encoder)
        object.__setattr__(self, "decoder", decoder)
        object.__setattr__(self, "code_lengths", tuple(self.code_lengths))

    @property
    def code_dim(self) -> int:
        return len(self.basis)


def build_codebook(
    ensemble: SourceEnsemble,
    k: int = 2,
    tol: float = linalg.DEPENDENCE_TOL,
    amp_tol: float = AMP_TOL,
) -> Codebook:
    """Construct the code for an ensemble over a minimal k-ary register.

    The register length is the smallest r with k^r >= dim span(messages).
    Base lengths record, per source message, the longest codeword component
    its encoding touches; that is what the sender must announce.
    """
    units, _, rows = _independent(ensemble, tol)
    d = len(rows)
    spec = RegisterSpec(k=k, r=significant_length(d - 1, k))

    encoder = np.zeros((spec.dim, ensemble.ambient_dim), dtype=complex)
    np.conjugate(rows, out=encoder[:d])
    code_lengths = tuple(significant_length(i, k) for i in range(d))

    supported = np.abs(units @ encoder[:d].T) > amp_tol
    del units  # free the m x ambient_dim states before the decoder is allocated
    decoder = encoder.conj().T.copy()
    lengths = np.where(supported, np.array(code_lengths, dtype=np.int8), 0).max(axis=1)
    base_lengths = {msg.id: int(n) for msg, n in zip(ensemble.messages, lengths)}

    return Codebook(
        spec=spec,
        ambient_dim=ensemble.ambient_dim,
        basis=tuple(rows),
        encoder=encoder,
        decoder=decoder,
        code_lengths=code_lengths,
        base_lengths=base_lengths,
    )


def encode(codebook: Codebook, x, tol: float = linalg.DEPENDENCE_TOL) -> VariableLengthState:
    """Apply the encoder isometry to a unit vector inside the source span."""
    x = linalg.as_state(x)
    if x.shape[0] != codebook.ambient_dim:
        raise ValueError(f"vector has dim {x.shape[0]}, expected {codebook.ambient_dim}")
    if not linalg.is_unit(x):
        raise ValueError("encode input must be a unit vector")
    # the decoder's first code_dim columns are the basis vectors, stacked as rows
    if not linalg.in_span(x, codebook.decoder[:, : codebook.code_dim].T, tol):
        raise ValueError("vector lies outside the source space")
    return VariableLengthState(codebook.spec, codebook.encoder @ x)


def decode(
    codebook: Codebook,
    state: VariableLengthState,
    support_tol: float = DECODE_SUPPORT_TOL,
) -> np.ndarray:
    """Invert the encoder. The state must live on the first code_dim indices."""
    if state.spec != codebook.spec:
        raise ValueError("state register does not match the codebook register")
    tail = state.amps[codebook.code_dim :]
    if tail.size and float(np.max(np.abs(tail))) > support_tol:
        raise ValueError("state lies outside the code space")
    return codebook.decoder @ state.amps


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian, unit-trace, positive-semidefinite matrix; ``eigenvalues`` is its hermitian_eigenvalues."""

    matrix: np.ndarray
    eigenvalues: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        eigs = linalg.hermitian_eigenvalues(m)
        trace = complex(np.trace(m))
        if abs(trace - 1.0) > 1e-9:
            raise ValueError(f"trace is {trace!r}, expected 1")
        if float(eigs[-1]) < -1e-10:
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
    units = _unit_rows(ensemble)
    weighted = units.T * np.asarray(ensemble.probabilities())
    np.conjugate(units, out=units)
    return DensityMatrix(weighted @ units)


@dataclass(frozen=True)
class CodeLengthOperator:
    """The codeword-length observable of a codebook, in two coordinate systems."""

    lengths: tuple[int, ...]
    in_code_basis: np.ndarray  # d x d diagonal
    in_ambient: np.ndarray  # sum_i L_i |omega_i><omega_i|


def code_length_operator(codebook: Codebook) -> CodeLengthOperator:
    diag = np.diag(np.asarray(codebook.code_lengths, dtype=float))
    basis = np.asarray(codebook.basis)
    ambient = (basis.T * diag.diagonal()) @ basis.conj()
    diag.flags.writeable = False
    ambient.flags.writeable = False
    return CodeLengthOperator(codebook.code_lengths, diag, ambient)
