"""Information measures, compression rates, Kraft checks, bounds, and no-go scans."""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, fields

import numpy as np

from .codec import Codebook, DensityMatrix, SourceEnsemble, density_matrix
from .linalg import HERMITIAN_TOL, PROBABILITY_SUM_TOL
from .message_space import dim_general_message_space
from .sidechannel import expected_code_length, kraft_sum, shannon_entropy

BOUND_TOL = 1e-9
# Rounding slack of a computed Kraft sum or information count against its exact bound.
ROUNDING_TOL = 1e-12
# Eigenvalues at or below this contribute nothing to entropy (0 log 0 = 0).
ENTROPY_EIG_FLOOR = 1e-12


def raw_information_classical(count: int) -> float:
    """log2 of the number of distinct objects: bits needed to enumerate them."""
    if count < 1:
        raise ValueError("count must be >= 1")
    return math.log2(count)


def raw_information_quantum(dim_v: int) -> float:
    """log2 of the space dimension: qubits needed without any compression."""
    if dim_v < 1:
        raise ValueError("dimension must be >= 1")
    return math.log2(dim_v)


def _as_density(sigma) -> DensityMatrix:
    if isinstance(sigma, DensityMatrix):
        return sigma
    return DensityMatrix(np.asarray(sigma, dtype=complex))


def von_neumann_entropy(sigma) -> float:
    """-sum lambda log2 lambda over the eigenvalues of a density matrix, in bits."""
    eigs = _as_density(sigma).eigenvalues
    return float(-sum(l * math.log2(l) for l in eigs if l > ENTROPY_EIG_FLOOR))


def ensemble_code_information(ensemble: SourceEnsemble, codebook: Codebook) -> float:
    """log2(k) times the probability-weighted mean codeword base length, in bits."""
    total = 0.0
    for msg in ensemble.messages:
        try:
            total += msg.probability * codebook.base_lengths[msg.id]
        except KeyError:
            raise ValueError(f"no base length tabulated for message {msg.id!r}") from None
    return math.log2(codebook.spec.k) * total


def compression_rates(
    avg_base_bits: float,
    side_entropy_bits: float,
    huffman_mean_bits: float,
    raw_quantum_bits: float,
) -> tuple[float, float, float]:
    """(quantum-channel rate, total rate, effective total rate).

    The total rate charges the side-channel at its entropy; the effective
    rate charges it at the realized Huffman mean.
    """
    if raw_quantum_bits <= 0.0:
        raise ValueError("raw quantum information must be positive")
    return (
        avg_base_bits / raw_quantum_bits,
        (avg_base_bits + side_entropy_bits) / raw_quantum_bits,
        (avg_base_bits + huffman_mean_bits) / raw_quantum_bits,
    )


def quantum_kraft_trace(code_lengths, k: int) -> tuple[float, bool]:
    """Trace of k^(-length operator) over the code basis, with its <= 1 flag.

    Codebooks built here legitimately exceed 1; that surplus of short
    codewords is exactly what the classical side-channel pays for.
    """
    value = kraft_sum(code_lengths, k)
    return value, value <= 1.0 + ROUNDING_TOL


@dataclass(frozen=True)
class LowerBoundResult:
    """Ic + I' >= S check, plus the quantum-channel-only comparison Ic vs S."""

    satisfied: bool
    slack: float  # Ic + I' - S
    quantum_only_slack: float  # Ic - S; may legitimately be negative


def lower_bound_check(
    avg_base_bits: float,
    side_entropy_bits: float,
    entropy_bits: float,
) -> LowerBoundResult:
    slack = avg_base_bits + side_entropy_bits - entropy_bits
    return LowerBoundResult(
        satisfied=slack >= -BOUND_TOL,
        slack=slack,
        quantum_only_slack=avg_base_bits - entropy_bits,
    )


def upper_bound_check(avg_base_bits: float, dim_v: int, k: int) -> bool:
    """Ic <= log2(dim V) + log2(k): one extra digit always suffices."""
    return avg_base_bits <= math.log2(dim_v) + math.log2(k) + BOUND_TOL


@dataclass(frozen=True)
class BlockCodeVerdict:
    """Feasibility count for a fixed-length code of dim_v states into n digits."""

    dim_v: int
    k: int
    n: int
    feasible: bool
    raw_information_bits: float
    code_information_bits: float | None
    compressive: bool


def no_go_block_code(dim_v: int, k: int, n: int) -> BlockCodeVerdict:
    """Lossless iff dim_v <= k^n; a feasible block code never compresses."""
    if dim_v < 1 or k < 2 or n < 0:
        raise ValueError("need dim_v >= 1, k >= 2, n >= 0")
    feasible = dim_v <= k**n
    raw = math.log2(dim_v)
    info = n * math.log2(k) if feasible else None
    return BlockCodeVerdict(
        dim_v=dim_v,
        k=k,
        n=n,
        feasible=feasible,
        raw_information_bits=raw,
        code_information_bits=info,
        compressive=feasible and info < raw - ROUNDING_TOL,
    )


@dataclass(frozen=True)
class UniversalVerdict:
    """Dimension count for compressing all length-r messages into max length s."""

    k: int
    r: int
    s: int
    block_dim: int  # k^r
    target_dim: int  # dim of all messages of length <= s
    block_to_variable_feasible: bool
    variable_to_variable_feasible: bool


def no_go_universal(k: int, r: int, s: int) -> UniversalVerdict:
    """Exact integer dimension comparison; infeasible whenever s < r."""
    if k < 2 or r < 0 or s < 0:
        raise ValueError("need k >= 2, r >= 0, s >= 0")
    block_dim = k**r
    target_dim = dim_general_message_space(k, s)
    return UniversalVerdict(
        k=k,
        r=r,
        s=s,
        block_dim=block_dim,
        target_dim=target_dim,
        block_to_variable_feasible=block_dim <= target_dim,
        variable_to_variable_feasible=dim_general_message_space(k, r) <= target_dim,
    )


def dephasing_entropy_check(sigma, basis, tol: float = BOUND_TOL) -> bool:
    """Entropy never decreases under non-selective measurement in an orthonormal basis.

    The basis must span the whole ambient space so that the dephased diagonal
    is a complete probability distribution.
    """
    dm = _as_density(sigma)
    if len(basis) != dm.dim:
        raise ValueError("basis must span the ambient space")
    diagonal = [float(np.real(np.vdot(w, dm.matrix @ np.asarray(w, dtype=complex)))) for w in basis]
    total = sum(diagonal)
    if abs(total - 1.0) > PROBABILITY_SUM_TOL or min(diagonal) < -HERMITIAN_TOL:
        raise ValueError("basis is not orthonormal and complete for this matrix")
    dephased_entropy = shannon_entropy(p for p in diagonal if p > ENTROPY_EIG_FLOOR)
    return von_neumann_entropy(dm) <= dephased_entropy + tol


@dataclass(frozen=True)
class CompressionReport:
    """Every information measure and bound for one (ensemble, codebook) pair.

    All entries are pure functions of the inputs; recomputing the report
    yields bit-identical values.
    """

    shannon_entropy_bits: float
    von_neumann_entropy_bits: float
    raw_classical_bits: float
    raw_quantum_bits: float
    avg_base_length_bits: float
    side_channel_entropy_bits: float
    huffman_mean_bits: float
    rate_quantum: float
    rate_total: float
    rate_effective: float
    huffman_kraft_sum: float
    quantum_kraft_trace: float
    quantum_kraft_within_bound: bool
    lower_bound_satisfied: bool
    upper_bound_satisfied: bool

    def as_dict(self) -> dict[str, float | bool]:
        """Every field, in order, under its camelCase name (``rate_total`` as ``rateTotal``)."""
        return {key: getattr(self, name) for name, key in _REPORT_KEYS}


# Each report field's name and its camelCase key, worked out once rather than per report.
_REPORT_KEYS = [(f.name, re.sub(r"_([a-z])", lambda c: c[1].upper(), f.name)) for f in fields(CompressionReport)]


def compile_report(ensemble: SourceEnsemble, codebook: Codebook) -> CompressionReport:
    """Assemble the full report for an ensemble and the codebook built from it."""
    if codebook.code_dim < 2:
        raise ValueError("source space of dimension < 2, so compression rates are undefined")
    entropy = von_neumann_entropy(density_matrix(ensemble))
    avg_base = ensemble_code_information(ensemble, codebook)
    dist, table = codebook.lengths, codebook.table
    side_entropy = shannon_entropy(dist.probs.values())
    huffman_mean = expected_code_length(table, dist)
    raw_quantum = raw_information_quantum(codebook.code_dim)
    rate_q, rate_tot, rate_eff = compression_rates(avg_base, side_entropy, huffman_mean, raw_quantum)
    qk_value, qk_ok = quantum_kraft_trace(codebook.code_lengths, codebook.spec.k)
    lower = lower_bound_check(avg_base, side_entropy, entropy)
    return CompressionReport(
        shannon_entropy_bits=shannon_entropy(ensemble.probabilities()),
        von_neumann_entropy_bits=entropy,
        raw_classical_bits=raw_information_classical(len(ensemble.messages)),
        raw_quantum_bits=raw_quantum,
        avg_base_length_bits=avg_base,
        side_channel_entropy_bits=side_entropy,
        huffman_mean_bits=huffman_mean,
        rate_quantum=rate_q,
        rate_total=rate_tot,
        rate_effective=rate_eff,
        huffman_kraft_sum=kraft_sum((len(w) for w in table.codewords.values()), 2),
        quantum_kraft_trace=qk_value,
        quantum_kraft_within_bound=qk_ok,
        lower_bound_satisfied=lower.satisfied,
        upper_bound_satisfied=upper_bound_check(avg_base, codebook.code_dim, codebook.spec.k),
    )
