"""Built-in reference ensemble and its known-good six-significant-digit values.

Ten real-valued messages in a 4-dimensional space over a binary (k = 2)
channel. The amplitude vectors are stored as integers and unit-normalized on
load; the six low-probability messages carry probability 1/60 each, the
unique uniform choice that makes the probabilities sum to 1. Every quantity
the library computes for this ensemble has a frozen expected value below,
which `vlqc example` and the acceptance tests compare against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .codec import Codebook, SourceEnsemble, SourceMessage, build_codebook, density_matrix

REFERENCE_K = 2

_VECTORS: dict[str, tuple[int, int, int, int]] = {
    "a": (1, 1, 1, 1),
    "b": (1, 2, 1, 1),
    "c": (1, 3, 1, 1),
    "d": (1, 4, 1, 1),
    "e": (1, 0, 1, 0),
    "f": (2, 0, 1, 0),
    "g": (3, 0, 1, 0),
    "h": (0, 1, 0, 1),
    "i": (0, 2, 0, 1),
    "j": (0, 3, 0, 1),
}

_PROBABILITIES: dict[str, float] = {
    "a": 0.6,
    "b": 0.1,
    "c": 0.1,
    "d": 0.1,
    "e": 1 / 60,
    "f": 1 / 60,
    "g": 1 / 60,
    "h": 1 / 60,
    "i": 1 / 60,
    "j": 1 / 60,
}


def reference_ensemble() -> SourceEnsemble:
    return SourceEnsemble(
        messages=tuple(
            SourceMessage(id=name, amps=np.array(_VECTORS[name], dtype=complex), probability=p)
            for name, p in _PROBABILITIES.items()
        ),
        ambient_dim=4,
    )


def reference_codebook() -> Codebook:
    return build_codebook(reference_ensemble(), k=REFERENCE_K)


# Frozen expected values, six significant digits.
EXPECTED_SHANNON_ENTROPY = 2.02945
EXPECTED_RAW_CLASSICAL = 3.32193
EXPECTED_VON_NEUMANN_ENTROPY = 0.571241
EXPECTED_SIDE_CHANNEL_ENTROPY = 1.29546
EXPECTED_HUFFMAN_MEAN = 1.4
EXPECTED_AVG_BASE_LENGTH_BITS = 0.5
EXPECTED_RATE_QUANTUM = 0.25
EXPECTED_TOTAL_INFORMATION = 1.79546
EXPECTED_RATE_TOTAL = 0.897731
EXPECTED_RATE_EFFECTIVE = 0.95
EXPECTED_RAW_QUANTUM = 2.0

EXPECTED_DENSITY_MATRIX = np.array(
    [
        [0.214549, 0.224624, 0.197882, 0.177882],
        [0.224624, 0.40302, 0.224624, 0.244624],
        [0.197882, 0.224624, 0.191216, 0.177882],
        [0.177882, 0.244624, 0.177882, 0.191216],
    ]
)

EXPECTED_BASIS = np.array(
    [
        [0.5, 0.5, 0.5, 0.5],
        [-0.288675, 0.866025, -0.288675, -0.288675],
        [0.408248, 0.0, 0.408248, -0.816497],
        [0.707107, 0.0, -0.707107, 0.0],
    ]
)

EXPECTED_ENCODER = EXPECTED_BASIS
EXPECTED_DECODER = EXPECTED_BASIS.T

EXPECTED_INDEPENDENT_IDS = ("a", "b", "e", "f")
EXPECTED_CODE_LENGTHS = (0, 1, 2, 2)
EXPECTED_BASE_LENGTHS = {
    "a": 0,
    "b": 1,
    "c": 1,
    "d": 1,
    "e": 2,
    "f": 2,
    "g": 2,
    "h": 2,
    "i": 2,
    "j": 2,
}
EXPECTED_LENGTH_PROBABILITIES = {0: 0.6, 1: 0.3, 2: 0.1}

SIX_DIGIT_TOL = 5e-5
ENTRY_TOL = 1e-5
EXACT_TOL = 1e-12


@dataclass(frozen=True)
class GoldenRow:
    """One expected-vs-computed comparison for the reference example."""

    name: str
    expected: float
    actual: float
    tolerance: float

    @property
    def difference(self) -> float:
        return abs(self.actual - self.expected)

    @property
    def passed(self) -> bool:
        return self.difference <= self.tolerance


def golden_rows() -> list[GoldenRow]:
    """Every reference comparison, scalars expanded entry by entry."""
    from .metrics import compile_report

    ensemble = reference_ensemble()
    codebook = reference_codebook()
    report = compile_report(ensemble, codebook)
    sigma = density_matrix(ensemble).matrix

    rows = [
        GoldenRow("shannon entropy H", EXPECTED_SHANNON_ENTROPY, report.shannon_entropy_bits, SIX_DIGIT_TOL),
        GoldenRow("raw classical bits", EXPECTED_RAW_CLASSICAL, report.raw_classical_bits, SIX_DIGIT_TOL),
        GoldenRow("von Neumann entropy S", EXPECTED_VON_NEUMANN_ENTROPY, report.von_neumann_entropy_bits, SIX_DIGIT_TOL),
        GoldenRow("raw quantum bits", EXPECTED_RAW_QUANTUM, report.raw_quantum_bits, EXACT_TOL),
        GoldenRow("mean base length bits", EXPECTED_AVG_BASE_LENGTH_BITS, report.avg_base_length_bits, EXACT_TOL),
        GoldenRow("side-channel entropy", EXPECTED_SIDE_CHANNEL_ENTROPY, report.side_channel_entropy_bits, SIX_DIGIT_TOL),
        GoldenRow("huffman mean bits", EXPECTED_HUFFMAN_MEAN, report.huffman_mean_bits, EXACT_TOL),
        GoldenRow("quantum rate", EXPECTED_RATE_QUANTUM, report.rate_quantum, EXACT_TOL),
        GoldenRow(
            "total information",
            EXPECTED_TOTAL_INFORMATION,
            report.avg_base_length_bits + report.side_channel_entropy_bits,
            SIX_DIGIT_TOL,
        ),
        GoldenRow("total rate", EXPECTED_RATE_TOTAL, report.rate_total, SIX_DIGIT_TOL),
        GoldenRow("effective rate", EXPECTED_RATE_EFFECTIVE, report.rate_effective, EXACT_TOL),
    ]
    for row in range(4):
        for col in range(4):
            rows.append(
                GoldenRow(
                    f"density matrix [{row}][{col}]",
                    float(EXPECTED_DENSITY_MATRIX[row, col]),
                    float(np.real(sigma[row, col])),
                    ENTRY_TOL,
                )
            )
    for i, omega in enumerate(codebook.basis):
        for col in range(4):
            rows.append(
                GoldenRow(
                    f"basis vector {i + 1} [{col}]",
                    float(EXPECTED_BASIS[i, col]),
                    float(np.real(omega[col])),
                    ENTRY_TOL,
                )
            )
    for row in range(4):
        for col in range(4):
            rows.append(
                GoldenRow(
                    f"encoder [{row}][{col}]",
                    float(EXPECTED_ENCODER[row, col]),
                    float(np.real(codebook.encoder[row, col])),
                    ENTRY_TOL,
                )
            )
            rows.append(
                GoldenRow(
                    f"decoder [{row}][{col}]",
                    float(EXPECTED_DECODER[row, col]),
                    float(np.real(codebook.decoder[row, col])),
                    ENTRY_TOL,
                )
            )
    for name, expected in EXPECTED_BASE_LENGTHS.items():
        rows.append(
            GoldenRow(f"base length of {name}", float(expected), float(codebook.base_lengths[name]), 0.0)
        )
    for length, expected in EXPECTED_LENGTH_PROBABILITIES.items():
        rows.append(
            GoldenRow(f"length probability p_{length}", expected, codebook.lengths.probs[length], EXACT_TOL)
        )
    # ordering facts, encoded as indicator comparisons
    rows.append(
        GoldenRow(
            "mean base info < S",
            1.0,
            float(report.avg_base_length_bits < report.von_neumann_entropy_bits),
            0.0,
        )
    )
    total_info = report.avg_base_length_bits + report.side_channel_entropy_bits
    rows.append(GoldenRow("total info < H", 1.0, float(total_info < report.shannon_entropy_bits), 0.0))
    rows.append(GoldenRow("total info > S", 1.0, float(total_info > report.von_neumann_entropy_bits), 0.0))
    return rows
