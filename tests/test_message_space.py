import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vlqc.message_space import (
    AMP_TOL,
    RegisterSpec,
    VariableLengthState,
    base_length,
    dim_general_message_space,
    expected_length,
    extended_k_ary,
    general_basis_index,
    k_ary_digits,
    length_probabilities,
    length_projector_indices,
    measure_length,
    significant_length,
    support_lengths,
    unit_rows,
)

SPEC22 = RegisterSpec(k=2, r=2)


def basis_state(spec: RegisterSpec, index: int) -> VariableLengthState:
    amps = np.zeros(spec.dim, dtype=complex)
    amps[index] = 1.0
    return VariableLengthState(spec, amps)


def superposition(spec: RegisterSpec, *indices: int) -> VariableLengthState:
    amps = np.zeros(spec.dim, dtype=complex)
    amps[list(indices)] = 1.0 / math.sqrt(len(indices))
    return VariableLengthState(spec, amps)


@pytest.mark.parametrize(
    "i, k, expected",
    [
        (3, 2, "11"),
        (243, 16, "F3"),
        (227, 16, "E3"),
        (0, 2, ""),
        (0, 16, ""),
        (5, 3, "12"),
        (35, 36, "Z"),
    ],
)
def test_k_ary_digits(i, k, expected):
    assert k_ary_digits(i, k) == expected
    if expected:
        assert int(expected, k) == i


def test_k_ary_digits_rejects_bad_base():
    with pytest.raises(ValueError):
        k_ary_digits(3, 1)


@pytest.mark.parametrize(
    "i, k, n, expected",
    [(3, 2, 6, "000011"), (243, 16, 6, "0000F3"), (227, 16, 6, "0000E3"), (0, 2, 3, "000")],
)
def test_extended_k_ary(i, k, n, expected):
    assert extended_k_ary(i, k, n) == expected


def test_extended_k_ary_overflow():
    with pytest.raises(ValueError, match="fit"):
        extended_k_ary(8, 2, 3)


@pytest.mark.parametrize("i, k, expected", [(0, 2, 0), (3, 2, 2), (4, 2, 3), (15, 16, 1), (16, 16, 2)])
def test_significant_length(i, k, expected):
    assert significant_length(i, k) == expected


@pytest.mark.parametrize("k", [2, 3, 16])
def test_significant_length_counts_digits_exhaustively(k):
    for i in range(10_000):
        assert significant_length(i, k) == len(k_ary_digits(i, k))


@pytest.mark.parametrize("k", [2, 3, 16])
def test_significant_length_counts_digits_sampled(k):
    # digit counts only change at powers of k; hit every boundary up to 10^6
    power = k
    while power <= 1_000_000:
        for i in (power - 1, power, power + 1):
            assert significant_length(i, k) == len(k_ary_digits(i, k))
        power *= k
    rng = np.random.default_rng(k)
    for i in rng.integers(10_000, 1_000_000, size=2000):
        i = int(i)
        assert significant_length(i, k) == len(k_ary_digits(i, k))


def test_general_basis_index_empty_message():
    assert general_basis_index(0, 0, SPEC22).register_index == 1


def test_general_basis_index_examples():
    # |0111> read as a base-2 numeral
    assert general_basis_index(2, 3, SPEC22).register_index == 7
    # |010>
    assert general_basis_index(1, 0, SPEC22).register_index == 2


def test_general_basis_index_matches_digit_reading():
    spec = RegisterSpec(k=3, r=4)
    for n in range(spec.r + 1):
        for i in range(3**n):
            digits = "1" + extended_k_ary(i, 3, n)
            assert general_basis_index(n, i, spec).register_index == int(digits, 3)


def test_general_basis_index_out_of_range():
    with pytest.raises(ValueError):
        general_basis_index(3, 0, SPEC22)
    with pytest.raises(ValueError):
        general_basis_index(1, 2, SPEC22)


@pytest.mark.parametrize("k, r, expected", [(2, 2, 7), (2, 0, 1), (3, 3, 40)])
def test_dim_general_message_space(k, r, expected):
    assert dim_general_message_space(k, r) == expected
    assert dim_general_message_space(k, r) == sum(k**n for n in range(r + 1))


@given(st.integers(2, 5), st.integers(1, 12))
@settings(max_examples=60, deadline=None)
def test_general_space_bracketing_counts(k, r):
    # the counting facts behind "no code can compress every block message"
    assert dim_general_message_space(k, r) > k**r
    assert dim_general_message_space(k, r - 1) < k**r


def test_length_projector_indices_partition():
    assert set(length_projector_indices(0, SPEC22)) == {0}
    assert set(length_projector_indices(1, SPEC22)) == {1}
    assert set(length_projector_indices(2, SPEC22)) == {2, 3}
    spec = RegisterSpec(k=3, r=5)
    seen: set[int] = set()
    for n in range(spec.r + 1):
        block = set(length_projector_indices(n, spec))
        assert not block & seen
        seen |= block
        for i in block:
            assert significant_length(i, spec.k) == n
    assert seen == set(range(spec.dim))


def test_expected_length_eigenvector():
    assert expected_length(basis_state(SPEC22, 3)) == 2  # |11>


def test_expected_length_superposition():
    assert expected_length(superposition(SPEC22, 1, 3)) == pytest.approx(1.5)


def test_expected_length_empty_message():
    assert expected_length(basis_state(SPEC22, 0)) == 0


def test_base_length_longest_component():
    # components of lengths 4 and 7 in an r=7 register: base length 7
    spec = RegisterSpec(k=2, r=7)
    state = superposition(spec, 0b1000, 0b1000000)
    assert base_length(state) == 7
    assert expected_length(state) == pytest.approx(5.5)


def test_base_length_empty_message():
    assert base_length(basis_state(SPEC22, 0)) == 0


def test_base_length_mixed_superposition():
    assert base_length(superposition(SPEC22, 1, 3)) == 2


def test_base_length_ignores_rounding_residue_per_component():
    # two components of 8e-13 in the length-3 block: each is residue, though the
    # block's probability 1.28e-24 exceeds AMP_TOL**2
    spec = RegisterSpec(k=2, r=3)
    amps = np.array([0, 1, 0, 0, 8e-13, 8e-13, 0, 0], dtype=complex)
    state = VariableLengthState(spec, amps / np.linalg.norm(amps))
    assert base_length(state) == 1


@pytest.mark.parametrize("k", [2, 3, 36])
@pytest.mark.parametrize("index_offset", [-1, 0])
def test_support_rule_at_the_threshold(k, index_offset):
    # a component of exactly AMP_TOL is residue, the next float above it is
    # support; index k^L - 1 has L digits and index k^L has L + 1
    length, spec = 2, RegisterSpec(k=k, r=3)
    index = k**length + index_offset
    rows = np.zeros((2, spec.dim), dtype=complex)
    rows[:, 1] = 1.0
    rows[0, index] = AMP_TOL
    rows[1, index] = np.nextafter(AMP_TOL, 1)
    states = [VariableLengthState(spec, row) for row in rows]
    expected = [1, length + 1 + index_offset]
    assert [base_length(state) for state in states] == expected
    assert support_lengths(rows, k).tolist() == expected


def test_support_lengths_of_an_all_zero_tail_is_zero():
    rows = np.zeros((3, 9), dtype=complex)
    rows[1, 0] = 1.0
    rows[2, 0], rows[2, 1:] = 1.0, AMP_TOL
    assert support_lengths(rows, 3).tolist() == [0, 0, 0]
    assert base_length(VariableLengthState(RegisterSpec(k=3, r=2), rows[2])) == 0


def test_support_lengths_of_a_stack_is_base_length_per_row():
    rng = np.random.default_rng(12)
    spec = RegisterSpec(k=3, r=3)
    rows = rng.normal(size=(40, spec.dim)) + 1j * rng.normal(size=(40, spec.dim))
    for row, cut in zip(rows, rng.integers(1, spec.dim + 1, size=40)):
        row[cut:] *= rng.choice([0.0, AMP_TOL, 2 * AMP_TOL])
        row /= np.linalg.norm(row)
    expected = [base_length(VariableLengthState(spec, row)) for row in rows]
    assert len(set(expected)) > 2
    assert support_lengths(rows, spec.k).tolist() == expected


def test_base_length_matches_codebook_base_lengths():
    from vlqc.codec import build_codebook, encode
    from vlqc.reference_example import reference_codebook, reference_ensemble
    from vlqc.verify import random_ensemble

    ens = random_ensemble(np.random.default_rng(5), 6, 9)
    for ensemble, codebook in [
        (reference_ensemble(), reference_codebook()),
        (ens, build_codebook(ens, k=3)),
    ]:
        for m in ensemble.messages:
            assert base_length(encode(codebook, m.unit_amps())) == codebook.base_lengths[m.id]


def test_base_length_at_least_expected_length():
    rng = np.random.default_rng(11)
    spec = RegisterSpec(k=2, r=4)
    for _ in range(100):
        amps = rng.normal(size=spec.dim) + 1j * rng.normal(size=spec.dim)
        state = VariableLengthState(spec, amps / np.linalg.norm(amps))
        assert base_length(state) >= expected_length(state) - 1e-9


def test_measure_length_eigenvector_deterministic():
    rng = np.random.default_rng(0)
    state = basis_state(SPEC22, 3)
    outcome = measure_length(state, rng)
    assert outcome.length == 2
    assert outcome.probability == pytest.approx(1.0)
    np.testing.assert_allclose(outcome.collapsed.amps, state.amps)


def test_measure_length_collapse_is_eigenvector():
    rng = np.random.default_rng(1)
    state = superposition(SPEC22, 1, 3)
    for _ in range(20):
        outcome = measure_length(state, rng)
        assert outcome.length in (1, 2)
        assert outcome.probability == pytest.approx(0.5)
        assert expected_length(outcome.collapsed) == pytest.approx(outcome.length)


def test_measure_length_probabilities_sum_to_one():
    rng = np.random.default_rng(2)
    spec = RegisterSpec(k=2, r=3)
    amps = rng.normal(size=spec.dim) + 1j * rng.normal(size=spec.dim)
    state = VariableLengthState(spec, amps / np.linalg.norm(amps))
    assert sum(length_probabilities(state).values()) == pytest.approx(1.0, abs=1e-10)


def test_measure_length_empirical_frequencies():
    rng = np.random.default_rng(20260810)
    state = superposition(SPEC22, 1, 3)
    samples = 100_000
    hits = sum(measure_length(state, rng).length == 1 for _ in range(samples))
    stderr = math.sqrt(0.5 * 0.5 / samples)
    assert abs(hits / samples - 0.5) <= 3 * stderr


def test_state_requires_unit_norm():
    with pytest.raises(ValueError, match="unit"):
        VariableLengthState(SPEC22, np.array([1, 1, 0, 0], dtype=complex))


def test_state_requires_matching_dimension():
    with pytest.raises(ValueError, match="dim"):
        VariableLengthState(SPEC22, np.array([1, 0], dtype=complex))


def test_register_rejects_huge_length_before_computing_its_dimension():
    # 36**(10**8) is far too slow to evaluate; the length alone decides
    for spec in ((36, 10**8), (2, 23)):
        with pytest.raises(ValueError, match="too large"):
            RegisterSpec(*spec)
    assert RegisterSpec(2, 22).dim == 2**22


@pytest.mark.parametrize(
    "k, r",
    [(2, 2.0), (2, True), (2.0, 2), (True, 2), (2, np.float64(2)), (2, np.bool_(True)), (2, "2"), (2, None)],
)
def test_register_rejects_non_integer_sizes(k, r):
    # 2.0 or True would otherwise give a float or bool dim that compares equal to the int one
    with pytest.raises(ValueError, match="must be an integer"):
        RegisterSpec(k, r)


def test_register_stores_numpy_integers_as_int():
    spec = RegisterSpec(np.int64(3), np.int32(2))
    assert (type(spec.k), type(spec.r), type(spec.dim)) == (int, int, int)
    assert spec == RegisterSpec(3, 2) and spec.dim == 9


def test_unit_rows_tests_each_row_alone():
    rows = [np.array([1.0 + 0j]), np.full(4, 0.5, dtype=complex), np.array([0.6, 0.8j])]
    assert unit_rows(rows)
    assert unit_rows([np.array([1.0 + 5e-13 + 0j])])
    assert not unit_rows([np.array([1.0 + 2e-12 + 0j])])
    # one short row and one long row can sum to the right total; each is tested alone
    assert not unit_rows([np.array([0.5 + 0j]), np.array([np.sqrt(0.75) * 1j, 0.5])])
    for bad in (np.nan, np.inf, 1e200):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert not unit_rows(rows + [np.array([bad, 0], dtype=complex)])
