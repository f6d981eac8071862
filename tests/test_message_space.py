import itertools
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


def mean_length(state: VariableLengthState) -> float:
    """The expected outcome of a length measurement."""
    return sum(n * q for n, q in length_probabilities(state).items())


def numeral_length(i: int, k: int) -> int:
    """Digits in numpy's base-k numeral of i, with 0 -> 0."""
    return len(np.base_repr(i, k)) if i else 0


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
    # the k-ary numeral of i has significant_length(i, k) digits
    assert significant_length(i, k) == len(expected)
    if expected:
        assert int(expected, k) == i


def test_k_ary_digits_rejects_bad_base():
    with pytest.raises(ValueError):
        significant_length(3, 1)


@pytest.mark.parametrize(
    "i, k, n, expected",
    [(3, 2, 6, "000011"), (243, 16, 6, "0000F3"), (227, 16, 6, "0000E3"), (0, 2, 3, "000")],
)
def test_extended_k_ary(i, k, n, expected):
    # register index i, written as n digits padded with leading zeros: the zeros are
    # not significant, so a component at index i has support length len(i's numeral)
    assert len(expected) == n and int(expected, k) == i
    row = np.zeros((1, i + 1), dtype=complex)
    row[0, i] = 1.0
    assert support_lengths(row, k).tolist() == [len(expected.lstrip("0"))]


def test_extended_k_ary_overflow():
    # an index fits in n digits iff its significant length is at most n
    assert significant_length(7, 2) == 3
    assert significant_length(8, 2) == 4


@pytest.mark.parametrize("i, k, expected", [(0, 2, 0), (3, 2, 2), (4, 2, 3), (15, 16, 1), (16, 16, 2)])
def test_significant_length(i, k, expected):
    assert significant_length(i, k) == expected


@pytest.mark.parametrize("k", [2, 3, 16])
def test_significant_length_counts_digits_exhaustively(k):
    for i in range(10_000):
        assert significant_length(i, k) == numeral_length(i, k)


@pytest.mark.parametrize("k", [2, 3, 16])
def test_significant_length_counts_digits_sampled(k):
    # digit counts only change at powers of k; hit every boundary up to 10^6
    power = k
    while power <= 1_000_000:
        for i in (power - 1, power, power + 1):
            assert significant_length(i, k) == numeral_length(i, k)
        power *= k
    rng = np.random.default_rng(k)
    for i in rng.integers(10_000, 1_000_000, size=2000):
        i = int(i)
        assert significant_length(i, k) == numeral_length(i, k)


def test_general_basis_index_matches_digit_reading():
    # each message of n <= r digits behind a start digit 1, read as one base-k
    # numeral, is its own index of an (r+1)-digit register: one index per
    # dimension of the general message space
    k, r = 3, 4
    indices = {
        int("1" + "".join(digits), k) for n in range(r + 1) for digits in itertools.product("012", repeat=n)
    }
    assert len(indices) == dim_general_message_space(k, r)
    assert min(indices) == 1 and max(indices) < k ** (r + 1)


def test_general_basis_index_out_of_range():
    # a significant length beyond the register has no index block
    for n in (3, -1):
        with pytest.raises(ValueError, match=r"outside \[0, 2\]"):
            length_projector_indices(n, SPEC22)


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
    state = basis_state(SPEC22, 3)  # |11>
    assert length_probabilities(state) == {0: 0.0, 1: 0.0, 2: 1.0}
    assert mean_length(state) == 2


def test_expected_length_superposition():
    state = superposition(SPEC22, 1, 3)
    assert length_probabilities(state) == pytest.approx({0: 0.0, 1: 0.5, 2: 0.5})
    assert mean_length(state) == pytest.approx(1.5)


def test_expected_length_empty_message():
    state = basis_state(SPEC22, 0)
    assert length_probabilities(state) == {0: 1.0, 1: 0.0, 2: 0.0}
    assert mean_length(state) == 0


def test_base_length_longest_component():
    # components of lengths 4 and 7 in an r=7 register: base length 7
    spec = RegisterSpec(k=2, r=7)
    state = superposition(spec, 0b1000, 0b1000000)
    assert base_length(state) == 7
    assert mean_length(state) == pytest.approx(5.5)


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
        assert base_length(state) >= mean_length(state) - 1e-9


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
        assert mean_length(outcome.collapsed) == pytest.approx(outcome.length)


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


def test_unit_rows_of_a_2d_array_equal_unit_rows_of_its_rows():
    rng = np.random.default_rng(5)
    x = rng.normal(size=(12, 5)) + 1j * rng.normal(size=(12, 5))
    x /= np.linalg.norm(x, axis=1, keepdims=True)
    x[3] *= 1 + 2e-12
    # contiguous, reversed-column, strided and Fortran-ordered stacks
    for stack, passes in ((x, False), (x[:, ::-1], False), (x[::2], True), (np.asfortranarray(x), False)):
        assert unit_rows(stack) is unit_rows(list(stack)) is passes
    assert unit_rows([]) is True and unit_rows(np.zeros((0, 5), dtype=complex)) is True


@pytest.mark.parametrize("k, r", [(2, 10), (3, 6), (36, 2)])
def test_support_lengths_equal_significant_length_of_every_index(k, r):
    # row i's last component above AMP_TOL is index i; the rows past k^r hold
    # only an all-zero row and a row of AMP_TOL residue, both of length 0
    dim = k**r
    rows = np.eye(dim) + AMP_TOL * np.triu(np.ones((dim, dim)), 1)
    rows = np.vstack([rows, np.zeros(dim), np.full(dim, AMP_TOL)])
    expected = [significant_length(i, k) for i in range(dim)] + [0, 0]
    assert support_lengths(rows, k).tolist() == expected


def test_support_lengths_rejects_letter_dimension_below_two():
    with pytest.raises(ValueError, match="k must be >= 2"):
        support_lengths(np.ones((1, 4)), 1)
