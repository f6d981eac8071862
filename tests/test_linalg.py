import gc
import json
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vlqc.codec import SourceMessage
from vlqc.linalg import (
    _norm,
    complex_pairs,
    gc_paused,
    gram_schmidt,
    hermitian_eigenvalues,
    independent_rows,
    normalize,
)
from vlqc.verify import random_unitary

A = np.array([1, 1, 1, 1], dtype=complex)
B = np.array([1, 2, 1, 1], dtype=complex)
C = np.array([1, 3, 1, 1], dtype=complex)
E = np.array([1, 0, 1, 0], dtype=complex)
F = np.array([2, 0, 1, 0], dtype=complex)

# orthonormalization of (a, b, e, f), frozen to six printed digits
OMEGA = np.array(
    [
        [0.5, 0.5, 0.5, 0.5],
        [-0.288675, 0.866025, -0.288675, -0.288675],
        [0.408248, 0.0, 0.408248, -0.816497],
        [0.707107, 0.0, -0.707107, 0.0],
    ]
)


def random_vector(seed: int, dim: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.normal(size=dim) + 1j * rng.normal(size=dim)


def test_inner_reference_overlap():
    # <omega_1|normalized b> = 5 / (2 sqrt 7), and b's rest lies along omega_2
    _, rows = independent_rows([normalize(A), normalize(B)])
    assert np.vdot(rows[0], normalize(B)) == pytest.approx(5 / (2 * math.sqrt(7)), abs=1e-12)
    assert np.vdot(rows[1], normalize(B)) == pytest.approx(math.sqrt(3 / 28), abs=1e-12)


def test_inner_rejects_non_finite():
    with pytest.raises(ValueError, match="NaN or Inf"):
        normalize([np.nan, 0])


def test_normalize_uniform_vector():
    np.testing.assert_allclose(normalize(A), [0.5, 0.5, 0.5, 0.5])


def test_normalize_uses_sum_of_squares():
    np.testing.assert_allclose(normalize(F), np.asarray(F) / math.sqrt(5))


def test_normalize_idempotent():
    v = normalize(random_vector(5, 6))
    np.testing.assert_allclose(normalize(v), v, atol=1e-15)


def test_normalize_near_zero_raises():
    with pytest.raises(ValueError, match="near-zero"):
        normalize([1e-13, 0, 0])


def test_normalize_norm_overflow_raises():
    with pytest.raises(ValueError, match="norm overflows a float"):
        normalize([1e200, 1e200j])


# the edges a norm must round through: signed zeros, subnormals, the smallest
# normal float, and 1e153, whose square is finite but whose sum of squares
# over a long vector overflows
NORM_EDGES = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-300, 1.0, -1e153, 1e153]


@st.composite
def norm_vectors(draw):
    """A complex vector of 1 to 2048 entries at one drawn scale, with edge values
    at drawn positions; real-valued (every imaginary part +0.0) half the time."""
    size = draw(st.integers(1, 2048))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    parts = rng.normal(size=(size, 2)) * 10.0 ** draw(st.integers(-300, 152))
    edges = st.tuples(st.integers(0, size - 1), st.integers(0, 1), st.sampled_from(NORM_EDGES))
    for pos, part, value in draw(st.lists(edges, max_size=8)):
        parts[pos, part] = value
    if draw(st.booleans()):
        parts[:, 1] = 0.0
    return parts.view(complex)[:, 0]


@given(norm_vectors(), st.sampled_from(["contiguous", "strided", "reversed"]))
@settings(max_examples=300, deadline=None)
def test_norm_equals_numpy_norm_bit_for_bit(v, layout):
    if layout == "strided":
        v = np.repeat(v, 2)[::2]
    elif layout == "reversed":
        v = v[::-1]
    with np.errstate(over="ignore"):
        expected = np.float64(np.linalg.norm(v))
        got = np.float64(_norm(v))
    assert got.tobytes() == expected.tobytes()


@pytest.mark.parametrize(
    "v, message",
    [
        ([1e-13, 0, 0], "cannot normalize a near-zero vector"),
        ([0j, -0.0], "cannot normalize a near-zero vector"),
        ([1e200, 1e200j], "cannot normalize a vector whose norm overflows a float"),
        ([1.7e308] * 3, "cannot normalize a vector whose norm overflows a float"),
    ],
)
def test_normalize_refusals_keep_their_text_and_leak_no_warning(v, message):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(ValueError) as refused:
            normalize(v)
        with pytest.raises(ValueError) as refused_message:
            SourceMessage("x", np.array(v, dtype=complex), 1.0)
    assert str(refused.value) == message
    assert str(refused_message.value) == f"message 'x': {message}"
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


def test_gram_schmidt_reference_vectors():
    basis = gram_schmidt([normalize(v) for v in (A, B, E, F)])
    assert len(basis) == 4
    np.testing.assert_allclose(np.array(basis).real, OMEGA, atol=1e-5)
    np.testing.assert_allclose(np.array(basis).imag, 0, atol=1e-12)


def test_gram_schmidt_orthonormal_input_unchanged():
    eye = [np.eye(3, dtype=complex)[i] for i in range(3)]
    out = gram_schmidt(eye)
    for given_vec, got in zip(eye, out):
        np.testing.assert_allclose(got, given_vec, atol=1e-15)


def test_gram_schmidt_dependent_input_raises():
    with pytest.raises(ValueError, match="dependent"):
        gram_schmidt([A, B, 2 * B - A])


@given(st.integers(0, 10_000), st.integers(2, 16))
@settings(max_examples=60, deadline=None)
def test_gram_schmidt_output_orthonormal(seed, dim):
    vectors = [random_vector(seed + i, dim) for i in range(dim)]
    basis = gram_schmidt(vectors)
    gram = np.array([[np.vdot(u, v) for v in basis] for u in basis])
    np.testing.assert_allclose(gram, np.eye(dim), atol=1e-10)


@given(st.integers(0, 10_000), st.integers(2, 12))
@settings(max_examples=40, deadline=None)
def test_gram_schmidt_span_preserved(seed, dim):
    vectors = [random_vector(seed + i, dim) for i in range(dim - 1)]
    basis = gram_schmidt(vectors)
    rng = np.random.default_rng(seed + 99)
    coeffs = rng.normal(size=len(vectors)) + 1j * rng.normal(size=len(vectors))
    v = sum(c * w for c, w in zip(coeffs, vectors))
    rebuilt = sum(np.vdot(w, v) * w for w in basis)
    assert np.linalg.norm(v - rebuilt) <= 1e-9 * np.linalg.norm(v)


def test_in_span_outside_vector():
    # span membership is judged by independent_rows alone: E adds a direction to
    # span(A, B), and C = 2B - A does not
    assert independent_rows([A, B, E])[0] == [0, 1, 2]
    assert independent_rows([A, B, C])[0] == [0, 1]


def test_gram_schmidt_reports_first_dependent_position():
    with pytest.raises(ValueError, match="position 1"):
        gram_schmidt([A, 2 * A, B, 3 * B])


def test_in_span_accepts_stacked_rows():
    # the rows of a 2-d array are judged as the vectors of a list, and against
    # no rows at all E is outside
    stack = np.array([A, B, C, E])
    kept, rows = independent_rows(stack)
    assert kept == [0, 1, 3]
    np.testing.assert_array_equal(rows, independent_rows(list(stack))[1])
    assert independent_rows(np.array([E]))[0] == [0]
    with pytest.raises(ValueError, match="NaN or Inf"):
        independent_rows(np.array([A, [1, np.inf, 0, 0]]))


@pytest.mark.parametrize(
    "values",
    [
        [complex(-0.0, 0.0), complex(0.0, -0.0)],
        [complex(5e-324, -2.2250738585072014e-308)],
        [complex(1.0000000000000002, -1e300)],
        [[1 + 2j, -3.5 - 0.1j], [1e-17 - 1j, 0.0 + 0.0j]],
    ],
)
def test_complex_pairs_is_per_element_float_conversion(values):
    a = np.array(values, dtype=complex)

    def reference(v):
        if v.ndim > 1:
            return [reference(row) for row in v]
        return [(float(z.real), float(z.imag)) for z in v]

    got = complex_pairs(a)
    assert got == reference(a)
    # == treats -0.0 and 0.0 alike; repr does not
    assert repr(got) == repr(reference(a))
    assert complex_pairs(a.T) == reference(a.T)
    # json writes a tuple as the [re, im] array the list form gives
    as_lists = a.view(np.float64).reshape(a.shape + (2,)).tolist()
    assert json.dumps(got, indent=2) == json.dumps(as_lists, indent=2)


def _traced_size(build):
    """Bytes that ``build()``'s result holds, by tracemalloc."""
    tracemalloc.start()
    try:
        result = build()
        return tracemalloc.get_traced_memory()[0], result
    finally:
        tracemalloc.stop()


def test_complex_pairs_are_untracked_tuples_smaller_than_lists():
    a = np.random.default_rng(3).normal(size=(384, 384 * 2)).view(complex)
    size, pairs = _traced_size(lambda: complex_pairs(a))
    list_size, _ = _traced_size(lambda: a.view(np.float64).reshape(a.shape + (2,)).tolist())
    assert size < list_size
    gc.collect()
    # float-only tuples leave the collector on its first pass; lists would stay
    assert not any(gc.is_tracked(pair) for row in pairs for pair in row)


def test_complex_pairs_runs_no_collection(collections):
    a = np.random.default_rng(5).normal(size=(576, 384 * 2)).view(complex)
    pairs = complex_pairs(a)
    passes = len(collections)
    assert passes == 0
    assert len(pairs) == 576 and len(pairs[0]) == 384


def test_gc_paused_restores_the_collector_state(collector_enabled):
    with gc_paused():
        assert not gc.isenabled()
    assert gc.isenabled() is collector_enabled
    with pytest.raises(RuntimeError), gc_paused():
        raise RuntimeError("inside the pause")
    assert gc.isenabled() is collector_enabled


def test_hermitian_eigenvalues_identity():
    np.testing.assert_allclose(hermitian_eigenvalues(np.eye(2)), [1.0, 1.0])


def test_hermitian_eigenvalues_diagonal_descending():
    np.testing.assert_allclose(hermitian_eigenvalues(np.diag([0.3, 0.7])), [0.7, 0.3])


def test_hermitian_eigenvalues_non_hermitian_raises():
    with pytest.raises(ValueError, match="Hermitian"):
        hermitian_eigenvalues(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_hermitian_eigenvalues_clamps_boundary_noise():
    eigs = hermitian_eigenvalues(np.diag([1.0 + 5e-11, -5e-11]))
    assert eigs[0] == 1.0 and eigs[1] == 0.0


def test_reference_density_matrix_eigenvalues_match_characteristic_polynomial():
    # independent oracle: exact rational matrix, characteristic polynomial roots
    sympy = pytest.importorskip("sympy")
    from fractions import Fraction

    vectors = {
        "a": ((1, 1, 1, 1), Fraction(6, 10)),
        "b": ((1, 2, 1, 1), Fraction(1, 10)),
        "c": ((1, 3, 1, 1), Fraction(1, 10)),
        "d": ((1, 4, 1, 1), Fraction(1, 10)),
        "e": ((1, 0, 1, 0), Fraction(1, 60)),
        "f": ((2, 0, 1, 0), Fraction(1, 60)),
        "g": ((3, 0, 1, 0), Fraction(1, 60)),
        "h": ((0, 1, 0, 1), Fraction(1, 60)),
        "i": ((0, 2, 0, 1), Fraction(1, 60)),
        "j": ((0, 3, 0, 1), Fraction(1, 60)),
    }
    exact = [[Fraction(0)] * 4 for _ in range(4)]
    for v, p in vectors.values():
        norm_sq = sum(x * x for x in v)
        for r in range(4):
            for c in range(4):
                exact[r][c] += p * Fraction(v[r] * v[c], norm_sq)
    matrix = sympy.Matrix(4, 4, lambda r, c: sympy.Rational(exact[r][c]))
    lam = sympy.symbols("lam")
    roots = sorted((complex(z).real for z in sympy.nroots(matrix.charpoly(lam).as_expr())), reverse=True)

    sigma = np.array([[float(x) for x in row] for row in exact])
    eigs = hermitian_eigenvalues(sigma)
    np.testing.assert_allclose(eigs, roots, atol=1e-10)
    entropy = -sum(l * math.log2(l) for l in eigs if l > 1e-12)
    assert entropy == pytest.approx(0.571241, abs=5e-5)


@given(st.integers(0, 10_000), st.integers(2, 8))
@settings(max_examples=40, deadline=None)
def test_hermitian_eigenvalue_sum_is_trace(seed, dim):
    z = random_vector(seed, dim * dim).reshape(dim, dim)
    m = (z + z.conj().T) / 2
    eigs = hermitian_eigenvalues(m)
    assert sum(eigs) == pytest.approx(np.trace(m).real, abs=1e-9)


@given(st.integers(0, 10_000), st.integers(2, 8))
@settings(max_examples=30, deadline=None)
def test_hermitian_eigenvalues_unitary_invariant(seed, dim):
    z = random_vector(seed, dim * dim).reshape(dim, dim)
    m = (z + z.conj().T) / 2
    u = random_unitary(np.random.default_rng(seed), dim)
    before = hermitian_eigenvalues(m)
    after = hermitian_eigenvalues(u @ m @ u.conj().T)
    np.testing.assert_allclose(before, after, atol=1e-8)
