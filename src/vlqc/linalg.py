"""Dense complex linear algebra for small state vectors and Hermitian operators.

Everything operates on plain 1-d/2-d numpy arrays of dtype complex128 at desk
scale (dimensions up to a few thousand). Operations are pure and never mutate
their inputs, so values can be shared freely across threads.
"""

from __future__ import annotations

import gc
import math
from collections.abc import Iterable

import numpy as np

# Relative residual norm at or below this counts as linear dependence.
DEPENDENCE_TOL = 1e-9
# Vector norms at or below this are treated as zero.
ZERO_TOL = 1e-12
# Accepted deviation of a unit vector's norm from 1.
UNIT_TOL = 1e-12
# Accepted entry-wise deviation from Hermitian symmetry, and the band outside
# [0, 1] within which an eigenvalue is clamped back onto the boundary.
HERMITIAN_TOL = 1e-10
# Accepted deviation of a probability distribution's sum from 1.
PROBABILITY_SUM_TOL = 1e-9


def as_state(v) -> np.ndarray:
    """Coerce to a finite, nonempty 1-d complex128 array."""
    arr = np.asarray(v, dtype=complex)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError("expected a nonempty 1-d vector")
    if not np.isfinite(arr).all():
        raise ValueError("vector contains NaN or Inf")
    return arr


def as_int(name: str, value) -> int:
    """``value`` as an int if it is a Python or numpy integer other than a bool, else ``ValueError``."""
    if type(value) is int:
        return value
    if isinstance(value, (bool, np.bool_)) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _norm(v: np.ndarray) -> float:
    """``np.linalg.norm`` of a 1-d complex array, bit for bit, without its wrapper:
    the same raveling and the same two dots, summed and square-rooted as floats.
    A dot that overflows warns unless the caller holds np.errstate(over="ignore")."""
    v = v.ravel(order="K")
    re, im = v.real, v.imag
    return math.sqrt(float(re.dot(re)) + float(im.dot(im)))


def normalize(v) -> np.ndarray:
    """v / ||v||; rejects near-zero input and input whose norm overflows a float."""
    v = as_state(v)
    with np.errstate(over="ignore"):
        return normalize_finite(v)


def normalize_finite(v: np.ndarray) -> np.ndarray:
    """:func:`normalize` of an array that as_state's rules already passed, without
    testing them again; the caller holds np.errstate(over="ignore")."""
    n = _norm(v)
    if n <= ZERO_TOL:
        raise ValueError("cannot normalize a near-zero vector")
    if not math.isfinite(n):
        raise ValueError("cannot normalize a vector whose norm overflows a float")
    return v / n


def independent_rows(vectors: Iterable) -> tuple[list[int], np.ndarray]:
    """Rank-revealing in-order Gram-Schmidt: positions of the vectors that add a
    new direction, and orthonormal rows spanning them. Residuals are classical
    Gram-Schmidt with one reorthogonalization ("twice is enough", Giraud, Langou
    & Rozložník 2005); a vector is kept iff its residual norm exceeds
    DEPENDENCE_TOL times its own, and its normalized residual (phase
    inherited) is the next row. Stops once the rows span the space. The rows
    of a 2-d array are tested for finiteness at once, other vectors one by one.
    """
    if isinstance(vectors, np.ndarray) and vectors.ndim == 2 and vectors.shape[1]:
        # the rows of one array: one finiteness test for all of them
        vectors = np.asarray(vectors, dtype=complex)
        if not np.isfinite(vectors).all():
            raise ValueError("vector contains NaN or Inf")
    else:
        vectors = [as_state(v) for v in vectors]
    dim = vectors[0].shape[0] if len(vectors) else 0
    rows = np.empty((min(len(vectors), dim), dim), dtype=complex)
    kept: list[int] = []
    for pos, v in enumerate(vectors):
        if len(kept) == len(rows):
            break
        basis, residual = rows[: len(kept)], v
        for _ in range(2):
            residual = residual - (basis @ residual.conj()).conj() @ basis
        rnorm = _norm(residual)
        if rnorm > DEPENDENCE_TOL * _norm(v):
            rows[len(kept)] = residual / rnorm
            kept.append(pos)
    return kept, rows[: len(kept)]


def gram_schmidt(vectors: Iterable) -> list[np.ndarray]:
    """In-order Gram-Schmidt orthonormalization: the rows of :func:`independent_rows`.
    Raises ValueError at the first input whose relative residual norm is
    DEPENDENCE_TOL or below (linear dependence)."""
    vectors = list(vectors)
    kept, rows = independent_rows(vectors)
    if len(kept) < len(vectors):
        pos = next((p for p, q in enumerate(kept) if p != q), len(kept))
        raise ValueError(f"vector at position {pos} is linearly dependent on its predecessors")
    return list(rows)


class gc_paused:
    """Context manager that pauses CPython's cyclic garbage collector for its block.

    Building a large nested list (a parsed JSON document, or the (re, im) pairs
    of a matrix) allocates one container per pair. Every few hundred of them
    the collector runs, and its older-generation passes walk the whole growing
    structure again, although data without reference cycles is freed by
    reference counting alone and no pass can find garbage in it. The data
    built under this pause is acyclic, the collector is paused process-wide
    only for the block, and a collector that was already off stays off.

    A class rather than a generator-based manager: leaving a generator
    allocates after the collector is back on, which can run a pass inside the
    block's caller.
    """

    __slots__ = ("_was_enabled",)

    def __enter__(self):
        self._was_enabled = gc.isenabled()
        gc.disable()

    def __exit__(self, *exc_info):
        if self._was_enabled:
            gc.enable()


# a complex128 entry read as its two float64 halves, so that tolist() gives one
# (re, im) tuple per entry
_PAIR = np.dtype([("re", np.float64), ("im", np.float64)])


def complex_pairs(a) -> list:
    """Nested (re, im) pairs of a complex array: float(z.real), float(z.imag) per entry.

    Each pair is a tuple, which json writes as the same [re, im] array a list
    would give. A tuple is one allocation where a list is two, and the
    collector untracks a tuple of floats on its first pass, where a list would
    stay tracked and be walked again by every older-generation pass.
    """
    a = np.ascontiguousarray(a, dtype=complex)
    with gc_paused():
        return a.view(_PAIR).tolist()


def hermitian_eigenvalues(m) -> np.ndarray:
    """Real eigenvalues of a Hermitian matrix, in descending order.

    Eigenvalues lying within HERMITIAN_TOL outside [0, 1] are clamped to the boundary
    so that density matrices survive floating-point noise; eigenvalues well
    outside that band are returned untouched.
    """
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] == 0:
        raise ValueError("expected a nonempty square matrix")
    if not np.isfinite(m).all():
        raise ValueError("matrix contains NaN or Inf")
    deviation = float(np.max(np.abs(m - m.conj().T)))
    if deviation > HERMITIAN_TOL:
        raise ValueError(f"matrix is not Hermitian (max deviation {deviation:.3e})")
    eigs = np.linalg.eigvalsh(m)[::-1].copy()
    eigs[(eigs < 0.0) & (eigs >= -HERMITIAN_TOL)] = 0.0
    eigs[(eigs > 1.0) & (eigs <= 1.0 + HERMITIAN_TOL)] = 1.0
    return eigs
