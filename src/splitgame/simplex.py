"""Geometry of probability simplices: simplex points, tangent bases, and the
extreme eigenvalue of a symmetric matrix (or of a stack of them at one point)
restricted to the tangent space.

Conventions
-----------
A point of the simplex is a nonnegative vector summing to 1.  Its support is
the set of coordinates with strictly positive mass; the tangent space at a
point consists of the zero-sum vectors supported on the support.  When the
support is a single coordinate the tangent space is {0} and the restricted
min/max eigenvalues degenerate to +inf / -inf respectively.

All index sets are 0-based.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Constructor repair tolerance: inputs violating nonnegativity or normalization
# by more than this are rejected rather than silently fixed.
CONSTRUCT_TOL = 1e-9
SUM_TOL = 1e-12


@dataclass(frozen=True)
class SimplexPoint:
    """Probability vector on a finite index set.

    The constructor clamps coordinates in [-1e-9, 0) to zero and renormalizes
    sums within 1e-9 of one; anything worse is rejected.  Points compare and
    hash by their coordinates' bytes.
    """

    coords: np.ndarray

    def __init__(self, coords) -> None:
        c = np.asarray(coords, dtype=float).copy()
        if c.ndim != 1 or c.size == 0:
            raise ValueError("simplex point must be a nonempty 1-D vector")
        if not np.all(np.isfinite(c)):
            raise ValueError("simplex point has non-finite coordinates")
        if np.min(c) < -CONSTRUCT_TOL:
            raise ValueError(
                f"coordinate {np.min(c):.3e} below -{CONSTRUCT_TOL:.0e}; not a simplex point"
            )
        c[c < 0.0] = 0.0
        s = c.sum()
        if abs(s - 1.0) > CONSTRUCT_TOL:
            raise ValueError(f"coordinates sum to {float(s)!r}, not 1 within {CONSTRUCT_TOL:.0e}")
        if s != 1.0:
            c = c / s
        c.setflags(write=False)
        object.__setattr__(self, "coords", c)

    def __eq__(self, other) -> bool:
        return isinstance(other, SimplexPoint) and self.coords.tobytes() == other.coords.tobytes()

    def __hash__(self) -> int:
        return hash(self.coords.tobytes())

    @property
    def n(self) -> int:
        return self.coords.size

    def __len__(self) -> int:
        return self.coords.size

    def __array__(self, dtype=None, copy=None):
        if dtype is None:
            return self.coords
        return self.coords.astype(dtype)

    @staticmethod
    def vertex(i: int, n: int) -> "SimplexPoint":
        c = np.zeros(n)
        c[i] = 1.0
        return SimplexPoint(c)

    @staticmethod
    def uniform(n: int) -> "SimplexPoint":
        return SimplexPoint(np.full(n, 1.0 / n))


def tangent_basis(s, n: int) -> list[np.ndarray]:
    """Orthonormal basis of the tangent space determined by support ``s``.

    Helmert-style construction: the j-th vector spreads +1 over the first j
    support indices and -j on the (j+1)-th, normalized.  Returns |s|-1
    vectors; a singleton support yields an empty list.
    """
    idx = sorted(int(i) for i in s)
    if not idx:
        raise ValueError("support must be nonempty")
    if idx[0] < 0 or idx[-1] >= n:
        raise ValueError("support index out of range")
    basis = []
    for j in range(1, len(idx)):
        v = np.zeros(n)
        v[idx[:j]] = 1.0
        v[idx[j]] = -float(j)
        basis.append(v / np.sqrt(j * (j + 1)))
    return basis


def _check_symmetric(a: np.ndarray) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise ValueError("matrix must be square")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix has non-finite entries")
    if a.size and np.max(np.abs(a - np.swapaxes(a, -1, -2))) > 1e-10:
        raise ValueError("matrix is not symmetric within 1e-10")
    return a


def _rel_eigen(p, a, want_max: bool) -> float | np.ndarray:
    """One code path for a matrix (n, n) and a stack (..., n, n) at one point:
    a single matrix is a stack of one, unwrapped to a float."""
    a = _check_symmetric(a)
    c = np.asarray(p, dtype=float)
    if a.shape[-1] != c.size:
        raise ValueError("matrix size does not match point dimension")
    stack = a.reshape(-1, c.size, c.size)
    basis = tangent_basis(np.flatnonzero(c > 0.0), c.size)
    if not basis:
        value = np.full(stack.shape[0], -np.inf if want_max else np.inf)
    else:
        b = np.column_stack(basis)
        reduced = b.T @ stack @ b
        reduced = 0.5 * (reduced + np.swapaxes(reduced, -1, -2))
        value = np.linalg.eigh(reduced)[0][..., -1 if want_max else 0]
    return float(value[0]) if a.ndim == 2 else value.reshape(a.shape[:-2])


def rel_eigen_min(p, a) -> float | np.ndarray:
    """Smallest eigenvalue of ``a`` restricted to the tangent space at ``p``.

    ``a`` is one symmetric matrix (n, n), which gives a float, or a stack
    (..., n, n) of them, all at the one point ``p`` and so all sharing its
    support and tangent space, which gives an array (...)."""
    return _rel_eigen(p, a, want_max=False)


def rel_eigen_max(q, b) -> float | np.ndarray:
    """Largest eigenvalue of ``b`` restricted to the tangent space at ``q``;
    ``b`` is one matrix or a stack at one point, as in rel_eigen_min."""
    return _rel_eigen(q, b, want_max=True)


def coupling_bound_constant(dim: int) -> float:
    """Dimensional constant of the Lipschitz-in-p bound on a dim-coordinate simplex."""
    return float(((2.0 + np.sqrt(dim)) * dim) ** (2 * dim - 1))
