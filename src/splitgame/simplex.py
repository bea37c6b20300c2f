"""Geometry of probability simplices: supports, tangent spaces, projections,
and eigenvalues of symmetric matrices restricted to tangent spaces.

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


class DegeneratePointError(ValueError):
    """Raised when a support query finds no coordinate above the threshold."""


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


@dataclass(frozen=True)
class RelEigenResult:
    """Extremal eigenvalue of a symmetric matrix restricted to a tangent space.

    ``value`` follows the degenerate conventions +inf (min over an empty
    tangent space) and -inf (max); ``witness`` is a full-space tangent vector
    achieving the extremum, or None in the degenerate case.
    """

    value: float
    witness: np.ndarray | None


def _as_coords(p) -> np.ndarray:
    if isinstance(p, SimplexPoint):
        return p.coords
    return np.asarray(p, dtype=float)


def support(p, threshold: float = 0.0) -> frozenset[int]:
    """Indices with mass strictly above ``threshold``.

    With threshold 0 this is the exact support; a positive threshold leaves
    out coordinates inside a small band above zero.  Raises
    DegeneratePointError if nothing survives.
    """
    if threshold < 0:
        raise ValueError("threshold must be nonnegative")
    c = _as_coords(p)
    idx = np.flatnonzero(c > threshold)
    if idx.size == 0:
        raise DegeneratePointError("degenerate point: no coordinate above threshold")
    return frozenset(int(i) for i in idx)


def project_tangent(p, y) -> np.ndarray:
    """Orthogonal projection of ``y`` onto the tangent space at ``p``.

    Off-support coordinates are zeroed; on-support coordinates get the mean
    over the support subtracted.  A 2-D ``y`` is projected columnwise, which
    turns a control matrix u into the effective volatility P_p u.
    """
    c = _as_coords(p)
    yv = np.asarray(y, dtype=float)
    if yv.shape[0] != c.size:
        raise ValueError(f"length mismatch: point has {c.size} coordinates, y has {yv.shape[0]}")
    mask = c > 0.0
    k = int(mask.sum())
    if k == 0:
        raise DegeneratePointError("degenerate point: no coordinate above threshold")
    out = np.where(mask if yv.ndim == 1 else mask[:, None], yv, 0.0)
    mean = out.sum(axis=0) / k
    out = out - (mask[:, None] * mean if yv.ndim == 2 else mask * mean)
    return out


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
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("matrix must be square")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix has non-finite entries")
    if np.max(np.abs(a - a.T)) > 1e-10:
        raise ValueError("matrix is not symmetric within 1e-10")
    return a


def _rel_eigen(p, a, want_max: bool) -> RelEigenResult:
    a = _check_symmetric(a)
    c = _as_coords(p)
    if a.shape[0] != c.size:
        raise ValueError("matrix size does not match point dimension")
    basis = tangent_basis(support(p), c.size)
    if not basis:
        return RelEigenResult(-np.inf if want_max else np.inf, None)
    b = np.column_stack(basis)
    reduced = b.T @ a @ b
    reduced = 0.5 * (reduced + reduced.T)
    vals, vecs = np.linalg.eigh(reduced)
    j = vals.argmax() if want_max else vals.argmin()
    return RelEigenResult(float(vals[j]), b @ vecs[:, j])


def rel_eigen_min(p, a) -> RelEigenResult:
    """Smallest eigenvalue of ``a`` restricted to the tangent space at ``p``."""
    return _rel_eigen(p, a, want_max=False)


def rel_eigen_max(q, b) -> RelEigenResult:
    """Largest eigenvalue of ``b`` restricted to the tangent space at ``q``."""
    return _rel_eigen(q, b, want_max=True)


def coupling_bound_constant(dim: int) -> float:
    """Dimensional constant of the Lipschitz-in-p bound on a dim-coordinate simplex."""
    return float(((2.0 + np.sqrt(dim)) * dim) ** (2 * dim - 1))
