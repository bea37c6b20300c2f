import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from splitgame.simplex import SimplexPoint, rel_eigen_max, rel_eigen_min, tangent_basis


def project_tangent(p, y) -> np.ndarray:
    """Orthogonal projection of ``y`` onto the tangent space at ``p``.

    Off-support coordinates are zeroed; on-support coordinates get the mean
    over the support subtracted.  A 2-D ``y`` is projected columnwise, which
    turns a control matrix u into the effective volatility P_p u.
    """
    c = np.asarray(p, dtype=float)
    yv = np.asarray(y, dtype=float)
    if yv.shape[0] != c.size:
        raise ValueError(f"length mismatch: point has {c.size} coordinates, y has {yv.shape[0]}")
    mask = c > 0.0
    k = int(mask.sum())
    if k == 0:
        raise ValueError("degenerate point: no coordinate above threshold")
    out = np.where(mask if yv.ndim == 1 else mask[:, None], yv, 0.0)
    mean = out.sum(axis=0) / k
    out = out - (mask[:, None] * mean if yv.ndim == 2 else mask * mean)
    return out


def random_point(rng, n):
    w = rng.exponential(size=n)
    return SimplexPoint(w / w.sum())


class TestSimplexPoint:
    def test_valid_construction(self):
        p = SimplexPoint([0.2, 0.3, 0.5])
        assert abs(p.coords.sum() - 1.0) <= 1e-12
        assert np.all(p.coords >= 0)

    def test_clamps_tiny_negative(self):
        p = SimplexPoint([1.0 + 5e-10, -5e-10])
        assert p.coords[1] == 0.0
        assert abs(p.coords.sum() - 1.0) <= 1e-12

    def test_rejects_large_negative(self):
        with pytest.raises(ValueError):
            SimplexPoint([1.1, -0.1])

    def test_rejects_bad_sum(self):
        with pytest.raises(ValueError):
            SimplexPoint([0.5, 0.6])

    def test_renormalizes_within_tolerance(self):
        p = SimplexPoint([0.5 + 4e-10, 0.5])
        assert abs(p.coords.sum() - 1.0) <= 1e-12

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            SimplexPoint([np.nan, 1.0])

    def test_immutable(self):
        p = SimplexPoint([0.5, 0.5])
        with pytest.raises(ValueError):
            p.coords[0] = 2.0


class TestProjectTangent:
    def test_hand_value(self):
        out = project_tangent(SimplexPoint([0.5, 0.5]), [1.0, 0.0])
        np.testing.assert_allclose(out, [0.5, -0.5], atol=1e-15)

    def test_vertex_kills_everything(self):
        out = project_tangent(SimplexPoint([1.0, 0.0]), [3.0, -7.0])
        np.testing.assert_allclose(out, [0.0, 0.0], atol=0)

    def test_fixes_tangent_vectors(self):
        rng = np.random.default_rng(0)
        p = random_point(rng, 4)
        y = rng.normal(size=4)
        y -= y.mean()  # already tangent at an interior point
        np.testing.assert_allclose(project_tangent(p, y), y, atol=1e-14)

    def test_matrix_projected_columnwise(self):
        rng = np.random.default_rng(1)
        p = random_point(rng, 3)
        u = rng.normal(size=(3, 3))
        pu = project_tangent(p, u)
        for j in range(3):
            np.testing.assert_allclose(pu[:, j], project_tangent(p, u[:, j]), atol=1e-14)

    def test_idempotent(self):
        rng = np.random.default_rng(2)
        for _ in range(1000):
            n = rng.integers(2, 6)
            p = random_point(rng, n)
            y = rng.normal(size=n) * 10
            once = project_tangent(p, y)
            twice = project_tangent(p, once)
            np.testing.assert_allclose(twice, once, atol=1e-12)

    def test_range(self):
        rng = np.random.default_rng(3)
        for _ in range(500):
            n = int(rng.integers(2, 6))
            c = rng.exponential(size=n)
            c[rng.random(size=n) < 0.3] = 0.0
            if c.sum() == 0:
                c[0] = 1.0
            p = SimplexPoint(c / c.sum())
            y = rng.normal(size=n) * 5
            out = project_tangent(p, y)
            assert abs(out.sum()) <= 1e-12
            off = np.flatnonzero(p.coords == 0.0)
            assert np.all(out[off] == 0.0)

    def test_orthogonality_of_residual(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            n = int(rng.integers(2, 6))
            p = random_point(rng, n)
            y = rng.normal(size=n) * 3
            resid = y - project_tangent(p, y)
            for z in tangent_basis(np.flatnonzero(p.coords > 0.0), n):
                assert abs(resid @ z) <= 1e-12

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            project_tangent(SimplexPoint([1.0, 0.0]), [1.0, 2.0, 3.0])


class TestTangentBasis:
    def test_singleton_empty(self):
        assert tangent_basis({0}, 2) == []

    def test_two_point_support(self):
        (v,) = tangent_basis({0, 1}, 2)
        np.testing.assert_allclose(v, [1 / np.sqrt(2), -1 / np.sqrt(2)], atol=1e-15)

    def test_full_support_n3(self):
        basis = tangent_basis({0, 1, 2}, 3)
        assert len(basis) == 2
        for v in basis:
            assert abs(v.sum()) <= 1e-15
            assert abs(np.linalg.norm(v) - 1.0) <= 1e-12
        assert abs(basis[0] @ basis[1]) <= 1e-15

    def test_zero_off_support(self):
        basis = tangent_basis({0, 2}, 4)
        assert len(basis) == 1
        assert basis[0][1] == 0.0 and basis[0][3] == 0.0

    def test_monotone_supports(self):
        # basis vectors of a sub-support stay in the span of the super-support basis
        rng = np.random.default_rng(5)
        for _ in range(100):
            n = int(rng.integers(3, 7))
            big = set(rng.choice(n, size=rng.integers(2, n + 1), replace=False).tolist())
            small = set(
                rng.choice(sorted(big), size=rng.integers(1, len(big) + 1), replace=False).tolist()
            )
            big_basis = tangent_basis(big, n)
            if not big_basis:
                continue
            bmat = np.column_stack(big_basis)
            proj = bmat @ bmat.T
            for v in tangent_basis(small, n):
                np.testing.assert_allclose(proj @ v, v, atol=1e-12)


class TestRelEigen:
    def test_vertex_conventions(self):
        p = SimplexPoint([1.0, 0.0])
        a = np.eye(2)
        assert rel_eigen_min(p, a) == np.inf
        assert rel_eigen_max(p, a) == -np.inf

    def test_identity_interior(self):
        p = SimplexPoint([0.25, 0.25, 0.5])
        assert abs(rel_eigen_min(p, np.eye(3)) - 1.0) <= 1e-12
        assert abs(rel_eigen_max(p, np.eye(3)) - 1.0) <= 1e-12

    def test_diag_plus_minus(self):
        assert abs(rel_eigen_min(SimplexPoint([0.5, 0.5]), np.diag([1.0, -1.0]))) <= 1e-12

    def test_value_matches_null_space_basis(self):
        # at a full-support point the tangent space is the null space of the
        # all-ones row; scipy's SVD basis of it is built independently of
        # tangent_basis, and the extreme eigenvalues do not depend on the basis
        rng = np.random.default_rng(6)
        for _ in range(100):
            n = int(rng.integers(2, 6))
            p = random_point(rng, n)
            m = rng.normal(size=(n, n))
            a = 0.5 * (m + m.T)
            b = scipy.linalg.null_space(np.ones((1, n)))
            vals = np.linalg.eigvalsh(b.T @ a @ b)
            assert abs(rel_eigen_min(p, a) - vals[0]) <= 1e-10
            assert abs(rel_eigen_max(p, a) - vals[-1]) <= 1e-10

    def test_rayleigh_bounds_random_tangent(self):
        rng = np.random.default_rng(7)
        for _ in range(1000):
            n = int(rng.integers(2, 6))
            p = random_point(rng, n)
            m = rng.normal(size=(n, n))
            a = 0.5 * (m + m.T)
            lo = rel_eigen_min(p, a)
            hi = rel_eigen_max(p, a)
            z = project_tangent(p, rng.normal(size=n))
            nz = z @ z
            if nz < 1e-20:
                continue
            rq = z @ a @ z / nz
            assert lo - 1e-9 <= rq <= hi + 1e-9

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            rel_eigen_min(SimplexPoint([0.5, 0.5]), np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_all_zero_point_raises(self):
        # no positive coordinate leaves no support to build a tangent basis on
        with pytest.raises(ValueError, match="support must be nonempty"):
            rel_eigen_min(np.zeros(3), np.eye(3))


@st.composite
def symmetric_stacks(draw):
    """A full-support point of the 3-simplex and a (k, 3, 3) stack of rough,
    scaled, integer (tied eigenvalues) or scalar symmetric matrices."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    k = draw(st.integers(1, 12))
    kind = draw(st.sampled_from(["rough", "scaled", "integer", "scalar"]))
    if kind == "scalar":
        a = rng.normal(size=k)[:, None, None] * np.eye(3)
    elif kind == "integer":
        a = rng.integers(-2, 3, size=(k, 3, 3)).astype(float)
    else:
        a = rng.normal(size=(k, 3, 3)) * (1e6 if kind == "scaled" else 1.0)
    w = rng.exponential(size=3) + 1e-3
    return SimplexPoint(w / w.sum()), 0.5 * (a + np.swapaxes(a, 1, 2))


class TestRelEigenStack:
    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(symmetric_stacks())
    def test_stack_matches_per_matrix_calls_bitwise(self, case):
        p, a = case
        for f in (rel_eigen_min, rel_eigen_max):
            got = f(p, a)
            assert got.shape == (a.shape[0],)
            assert got.tobytes() == np.array([f(p, m) for m in a]).tobytes()

    def test_leading_axes_kept(self):
        a = np.broadcast_to(np.diag([1.0, 2.0, 3.0]), (2, 4, 3, 3))
        assert rel_eigen_max(SimplexPoint.uniform(3), a).shape == (2, 4)

    def test_vertex_stack(self):
        a = np.stack([np.eye(3), -np.eye(3)])
        p = SimplexPoint.vertex(1, 3)
        assert np.array_equal(rel_eigen_min(p, a), [np.inf, np.inf])
        assert np.array_equal(rel_eigen_max(p, a), [-np.inf, -np.inf])

    @pytest.mark.parametrize("point", [SimplexPoint.uniform(3), SimplexPoint.vertex(0, 3)])
    def test_empty_stack(self, point):
        for f in (rel_eigen_min, rel_eigen_max):
            r = f(point, np.zeros((0, 3, 3)))
            assert isinstance(r, np.ndarray) and r.shape == (0,)

    def test_one_asymmetric_member_rejected(self):
        a = np.stack([np.eye(3)] * 4)
        a[2, 0, 1] = 1.0
        with pytest.raises(ValueError, match="not symmetric"):
            rel_eigen_min(SimplexPoint.uniform(3), a)

    def test_one_matrix_gives_float_and_vector(self):
        # one matrix gives a float; the same matrix as a stack of one, a vector
        p = SimplexPoint.uniform(3)
        assert type(rel_eigen_min(p, np.eye(3))) is float
        assert rel_eigen_min(p, np.eye(3)[None]).shape == (1,)
