import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from splitgame import sde
from splitgame.sde import ETA
from splitgame.simplex import SimplexPoint, rel_eigen_max, rel_eigen_min, tangent_basis


def engine_step(x, w) -> np.ndarray:
    """The increment of one Euler step of the engine, sde._step_batch, from
    the (b, n) states x on the (b, n) products w."""
    return sde._step_batch(x, w) - x


def states(rng, n, b, dead):
    """b states of the n-simplex, each coordinate but the first set to
    exactly zero with probability dead, and a bound on the products that
    steps them across no face: a quarter of each row's least positive
    coordinate."""
    x = rng.dirichlet(np.ones(n), size=b)
    x[:, 1:][rng.random((b, n - 1)) < dead] = 0.0
    x /= x.sum(axis=1, keepdims=True)
    return x, np.where(x > 0.0, x, 1.0).min(axis=1, keepdims=True) / 4


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
    """The tangent projection as the engine makes it: an Euler step of
    sde._step_batch on 2 coordinates (its own kernel, on all-interior and on
    mixed blocks) and on 3 (the general kernel).  Products bounded by
    states() cross no face."""

    def test_hand_value(self):
        for x, w, inc in (([0.5, 0.5], [0.2, 0.0], [0.1, -0.1]),
                          ([0.25, 0.25, 0.5], [0.3, 0.0, 0.0], [0.2, -0.1, -0.1])):
            np.testing.assert_allclose(engine_step(np.array([x]), np.array([w]))[0], inc,
                                       atol=1e-15)

    def test_vertex_kills_everything(self):
        # an exact vertex is a fixed point, bit for bit, at any scale and with
        # signed-zero products, next to interior rows or in a block of vertices
        rng = np.random.default_rng(0)
        for n in (2, 3):
            vertices = np.tile(np.eye(n), (4, 1))
            for interior in (0, 5):
                x = np.concatenate([vertices, states(rng, n, interior, 0.0)[0]])
                for scale in (1e-6, 1.0, 30.0):
                    w = rng.standard_normal(x.shape) * scale
                    w[rng.random(w.shape) < 0.3] = -0.0
                    out = sde._step_batch(x, w)
                    assert out[:len(vertices)].tobytes() == vertices.tobytes(), (n, interior, scale)

    def test_fixes_tangent_vectors(self):
        rng = np.random.default_rng(1)
        for n in (2, 3):
            x, bound = states(rng, n, 200, 0.0)
            w = rng.uniform(-1.0, 1.0, size=x.shape) * bound
            w -= w.mean(axis=1, keepdims=True)  # tangent at a full-support point
            np.testing.assert_allclose(engine_step(x, w), w, atol=1e-14)

    def test_matrix_projected_columnwise(self):
        # the engine projects the product u·dB, which is the product of u
        # projected column by column
        rng = np.random.default_rng(2)
        for n in (2, 3):
            x, bound = states(rng, n, 200, 0.0)
            u = rng.normal(size=(200, n, n))
            db = rng.normal(size=(200, n)) * bound / (4 * n)
            pu = u - u.mean(axis=1, keepdims=True)
            np.testing.assert_allclose(engine_step(x, np.einsum("bij,bj->bi", u, db)),
                                       np.einsum("bij,bj->bi", pu, db), atol=1e-14)

    def test_idempotent(self):
        # a step's increment is tangent, so stepping on it moves by it again
        rng = np.random.default_rng(3)
        for n in (2, 3, 5):
            for dead in (0.0, 0.4):
                x, bound = states(rng, n, 300, dead)
                once = engine_step(x, rng.uniform(-1.0, 1.0, size=x.shape) * bound)
                np.testing.assert_allclose(engine_step(x, once), once, atol=1e-14)

    def test_range(self):
        # the increment sums to zero within rounding and is exactly zero off the support
        rng = np.random.default_rng(4)
        for n in (2, 3, 5):
            for dead in (0.0, 0.3):
                x, bound = states(rng, n, 500, dead)
                inc = engine_step(x, rng.uniform(-1.0, 1.0, size=x.shape) * bound)
                assert np.abs(inc.sum(axis=1)).max() <= 1e-15
                assert np.all(inc[x == 0.0] == 0.0)

    def test_orthogonality_of_residual(self):
        rng = np.random.default_rng(5)
        for n in (2, 3, 5):
            x, bound = states(rng, n, 200, 0.3)
            w = rng.uniform(-1.0, 1.0, size=x.shape) * bound
            resid = w - engine_step(x, w)
            for r, c in zip(resid, x):
                for z in tangent_basis(np.flatnonzero(c > 0.0), n):
                    assert abs(r @ z) <= 1e-14

    def test_band_coordinate_never_revives(self):
        # mass at or below ETA is set to zero on the first step and stays zero
        rng = np.random.default_rng(6)
        for n in (2, 3):
            for band in (ETA / 2, ETA):
                x = np.full((50, n), (1.0 - band) / (n - 1))
                x[:, -1] = band
                for _ in range(100):
                    x = sde._step_batch(x, rng.standard_normal(x.shape) * 0.05)
                    assert np.all(x[:, -1] == 0.0), (n, band)


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
            z = rng.normal(size=n)
            z -= z.mean()  # tangent at a full-support point
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
        assert rel_eigen_max(SimplexPoint(np.full(3, 1 / 3)), a).shape == (2, 4)

    def test_vertex_stack(self):
        a = np.stack([np.eye(3), -np.eye(3)])
        p = SimplexPoint.vertex(1, 3)
        assert np.array_equal(rel_eigen_min(p, a), [np.inf, np.inf])
        assert np.array_equal(rel_eigen_max(p, a), [-np.inf, -np.inf])

    @pytest.mark.parametrize("point", [SimplexPoint(np.full(3, 1 / 3)), SimplexPoint.vertex(0, 3)])
    def test_empty_stack(self, point):
        for f in (rel_eigen_min, rel_eigen_max):
            r = f(point, np.zeros((0, 3, 3)))
            assert isinstance(r, np.ndarray) and r.shape == (0,)

    def test_one_asymmetric_member_rejected(self):
        a = np.stack([np.eye(3)] * 4)
        a[2, 0, 1] = 1.0
        with pytest.raises(ValueError, match="not symmetric"):
            rel_eigen_min(SimplexPoint(np.full(3, 1 / 3)), a)

    def test_one_matrix_gives_float_and_vector(self):
        # one matrix gives a float; the same matrix as a stack of one, a vector
        p = SimplexPoint(np.full(3, 1 / 3))
        assert type(rel_eigen_min(p, np.eye(3))) is float
        assert rel_eigen_min(p, np.eye(3)[None]).shape == (1,)
