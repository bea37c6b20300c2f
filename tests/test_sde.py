import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from splitgame import sde
from splitgame.hamiltonian import analytic_field
from splitgame.sde import (
    ETA,
    BundleSizeError,
    FeedbackControl,
    GridMismatchError,
    NoiseGrid,
    constant_control,
    directional_control,
    estimate_j,
    independence_check,
    lipschitz_p_check,
    simulate,
    simulation_report,
    step_x,
    zero_control,
)
from splitgame.simplex import SUM_TOL, coupling_bound_constant


def make_noise(n_paths=100, seed=7, dt=1 / 64, t=0.0, horizon=1.0, dim1=2, dim2=2):
    return NoiseGrid(t, horizon, dt, n_paths, seed, dim1, dim2)


class TestNoiseGrid:
    def test_rejects_misaligned_dt(self):
        with pytest.raises(GridMismatchError):
            NoiseGrid(0.0, 1.0, 0.3, 10, 0, 2, 2)

    def test_increment_variance(self):
        g = make_noise(n_paths=4000, dt=1 / 16)
        db1, db2 = g.increments(0, 4000)
        for db in (db1, db2):
            v = db[:, 0, :].var(axis=0)
            se = g.dt * np.sqrt(2.0 / 4000)
            assert np.all(np.abs(v - g.dt) <= 5 * se)

    def test_streams_disjoint(self):
        g = make_noise(n_paths=10)
        db1, db2 = g.increments(0, 10)
        assert not np.allclose(db1[:, :, 0], db2[:, :, 0])

    def test_per_path_reproducible(self):
        g = make_noise(n_paths=50)
        a1, a2 = g.increments(10, 20)
        b1, b2 = g.increments(0, 50)
        np.testing.assert_array_equal(a1, b1[10:20])
        np.testing.assert_array_equal(a2, b2[10:20])


class TestStepX:
    def test_zero_control_fixes_state(self):
        x = np.array([0.3, 0.7])
        out = step_x(x, np.zeros((2, 2)), np.array([1.0, -2.0]))
        np.testing.assert_allclose(out, x, atol=1e-15)

    def test_vertex_is_absorbing(self):
        x = np.array([1.0, 0.0])
        rng = np.random.default_rng(0)
        for _ in range(20):
            out = step_x(x, rng.normal(size=(2, 2)), rng.normal(size=2))
            np.testing.assert_array_equal(out, x)

    def test_plain_arithmetic_step(self):
        # u doubles noise coordinate 0 into e_0; projection gives (0.1, -0.1)
        x = np.array([0.5, 0.5])
        u = np.array([[0.2, 0.0], [0.0, 0.0]])
        out = step_x(x, u, np.array([1.0, 0.0]))
        np.testing.assert_allclose(out, [0.6, 0.4], atol=1e-15)

    def test_crossing_shrinks_to_face(self):
        x = np.array([0.1, 0.9])
        u = np.array([[1.0, 0.0], [0.0, 0.0]])
        # raw tangent increment would be (-0.25, +0.25): crossing at theta=0.4
        out = step_x(x, u, np.array([-0.5, 0.0]))
        np.testing.assert_allclose(out, [0.0, 1.0], atol=1e-15)

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            step_x(np.array([0.5, 0.5]), np.full((2, 2), np.nan), np.zeros(2))

    def test_projection_consistency(self):
        # stepping with u equals stepping with its projected version
        from splitgame.simplex import project_tangent
        rng = np.random.default_rng(1)
        for _ in range(200):
            w = rng.exponential(size=3)
            x = w / w.sum()
            u = rng.normal(size=(3, 3))
            db = rng.normal(size=3) * 0.05
            a = step_x(x, u, db)
            b = step_x(x, project_tangent(x, u), db)
            np.testing.assert_allclose(a, b, atol=1e-12)


class TestSimulate:
    def test_zero_controls_freeze_both(self):
        noise = make_noise(n_paths=32)
        p, q = np.array([0.4, 0.6]), np.array([0.5, 0.5])
        b = simulate(p, q, zero_control(2), zero_control(2), noise)
        assert np.all(b.x_paths == b.x_paths[:, :1, :])
        assert np.all(b.y_paths == b.y_paths[:, :1, :])
        rep = simulation_report(p, q, zero_control(2), zero_control(2), noise)
        assert rep.min_coord >= 0.0 and rep.max_sum_err <= SUM_TOL and rep.support_monotone

    def test_directional_needs_two_coordinates(self):
        with pytest.raises(ValueError, match="dim >= 2"):
            directional_control(1, 0.5)

    def test_projected_zero_control_freezes(self):
        noise = make_noise(n_paths=16)
        p = np.array([0.25, 0.75])
        u = constant_control(np.ones((2, 2)))  # columns constant: P_p u = 0
        b = simulate(p, np.array([0.5, 0.5]), u, zero_control(2), noise)
        np.testing.assert_allclose(b.x_paths, np.broadcast_to(p, b.x_paths.shape), atol=1e-14)

    def test_directional_martingale(self):
        noise = make_noise(n_paths=10_000, dt=1 / 128, seed=3)
        p = np.array([0.5, 0.5])
        u = directional_control(2, scale=0.4)
        b = simulate(p, np.array([1.0, 0.0]), u, zero_control(2), noise)
        rep = simulation_report(p, np.array([1.0, 0.0]), u, zero_control(2), noise)
        assert rep.min_coord >= 0.0 and rep.max_sum_err <= SUM_TOL and rep.support_monotone
        xt = b.x_paths[:, -1, :]
        se = xt[:, 0].std(ddof=1) / np.sqrt(xt.shape[0])
        assert abs(xt[:, 0].mean() - 0.5) <= 3 * se
        # paths live on the segment {(a, 1-a)} automatically in 2-d
        assert np.min(xt) >= 0.0

    def test_support_non_increasing(self):
        noise = make_noise(n_paths=500, dt=1 / 64, seed=5)
        u = directional_control(2, scale=2.0)  # strong: many absorptions
        b = simulate(np.array([0.5, 0.5]), np.array([0.5, 0.5]), u,
                     directional_control(2, scale=2.0), noise)
        rep = simulation_report(np.array([0.5, 0.5]), np.array([0.5, 0.5]), u,
                                directional_control(2, scale=2.0), noise)
        assert rep.min_coord >= 0.0 and rep.max_sum_err <= SUM_TOL and rep.support_monotone
        # at least one path must actually hit a face for the test to bite
        assert np.any(b.x_paths[:, -1, :] == 0.0)

    def test_determinism_and_thread_independence(self):
        p, q = np.array([0.3, 0.7]), np.array([0.6, 0.4])
        u = directional_control(2, scale=0.7)
        v = directional_control(2, scale=0.5)
        bundles = []
        for threads in (1, 2, 8):
            noise = make_noise(n_paths=300, dt=1 / 64, seed=11)
            bundles.append(simulate(p, q, u, v, noise, threads=threads))
        for b in bundles[1:]:
            np.testing.assert_array_equal(b.x_paths, bundles[0].x_paths)
            np.testing.assert_array_equal(b.y_paths, bundles[0].y_paths)
            np.testing.assert_array_equal(b.u_realized, bundles[0].u_realized)

    def test_control_grid_must_align(self):
        noise = make_noise(n_paths=4, dt=1 / 64)
        bad = FeedbackControl([1 / 3],
                              lambda j, view: np.zeros((2, 2)), 2)
        with pytest.raises(GridMismatchError):
            simulate(np.array([0.5, 0.5]), np.array([0.5, 0.5]), bad,
                     zero_control(2), noise)

    def test_nonfinite_feedback_rejected(self):
        noise = make_noise(n_paths=4)
        bad = FeedbackControl((),
                              lambda j, view: np.full((2, 2), np.nan), 2)
        with pytest.raises(ValueError):
            simulate(np.array([0.5, 0.5]), np.array([0.5, 0.5]), bad,
                     zero_control(2), noise)

    def test_control_dim_must_match_state(self, monkeypatch):
        drawn = []
        monkeypatch.setattr(NoiseGrid, "increments", lambda grid, lo, hi: drawn.append(lo))
        with pytest.raises(ValueError, match="control 'zero' has dim 3, its state has 2 "):
            simulate(np.array([0.5, 0.5]), np.array([0.5, 0.5]), zero_control(3),
                     zero_control(2), make_noise(n_paths=4))
        assert drawn == []  # rejected before any noise is drawn


class TestBundleSize:
    def test_limit_is_the_bundle_bytes(self, monkeypatch):
        noise = make_noise(n_paths=8, dim1=3, dim2=2)
        v = FeedbackControl(np.array([0.25, 0.5]), lambda j, view: np.eye(2), 2)
        args = (np.full(3, 1 / 3), np.array([0.5, 0.5]), directional_control(3, 0.5), v, noise)
        b = simulate(*args)
        size = sum(a.nbytes for a in (b.x_paths, b.y_paths, b.u_realized, b.v_realized,
                                      b.b1_end, b.b2_end))
        monkeypatch.setattr(sde, "MAX_BUNDLE_BYTES", size)
        simulate(*args)
        monkeypatch.setattr(sde, "MAX_BUNDLE_BYTES", size - 1)
        with pytest.raises(BundleSizeError, match="8 full paths of 64 steps"):
            simulate(*args)


class TestDelayProperty:
    def test_feedback_sees_only_prior_history(self):
        seen = []

        def probe(j, view):
            seen.append((j, view.time, view.own_noise.shape[1], len(view.opp_times)))
            return np.zeros((2, 2))

        u = FeedbackControl([0.25, 0.5], probe, 2)
        v = FeedbackControl([0.5], lambda j, view: np.zeros((2, 2)), 2)
        noise = make_noise(n_paths=3, dt=1 / 16)
        simulate(np.array([0.5, 0.5]), np.array([0.5, 0.5]), u, v, noise)
        # interval j sees exactly j completed own intervals
        assert [s[0] for s in seen] == [0, 1, 2]
        assert [s[2] for s in seen] == [0, 1, 2]
        # opponent intervals visible: started strictly before the evaluation time
        assert [s[3] for s in seen] == [0, 1, 1]

    def test_echo_strategy_one_step_delay(self):
        c = np.full((2, 2), 0.25)

        def echo(j, view):
            if view.opp_controls.shape[1] == 0:
                return np.zeros((2, 2))
            return view.opp_controls[:, -1]

        u = FeedbackControl([0.5], echo, 2)
        v = constant_control(c)
        noise = make_noise(n_paths=2, dt=1 / 16)
        b = simulate(np.array([0.5, 0.5]), np.array([0.5, 0.5]), u, v, noise)
        np.testing.assert_array_equal(b.u_realized[:, 0], 0.0)
        np.testing.assert_array_equal(b.u_realized[:, 1], np.broadcast_to(c, (2, 2, 2)))


class TestEstimateJ:
    def test_constant_H_exact(self):
        noise = make_noise(n_paths=50, dt=1 / 32)
        h = analytic_field("constant", level=0.3, dim_q=2)
        est = estimate_j(np.array([0.5, 0.5]), np.array([0.5, 0.5]),
                         directional_control(2, 0.5),
                         directional_control(2, 0.5), h, noise)
        assert abs(est.mean - 0.3) <= 1e-12
        assert est.std_error <= 1e-12

    def test_frozen_states_deterministic_quadrature(self):
        noise = make_noise(n_paths=10, dt=1 / 32)
        h = analytic_field("tent")
        noise1 = NoiseGrid(0.0, 1.0, 1 / 32, 10, 1, 2, 1)
        p = np.array([0.3, 0.7])
        est = estimate_j(p, np.array([1.0]), zero_control(2),
                         zero_control(1), h, noise1)
        expect = h(0.0, p) * 1.0  # time-independent H, left quadrature is exact here
        assert abs(est.mean - expect) <= 1e-12
        assert est.std_error <= 1e-12

    def test_requires_two_paths(self):
        noise = NoiseGrid(0.0, 1.0, 1 / 32, 1, 0, 2, 1)
        with pytest.raises(ValueError):
            estimate_j(np.array([0.5, 0.5]), np.array([1.0]),
                       zero_control(2), zero_control(1),
                       analytic_field("tent"), noise)


class TestLipschitzCoupling:
    def test_same_start_zero_distance(self):
        noise = make_noise(n_paths=200, dt=1 / 64, seed=2)
        out = lipschitz_p_check([0.5, 0.5], [0.5, 0.5],
                                directional_control(2, 1.0), noise)
        assert out.estimate == 0.0

    def test_bound_constant_value(self):
        # ((2 + sqrt(2)) * 2)^3 = 318.38...; scaled by |p - pbar| = 0.1
        assert abs(coupling_bound_constant(2) - ((2 + np.sqrt(2)) * 2) ** 3) <= 1e-12
        noise = make_noise(n_paths=100, dt=1 / 64)
        out = lipschitz_p_check([0.5, 0.5], [0.55, 0.45],
                                zero_control(2), noise)
        assert abs(out.bound - coupling_bound_constant(2) * np.hypot(0.05, 0.05)) <= 1e-12

    def test_copy_steps_only_where_primary_steps(self, monkeypatch):
        calls = []
        real = sde._step_batch
        monkeypatch.setattr(sde, "_step_batch", lambda *a: calls.append(1) or real(*a))
        noise = make_noise(n_paths=20, dt=1 / 64, dim2=1)
        out = lipschitz_p_check([0.5, 0.5], [0.55, 0.45], zero_control(2), noise)
        assert calls == []
        assert abs(out.estimate - np.hypot(0.05, 0.05)) <= 1e-15  # the copy stays put
        lipschitz_p_check([0.5, 0.5], [0.55, 0.45], directional_control(2, 1.0), noise)
        assert len(calls) == 2 * noise.n_steps  # primary and copy, each once a step

    def test_adversarial_volatility_within_bound(self):
        noise = make_noise(n_paths=2000, dt=1 / 128, seed=9)
        out = lipschitz_p_check([0.45, 0.55], [0.55, 0.45],
                                directional_control(2, 25.0), noise)
        assert out.estimate <= out.bound + 3 * out.std_error


class TestIndependence:
    def test_zero_control_exact_zero(self):
        noise = make_noise(n_paths=64, dt=1 / 32)
        b = simulate(np.array([0.5, 0.5]), np.array([0.5, 0.5]),
                     zero_control(2), directional_control(2, 0.5), noise)
        for entry in independence_check(b):
            assert entry.covariance == 0.0

    def test_nonzero_controls_uncorrelated(self):
        noise = make_noise(n_paths=10_000, dt=1 / 64, seed=21)
        b = simulate(np.array([0.5, 0.5]), np.array([0.5, 0.5]),
                     directional_control(2, 0.5),
                     directional_control(2, 0.5), noise)
        for entry in independence_check(b):
            assert entry.ok, (entry.functional, entry.covariance, entry.std_error)


class TestTrajectoryDump:
    def test_csv_columns_and_rows(self, tmp_path):
        from splitgame.sde import dump_trajectories

        noise = make_noise(n_paths=3, dt=1 / 8)
        b = simulate(np.array([0.5, 0.5]), np.array([0.5, 0.5]),
                     directional_control(2, 0.3), zero_control(2), noise)
        path = tmp_path / "trajectories.csv"
        dump_trajectories(b, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "path_id,time,x_1,x_2,y_1,y_2"
        assert len(lines) == 1 + 3 * 9
        first = lines[1].split(",")
        assert first[0] == "0" and float(first[1]) == 0.0
        np.testing.assert_allclose([float(first[2]), float(first[3])], [0.5, 0.5])

    def test_csv_bytes_match_row_writer(self, tmp_path):
        from splitgame.sde import dump_trajectories

        noise = make_noise(n_paths=12, dt=1 / 16, seed=4, dim1=3)
        b = simulate(np.array([0.3, 0.2, 0.5]), np.array([0.5, 0.5]),
                     directional_control(3, 0.8), directional_control(2, 0.6), noise)
        path = tmp_path / "trajectories.csv"
        dump_trajectories(b, path)
        rows = ["path_id,time,x_1,x_2,x_3,y_1,y_2"]
        for pid in range(b.n_paths):
            for k, tk in enumerate(b.times):
                vals = [*b.x_paths[pid, k], *b.y_paths[pid, k]]
                rows.append(",".join([str(pid), f"{tk:.17g}"] + [f"{v:.17g}" for v in vals]))
        assert path.read_bytes() == ("\n".join(rows) + "\n").encode()
        assert [p.name for p in tmp_path.iterdir()] == ["trajectories.csv"]


class TestSimulationReport:
    def test_martingale_all_times(self):
        noise = make_noise(n_paths=4000, dt=1 / 128, seed=13)
        rep = simulation_report(np.array([0.35, 0.65]), np.array([0.5, 0.5]),
                                directional_control(2, 0.6),
                                directional_control(2, 0.4), noise)
        assert rep.martingale_ok
        assert rep.min_coord >= 0.0
        assert rep.max_sum_err <= 1e-12
        assert rep.support_monotone


def step_batch_reference(x, u, db, eta):
    """The Euler step with numpy's axis-1 reductions, as the engine first
    computed it; shared controls arrive as broadcast (b, n, n) views."""
    mask = x > eta
    w = np.einsum("bij,bj->bi", u, db)
    cnt = mask.sum(axis=1)
    mean = np.where(mask, w, 0.0).sum(axis=1) / cnt
    delta = np.where(mask, w - mean[:, None], 0.0)
    prop = x + delta
    neg = prop < 0.0
    if neg.any():
        with np.errstate(divide="ignore", invalid="ignore"):
            ratios = np.where(delta < -1e-300, x / np.where(delta < -1e-300, -delta, 1.0), np.inf)
        theta = np.minimum(1.0, ratios.min(axis=1))
        bad = neg.any(axis=1)
        prop[bad] = x[bad] + theta[bad, None] * delta[bad]
    prop[prop <= eta] = 0.0
    prop /= prop.sum(axis=1)[:, None]
    return prop


class TestStepKernel:
    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @given(n=st.integers(1, 9), b=st.integers(1, 7), seed=st.integers(0, 2**32 - 1),
           scale=st.sampled_from([1e-6, 0.05, 1.0, 30.0]), dead=st.integers(0, 511),
           shared=st.booleans())
    def test_column_sums_bit_identical_to_axis_sums(self, n, b, seed, scale, dead, shared):
        """Absorbed coordinates (exact zeros and mass inside or on the edge of
        the absorption band), per-path and shared controls, and increments from negligible to
        far past the faces (scale 30 crosses on almost every row); the 8- and
        9-coordinate cases take numpy's own sum."""
        rng = np.random.default_rng(seed)
        x = rng.dirichlet(np.ones(n), size=b)
        for c in range(1, n):
            if dead >> c & 1:
                x[:, c] = rng.choice([0.0, ETA / 2, ETA], size=b)
        x[:, 0] = 1.0 - x[:, 1:].sum(axis=1)
        u = rng.standard_normal((n, n) if shared else (b, n, n))
        u = np.broadcast_to(u, (b, n, n))
        db = rng.standard_normal((b, n)) * scale
        got = sde._step_batch(x.copy(), u, db)
        want = step_batch_reference(x.copy(), u, db, ETA)
        assert got.tobytes() == want.tobytes()


class TestSupportMasks:
    @pytest.mark.parametrize("dim1, dim2, revived", [(9, 2, 1), (2, 3, 2), (65, 2, 1)],
                             ids=["x-ninth-coordinate", "y", "x-65-coordinates"])
    def test_report_sees_support_growth(self, monkeypatch, dim1, dim2, revived):
        # a stand-in step that spreads mass onto every coordinate of one player
        real = sde._step_batch

        def reviving(x, u, db):
            if x.shape[1] == (dim1, dim2)[revived - 1]:
                return np.full_like(x, 1.0 / x.shape[1])
            return real(x, u, db)

        p = np.append(np.full(dim1 - 1, 1.0 / (dim1 - 1)), 0.0)
        q = np.append(np.full(dim2 - 1, 1.0 / (dim2 - 1)), 0.0)
        noise = make_noise(n_paths=8, dim1=dim1, dim2=dim2)
        u, v = directional_control(dim1, 0.3), directional_control(dim2, 0.3)
        assert simulation_report(p, q, u, v, noise).support_monotone
        monkeypatch.setattr(sde, "_step_batch", reviving)
        assert not simulation_report(p, q, u, v, noise).support_monotone
