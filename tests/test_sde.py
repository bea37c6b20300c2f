import tracemalloc
from dataclasses import dataclass
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
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
    interval_starts,
    lipschitz_p_check,
    simulate,
    simulation_report,
    zero_control,
)
from splitgame.simplex import SUM_TOL, coupling_bound_constant
from splitgame.splitting import make_split_control, unit_segment_spec


# a block's traced peak over its two noise arrays' bytes, 1.19 when measured on
# a 256-interval split
PEAK_BOUND = 1.3


def make_noise(n_paths=100, seed=7, dt=1 / 64, t=0.0, horizon=1.0, dim1=2, dim2=2):
    return NoiseGrid(t, horizon, dt, n_paths, seed, dim1, dim2)


def all_rows(grid, lo, hi):
    """Both players' increments of paths [lo, hi), every row drawn, path-major:
    (b, N, dim) views of the block's windows, one after the other."""
    block, n = grid.increments(lo, hi), grid.n_steps
    out = ([], [])
    for i in (0, 1):
        while (k := sum(map(len, out[i]))) < n:
            out[i].append(block.rows(i, k, n).copy())
    return tuple(np.concatenate(rows).transpose(1, 0, 2) for rows in out)


def eager_rows(grid, path, stream, dim):
    """One draw of all N rows of a path's Philox stream, scaled to variance dt."""
    ss = np.random.SeedSequence(entropy=grid.seed, spawn_key=(stream, path))
    gen = np.random.Generator(np.random.Philox(ss))
    return gen.standard_normal((grid.n_steps, dim)) * np.sqrt(grid.dt)


def simulate_recording(p, q, u, v, noise, threads=1):
    """simulate's bundle, then each player's control matrices on each
    interval, (n_paths, intervals, n, n), recorded as the blocks evaluate
    their feedback."""
    calls, real = [], sde._BlockSim._eval_feedback

    def recording(sim, i, j, k, state):
        mat = real(sim, i, j, k, state)
        calls.append((i, j, sim.lo, sim.hi, mat))
        return mat

    with mock.patch.object(sde._BlockSim, "_eval_feedback", recording):
        bundle = simulate(p, q, u, v, noise, threads=threads)
    realized = [np.full((noise.n_paths, interval_starts(c, noise).size - 1, c.dim, c.dim), np.nan)
                for c in (u, v)]
    for i, j, lo, hi, mat in calls:
        realized[i][lo:hi, j] = mat
    assert not any(np.isnan(r).any() for r in realized)  # every interval was evaluated
    return bundle, *realized


def record_noise(monkeypatch):
    """Record every Philox stream keyed, as (stream, path), and every draw a
    block makes, as (player, first row, end row) of the rows it writes."""
    streams, draws = [], []
    real_keys, real_draw = NoiseGrid.keys, sde.BlockNoise._draw

    def keys(grid, i, lo, hi):
        streams.extend((i, path) for path in range(lo, hi))
        return real_keys(grid, i, lo, hi)

    def draw(block, i, end):
        draws.append((i, block.start[i], end))
        real_draw(block, i, end)

    monkeypatch.setattr(NoiseGrid, "keys", keys)
    monkeypatch.setattr(sde.BlockNoise, "_draw", draw)
    return streams, draws


class TestNoiseGrid:
    def test_rejects_misaligned_dt(self):
        with pytest.raises(GridMismatchError):
            NoiseGrid(0.0, 1.0, 0.3, 10, 0, 2, 2)

    def test_increment_variance(self):
        g = make_noise(n_paths=4000, dt=1 / 16)
        db1, db2 = all_rows(g, 0, 4000)
        for db in (db1, db2):
            v = db[:, 0, :].var(axis=0)
            se = g.dt * np.sqrt(2.0 / 4000)
            assert np.all(np.abs(v - g.dt) <= 5 * se)

    def test_streams_disjoint(self):
        g = make_noise(n_paths=10)
        db1, db2 = all_rows(g, 0, 10)
        assert not np.allclose(db1[:, :, 0], db2[:, :, 0])

    def test_per_path_reproducible(self):
        g = make_noise(n_paths=50)
        a1, a2 = all_rows(g, 10, 20)
        b1, b2 = all_rows(g, 0, 50)
        np.testing.assert_array_equal(a1, b1[10:20])
        np.testing.assert_array_equal(a2, b2[10:20])

    @pytest.mark.parametrize("seed", [-1, 1.0, 2.5, True, False, "3", None])
    def test_rejects_a_seed_that_is_not_a_non_negative_integer(self, seed):
        with pytest.raises(ValueError, match="seed must be a non-negative integer"):
            NoiseGrid(0.0, 1.0, 0.25, 3, seed, 2, 2)

    def test_accepts_numpy_and_multi_word_seeds(self):
        for seed in (np.int64(3), np.uint64(2**64 - 1), 2**140):
            assert NoiseGrid(0.0, 1.0, 0.25, 3, seed, 2, 2).seed == seed


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(seed=st.one_of(st.integers(0, 2**32 - 1), st.integers(2**32, 2**140)),
       stream=st.integers(0, 1),
       lo=st.one_of(st.integers(0, 5000), st.integers(2**32 - 8, 2**32 + 8)),
       size=st.integers(0, 12))
# numpy pads a seed of up to 4 words to the pool size, so the hash count turns
# at 4 words; and a block can cross into a path's second word
@example(seed=2**96, stream=0, lo=0, size=3)
@example(seed=2**128 - 1, stream=1, lo=0, size=3)
@example(seed=2**128, stream=0, lo=0, size=3)
@example(seed=7, stream=1, lo=2**32 - 1, size=2)
def test_block_keys_are_numpys(seed, stream, lo, size):
    """A block's keys, computed in one pass, are the ones numpy's SeedSequence
    gives each (stream, path), for any seed and any first path."""
    got = NoiseGrid(0.0, 1.0, 0.5, 1, seed, 2, 2).keys(stream, lo, lo + size)
    assert got.dtype == np.uint64 and got.shape == (size, 2)
    for row, path in zip(got, range(lo, lo + size)):
        ss = np.random.SeedSequence(entropy=seed, spawn_key=(stream, path))
        np.testing.assert_array_equal(row, ss.generate_state(2, np.uint64))


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(dims=st.tuples(st.integers(1, 3), st.integers(1, 3)), n_steps=st.integers(1, 40),
       cuts=st.lists(st.integers(1, 11), min_size=1, max_size=3),
       cap=st.one_of(st.integers(1, 60), st.just(sde.NOISE_CAP)),
       requests=st.lists(st.tuples(st.integers(0, 1), st.integers(0, 12), st.integers(1, 45),
                                   st.integers(1, 20)), max_size=10),
       group=st.integers(1, 13))
def test_lazy_rows_are_eager_bytes(dims, n_steps, cuts, cap, requests, group):
    """Rows drawn on demand into windows, for any window size, any block of
    paths, any number of paths drawn per scratch buffer and any increasing
    requests, skipped stretches included, carry the bytes of one eager draw
    of each path's whole stream.  Each request (player, rows skipped, rows
    asked for, rows taken) asks for rows [k, end) and moves past the rows taken."""
    grid = NoiseGrid(0.0, 1.0, 1 / n_steps, 12, 5, *dims)
    edges = [0, *sorted(set(cuts)), 12]
    with mock.patch.object(sde, "_DRAW_GROUP", group), mock.patch.object(sde, "NOISE_CAP", cap):
        for lo, hi in zip(edges, edges[1:]):
            block, b = grid.increments(lo, hi), hi - lo
            width = block.width
            assert width == min(n_steps, max(1, cap // b)) and width * b <= max(cap, b)
            assert [w.shape for w in block.windows] == [(width, b, d) for d in dims]
            want = [np.stack([eager_rows(grid, path, i, dims[i]) for path in range(lo, hi)],
                             axis=1) for i in (0, 1)]
            nxt = [0, 0]
            ends = [(0, 0, n_steps, n_steps), (1, 0, n_steps, n_steps)]
            for i, skip, ask, take in requests + ends + ends:
                k = nxt[i] + skip
                if k >= n_steps:
                    continue
                end = min(k + ask, n_steps)
                s0, stop0 = block.start[i], block.stop[i]
                db = block.rows(i, k, end)
                s, stop = block.start[i], block.stop[i]
                assert 1 <= len(db) <= end - k and k + len(db) <= s + width
                assert db.tobytes() == want[i][k:k + len(db)].tobytes()
                assert block.windows[i][:stop - s].tobytes() == want[i][s:stop].tobytes()
                if s == s0 and stop != stop0:  # a draw at least doubles its window's rows
                    assert stop - s >= min(2 * (stop0 - s), width, n_steps - s)
                if width == n_steps:  # no stream is ever continued: keys only
                    assert block._saved[i] is None
                nxt[i] = k + min(take, len(db))


class TestLazyNoise:
    P, Q = np.array([0.5, 0.5]), np.array([1.0])
    TENT = analytic_field("tent")

    def test_zero_controls_build_no_stream(self, monkeypatch):
        streams, draws = record_noise(monkeypatch)
        est = estimate_j(self.P, self.Q, zero_control(2), zero_control(1), self.TENT,
                         make_noise(n_paths=50, dim2=1))
        assert est.std_error == 0.0
        assert streams == [] and draws == []

    def test_split_then_freeze_draws_only_the_split(self, monkeypatch):
        spec = unit_segment_spec(steps=128, horizon=0.05)
        noise = make_noise(n_paths=20, dt=1 / 2560, dim2=1)
        streams, draws = record_noise(monkeypatch)
        estimate_j(spec.p.coords, self.Q, make_split_control(spec), zero_control(1),
                   self.TENT, noise)
        assert streams == [(0, path) for path in range(20)]  # one block, player 1 only
        assert draws and all(i == 0 for i, _, _ in draws)
        assert 128 <= draws[-1][2] <= 2 * 128
        assert len(draws) <= 1 + int(np.log2(128))

    def test_constant_control_draws_all_rows_at_once(self, monkeypatch):
        noise = make_noise(n_paths=30, dt=1 / 256, dim2=1)
        streams, draws = record_noise(monkeypatch)
        estimate_j(self.P, self.Q, directional_control(2, 0.5), zero_control(1), self.TENT,
                   noise)
        assert streams == [(0, path) for path in range(30)]
        assert draws == [(0, 0, noise.n_steps)]

    def test_constant_control_draws_window_by_window(self, monkeypatch):
        # 30 paths in windows of 100 rows: each window is drawn once, and only
        # a window that ends short of the path saves the streams' states
        noise = make_noise(n_paths=30, dt=1 / 256, dim2=1)
        monkeypatch.setattr(sde, "NOISE_CAP", 3000)
        streams, draws = record_noise(monkeypatch)
        saved, real = [], sde.BlockNoise._draw

        def draw(block, i, end):
            real(block, i, end)
            saved.append(block.pos[i])

        monkeypatch.setattr(sde.BlockNoise, "_draw", draw)
        windowed = estimate_j(self.P, self.Q, directional_control(2, 0.5), zero_control(1),
                              self.TENT, noise)
        assert streams == [(0, path) for path in range(30)]
        assert draws == [(0, 0, 100), (0, 100, 200), (0, 200, 256)]
        assert saved == [100, 200, 200]
        monkeypatch.setattr(sde, "NOISE_CAP", 30 * 256)
        assert estimate_j(self.P, self.Q, directional_control(2, 0.5), zero_control(1),
                          self.TENT, noise) == windowed

    def test_simulate_draws_nothing_for_a_zero_control(self, monkeypatch):
        noise = make_noise(n_paths=6, dt=1 / 32, dim2=1)
        streams, draws = record_noise(monkeypatch)
        simulate(self.P, self.Q, directional_control(2, 0.5), zero_control(1), noise)
        assert streams == [(0, path) for path in range(6)]
        assert draws == [(0, 0, noise.n_steps)]

    def test_block_peak_is_its_noise(self):
        # a per-path split over 256 intervals: a block keeps its two noise
        # arrays and the controls in force, never one matrix per interval
        spec = unit_segment_spec(steps=256, horizon=0.125)
        noise = make_noise(n_paths=500, dt=0.125 / 256, horizon=0.125, dim2=1)
        noise_bytes = 8 * noise.n_paths * noise.n_steps * (noise.dim1 + noise.dim2)
        tracemalloc.start()
        try:
            estimate_j(spec.p.coords, self.Q, make_split_control(spec), zero_control(1),
                       self.TENT, noise)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= PEAK_BOUND * noise_bytes, peak / noise_bytes

    def test_long_block_keeps_nothing_per_step(self):
        # a one-path block on a path longer than a window: beyond its noise
        # windows it allocates nothing of the path's length, which is
        # 24 MB for one float a step
        noise = NoiseGrid(0.0, 1.0, 1 / 3_000_000, 1, 0, 2, 1)
        spec = unit_segment_spec(steps=8, horizon=8 * noise.dt)
        tracemalloc.start()
        try:
            sim = sde._BlockSim(spec.p.coords, self.Q, make_split_control(spec),
                                zero_control(1), noise, 0, 1)
            for *_, x, _y in sim.steps():
                pass
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        windows = sum(w.nbytes for w in sim.db.windows)
        assert [w.shape[0] for w in sim.db.windows] == [sde.NOISE_CAP] * 2
        assert sim.db.stop[0] > 0 and x[0, 0] != spec.p.coords[0]  # the split stepped
        assert peak - windows < 2**20, peak - windows


def step_x(x, u, db) -> np.ndarray:
    """Single Euler step for one state, through the engine's products and
    batched step."""
    xv, uv, dbv = (np.asarray(a, dtype=float) for a in (x, u, db))
    w = sde._products(uv[None], dbv[None, None], np.empty((1, 1, xv.size)))[0]
    return sde._step_batch(xv[None], w)[0]


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

    def test_projection_consistency(self):
        # stepping with u equals stepping with its projected version
        from test_simplex import project_tangent
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
        runs = []
        for threads in (1, 2, 8):
            noise = make_noise(n_paths=300, dt=1 / 64, seed=11)
            runs.append(simulate_recording(p, q, u, v, noise, threads=threads))
        (first, u_first, _), *rest = runs
        for b, u_real, _ in rest:
            np.testing.assert_array_equal(b.x_paths, first.x_paths)
            np.testing.assert_array_equal(b.y_paths, first.y_paths)
            np.testing.assert_array_equal(u_real, u_first)

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
        monkeypatch.setattr(NoiseGrid, "keys", lambda grid, i, lo, hi: drawn.append(lo))
        with pytest.raises(ValueError, match="control 'zero' has dim 3, its state has 2 "):
            simulate(np.array([0.5, 0.5]), np.array([0.5, 0.5]), zero_control(3),
                     zero_control(2), make_noise(n_paths=4))
        assert drawn == []  # rejected before any block or stream is made


class TestBundleSize:
    def test_limit_is_the_bundle_bytes(self, monkeypatch):
        noise = make_noise(n_paths=8, dim1=3, dim2=2)
        v = FeedbackControl(np.array([0.25, 0.5]), lambda j, view: np.eye(2), 2)
        args = (np.full(3, 1 / 3), np.array([0.5, 0.5]), directional_control(3, 0.5), v, noise)
        b = simulate(*args)
        size = b.x_paths.nbytes + b.y_paths.nbytes
        monkeypatch.setattr(sde, "MAX_BUNDLE_BYTES", size)
        simulate(*args)
        monkeypatch.setattr(sde, "MAX_BUNDLE_BYTES", size - 1)
        with pytest.raises(BundleSizeError, match="8 full paths of 64 steps"):
            simulate(*args)


def pushes(scale):
    """The directional control's matrix: harvest noise coordinate 0, push along e_0 - e_1."""
    return np.array([[scale, 0.0], [-scale, 0.0]])


def reads_opponent(scale):
    """A feedback whose gain on each path grows with the opponent's first coordinate."""
    def feedback(j, view):
        return (scale * (0.5 + view.opp_state[:, 0]))[:, None, None] * pushes(1.0)
    return feedback


class TestStateFeedback:
    def test_view_is_both_states_at_interval_start(self):
        seen = ([], [])

        def probe(i, scale):
            def feedback(j, view):
                seen[i].append((j, view.time, view.own_state.copy(), view.opp_state.copy()))
                return pushes(scale)
            return feedback

        u = FeedbackControl([0.25, 0.5], probe(0, 0.6), 2)
        v = FeedbackControl([0.375, 0.75], probe(1, 0.4), 2)
        noise = make_noise(n_paths=5, dt=1 / 16)
        b = simulate(np.array([0.5, 0.5]), np.array([0.3, 0.7]), u, v, noise)
        paths = b.x_paths, b.y_paths
        for i, ctrl in enumerate((u, v)):
            starts = interval_starts(ctrl, noise)[:-1]
            assert [s[0] for s in seen[i]] == list(range(starts.size))
            for (j, t, own, opp), k in zip(seen[i], starts):
                assert t == b.times[k]
                np.testing.assert_array_equal(own, paths[i][:, k])
                np.testing.assert_array_equal(opp, paths[1 - i][:, k])
            # both states have moved by the last interval, so the test bites
            assert not np.array_equal(seen[i][-1][3], paths[1 - i][:, 0])

    def test_controls_ignore_noise_from_their_start_on(self, monkeypatch):
        k = 8  # both players' intervals begin here; increments from step k on change sign
        u = FeedbackControl(np.arange(1, 8) / 8, reads_opponent(0.8), 2)
        v = FeedbackControl(np.arange(1, 4) / 4, reads_opponent(0.5), 2)
        noise = make_noise(n_paths=20, dt=1 / 32)
        args = (np.array([0.4, 0.6]), np.array([0.5, 0.5]), u, v, noise)
        base = simulate_recording(*args)
        real = sde.BlockNoise._draw

        def flipped(block, i, end):
            # a draw writes its window's rows afresh: those from step k on change sign
            real(block, i, end)
            s = block.start[i]
            block.windows[i][max(k - s, 0):end - s] *= -1.0

        monkeypatch.setattr(sde.BlockNoise, "_draw", flipped)
        alt = simulate_recording(*args)
        for i, ctrl in enumerate((u, v)):
            begun = interval_starts(ctrl, noise)[:-1] <= k
            got, want = alt[1 + i], base[1 + i]
            np.testing.assert_array_equal(got[:, begun], want[:, begun])
            assert not np.array_equal(got[:, ~begun], want[:, ~begun])

    def test_cross_state_feedback(self):
        q = np.array([0.5, 0.5])

        def cross(j, view):
            on = view.opp_state[:, 0] > q[0]
            return np.where(on[:, None, None], pushes(0.5), 0.0)

        u = FeedbackControl([0.5], cross, 2)
        noise = make_noise(n_paths=64, dt=1 / 16)
        b, u_real, _ = simulate_recording(np.array([0.5, 0.5]), q, u,
                                          directional_control(2, 0.8), noise)
        on = b.y_paths[:, 8, 0] > q[0]  # the switch at 0.5 is step 8
        assert 0 < on.sum() < on.size
        np.testing.assert_array_equal(u_real[:, 0], 0.0)
        np.testing.assert_array_equal(u_real[:, 1],
                                      np.where(on[:, None, None], pushes(0.5), 0.0))


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

    def test_rejects_nan_feedback_before_drawing(self, monkeypatch):
        streams, _ = record_noise(monkeypatch)
        bad = FeedbackControl((), lambda j, view: np.full((2, 2), np.nan), 2, "bad")
        h = analytic_field("constant", level=0.3, dim_q=2)
        with pytest.raises(ValueError, match="control 'bad' returned a non-finite matrix"):
            estimate_j(np.array([0.5, 0.5]), np.array([0.5, 0.5]), bad,
                       directional_control(2, 0.5), h, make_noise(n_paths=4))
        assert streams == []

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


@dataclass(frozen=True)
class CovarianceEntry:
    x_coordinate: int
    functional: str
    covariance: float
    std_error: float

    @property
    def ok(self) -> bool:
        return abs(self.covariance) <= 3.0 * self.std_error + 1e-15


def independence_check(bundle, noise) -> list[CovarianceEntry]:
    """Empirical covariance between X_T - p and bounded functionals of the
    opponent's Brownian block, summed from the noise grid's rows; everything
    should vanish to 3 standard errors.
    """
    x_t = bundle.x_paths[:, -1, :]
    x0 = bundle.x_paths[:, 0, :]
    a = x_t - x0
    # summed over a path-major copy, in the order the engine first summed them
    b2 = all_rows(noise, 0, noise.n_paths)[1]
    b2_end = np.ascontiguousarray(b2).sum(axis=1)
    functionals = {"sign_b2_first": np.sign(b2_end[:, 0]),
                   "tanh_b2_first": np.tanh(b2_end[:, 0])}
    for c in range(bundle.y_paths.shape[2]):
        functionals[f"y_T_{c}"] = bundle.y_paths[:, -1, c]
    n = bundle.n_paths
    out = []
    for name, f in functionals.items():
        fc = f - f.mean()
        for c in range(a.shape[1]):
            ac = a[:, c] - a[:, c].mean()
            prod = ac * fc
            cov = float(prod.mean())
            se = float(prod.std(ddof=1) / np.sqrt(n)) if n > 1 else 0.0
            out.append(CovarianceEntry(c, name, cov, se))
    return out


class TestIndependence:
    def test_zero_control_exact_zero(self):
        noise = make_noise(n_paths=64, dt=1 / 32)
        b = simulate(np.array([0.5, 0.5]), np.array([0.5, 0.5]),
                     zero_control(2), directional_control(2, 0.5), noise)
        for entry in independence_check(b, noise):
            assert entry.covariance == 0.0

    def test_nonzero_controls_uncorrelated(self):
        noise = make_noise(n_paths=10_000, dt=1 / 64, seed=21)
        b = simulate(np.array([0.5, 0.5]), np.array([0.5, 0.5]),
                     directional_control(2, 0.5),
                     directional_control(2, 0.5), noise)
        for entry in independence_check(b, noise):
            assert entry.ok, (entry.functional, entry.covariance, entry.std_error)

    def test_complete_information_feedback_keeps_orthogonality(self):
        # each control reads the other's state; B1 and B2 independent keep
        # <X, Y> = 0, so X stays a martingale uncorrelated with Y and B2
        p, q = np.array([0.5, 0.5]), np.array([0.4, 0.6])
        u = FeedbackControl(np.arange(1, 16) / 16, reads_opponent(0.6), 2)
        v = FeedbackControl(np.arange(1, 16) / 16, reads_opponent(0.4), 2)
        noise = make_noise(n_paths=4000, dt=1 / 64, seed=23)
        assert simulation_report(p, q, u, v, noise).martingale_ok
        b, u_real, _ = simulate_recording(p, q, u, v, noise)
        assert len(np.unique(u_real[:, -1, 0, 0])) > 1  # the gains vary by path
        for entry in independence_check(b, noise):
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

    @pytest.mark.parametrize("cuts", [(), (7, 30, 31)])
    @pytest.mark.parametrize("controls", ["active", "split", "frozen"])
    def test_bundle_report_is_the_streamed_report(self, monkeypatch, cuts, controls):
        # the report simulate streams beside its paths has simulation_report's bits
        edges = [0, *cuts, 40]
        monkeypatch.setattr(sde, "_block_ranges", lambda n, k: list(zip(edges, edges[1:])))
        # a split, then frozen stretches; and both frozen from the start
        spec = unit_segment_spec(steps=16, horizon=0.25)
        p, u, v = {"active": ([0.35, 0.65], directional_control(2, 0.6), directional_control(2, 0.4)),
                   "split": (spec.p.coords, make_split_control(spec), zero_control(2)),
                   "frozen": ([0.35, 0.65], zero_control(2), zero_control(2))}[controls]
        args = (np.asarray(p), np.array([0.5, 0.5]), u, v, make_noise(n_paths=40, dt=1 / 64))
        want, got = simulation_report(*args), simulate(*args).report
        for name in ("times", "mean_dev", "se"):
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name
        for name in ("min_coord", "max_sum_err", "support_monotone", "n_paths"):
            assert getattr(got, name) == getattr(want, name), name


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
    @given(n=st.integers(1, 9), b=st.integers(1, 7), c=st.integers(1, sde._CHUNK),
           seed=st.integers(0, 2**32 - 1), scale=st.sampled_from([1e-6, 0.05, 1.0, 30.0]),
           dead=st.integers(0, 511), zeros=st.integers(0, 2), shared=st.booleans())
    def test_column_sums_bit_identical_to_axis_sums(self, n, b, c, seed, scale, dead, zeros,
                                                    shared):
        """A chunk of c steps: its products, formed from time-major rows, carry
        the bits of einsum on each path-major row, and a step on them the bits
        of the reference step.  Absorbed coordinates (exact zeros and mass
        inside or on the edge of the absorption band), per-path and shared
        controls, signed-zero increments and matrix entries (so that -0.0
        products arise), and increments from negligible to far past the faces
        (scale 30 crosses on almost every row); the 8- and 9-coordinate cases
        take numpy's own sum, from 3 coordinates on the products einsum's."""
        rng = np.random.default_rng(seed)
        x = rng.dirichlet(np.ones(n), size=b)
        for col in range(1, n):
            if dead >> col & 1:
                x[:, col] = rng.choice([0.0, ETA / 2, ETA], size=b)
        x[:, 0] = 1.0 - x[:, 1:].sum(axis=1)
        u = rng.standard_normal((n, n) if shared else (b, n, n))
        db = rng.standard_normal((b, c, n)) * scale  # path-major, as the engine drew it
        if zeros:
            u[rng.random(u.shape) < 0.3] = 0.0
            db[rng.random(db.shape) < 0.3] = (0.0, -0.0)[zeros - 1]
        u = np.broadcast_to(u, (b, n, n))
        w = sde._products(u, np.ascontiguousarray(db.transpose(1, 0, 2)), np.empty((c, b, n)))
        for k in range(c):
            assert w[k].tobytes() == np.einsum("bij,bj->bi", u, db[:, k]).tobytes(), k
            kept = w[k].copy()
            got = sde._step_batch(x.copy(), w[k])
            want = step_batch_reference(x.copy(), u, db[:, k], ETA)
            assert got.tobytes() == want.tobytes(), k
            assert w[k].tobytes() == kept.tobytes()  # the step leaves the products


class TestSupportMasks:
    @pytest.mark.parametrize("dim1, dim2, revived", [(9, 2, 1), (2, 3, 2), (65, 2, 1)],
                             ids=["x-ninth-coordinate", "y", "x-65-coordinates"])
    def test_report_sees_support_growth(self, monkeypatch, dim1, dim2, revived):
        # a stand-in step that spreads mass onto every coordinate of one player
        real = sde._step_batch

        def reviving(x, w):
            if x.shape[1] == (dim1, dim2)[revived - 1]:
                return np.full_like(x, 1.0 / x.shape[1])
            return real(x, w)

        p = np.append(np.full(dim1 - 1, 1.0 / (dim1 - 1)), 0.0)
        q = np.append(np.full(dim2 - 1, 1.0 / (dim2 - 1)), 0.0)
        noise = make_noise(n_paths=8, dim1=dim1, dim2=dim2)
        u, v = directional_control(dim1, 0.3), directional_control(dim2, 0.3)
        assert simulation_report(p, q, u, v, noise).support_monotone
        monkeypatch.setattr(sde, "_step_batch", reviving)
        assert not simulation_report(p, q, u, v, noise).support_monotone
