"""The block driver behind every Monte Carlo estimator: results must not
depend on the thread count or on how the paths are split into blocks."""

import contextlib
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from splitgame import sde
from splitgame.arena import dpp_diagnostic, preset_family, value_bracket
from splitgame.hamiltonian import HamiltonianField, SimplexGrid, analytic_field
from splitgame.hj import solve
from splitgame.sde import (
    ETA,
    NoiseGrid,
    directional_control,
    estimate_j,
    lipschitz_p_check,
    simulation_report,
    zero_control,
)
from splitgame.splitting import make_split_control, unit_segment_spec
from test_arena import table_strategies
from test_sde import simulate_recording, step_batch_reference

P, Q = np.array([0.3, 0.7]), np.array([0.6, 0.4])
BILINEAR = analytic_field("bilinear")


def fixed_ranges(cuts):
    """A _block_ranges stand-in that splits at the given path indices."""
    def ranges(n_paths, n_steps):
        edges = [0] + [c for c in cuts if 0 < c < n_paths] + [n_paths]
        return list(zip(edges[:-1], edges[1:]))
    return ranges


def history_control(horizon):
    """Player-1 table strategy reading both players' states."""
    catalogue = [np.zeros((2, 2)), np.array([[0.9, 0.0], [-0.9, 0.0]])]
    return table_strategies(2, np.linspace(0.0, horizon, 5)[1:-1], catalogue, count=1,
                            seed=3)["table0"]


def noise_grid(n_paths, n_steps, seed=11, dim2=2, horizon=0.5):
    return NoiseGrid(0.0, horizon, horizon / n_steps, n_paths, seed, 2, dim2)


def test_table_control_is_path_dependent():
    # the table strategy of the thread and block-split tests, on their grids,
    # plays more than one catalogue action across paths on some interval
    for v, noise in ((directional_control(2, 0.5), noise_grid(200, 32)),
                     (directional_control(2, 1.5), noise_grid(40, 16, seed=2))):
        _, u, _ = simulate_recording(P, Q, history_control(0.5), v, noise)
        assert any(len(np.unique(u[:, j].reshape(len(u), -1), axis=0)) > 1
                   for j in range(u.shape[1]))


def run_all_estimators(threads):
    """Every estimator on 200 paths; arrays that must match across threads."""
    u, v = directional_control(2, 0.8), directional_control(2, 0.5)
    b, u_real, v_real = simulate_recording(P, Q, u, v, noise_grid(200, 32), threads=threads)
    out = {"simulate": [b.x_paths, b.y_paths, u_real, v_real]}
    est = estimate_j(P, Q, history_control(0.5), v, BILINEAR, noise_grid(200, 32),
                     threads=threads)
    out["estimate_j"] = [est.mean, est.std_error]
    est = estimate_j(P, Q, u, v, BILINEAR, noise_grid(200, 32), threads=threads,
                     terminal=lambda x, y: x[:, 0] * y[:, 1])
    out["estimate_j terminal"] = [est.mean, est.std_error]
    rep = simulation_report(P, Q, u, v, noise_grid(200, 32), threads=threads)
    out["simulation_report"] = [rep.mean_dev, rep.se, rep.min_coord, rep.max_sum_err,
                                rep.support_monotone]
    lip = lipschitz_p_check(P, [0.35, 0.65], directional_control(2, 3.0),
                            noise_grid(200, 32), threads=threads)
    out["lipschitz_p_check"] = [lip.estimate, lip.std_error]
    fam = preset_family(2, scale=0.8)
    br = value_bracket(P, Q, BILINEAR, fam, fam, NoiseGrid(0.0, 0.25, 1 / 128, 200, 5, 2, 2),
                       threads=threads)
    out["value_bracket"] = [br.table, br.se_table, br.lower, br.upper]
    tent = analytic_field("tent")
    ref = solve(tent, SimplexGrid.build(2, 50), SimplexGrid.build(1, 1), 1.0, 32)
    zero2 = {"zero": zero_control(1)}
    dpp = dpp_diagnostic(P, [1.0], tent, fam, zero2, ref,
                         NoiseGrid(0.0, 0.125, 1 / 256, 200, 6, 2, 1), threads=threads)
    out["dpp_diagnostic"] = [dpp.table, dpp.lower, dpp.lower_se]
    return out


def test_thread_pool_bit_identical(monkeypatch):
    # blocks of 64 paths, so threads > 1 really runs blocks in the pool
    monkeypatch.setattr(sde, "_block_ranges", fixed_ranges(range(64, 10_000, 64)))
    runs = {threads: run_all_estimators(threads) for threads in (1, 2, 8)}
    for threads in (2, 8):
        for name, values in runs[1].items():
            for want, got in zip(values, runs[threads][name]):
                np.testing.assert_array_equal(got, want, err_msg=f"{name} at {threads} threads")


def per_path_j(p, q, u, v, H, noise, terminal, threads=1):
    """estimate_j's per-path values, read from the block driver's partial
    results, and the blocks it ran."""
    parts, blocks = [], []
    real, real_sim = sde._ensemble, sde._BlockSim

    def recording(*args, **kwargs):
        parts.extend(real(*args, **kwargs))
        return parts

    def sim(*args):
        blocks.append(args[-2:])
        return real_sim(*args)

    with mock.patch.object(sde, "_ensemble", recording), mock.patch.object(sde, "_BlockSim", sim):
        est = estimate_j(p, q, u, v, H, noise, threads=threads, terminal=terminal)
    return np.concatenate(parts), est, sorted(blocks)


P3 = np.array([0.2, 0.3, 0.5])
THREE = HamiltonianField("three", lambda t, P, Q: P[..., 0] * Q[..., 1] + P[..., 2] ** 2,
                         3, 2, 2.0, 3.0)


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(cuts=st.lists(st.integers(1, 39), max_size=6), cap=st.sampled_from([40, 200, sde.NOISE_CAP]))
def test_results_independent_of_block_split(cuts, cap):
    """On these controls, grids and starts the split does not change a
    path's bits: simulate cut anywhere gives the same paths and controls, and
    estimate_j on wide blocks gives the same per-path values, bit for bit,
    as on _block_ranges blocks and on blocks cut anywhere, with and without a
    terminal payoff, for players of 2 and of 3 coordinates (whose products are
    einsum's), and for noise windows of 1, 5 and all 16 or 32 rows.  It is
    not a rule for every control: a block that steps renormalises its frozen
    paths too, which can move one by an ulp (see
    test_split_paths_do_not_depend_on_threads)."""
    u, v = history_control(0.5), directional_control(2, 1.5)
    cases = [(P, Q, u, v, BILINEAR, noise_grid(40, 16, seed=2)),
             (P3, Q, directional_control(3, 1.2), history_control(0.5), THREE,
              NoiseGrid(0.0, 0.5, 1 / 32, 40, 4, 3, 2))]
    terminals = (None, lambda x, y: x[:, 0] * y[:, 1])
    cut = fixed_ranges(sorted(set(cuts)))

    def runs():
        return [per_path_j(*case, terminal) for case in cases for terminal in terminals]

    with mock.patch.object(sde, "NOISE_CAP", cap):
        whole = simulate_recording(P, Q, u, v, noise_grid(40, 16, seed=2))
        wide = runs()
        with mock.patch.object(sde, "_wide_ranges", lambda n: sde._block_ranges(n, 16)):
            ranged = runs()
            by_cap = sde._block_ranges(40, 16)
            with mock.patch.object(sde, "_block_ranges", cut):
                split = simulate_recording(P, Q, u, v, noise_grid(40, 16, seed=2))
                cut_anywhere = runs()
    for name in ("x_paths", "y_paths"):
        np.testing.assert_array_equal(getattr(split[0], name), getattr(whole[0], name))
    for got, want in zip(split[1:], whole[1:]):  # each player's controls
        np.testing.assert_array_equal(got, want)
    for (j_wide, est_wide, blocks), other in zip(wide, ranged + cut_anywhere):
        assert blocks == [(0, 40)]
        np.testing.assert_array_equal(other[0], j_wide)
        assert other[1] == est_wide
    assert all(blocks == by_cap for _, _, blocks in ranged)


@pytest.mark.parametrize("n_paths,n_steps", [(1000, 20_000), (50, 100_000), (10_000, 7_813),
                                             (300, 64)])
def test_block_ranges_cover_paths_within_cap(n_paths, n_steps):
    ranges = sde._block_ranges(n_paths, n_steps)
    assert ranges[0][0] == 0 and ranges[-1][1] == n_paths
    assert all(a[1] == b[0] for a, b in zip(ranges, ranges[1:]))
    assert all(0 < (hi - lo) * n_steps <= 2_000_000 for lo, hi in ranges)


@pytest.mark.parametrize("n_paths,n_steps", [(1000, 20_000), (10_000, 7_813), (4000, 2560),
                                             (300, 64), (1, 3_000_000), (3, 2_500_000)])
@pytest.mark.parametrize("threads", [1, 3])
def test_noise_windows_within_cap(n_paths, n_steps, threads):
    """Every block's noise window holds at most 2,000,000 rows times paths per
    player, on _block_ranges blocks and on wide ones, paths longer than that
    included, and the block driver runs the same blocks at every thread
    count: checked on the allocation, without a step or a draw."""
    noise = NoiseGrid(0.0, 1.0, 1.0 / n_steps, n_paths, 0, 2, 3)
    for per_path, want in ((False, sde._block_ranges(n_paths, n_steps)),
                           (True, sde._wide_ranges(n_paths))):
        ranges = sde._ensemble(P, [0.2, 0.3, 0.5], zero_control(2), zero_control(3), noise,
                               lambda sim: (sim.lo, sim.hi), threads, per_path)
        assert ranges == want
        assert ranges[0][0] == 0 and ranges[-1][1] == n_paths
        assert all(a[1] == b[0] for a, b in zip(ranges, ranges[1:]))
        for lo, hi in ranges:
            windows = noise.increments(lo, hi).windows
            assert [w.shape[1:] for w in windows] == [(hi - lo, 2), (hi - lo, 3)]
            assert all(0 < w.shape[0] * (hi - lo) <= 2_000_000 for w in windows)
    assert all(hi - lo <= 4096 for lo, hi in sde._wide_ranges(n_paths))


def test_split_paths_do_not_depend_on_threads():
    """A block steps all its paths while any one path's control is non-zero,
    and the split control freezes its paths one by one, so each path's bits
    depend on its block: estimate_j must run the same blocks at any thread
    count."""
    spec = unit_segment_spec(steps=128, horizon=0.05)
    noise = NoiseGrid(0.0, 1.0, 1 / 2560, 16, 0, 2, 1)
    runs = [per_path_j(spec.p.coords, [1.0], make_split_control(spec), zero_control(1),
                       analytic_field("tent"), noise, None, threads) for threads in (1, 16)]
    (j1, est1, blocks1), (j16, est16, blocks16) = runs
    assert j16.tobytes() == j1.tobytes()
    assert est16 == est1
    assert blocks1 == blocks16 == [(0, 16)]


def per_step(sim):
    """The engine's former generator: one yield per noise step, each step the
    reference step on that step's row, for each player's state and then for
    the states coupled to it, as steps() does."""
    n = sim.noise.n_steps
    state = [np.tile(x0, (sim.b, 1)) for x0 in sim.x0]
    j, mat = [-1, -1], [None, None]
    zero, row = [False, False], [None, None]
    for k in range(n):
        for i in (0, 1):
            if k == sim.starts[i][j[i] + 1]:
                j[i] += 1
                mat[i] = sim._eval_feedback(i, j[i], k, state)
                zero[i] = not mat[i].any()
            row[i] = None if zero[i] else sim.db.rows(i, k, k + 1)[0]
        yield k, k + 1, *state
        for i in (0, 1):
            if not zero[i]:
                state[i] = step_batch_reference(state[i], mat[i], row[i], ETA)
                sim.coupled[i] = tuple(step_batch_reference(c, mat[i], row[i], ETA)
                                       for c in sim.coupled[i])
    yield n, n + 1, *state


SPLIT = unit_segment_spec(steps=8, horizon=0.125)


def segment_control(name):
    """Controls on [0, 0.5] over a 32-step noise grid: zero and split-then-freeze
    leave frozen stretches; the table plays zero on its first 8-step interval, then
    the directional action on paths where both players' first coordinates are at
    or below 1/2."""
    if name == "zero":
        return zero_control(2)
    if name == "directional":
        return directional_control(2, 0.8)
    if name == "split":
        return make_split_control(SPLIT)
    return history_control(0.5)


def run_on_segments(u, v, H):
    noise = noise_grid(40, 32, seed=9)
    b, u_real, v_real = simulate_recording(SPLIT.p.coords, Q, u, v, noise)
    rep = simulation_report(SPLIT.p.coords, Q, u, v, noise)
    est = estimate_j(SPLIT.p.coords, Q, u, v, H, noise,
                     terminal=lambda x, y: x[:, 0] * y[:, 1])
    lip = lipschitz_p_check(SPLIT.p.coords, [0.3, 0.7], u, noise)
    return [b.x_paths, b.y_paths, u_real, v_real,
            rep.mean_dev, rep.se, rep.min_coord, rep.max_sum_err, rep.support_monotone,
            est.mean, est.std_error, lip.estimate, lip.std_error]


TIMED = HamiltonianField("timed", lambda t, P, Q: (1.0 + t) * P[..., 0] * Q[..., 1],
                         2, 2, 2.0, 2.0, time_dependent=True)


@pytest.mark.parametrize("u_name, v_name, H", [
    ("zero", "zero", BILINEAR), ("split", "zero", BILINEAR), ("split", "zero", TIMED),
    ("table", "zero", BILINEAR), ("zero", "table", TIMED), ("table", "split", BILINEAR),
    ("directional", "table", BILINEAR), ("split", "directional", TIMED),
], ids=lambda v: getattr(v, "name", v))
def test_segments_match_per_step(monkeypatch, u_name, v_name, H):
    u, v = segment_control(u_name), segment_control(v_name)
    lengths = []
    real = sde._BlockSim.steps

    def recording(sim):
        for seg in real(sim):
            lengths.append(seg[1] - seg[0])
            yield seg

    monkeypatch.setattr(sde._BlockSim, "steps", recording)
    segmented = run_on_segments(u, v, H)
    monkeypatch.setattr(sde._BlockSim, "steps", per_step)
    stepped = run_on_segments(u, v, H)
    for got, want in zip(segmented, stepped):
        np.testing.assert_array_equal(got, want)
    # lipschitz_p_check runs u against zero, so only a directional u never freezes
    assert (max(lengths) > 1) == (u_name != "directional")


def rows_without_states():
    """A patch of BlockNoise.rows that passes no states: every draw fills
    every path, as before paths on a vertex were left out."""
    rows = sde.BlockNoise.rows
    return mock.patch.object(sde.BlockNoise, "rows",
                             lambda block, i, k, end, states=(): rows(block, i, k, end))


def counting_draws():
    """A patch of BlockNoise._draw, and the list [normals, most frozen] that
    it keeps: the normals generated (each path drawn generates its thrown
    rows and the window's, dim numbers a row) and the largest share of a
    block's paths that one draw left out."""
    seen, real = [0, 0.0], sde.BlockNoise._draw

    def draw(block, i, end, frozen):
        left_out = 0 if frozen is None else int(frozen.sum())
        seen[0] += (block.b - left_out) * (end - block.pos[i]) * block.windows[i].shape[2]
        seen[1] = max(seen[1], left_out / block.b)
        real(block, i, end, frozen)

    return mock.patch.object(sde.BlockNoise, "_draw", draw), seen


def test_estimate_j_leaves_out_frozen_paths():
    """estimate_j on one wide block of four noise windows, where both players'
    controls drive paths to a vertex: a later draw leaves out at least 30 % of
    the paths, fewer normals are drawn than with every path drawn, and every
    path's value keeps its bits."""
    noise = noise_grid(200, 64, seed=5)
    args = (P, Q, directional_control(2, 1.5), directional_control(2, 1.2), BILINEAR, noise,
            lambda x, y: x[:, 0] * y[:, 1])
    runs = []
    with mock.patch.object(sde, "NOISE_CAP", 200 * 16):
        for patch in (contextlib.nullcontext(), rows_without_states()):
            count, seen = counting_draws()
            with patch, count:
                runs.append((per_path_j(*args), seen))
    ((j_on, est_on, blocks), (normals_on, frozen_on)), ((j_off, est_off, _), (normals_off, _)) \
        = runs
    assert blocks == [(0, 200)]
    assert frozen_on >= 0.3
    assert normals_on < normals_off
    assert j_on.tobytes() == j_off.tobytes()
    assert est_on == est_off


def test_lipschitz_copy_draws_where_it_can_move():
    """lipschitz_p_check on one-path blocks of three noise windows: the
    coupled copy steps on the primary's products, so a path is left out only
    where both sit on a vertex.  Every state that steps, the copy's on each
    step included, keeps the bits of the run with every path drawn (the
    estimate alone can match while the copy's paths differ), and the skip
    still draws fewer normals."""
    noise = NoiseGrid(0.0, 1.0, 1 / 256, 48, 7, 2, 1)
    u = directional_control(2, 0.8)
    runs = []
    with mock.patch.object(sde, "NOISE_CAP", 100):
        for patch in (contextlib.nullcontext(), rows_without_states()):
            stepped, real = [], sde._step_batch

            def step(x, w):
                stepped.append(real(x, w))
                return stepped[-1]

            count, seen = counting_draws()
            with patch, count, mock.patch.object(sde, "_step_batch", step):
                lip = lipschitz_p_check([0.3, 0.7], [0.35, 0.65], u, noise)
            runs.append((lip, stepped, seen))
    (lip_on, stepped_on, seen_on), (lip_off, stepped_off, seen_off) = runs
    assert seen_on[1] == 1.0 and seen_on[0] < seen_off[0]
    assert len(stepped_on) == len(stepped_off)
    for got, want in zip(stepped_on, stepped_off):
        assert got.tobytes() == want.tobytes()
    assert lip_on == lip_off
