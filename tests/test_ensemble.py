"""The block driver behind every Monte Carlo estimator: results must not
depend on the thread count or on how the paths are split into blocks."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from splitgame import sde
from splitgame.arena import dpp_diagnostic, preset_family, table_strategies, value_bracket
from splitgame.hamiltonian import HamiltonianField, SimplexGrid, analytic_field
from splitgame.hj import solve
from splitgame.sde import (
    ETA,
    NoiseGrid,
    directional_control,
    estimate_j,
    lipschitz_p_check,
    simulate,
    simulation_report,
    zero_control,
)
from splitgame.splitting import make_split_control, unit_segment_spec
from test_sde import step_batch_reference

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
        u = simulate(P, Q, history_control(0.5), v, noise).u_realized
        assert any(len(np.unique(u[:, j].reshape(len(u), -1), axis=0)) > 1
                   for j in range(u.shape[1]))


def run_all_estimators(threads):
    """Every estimator on 200 paths; arrays that must match across threads."""
    u, v = directional_control(2, 0.8), directional_control(2, 0.5)
    b = simulate(P, Q, u, v, noise_grid(200, 32), threads=threads)
    out = {"simulate": [b.x_paths, b.y_paths, b.u_realized, b.v_realized]}
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
    out["dpp_diagnostic"] = [dpp.table, dpp.estimate, dpp.std_error]
    return out


def test_thread_pool_bit_identical(monkeypatch):
    # blocks of 64 paths, so threads > 1 really runs blocks in the pool
    monkeypatch.setattr(sde, "_block_ranges", fixed_ranges(range(64, 10_000, 64)))
    runs = {threads: run_all_estimators(threads) for threads in (1, 2, 8)}
    for threads in (2, 8):
        for name, values in runs[1].items():
            for want, got in zip(values, runs[threads][name]):
                np.testing.assert_array_equal(got, want, err_msg=f"{name} at {threads} threads")


def per_path_j(u, v, noise):
    """estimate_j's per-path values, read from the block driver's partial results."""
    parts = []
    real = sde._ensemble

    def recording(*args):
        parts.extend(real(*args))
        return parts

    with mock.patch.object(sde, "_ensemble", recording):
        est = estimate_j(P, Q, u, v, BILINEAR, noise, terminal=lambda x, y: y[:, 0])
    return np.concatenate(parts), est


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(st.lists(st.integers(1, 39), max_size=6))
def test_results_independent_of_block_split(cuts):
    u, v = history_control(0.5), directional_control(2, 1.5)

    def run():
        return (simulate(P, Q, u, v, noise_grid(40, 16, seed=2)),
                *per_path_j(u, v, noise_grid(40, 16, seed=2)))

    whole, j_whole, est_whole = run()
    with mock.patch.object(sde, "_block_ranges", fixed_ranges(sorted(set(cuts)))):
        split, j_split, est_split = run()
    for name in ("x_paths", "y_paths", "u_realized", "v_realized"):
        np.testing.assert_array_equal(getattr(split, name), getattr(whole, name))
    np.testing.assert_array_equal(j_split, j_whole)
    assert est_split == est_whole


@pytest.mark.parametrize("n_paths,n_steps", [(1000, 20_000), (50, 100_000), (10_000, 7_813),
                                             (300, 64)])
def test_block_ranges_cover_paths_within_cap(n_paths, n_steps):
    ranges = sde._block_ranges(n_paths, n_steps)
    assert ranges[0][0] == 0 and ranges[-1][1] == n_paths
    assert all(a[1] == b[0] for a, b in zip(ranges, ranges[1:]))
    assert all(0 < (hi - lo) * n_steps <= 2_000_000 for lo, hi in ranges)


def per_step(sim):
    """The engine's former generator: one yield per noise step, each step the
    reference step on that step's row, exposing each player's interval,
    control matrices in force and products u·dB (einsum's, one row at a time)
    as steps() does."""
    n = sim.noise.n_steps
    state = [np.tile(x0, (sim.b, 1)) for x0 in sim.x0]
    sim.interval, sim.control = j, mat = [-1, -1], [None, None]
    sim.product = [None, None]
    zero, row = [False, False], [None, None]
    for k in range(n):
        for i in (0, 1):
            if k == sim.starts[i][j[i] + 1]:
                j[i] += 1
                mat[i] = sim._eval_feedback(i, j[i], k, state)
                zero[i] = not mat[i].any()
            row[i] = None if zero[i] else sim.db.rows(i, k + 1)[k]
            sim.product[i] = None if zero[i] else np.einsum("bij,bj->bi", mat[i], row[i])
        yield k, k + 1, *state
        for i in (0, 1):
            if not zero[i]:
                state[i] = step_batch_reference(state[i], mat[i], row[i], ETA)
    sim.product = [None, None]
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
    b = simulate(SPLIT.p.coords, Q, u, v, noise)
    rep = simulation_report(SPLIT.p.coords, Q, u, v, noise)
    est = estimate_j(SPLIT.p.coords, Q, u, v, H, noise,
                     terminal=lambda x, y: x[:, 0] * y[:, 1])
    lip = lipschitz_p_check(SPLIT.p.coords, [0.3, 0.7], u, noise)
    return [b.x_paths, b.y_paths, b.u_realized, b.v_realized,
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
