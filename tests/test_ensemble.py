"""The block driver behind every Monte Carlo estimator: results must not
depend on the thread count or on how the paths are split into blocks."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from splitgame import sde
from splitgame.arena import dpp_diagnostic, preset_family, table_strategies, value_bracket
from splitgame.hamiltonian import SimplexGrid, analytic_field
from splitgame.hj import solve
from splitgame.sde import (
    NoiseGrid,
    directional_control,
    estimate_j,
    lipschitz_p_check,
    simulate,
    simulation_report,
    zero_control,
)

P, Q = np.array([0.3, 0.7]), np.array([0.6, 0.4])
BILINEAR = analytic_field("bilinear")


def fixed_ranges(cuts):
    """A _block_ranges stand-in that splits at the given path indices."""
    def ranges(n_paths, n_steps):
        edges = [0] + [c for c in cuts if 0 < c < n_paths] + [n_paths]
        return list(zip(edges[:-1], edges[1:]))
    return ranges


def history_control(horizon):
    """Player-1 table strategy reading own noise and opponent controls."""
    grid = np.linspace(0.0, horizon, 5)
    catalogue = [np.zeros((2, 2)), np.array([[0.9, 0.0], [-0.9, 0.0]])]
    return table_strategies(2, grid, catalogue, count=1, seed=3)["table0"]


def noise_grid(n_paths, n_steps, seed=11, dim2=2, horizon=0.5):
    return NoiseGrid(0.0, horizon, horizon / n_steps, n_paths, seed, 2, dim2)


def run_all_estimators(threads):
    """Every estimator on 200 paths; arrays that must match across threads."""
    u, v = directional_control(0, 0.5, 2, 0.8), directional_control(0, 0.5, 2, 0.5)
    b = simulate(0.0, P, Q, u, v, noise_grid(200, 32), threads=threads)
    out = {"simulate": [b.x_paths, b.y_paths, b.u_realized, b.v_realized,
                        b.x_support, b.y_support, b.b1_end, b.b2_end]}
    est = estimate_j(0.0, P, Q, history_control(0.5), v, BILINEAR, noise_grid(200, 32),
                     threads=threads)
    out["estimate_j"] = [est.mean, est.std_error]
    est = estimate_j(0.0, P, Q, u, v, BILINEAR, noise_grid(200, 32), threads=threads,
                     terminal=lambda x, y: x[:, 0] * y[:, 1])
    out["estimate_j terminal"] = [est.mean, est.std_error]
    rep = simulation_report(0.0, P, Q, u, v, noise_grid(200, 32), threads=threads)
    out["simulation_report"] = [rep.mean_dev, rep.se, rep.min_coord, rep.max_sum_err,
                                rep.support_monotone]
    lip = lipschitz_p_check(0.0, P, [0.35, 0.65], directional_control(0, 0.5, 2, 3.0),
                            noise_grid(200, 32), threads=threads)
    out["lipschitz_p_check"] = [lip.estimate, lip.std_error]
    fam = preset_family(0.0, 0.25, 2, scale=0.8)
    br = value_bracket(0.0, P, Q, BILINEAR, fam, fam, horizon=0.25, dt=1 / 128,
                       n_paths=200, seed=5, threads=threads)
    out["value_bracket"] = [br.table, br.se_table, br.lower, br.upper]
    tent = analytic_field("tent")
    ref = solve(tent, SimplexGrid.build(2, 50), SimplexGrid.build(1, 1), 1.0, 32)
    fam_dpp = preset_family(0.0, 0.125, 2, scale=0.8)
    zero2 = {"zero": zero_control(0.0, 0.125, 1)}
    dpp = dpp_diagnostic(0.0, 0.125, P, [1.0], tent, fam_dpp, zero2, ref, dt=1 / 256,
                         n_paths=200, seed=6, threads=threads)
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
        est = estimate_j(0.0, P, Q, u, v, BILINEAR, noise, terminal=lambda x, y: y[:, 0])
    return np.concatenate(parts), est


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(st.lists(st.integers(1, 39), max_size=6))
def test_results_independent_of_block_split(cuts):
    u, v = history_control(0.5), directional_control(0, 0.5, 2, 1.5)

    def run():
        return (simulate(0.0, P, Q, u, v, noise_grid(40, 16, seed=2)),
                *per_path_j(u, v, noise_grid(40, 16, seed=2)))

    whole, j_whole, est_whole = run()
    with mock.patch.object(sde, "_block_ranges", fixed_ranges(sorted(set(cuts)))):
        split, j_split, est_split = run()
    for name in ("x_paths", "y_paths", "u_realized", "v_realized",
                 "x_support", "y_support", "b1_end", "b2_end"):
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
