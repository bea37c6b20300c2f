import numpy as np
import pytest

from splitgame.arena import (
    BudgetExceededError,
    dpp_diagnostic,
    preset_family,
    table_strategies,
    value_bracket,
)
from splitgame.hamiltonian import SimplexGrid, analytic_field
from splitgame.hj import solve
from splitgame.sde import (
    FeedbackControl,
    GridMismatchError,
    NoiseGrid,
    constant_control,
    directional_control,
    estimate_j,
    simulate,
    zero_control,
)
from splitgame.splitting import unit_segment_spec


def one_sided_reference(h, res=100, n_steps=64):
    pg = SimplexGrid.build(2, res)
    qg = SimplexGrid.build(1, 1)
    return solve(h, pg, qg, 1.0, n_steps)


class TestResolveControls:
    def test_constant_strategies_constant_paths(self):
        noise = NoiseGrid(0.0, 1.0, 1 / 32, 8, 0, 2, 2)
        a = constant_control(np.full((2, 2), 0.2))
        b = constant_control(np.full((2, 2), -0.1))
        bundle = simulate([0.5, 0.5], [0.5, 0.5], a, b, noise)
        u, v = bundle.u_realized, bundle.v_realized
        np.testing.assert_array_equal(u, np.full((8, 1, 2, 2), 0.2))
        np.testing.assert_array_equal(v, np.full((8, 1, 2, 2), -0.1))

    def test_echo_vs_constant(self):
        c = np.full((2, 2), 0.3)

        def echo(j, view):
            if view.opp_controls.shape[1] == 0:
                return np.zeros((2, 2))
            return view.opp_controls[:, -1]

        alpha = FeedbackControl([0.5], echo, 2)
        beta = constant_control(c)
        noise = NoiseGrid(0.0, 1.0, 1 / 16, 4, 0, 2, 2)
        u = simulate([0.5, 0.5], [0.5, 0.5], alpha, beta, noise).u_realized
        np.testing.assert_array_equal(u[:, 0], 0.0)
        np.testing.assert_array_equal(u[:, 1], np.broadcast_to(c, (4, 2, 2)))

    def test_randomized_tables_reproducible(self):
        switches = [0.25, 0.5, 0.75]
        catalogue = [np.zeros((2, 2)), np.eye(2) * 0.4]
        fam = table_strategies(2, switches, catalogue, count=3, seed=5)
        fam2 = table_strategies(2, switches, catalogue, count=3, seed=5)
        noise = NoiseGrid(0.0, 1.0, 1 / 16, 6, 3, 2, 2)
        for s1, s2 in zip(fam.values(), fam2.values()):
            b1 = simulate([0.5, 0.5], [0.5, 0.5], s1, fam["table0"], noise)
            b2 = simulate([0.5, 0.5], [0.5, 0.5], s2, fam2["table0"], noise)
            np.testing.assert_array_equal(b1.u_realized, b2.u_realized)
            np.testing.assert_array_equal(b1.v_realized, b2.v_realized)


class TestPresetFamily:
    @pytest.mark.parametrize("dim, names", [(1, ["zero"]), (2, ["zero", "directional"])])
    def test_every_preset_builds(self, dim, names):
        fam = preset_family(dim, scale=0.5)
        assert list(fam) == names
        for control in fam.values():
            assert control.dim == dim


class TestValueBracket:
    def test_constant_H_exact_both_sides(self):
        h = analytic_field("constant", level=0.25, dim_q=2)
        fam = preset_family(2)
        br = value_bracket([0.5, 0.5], [0.5, 0.5], h, fam, fam,
                           NoiseGrid(0.0, 1.0, 1 / 32, 64, 0, 2, 2))
        assert abs(br.lower - 0.25) <= 1e-12
        assert abs(br.upper - 0.25) <= 1e-12
        assert br.ordered

    def test_bracket_order_exact(self):
        h = analytic_field("bilinear")
        fam1 = preset_family(2, scale=0.8)
        fam2 = preset_family(2, scale=0.8)
        br = value_bracket([0.4, 0.6], [0.3, 0.7], h, fam1, fam2,
                           NoiseGrid(0.0, 1.0, 1 / 64, 500, 1, 2, 2))
        assert br.lower <= br.upper + 1e-12

    def test_split_family_beats_freeze_on_tent(self):
        tent = analytic_field("tent")
        spec = unit_segment_spec(steps=128, horizon=0.05)
        fam1 = preset_family(2, split_spec=spec)
        fam2 = {"zero": zero_control(1)}
        ref = one_sided_reference(tent, res=200, n_steps=128)
        br = value_bracket(spec.p.coords, [1.0], tent, fam1, fam2,
                           NoiseGrid(0.0, 1.0, 0.05 / 128, 2000, 2, 2, 1), reference=ref)
        assert br.upper <= 0.08
        assert abs(br.reference) <= 1e-2
        # the split strategy is the minimizer; freezing pays H(p0) ~ 0.5
        assert br.table[list(fam1).index("zero"), 0] >= 0.4

    def test_adding_strategy_never_hurts(self):
        h = analytic_field("bilinear")
        fam1 = preset_family(2, scale=0.5)
        fam2 = preset_family(2, scale=0.5)
        noise = NoiseGrid(0.0, 1.0, 1 / 32, 300, 3, 2, 2)
        br = value_bracket([0.5, 0.5], [0.5, 0.5], h, fam1, fam2, noise)
        bigger1 = {**fam1, "dir2": directional_control(2, 1.5)}
        br2 = value_bracket([0.5, 0.5], [0.5, 0.5], h, bigger1, fam2, noise)
        assert br2.upper <= br.upper + 1e-12
        bigger2 = {**fam2, "dir2": directional_control(2, 1.5)}
        br3 = value_bracket([0.5, 0.5], [0.5, 0.5], h, fam1, bigger2, noise)
        assert br3.lower >= br.lower - 1e-12

    def test_convex_H_no_incentive_to_split(self):
        # spread cannot lower the time integral of a convex cost below the
        # envelope value, so the zero control is the restricted minimizer
        h = analytic_field("quad_convex")
        spec = unit_segment_spec(steps=64, horizon=0.125)
        fam1 = preset_family(2, scale=0.4, split_spec=spec)
        fam2 = {"zero": zero_control(1)}
        br = value_bracket(spec.p.coords, [1.0], h, fam1, fam2,
                           NoiseGrid(0.0, 1.0, 0.125 / 64, 1500, 6, 2, 1))
        stay = h(0.0, spec.p.coords) * 1.0
        i_zero = list(fam1).index("zero")
        assert abs(br.table[i_zero, 0] - stay) <= 1e-12  # frozen path, exact quadrature
        assert br.upper >= stay - 3 * br.upper_se - 1e-12
        assert np.argmin(br.table[:, 0]) == i_zero

    def test_table_is_estimate_j_on_fresh_noise(self):
        h = analytic_field("bilinear")
        p, q = [0.4, 0.6], [0.3, 0.7]
        fam1 = {**preset_family(2, scale=0.8), "dir2": directional_control(2, 1.5)}
        catalogue = [np.zeros((2, 2)), np.eye(2) * 0.4]
        fam2 = {**preset_family(2, scale=0.3),
                **table_strategies(2, [0.25, 0.5, 0.75], catalogue, count=2, seed=1)}
        br = value_bracket(p, q, h, fam1, fam2, NoiseGrid(0.0, 1.0, 1 / 32, 50, 7, 2, 2))
        assert (br.names_1, br.names_2) == (list(fam1), list(fam2))
        for i, u in enumerate(fam1.values()):
            for j, v in enumerate(fam2.values()):
                est = estimate_j(p, q, u, v, h, NoiseGrid(0.0, 1.0, 1 / 32, 50, 7, 2, 2))
                assert br.table[i, j].tobytes() == np.float64(est.mean).tobytes()
                assert br.se_table[i, j].tobytes() == np.float64(est.std_error).tobytes()

    def test_family_on_other_interval_rejected(self):
        # a split built for a longer game switches past this one's horizon
        h = analytic_field("bilinear")
        fam = preset_family(2, split_spec=unit_segment_spec(steps=8, horizon=1.0))
        with pytest.raises(GridMismatchError,
                           match="control 'split' switches at 0.625, past the horizon 0.5"):
            value_bracket([0.5, 0.5], [0.5, 0.5], h, fam, fam,
                          NoiseGrid(0.0, 0.5, 1 / 32, 10, 0, 2, 2))

    def test_budget_guard(self):
        h = analytic_field("bilinear")
        fam = {f"s{i}": zero_control(2) for i in range(101)}
        with pytest.raises(BudgetExceededError):
            value_bracket([0.5, 0.5], [0.5, 0.5], h, fam, fam,
                          NoiseGrid(0.0, 1.0, 1 / 32, 10, 0, 2, 2))


class TestDppDiagnostic:
    def test_zero_H_gap_zero(self):
        zero = analytic_field("zero")
        ref = one_sided_reference(zero, res=50, n_steps=32)
        fam1 = {"zero": zero_control(2)}
        fam2 = {"zero": zero_control(1)}
        rep = dpp_diagnostic([0.5, 0.5], [1.0], zero, fam1, fam2, ref,
                             NoiseGrid(0.0, 0.125, 1 / 32, 16, 0, 2, 1))
        assert rep.gap == 0.0

    def test_tent_gap_small(self):
        tent = analytic_field("tent")
        ref = one_sided_reference(tent, res=200, n_steps=128)
        spec = unit_segment_spec(steps=128, horizon=0.125)
        fam1 = preset_family(2, split_spec=spec)
        fam2 = {"zero": zero_control(1)}
        rep = dpp_diagnostic(spec.p.coords, [1.0], tent, fam1, fam2, ref,
                             NoiseGrid(0.0, 0.125, 0.125 / 128, 2000, 4, 2, 1))
        assert -0.05 <= rep.gap <= 0.05

    def test_bilinear_gap_small(self):
        h = analytic_field("bilinear")
        pg = SimplexGrid.build(2, 100)
        qg = SimplexGrid.build(2, 100)
        ref = solve(h, pg, qg, 1.0, 64)
        fam1 = preset_family(2, scale=0.5)
        fam2 = preset_family(2, scale=0.5)
        rep = dpp_diagnostic([0.4, 0.6], [0.7, 0.3], h, fam1, fam2, ref,
                             NoiseGrid(0.0, 0.125, 1 / 64, 4000, 5, 2, 2))
        assert -0.05 <= rep.gap <= 0.05

    def test_requires_grid_time(self):
        zero = analytic_field("zero")
        ref = one_sided_reference(zero, res=50, n_steps=32)
        fam1 = {"zero": zero_control(2)}
        fam2 = {"zero": zero_control(1)}
        with pytest.raises(ValueError, match="time-grid point"):
            dpp_diagnostic([0.5, 0.5], [1.0], zero, fam1, fam2, ref,
                           NoiseGrid(0.0, 0.1234, 0.1234 / 4, 16, 0, 2, 1))
