import numpy as np
import pytest

from splitgame.arena import (
    BudgetExceededError,
    ValueBracket,
    dpp_diagnostic,
    preset_family,
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
    zero_control,
)
from splitgame.splitting import unit_segment_spec
from test_sde import simulate_recording


def table_strategies(dim: int, switches, catalogue: list[np.ndarray],
                     count: int, seed: int) -> dict[str, FeedbackControl]:
    """Sampled finite-feedback strategies over an action catalogue, switching
    at the given times after the game's start.

    Each strategy owns a random 2x2 table of catalogue actions indexed by two
    bits read at the interval's start: whether the opponent's first coordinate
    is above its barycentre value 1/n_opp, and whether the player's own first
    coordinate is above 1/n.  Interval 0 plays a fixed entry.  The tables are
    drawn deterministically from the seed, keeping families reproducible.
    """
    cat = [np.asarray(c, dtype=float) for c in catalogue]
    if not cat:
        raise ValueError("catalogue must be nonempty")
    rng = np.random.default_rng(seed)
    stack = np.stack(cat)
    family = {}
    for s_idx in range(count):
        table = rng.integers(0, len(cat), size=(2, 2))
        first = int(rng.integers(0, len(cat)))

        def feedback(j, view, table=table, first=first):
            if j == 0:
                return cat[first]
            opp_bit = view.opp_state[:, 0] > 1.0 / view.opp_state.shape[1]
            own_bit = view.own_state[:, 0] > 1.0 / view.own_state.shape[1]
            return stack[table[opp_bit.astype(int), own_bit.astype(int)]]

        name = f"table{s_idx}"
        family[name] = FeedbackControl(switches, feedback, dim, name)
    return family


def one_sided_reference(h, res=100, n_steps=64):
    pg = SimplexGrid.build(2, res)
    qg = SimplexGrid.build(1, 1)
    return solve(h, pg, qg, 1.0, n_steps)


class TestResolveControls:
    def test_constant_strategies_constant_paths(self):
        noise = NoiseGrid(0.0, 1.0, 1 / 32, 8, 0, 2, 2)
        a = constant_control(np.full((2, 2), 0.2))
        b = constant_control(np.full((2, 2), -0.1))
        _, u, v = simulate_recording([0.5, 0.5], [0.5, 0.5], a, b, noise)
        np.testing.assert_array_equal(u, np.full((8, 1, 2, 2), 0.2))
        np.testing.assert_array_equal(v, np.full((8, 1, 2, 2), -0.1))

    def test_cross_state_vs_directional(self):
        # directional where the opponent's Y_1 is above q_1 at the switch, zero elsewhere
        push = np.array([[0.3, 0.0], [-0.3, 0.0]])

        def cross(j, view):
            return np.where((view.opp_state[:, 0] > 0.5)[:, None, None], push, 0.0)

        alpha = FeedbackControl([0.5], cross, 2)
        noise = NoiseGrid(0.0, 1.0, 1 / 16, 16, 0, 2, 2)
        b, u, _ = simulate_recording([0.5, 0.5], [0.5, 0.5], alpha,
                                     directional_control(2, 0.5), noise)
        above = b.y_paths[:, 8, 0] > 0.5
        assert 0 < above.sum() < above.size
        np.testing.assert_array_equal(u[:, 0], 0.0)
        np.testing.assert_array_equal(u[:, 1],
                                      np.where(above[:, None, None], push, 0.0))

    def test_randomized_tables_reproducible(self):
        switches = [0.25, 0.5, 0.75]
        catalogue = [np.zeros((2, 2)), np.eye(2) * 0.4]
        fam = table_strategies(2, switches, catalogue, count=3, seed=5)
        fam2 = table_strategies(2, switches, catalogue, count=3, seed=5)
        noise = NoiseGrid(0.0, 1.0, 1 / 16, 6, 3, 2, 2)
        for s1, s2 in zip(fam.values(), fam2.values()):
            _, u1, v1 = simulate_recording([0.5, 0.5], [0.5, 0.5], s1, fam["table0"], noise)
            _, u2, v2 = simulate_recording([0.5, 0.5], [0.5, 0.5], s2, fam2["table0"], noise)
            np.testing.assert_array_equal(u1, u2)
            np.testing.assert_array_equal(v1, v2)


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


def dpp_checked(p, q, H, fam1, fam2, ref, noise):
    """dpp_diagnostic's bracket, checked bit for bit against each pair's own
    estimate_j with the reference value at t + h as terminal payoff and the
    max-min cell of those estimates."""
    rep = dpp_diagnostic(p, q, H, fam1, fam2, ref, noise)
    assert isinstance(rep, ValueBracket)
    t_h = noise.horizon
    pairs = [[estimate_j(p, q, u, v, H, noise,
                         terminal=lambda x, y: ref.values_at_states(t_h, x, y))
              for v in fam2.values()] for u in fam1.values()]
    table = np.array([[e.mean for e in row] for row in pairs])
    se = np.array([[e.std_error for e in row] for row in pairs])
    assert rep.table.tobytes() == table.tobytes()
    assert rep.se_table.tobytes() == se.tobytes()
    j = int(np.argmax(table.min(axis=0)))
    i = int(np.argmin(table[:, j]))
    assert (rep.lower, rep.lower_se) == (table[i, j], se[i, j])
    assert rep.reference == ref.value_at(noise.t, p, q)
    return rep


class TestDppDiagnostic:
    def test_zero_H_gap_zero(self):
        zero = analytic_field("zero")
        ref = one_sided_reference(zero, res=50, n_steps=32)
        fam1 = {"zero": zero_control(2)}
        fam2 = {"zero": zero_control(1)}
        rep = dpp_checked([0.5, 0.5], [1.0], zero, fam1, fam2, ref,
                          NoiseGrid(0.0, 0.125, 1 / 32, 16, 0, 2, 1))
        assert rep.lower - rep.reference == 0.0

    def test_tent_gap_small(self):
        tent = analytic_field("tent")
        ref = one_sided_reference(tent, res=200, n_steps=128)
        spec = unit_segment_spec(steps=128, horizon=0.125)
        fam1 = preset_family(2, split_spec=spec)
        fam2 = {"zero": zero_control(1)}
        rep = dpp_checked(spec.p.coords, [1.0], tent, fam1, fam2, ref,
                          NoiseGrid(0.0, 0.125, 0.125 / 128, 2000, 4, 2, 1))
        assert -0.05 <= rep.lower - rep.reference <= 0.05

    def test_bilinear_gap_small(self):
        h = analytic_field("bilinear")
        pg = SimplexGrid.build(2, 100)
        qg = SimplexGrid.build(2, 100)
        ref = solve(h, pg, qg, 1.0, 64)
        fam1 = preset_family(2, scale=0.5)
        fam2 = preset_family(2, scale=0.5)
        rep = dpp_checked([0.4, 0.6], [0.7, 0.3], h, fam1, fam2, ref,
                          NoiseGrid(0.0, 0.125, 1 / 64, 4000, 5, 2, 2))
        assert -0.05 <= rep.lower - rep.reference <= 0.05

    def test_requires_grid_time(self):
        zero = analytic_field("zero")
        ref = one_sided_reference(zero, res=50, n_steps=32)
        fam1 = {"zero": zero_control(2)}
        fam2 = {"zero": zero_control(1)}
        with pytest.raises(ValueError, match="time-grid point"):
            dpp_diagnostic([0.5, 0.5], [1.0], zero, fam1, fam2, ref,
                           NoiseGrid(0.0, 0.1234, 0.1234 / 4, 16, 0, 2, 1))
