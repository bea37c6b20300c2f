import tracemalloc
from dataclasses import dataclass, replace

import numpy as np
import pytest

from splitgame import sde
from splitgame.hamiltonian import HamiltonianField, SimplexGrid, analytic_field, vex_p
from splitgame.sde import NoiseGrid, estimate_j, interval_starts, simulate, zero_control
from splitgame.simplex import SimplexPoint
from splitgame.splitting import (
    SplitReport,
    SplitSpec,
    landing_report,
    make_split_control,
    run_split,
    unit_segment_spec,
)
from test_sde import PEAK_BOUND


def split_report(spec: SplitSpec, n_paths: int, seed: int = 0) -> SplitReport:
    """Landing law of the split control run to its horizon, as split-demo and
    acceptance check 7 measure it."""
    return landing_report(spec, run_split(spec, n_paths, seed))


def vex_at(H: HamiltonianField, p) -> float:
    """Convex-envelope value at a point of a one-sided running cost at time 0
    (exact hull on a 513-node grid, used as a closed-form target)."""
    if H.dim_q != 1:
        raise ValueError("vex_at expects a one-sided field")
    grid = SimplexGrid.build(2, 512)
    nodes, weights = grid.cells(p)
    vex = vex_p(H.on_grid(0.0, grid.nodes, np.ones((1, 1))), grid)[:, 0]
    return float(vex[nodes[0]] @ weights[0])


@dataclass(frozen=True)
class SplitDemoReport:
    estimate: float
    std_error: float
    target: float            # (T - t) * Vex(H)(p) = Vex(H)(p) on [0, 1]
    horizon: float
    n_paths: int

    @property
    def gap(self) -> float:
        return self.estimate - self.target


def split_payoff_demo(H: HamiltonianField, spec: SplitSpec, n_paths: int,
                      seed: int = 0) -> SplitDemoReport:
    """Estimate the running-cost integral on [0, 1] under split-then-freeze
    and report it against the closed-form envelope target."""
    if H.dim_q != 1:
        raise ValueError("the demo runs the one-sided configuration")
    noise = NoiseGrid(0.0, 1.0, spec.step, n_paths, seed, spec.p.n, 1)
    est = estimate_j(spec.p.coords, np.array([1.0]), make_split_control(spec),
                     zero_control(1), H, noise)
    target = vex_at(H, spec.p.coords)
    return SplitDemoReport(est.mean, est.std_error, target, spec.horizon, n_paths)


def asym_spec(delta=0.01, steps=256):
    p1 = SimplexPoint([0.9, 0.1])
    p2 = SimplexPoint([0.1, 0.9])
    return SplitSpec(p1, p2, 0.3, 0.125, steps, delta=delta)


class TestSplitSpec:
    def test_rejects_equal_endpoints(self):
        e = SimplexPoint([0.5, 0.5])
        with pytest.raises(ValueError):
            SplitSpec(e, e, 0.5, 0.1, 16)

    def test_points_and_specs_compare_by_value(self):
        a, b = SimplexPoint([0.5, 0.5]), SimplexPoint([0.5, 0.5])
        assert a == b and not a != b and hash(a) == hash(b)
        assert a != SimplexPoint([0.4, 0.6]) and a != SimplexPoint([0.5, 0.5, 0.0])
        assert {a, b, SimplexPoint([0.4, 0.6])} == {b, SimplexPoint([0.4, 0.6])}
        s, t = unit_segment_spec(), unit_segment_spec()
        assert s == t and not s != t and hash(s) == hash(t)
        assert s != unit_segment_spec(steps=128) and s != asym_spec()
        assert len({s, t, asym_spec()}) == 2 and unit_segment_spec() in {s}

    def test_rejects_boundary_endpoint(self):
        with pytest.raises(ValueError):
            SplitSpec(SimplexPoint([1.0, 0.0]), SimplexPoint([0.0, 1.0]), 0.5, 0.1, 16)

    def test_rejects_bad_delta(self):
        s = unit_segment_spec()
        with pytest.raises(ValueError):
            SplitSpec(s.p1, s.p2, s.lam1, s.horizon, s.steps, delta=0.3)

    def test_scalar_roundtrip(self):
        s = unit_segment_spec()
        x = s.scalar_of(np.vstack([s.p1.coords, s.p2.coords, s.p.coords]))
        np.testing.assert_allclose(x, [0.0, 1.0, 1.0 - s.lam1], atol=1e-12)


class TestDegenerateSplit:
    def test_lam1_one_is_zero_control(self):
        s = unit_segment_spec()
        spec = SplitSpec(s.p1, s.p2, 1.0, 0.125, 32)
        rep = split_report(spec, n_paths=50, seed=0)
        assert rep.eps_mean <= 1e-12          # X stays exactly at p = p1
        assert rep.unabsorbed_frac == 0.0


class TestSymmetricSplit:
    def test_default_spec_hits_and_martingale(self):
        rep = split_report(unit_segment_spec(), n_paths=4000, seed=0)
        assert rep.eps_mean <= 0.05
        assert rep.hit1_ok
        assert rep.martingale_ok
        assert rep.unabsorbed_frac <= 0.02

    def test_segment_confinement_every_path(self):
        # default endpoints make the extended segment the full simplex diagonal,
        # so the engine's face handling enforces the bound exactly
        rep = split_report(unit_segment_spec(), n_paths=4000, seed=1)
        assert rep.segment_excess <= 1e-12
        assert rep.max_perp <= 1e-12


class TestAsymmetricSplit:
    def test_hit_frequency_matches_lambda(self):
        rep = split_report(asym_spec(), n_paths=10_000, seed=1)
        assert rep.eps_mean <= 0.05
        assert rep.hit1_ok
        assert rep.martingale_ok

    def test_three_coordinate_split_stays_on_line(self):
        p1 = SimplexPoint([0.5, 0.3, 0.2])
        p2 = SimplexPoint([0.1, 0.4, 0.5])
        rep = split_report(SplitSpec(p1, p2, 0.5, 0.125, 256), n_paths=2000, seed=3)
        assert rep.max_perp <= 1e-12
        assert rep.hit1_ok


def calibration_spec() -> SplitSpec:
    """Spec used for the epsilon(n) sweep: a softer gain separates the
    unabsorbed tails at different step counts."""
    return unit_segment_spec(kappa=1.0 / 3.0)


def epsilon_curve(spec: SplitSpec, step_counts, n_paths: int = 10_000,
                  seed: int = 0) -> list[tuple[int, float]]:
    """Reported epsilon(n) = E|X_{t+h} - Z_near| for each subinterval count."""
    out = []
    for n in step_counts:
        rep = split_report(replace(spec, steps=int(n)), n_paths=n_paths, seed=seed)
        out.append((int(n), rep.eps_mean))
    return out


class TestEpsilonCurve:
    def test_non_increasing_on_calibration_spec(self):
        curve = epsilon_curve(calibration_spec(), [64, 128, 256, 512],
                              n_paths=4000, seed=0)
        eps = [e for _, e in curve]
        assert all(b <= a for a, b in zip(eps, eps[1:]))

    def test_default_spec_meets_target_at_256(self):
        curve = epsilon_curve(unit_segment_spec(), [256], n_paths=4000, seed=0)
        assert curve[0][1] <= 0.05


class TestControlShape:
    def test_grid_spans_split_then_tail(self):
        s = unit_segment_spec(steps=8, horizon=0.25)
        ctrl = make_split_control(s)
        noise = NoiseGrid(0.0, 1.0, 1 / 32, 2, 0, 2, 1)
        starts = interval_starts(ctrl, noise)
        assert starts.size - 1 == 9
        assert abs(ctrl.switches[-1] - 0.25) <= 1e-12 and noise.times()[starts[-1]] == 1.0

    def test_switch_at_horizon_begins_nothing(self):
        s = unit_segment_spec(steps=8, horizon=0.25)
        starts = interval_starts(make_split_control(s), NoiseGrid(0.0, 0.25, 1 / 32, 2, 0, 2, 1))
        np.testing.assert_array_equal(starts, np.arange(9))

    def test_rejects_horizon_overrun(self):
        s = unit_segment_spec(steps=8, horizon=0.5)
        with pytest.raises(ValueError, match="control 'split' switches at 0.3125, "
                                             "past the horizon 0.25"):
            interval_starts(make_split_control(s), NoiseGrid(0.0, 0.25, 1 / 64, 2, 0, 2, 1))


class TestNoiseStep:
    def test_landing_law_does_not_depend_on_noise_step(self):
        # the spec fixes the control's law; a finer noise grid only resolves it
        spec = unit_segment_spec(steps=64, horizon=0.125)
        reps = []
        for per_sub, seed in ((1, 0), (4, 1)):
            noise = NoiseGrid(0.0, spec.horizon, spec.step / per_sub, 4000, seed, 2, 1)
            bundle = simulate(spec.p.coords, [1.0], make_split_control(spec),
                              zero_control(1), noise)
            reps.append(landing_report(spec, bundle.x_paths[:, -1]))
        coarse, fine = reps
        assert abs(coarse.eps_mean - fine.eps_mean) <= 3.0 * np.hypot(coarse.eps_se, fine.eps_se)


class TestTerminalStates:
    @pytest.mark.parametrize("cuts", [(), (7, 30, 31)])
    @pytest.mark.parametrize("threads", [1, 2])
    def test_run_split_is_simulates_last_row(self, monkeypatch, cuts, threads):
        edges = [0, *cuts, 40]
        monkeypatch.setattr(sde, "_block_ranges", lambda n, k: list(zip(edges, edges[1:])))
        spec = unit_segment_spec(steps=32, horizon=0.125)
        xt = run_split(spec, n_paths=40, seed=3, threads=threads)
        noise = NoiseGrid(0.0, spec.horizon, spec.step, 40, 3, 2, 1)
        bundle = simulate(spec.p.coords, [1.0], make_split_control(spec), zero_control(1), noise)
        assert xt.shape == (40, 2)
        assert xt.tobytes() == bundle.x_paths[:, -1].tobytes()

    def test_split_run_keeps_terminal_states_only(self):
        # a block's noise windows and the terminal states, never a full path
        spec, n = unit_segment_spec(steps=256), 10_000
        noise = NoiseGrid(0.0, spec.horizon, spec.step, n, 0, 2, 1)
        windows = max(sum(w.nbytes for w in noise.increments(lo, hi).windows)
                      for lo, hi in sde._block_ranges(n, spec.steps))
        tracemalloc.start()
        try:
            split_report(spec, n_paths=n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        bound = PEAK_BOUND * (windows + 8 * n * 2)
        assert peak <= bound, peak / bound


class TestVexAt:
    def test_tent_envelope_zero(self):
        assert abs(vex_at(analytic_field("tent"), [0.5, 0.5])) <= 1e-12

    def test_convex_unchanged(self):
        h = analytic_field("quad_convex")
        assert abs(vex_at(h, [0.5, 0.5]) - 0.01) <= 1e-9


class TestPayoffDemo:
    def test_constant_exact(self):
        spec = unit_segment_spec(steps=64, horizon=0.25)
        h = analytic_field("constant", level=0.4)
        rep = split_payoff_demo(h, spec, n_paths=100, seed=0)
        assert abs(rep.estimate - 0.4) <= 1e-12
        assert rep.std_error <= 1e-12

    def test_tent_split_approaches_envelope_value(self):
        spec = unit_segment_spec(steps=128, horizon=0.05)
        rep = split_payoff_demo(analytic_field("tent"), spec, n_paths=3000, seed=4)
        assert rep.target == 0.0
        assert rep.estimate <= 0.05

    def test_convex_jensen_floor(self):
        spec = unit_segment_spec(steps=128, horizon=0.05)
        h = analytic_field("quad_convex")
        rep = split_payoff_demo(h, spec, n_paths=3000, seed=4)
        floor = h(0.0, spec.p.coords) - h.bound * spec.horizon - 3 * rep.std_error
        assert rep.estimate >= floor

    def test_rejects_two_sided_field(self):
        with pytest.raises(ValueError):
            split_payoff_demo(analytic_field("bilinear"), unit_segment_spec(), 10)
