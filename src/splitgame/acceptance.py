"""Acceptance suite: every shipped claim as one runnable check.

Each check returns a CheckResult with the measured quantity and its bound, so
the CLI can print one pass/fail line per criterion and tests can assert them
individually; run_all times each check.  Tolerances are fixed here, not
configurable.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from splitgame.arena import dpp_diagnostic, preset_family, value_bracket
from splitgame.hamiltonian import SimplexGrid, analytic_field, vex_p
from splitgame.hj import naive_hji_residual, regularity_report, residuals, solve
from splitgame.sde import (
    NoiseGrid,
    directional_control,
    lipschitz_p_check,
    simulation_report,
    zero_control,
)
from splitgame.simplex import SUM_TOL
from splitgame.splitting import landing_report, make_split_control, run_split, unit_segment_spec


@dataclass
class CheckResult:
    name: str
    passed: bool
    measured: float
    bound: float
    detail: str
    seconds: float = 0.0  # run_all adds the check's wall time

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (f"[{status}] {self.name}: measured={self.measured:.6g} "
                f"bound={self.bound:.6g} ({self.detail}) [{self.seconds:.2f}s]")


GOLDEN_NAMES = ("tent", "quad_convex", "double_well")
GOLDEN_RES = 200
GOLDEN_STEPS = 128
BILINEAR_RES = 100
BILINEAR_STEPS = 64


def _golden_solves():
    """One-sided golden configurations, solved once and shared by checks.
    Values are (field, value grid, solve seconds)."""
    pg = SimplexGrid.build(2, GOLDEN_RES)
    qg = SimplexGrid.build(1, 1)
    out = {}
    for name in GOLDEN_NAMES:
        h = analytic_field(name)
        t0 = time.time()
        v = solve(h, pg, qg, 1.0, GOLDEN_STEPS)
        out[name] = (h, v, time.time() - t0)
    return out


def _bilinear_solve():
    pg = SimplexGrid.build(2, BILINEAR_RES)
    qg = SimplexGrid.build(2, BILINEAR_RES)
    return solve(analytic_field("bilinear"), pg, qg, 1.0, BILINEAR_STEPS)


def check_envelope_golden_value(golden) -> CheckResult:
    """1. |V(0, p0)| at the tent peak, 201 p-nodes, dt = 1/128, under 5 s."""
    _, v, solve_seconds = golden["tent"]
    center = GOLDEN_RES // 2
    measured = abs(float(v.values[0, center, 0]))
    ok = measured <= 1e-2 and solve_seconds < 5.0
    return CheckResult("envelope-golden-value", ok, measured, 1e-2,
                       "|V(0,p0)| at 201 nodes, solve < 5s", solve_seconds)


def check_closed_form_family(golden) -> CheckResult:
    """2. sup-norm gap between solve() and (T-t)*vex(H) for three one-sided
    running costs (convex, concave, mixed), under 10 s total."""
    t0 = time.time()
    worst = 0.0
    solve_seconds = sum(sec for _, _, sec in golden.values())
    for name, (h, v, _) in golden.items():
        env = vex_p(h.on_grid(0.0, v.p_grid.nodes, v.q_grid.nodes), v.p_grid)
        for k, t in enumerate(v.times):
            worst = max(worst, float(np.max(np.abs(v.values[k] - (1.0 - t) * env))))
    ok = worst <= 2e-2 and time.time() - t0 + solve_seconds < 10.0
    return CheckResult("closed-form-family", ok, worst, 2e-2,
                       "3 one-sided costs, wall < 10s", solve_seconds)


def check_martingale_invariance(seed: int = 0, threads: int = 1) -> CheckResult:
    """3. 10^4 paths, 3 control presets: simplex membership exact after the
    clamp, componentwise |mean X_s - p| within 3 SE at all grid times."""
    t0 = time.time()
    p = np.array([0.35, 0.65])
    q = np.array([0.5, 0.5])
    split_spec = unit_segment_spec(steps=64, horizon=0.125)
    presets = [
        ("zero", zero_control(2)),
        ("directional", directional_control(2, 0.6)),
        ("split-then-freeze", make_split_control(split_spec)),
    ]
    worst_margin = 0.0
    min_coord = np.inf
    sum_err = 0.0
    monotone = True
    detail = []
    for i, (name, ctrl) in enumerate(presets):
        start = split_spec.p.coords if name == "split-then-freeze" else p
        noise = NoiseGrid(0.0, 1.0, split_spec.step, 10_000, seed + i, 2, 2)
        rep = simulation_report(start, q, ctrl, directional_control(2, 0.4), noise,
                                threads=threads)
        worst_margin = max(worst_margin, rep.worst_margin)
        min_coord = min(min_coord, rep.min_coord)
        sum_err = max(sum_err, rep.max_sum_err)
        monotone = monotone and rep.support_monotone
        detail.append(f"{name}:{rep.worst_margin:.2f}")
    ok = (worst_margin <= 1.0 and min_coord >= 0.0 and sum_err <= SUM_TOL
          and monotone and time.time() - t0 < 20.0)
    return CheckResult("martingale-simplex-invariance", ok, worst_margin, 1.0,
                       "max dev/3SE " + " ".join(detail) + ", wall < 20s")


def check_lipschitz_coupling(seed: int = 0, threads: int = 1) -> CheckResult:
    """4. Coupled mean distance within the dimensional bound + 3 SE, for
    |I| in {2, 3} and three control presets each."""
    cases = [
        (np.array([0.45, 0.55]), np.array([0.55, 0.45])),
        (np.array([0.4, 0.35, 0.25]), np.array([0.3, 0.45, 0.25])),
    ]
    worst_ratio = 0.0
    for dim_case, (p, pb) in enumerate(cases):
        dim = p.size
        presets = [zero_control(dim), directional_control(dim, 0.7),
                   directional_control(dim, 8.0)]
        for j, ctrl in enumerate(presets):
            noise = NoiseGrid(0.0, 1.0, 1.0 / 256, 2000, seed + 10 * dim_case + j, dim, 1)
            out = lipschitz_p_check(p, pb, ctrl, noise, threads=threads)
            allowed = out.bound + 3.0 * out.std_error
            worst_ratio = max(worst_ratio, out.estimate / allowed)
    return CheckResult("lipschitz-p-coupling", worst_ratio <= 1.0, worst_ratio, 1.0,
                       "max estimate/(bound+3SE) over |I| in {2,3} x 3 presets")


def check_time_lipschitz(regularity) -> CheckResult:
    """5. max_k |V[k+1]-V[k]| <= 8 C dt + 1e-3 on every golden config, read
    from one regularity report per solved grid."""
    worst_excess = max(float(rep.time_lip - rep.time_lip_bound) for rep in regularity)
    return CheckResult("time-lipschitz-8C", worst_excess <= 1e-3, worst_excess, 1e-3,
                       "max over configs of time_lip - 8*C*dt")


def check_value_shape(regularity) -> CheckResult:
    """6. Discrete convexity in p (second differences >= -1e-8) and concavity
    in q (<= 1e-8) on the bilinear and golden configs, read from the same
    reports."""
    worst = max(0.0, *(max(-rep.min_p_second, rep.max_q_second) for rep in regularity))
    return CheckResult("value-convexity-concavity", worst <= 1e-8, worst, 1e-8,
                       "max violation of p-convexity / q-concavity")


def check_splitting_realization(seed: int = 0, threads: int = 1) -> CheckResult:
    """7. Default split spec at 256 steps, 10^4 paths: landing error <= 0.05
    and p1 hit frequency within 3 SE of lam1."""
    spec = unit_segment_spec(steps=256)
    rep = landing_report(spec, run_split(spec, n_paths=10_000, seed=seed, threads=threads))
    hit_gap = abs(rep.hit1_freq - rep.lam1)
    ok = rep.eps_mean <= 0.05 and rep.hit1_ok and rep.martingale_ok
    return CheckResult("splitting-lemma-realization", ok, rep.eps_mean, 0.05,
                       f"eps={rep.eps_mean:.4f}, |hit-lam1|={hit_gap:.4f} vs 3SE={3*rep.hit1_se:.4f}")


def check_naive_hji_failure(golden) -> CheckResult:
    """8. Classical-equation residual -0.5 +/- 1e-3 at the tent peak while the
    constrained-equation residual stays within discretization size."""
    h, v, _ = golden["tent"]
    center = GOLDEN_RES // 2
    naive = naive_hji_residual(v, h, 0, center)
    rep = residuals(v, h)
    idx = int(np.flatnonzero(rep.p_nodes == center)[0])
    hji_res = abs(float(rep.residual[0, idx, 0]))
    hji_bound = 5.0 * (v.dt + v.p_grid.step_length())
    ok = abs(naive - (-0.5)) <= 1e-3 and hji_res <= hji_bound
    return CheckResult("naive-hji-failure", ok, naive, -0.5,
                       f"classical={naive:.4f} (target -0.5), constrained={hji_res:.2e} <= {hji_bound:.2e}")


def check_representation(golden, seed: int = 0, threads: int = 1) -> CheckResult:
    """9. Split-vs-freeze restricted upper value within 0.08 of the solved
    value at the tent peak, and the one-step DPP gap within +/- 0.05."""
    tent, v_ref, _ = golden["tent"]
    spec = unit_segment_spec(steps=128, horizon=0.05)
    fam1 = {"freeze": zero_control(2), "split": make_split_control(spec)}
    fam2 = preset_family(1)
    br = value_bracket(spec.p.coords, [1.0], tent, fam1, fam2,
                       NoiseGrid(0.0, 1.0, spec.step, 10_000, seed, 2, 1),
                       reference=v_ref, threads=threads)
    upper_gap = abs(br.upper - br.reference)

    # the one-step game on [0, 0.125] reuses both families; its split spans the step
    dpp_spec = unit_segment_spec(steps=128, horizon=0.125)
    dpp = dpp_diagnostic(dpp_spec.p.coords, [1.0], tent,
                         {**fam1, "split": make_split_control(dpp_spec)}, fam2, v_ref,
                         NoiseGrid(0.0, dpp_spec.horizon, dpp_spec.step, 10_000, seed, 2, 1),
                         threads=threads)
    dpp_gap = dpp.lower - dpp.reference
    ok = upper_gap <= 0.08 and abs(dpp_gap) <= 0.05
    return CheckResult("stochastic-representation", ok, upper_gap, 0.08,
                       f"upper gap={upper_gap:.4f}, dpp gap={dpp_gap:+.4f} in [-0.05, 0.05]")


def check_determinism(seed: int = 0) -> CheckResult:
    """10. A CLI subcommand rerun with the same config and seed produces
    bit-identical artifacts at 1, 2, and 8 threads."""
    import shutil
    import tempfile
    from pathlib import Path

    from splitgame import cli

    config = {
        "schema_version": 1,
        "seed": seed,
        "horizon": 1.0,
        "hamiltonian": {"kind": "analytic", "name": "tent"},
        "sim": {
            "dt": 1.0 / 64, "n_paths": 200,
            "start": {"p": [0.4, 0.6], "q": [1.0]},
            "controls": {"u": {"kind": "directional", "scale": 0.7},
                         "v": {"kind": "zero"}},
            "dump_trajectories": True,
        },
    }
    base = Path(tempfile.mkdtemp(prefix="splitgame-det-"))
    try:
        blobs = []
        for run, threads in enumerate((1, 2, 8, 1)):
            out = base / f"run{run}"
            code = cli.run("simulate", config, out_dir=out, threads=threads)
            if code != 0:
                return CheckResult("determinism", False, float(code), 0.0,
                                   "simulate subcommand failed")
            artifact_dir = next(out.iterdir())
            blob = b"".join(sorted_path.read_bytes()
                            for sorted_path in sorted(artifact_dir.iterdir()))
            blobs.append(blob)
    finally:
        shutil.rmtree(base, ignore_errors=True)
    ok = all(b == blobs[0] for b in blobs[1:])
    return CheckResult("determinism", ok, float(len(set(blobs))), 1.0,
                       "identical artifact bytes at 1/2/8 threads and rerun")


def run_all(seed: int = 0, threads: int = 1) -> list[CheckResult]:
    """Run all acceptance criteria, sharing the solved golden configurations
    and one regularity report per solved grid, and add each check's wall time
    to its seconds."""
    golden = _golden_solves()
    grids = [v for _, v, _ in golden.values()] + [_bilinear_solve()]
    regularity = [regularity_report(v) for v in grids]
    results = []
    for check, *args in [
        (check_envelope_golden_value, golden),
        (check_closed_form_family, golden),
        (check_martingale_invariance, seed, threads),
        (check_lipschitz_coupling, seed, threads),
        (check_time_lipschitz, regularity),
        (check_value_shape, regularity),
        (check_splitting_realization, seed, threads),
        (check_naive_hji_failure, golden),
        (check_representation, golden, seed, threads),
        (check_determinism, seed),
    ]:
        t0 = time.time()
        results.append(check(*args))
        results[-1].seconds += time.time() - t0
    return results
