"""Constructive two-point splitting: a simple feedback control whose state at
a short horizon approximates the jump martingale landing on {p1, p2} with
weights (lam1, 1 - lam1).

The state is reduced to the scalar position x along the segment [p1, p2]
(x = 0 at p1, x = 1 at p2).  On each of n subintervals the control is a
rank-one matrix harvesting one noise coordinate and pushing along p2 - p1,
with a time-inhomogeneous gain kappa / sqrt(time-to-horizon).  Over one
subinterval the standard deviation of x's move is capped at
max(min(x, 1-x), delta) / 3: near the absorption band the cap is the flat
delta/3 that keeps overshoot within the delta-extended segment, away from it
the cap scales with the distance to the nearest endpoint so that absorption
completes within the n subintervals.  The gain comes from the spec's
subinterval length, not from the noise grid, which may be finer.  Once x
leaves [delta, 1 - delta] the feedback returns zero and the path is counted
as absorbed on that side.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from splitgame.sde import FeedbackControl, NoiseGrid, terminal_states, zero_control
from splitgame.simplex import SimplexPoint


@dataclass(frozen=True)
class SplitSpec:
    """Parameters of one two-point split experiment.

    The start point p is the (lam1, 1-lam1) mixture of p1 and p2; endpoints
    need full support (relative interior) and must differ.  delta is the
    safety margin defining the absorption band inside the scalar segment,
    kappa the gain coefficient, steps the number of control subintervals on
    [t, t+horizon], each of length step.
    """

    p1: SimplexPoint
    p2: SimplexPoint
    lam1: float = 0.5
    horizon: float = 0.125
    steps: int = 256
    delta: float = 0.02
    kappa: float = 1.0
    p: SimplexPoint = field(init=False)

    def __post_init__(self):
        if not (0.0 <= self.lam1 <= 1.0):
            raise ValueError("lam1 must lie in [0, 1]")
        if self.horizon <= 0.0:
            raise ValueError("horizon must be positive")
        if self.steps < 1:
            raise ValueError("need at least one subinterval")
        if not (0.0 < self.delta < 0.25):
            raise ValueError("delta must lie in (0, 1/4)")
        if self.kappa <= 0.0:
            raise ValueError("kappa must be positive")
        if np.min(self.p1.coords) <= 0.0 or np.min(self.p2.coords) <= 0.0:
            raise ValueError("endpoints must have full support")
        d = self.p2.coords - self.p1.coords
        if np.max(np.abs(d)) == 0.0:
            raise ValueError("endpoints must differ")
        mix = self.lam1 * self.p1.coords + (1.0 - self.lam1) * self.p2.coords
        object.__setattr__(self, "p", SimplexPoint(mix))

    @property
    def step(self) -> float:
        return self.horizon / self.steps

    @property
    def direction(self) -> np.ndarray:
        return self.p2.coords - self.p1.coords

    def scalar_of(self, states: np.ndarray) -> np.ndarray:
        """Position along the segment: 0 at p1, 1 at p2."""
        d = self.direction
        return (states - self.p1.coords) @ d / (d @ d)


def unit_segment_spec(**fields) -> SplitSpec:
    """Spec on SplitSpec's other fields whose endpoints sit so the
    delta-extended segment is exactly the full diagonal of the two-coordinate
    simplex, letting the simplex faces themselves enforce the segment bound on
    every path."""
    delta = fields.get("delta", SplitSpec.delta)
    a = delta / (1.0 + 2.0 * delta)
    return SplitSpec(SimplexPoint([1.0 - a, a]), SimplexPoint([a, 1.0 - a]), **fields)


def make_split_control(spec: SplitSpec) -> FeedbackControl:
    """Feedback control realizing the split on the first spec.horizon of the
    game, then zero on the rest of the noise grid."""
    h, n, sub = spec.horizon, spec.steps, spec.step
    d = spec.direction
    base = np.zeros((d.size, d.size))
    base[:, 0] = d  # harvest the first own-noise coordinate
    delta, kappa, lam1 = spec.delta, spec.kappa, spec.lam1

    def feedback(j, view):
        if j >= n or lam1 == 0.0 or lam1 == 1.0:
            return np.zeros_like(base)
        x = spec.scalar_of(view.own_state)
        tau = h - j * sub
        sigma_time = kappa * np.sqrt(sub / tau)
        cap = np.maximum(np.minimum(x, 1.0 - x), delta) / 3.0
        sigma = np.minimum(sigma_time, cap)
        inside = (x > delta) & (x < 1.0 - delta)
        gain = np.where(inside, sigma, 0.0) / np.sqrt(sub)
        return gain[:, None, None] * base

    return FeedbackControl(sub * np.arange(1, n + 1), feedback, d.size, "split")


@dataclass(frozen=True)
class SplitReport:
    """Monte Carlo summary of one split run at the split horizon."""

    eps_mean: float          # E |X_{t+h} - Z_near|
    eps_se: float
    hit1_freq: float         # fraction landing nearer p1
    hit1_se: float
    lam1: float
    unabsorbed_frac: float   # scalar position still strictly inside the band
    mean_dev: float          # |E X_{t+h} - p|_inf, martingale check
    mean_three_se: float
    segment_excess: float    # how far any path left the delta-extended segment
    max_perp: float          # distance from the segment line
    n_paths: int

    @property
    def hit1_ok(self) -> bool:
        return abs(self.hit1_freq - self.lam1) <= 3.0 * self.hit1_se + 1e-15

    @property
    def martingale_ok(self) -> bool:
        return self.mean_dev <= self.mean_three_se + 1e-12


def run_split(spec: SplitSpec, n_paths: int = 10_000, seed: int = 0, threads: int = 1):
    """Simulate the split control on [0, horizon]; returns the terminal states."""
    noise = NoiseGrid(0.0, spec.horizon, spec.step, n_paths, seed, spec.p.n, 1)
    return terminal_states(spec.p.coords, np.array([1.0]), make_split_control(spec),
                           zero_control(1), noise, threads=threads)


def landing_report(spec: SplitSpec, xt: np.ndarray) -> SplitReport:
    """Landing-law statistics from terminal states at the split horizon."""
    n_paths = xt.shape[0]
    d1 = np.linalg.norm(xt - spec.p1.coords, axis=1)
    d2 = np.linalg.norm(xt - spec.p2.coords, axis=1)
    z_dist = np.minimum(d1, d2)
    hit1 = d1 <= d2
    x = spec.scalar_of(xt)
    unabsorbed = np.mean((x > spec.delta) & (x < 1.0 - spec.delta))
    mean = xt.mean(axis=0)
    se = xt.std(axis=0, ddof=1) / np.sqrt(n_paths)
    dev = np.abs(mean - spec.p.coords)
    worst = int(np.argmax(dev))
    f = float(hit1.mean())
    perp = xt - spec.p1.coords - x[:, None] * spec.direction
    return SplitReport(
        eps_mean=float(z_dist.mean()),
        eps_se=float(z_dist.std(ddof=1) / np.sqrt(n_paths)),
        hit1_freq=f,
        hit1_se=float(np.sqrt(max(f * (1.0 - f), 1e-12) / n_paths)),
        lam1=spec.lam1,
        unabsorbed_frac=float(unabsorbed),
        mean_dev=float(dev[worst]),
        mean_three_se=float(3.0 * se[worst]),
        segment_excess=float(max(np.max(-x) - spec.delta, np.max(x - 1.0) - spec.delta, 0.0)),
        max_perp=float(np.max(np.linalg.norm(perp, axis=1))),
        n_paths=n_paths,
    )
