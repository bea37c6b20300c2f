"""Desk-scale game evaluation over finite families of simple pathwise
strategies: restricted value brackets around the PDE value and the dynamic
programming diagnostic.

A strategy family is a dict of named controls.  The noise grid is the game's
clock: it carries the interval [t, T], its step, the path count and the seed,
and a control that switches past T is rejected with GridMismatchError.  The
restricted upper value is min over player-1 controls of the max over player-2
controls of the common-random-numbers payoff table, and the restricted lower
value is the max-min of the same table, so the bracket ordering lower <= upper
holds exactly on every run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from splitgame.hamiltonian import HamiltonianField
from splitgame.hj import ValueGrid
from splitgame.sde import (
    FeedbackControl,
    NoiseGrid,
    directional_control,
    estimate_j,
    zero_control,
)
from splitgame.splitting import SplitSpec, make_split_control

MAX_PAIRS = 10_000


class BudgetExceededError(RuntimeError):
    """Too many strategy pairs requested for one bracket evaluation."""


def preset_family(dim: int, scale: float = 0.5,
                  split_spec: SplitSpec | None = None) -> dict[str, FeedbackControl]:
    """The shipped presets: zero, constant directional (dim >= 2 only),
    split-then-freeze.  A split_spec of another dimension than dim is
    rejected when the family is played, like any control of the wrong
    dimension."""
    family = {"zero": zero_control(dim)}
    if dim >= 2:
        family["directional"] = directional_control(dim, scale)
    if split_spec is not None:
        family["split"] = make_split_control(split_spec)
    return family


def table_strategies(dim: int, switches, catalogue: list[np.ndarray],
                     count: int, seed: int) -> dict[str, FeedbackControl]:
    """Sampled finite-feedback strategies over an action catalogue, switching
    at the given times after the game's start.

    Each strategy owns a random table indexed by (opponent's last catalogue
    action, sign of the last own-noise sum) and plays the table's action on
    every interval; interval 0 plays a fixed table entry.  The tables are
    drawn deterministically from the seed, keeping families reproducible.
    """
    cat = [np.asarray(c, dtype=float) for c in catalogue]
    if not cat:
        raise ValueError("catalogue must be nonempty")
    rng = np.random.default_rng(seed)
    stack = np.stack(cat)
    family = {}
    for s_idx in range(count):
        table = rng.integers(0, len(cat), size=(len(cat), 2))
        first = int(rng.integers(0, len(cat)))

        def feedback(j, view, table=table, first=first):
            if j == 0 or view.opp_controls.shape[1] == 0:
                return cat[first]
            opp_last = view.opp_controls[:, -1]
            flat = opp_last.reshape(opp_last.shape[0], -1)
            dists = ((flat[:, None, :] - stack.reshape(len(cat), -1)[None]) ** 2).sum(2)
            opp_idx = dists.argmin(axis=1)
            if view.own_noise.shape[1]:
                sign_bit = (view.own_noise[:, -1, 0] > 0).astype(int)
            else:
                sign_bit = np.zeros(opp_idx.size, dtype=int)
            choice = table[opp_idx, sign_bit]
            return stack[choice]

        name = f"table{s_idx}"
        family[name] = FeedbackControl(switches, feedback, dim, name)
    return family


@dataclass
class ValueBracket:
    """Restricted bounds around the PDE value at one (t, p, q)."""

    lower: float
    lower_se: float
    upper: float
    upper_se: float
    reference: float | None
    table: np.ndarray            # (n1, n2) payoff estimates
    se_table: np.ndarray
    names_1: list[str]
    names_2: list[str]

    @property
    def ordered(self) -> bool:
        return self.lower - 3.0 * self.lower_se <= self.upper + 3.0 * self.upper_se


def _payoff_table(p, q, H: HamiltonianField, fam_1: dict[str, FeedbackControl],
                  fam_2: dict[str, FeedbackControl], noise: NoiseGrid, threads: int,
                  terminal: Callable | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Common-random-numbers payoff means and standard errors, player 1 along rows."""
    n1, n2 = len(fam_1), len(fam_2)
    if n1 * n2 > MAX_PAIRS:
        raise BudgetExceededError(f"{n1 * n2} strategy pairs exceed the {MAX_PAIRS} budget")
    table = np.empty((n1, n2))
    se = np.empty((n1, n2))
    for i, u in enumerate(fam_1.values()):
        for j, v in enumerate(fam_2.values()):
            est = estimate_j(p, q, u, v, H, noise, threads=threads, terminal=terminal)
            table[i, j], se[i, j] = est.mean, est.std_error
    return table, se


def _maxmin_cell(table: np.ndarray) -> tuple[int, int]:
    """Cell (i, j) of the max over columns j of the column minimum over rows."""
    j = int(np.argmax(table.min(axis=0)))
    return int(np.argmin(table[:, j])), j


def value_bracket(p, q, H: HamiltonianField, fam_1: dict[str, FeedbackControl],
                  fam_2: dict[str, FeedbackControl], noise: NoiseGrid,
                  reference: ValueGrid | None = None, threads: int = 1) -> ValueBracket:
    """Common-random-numbers payoff table over all strategy pairs on the noise
    grid, reduced to the restricted upper (min-max) and lower (max-min) values
    at its start time."""
    table, se = _payoff_table(p, q, H, fam_1, fam_2, noise, threads)
    i_lo, j_lo = _maxmin_cell(table)
    # the min-max of the table is minus the max-min of the negated transpose
    j_up, i_up = _maxmin_cell(-table.T)
    ref = None if reference is None else reference.value_at(noise.t, p, q)
    return ValueBracket(
        lower=float(table[i_lo, j_lo]), lower_se=float(se[i_lo, j_lo]),
        upper=float(table[i_up, j_up]), upper_se=float(se[i_up, j_up]),
        reference=ref, table=table, se_table=se,
        names_1=list(fam_1), names_2=list(fam_2),
    )


@dataclass
class DppReport:
    """Signed gap between the one-step game estimate and the reference value."""

    estimate: float
    std_error: float
    reference: float
    table: np.ndarray

    @property
    def gap(self) -> float:
        return self.estimate - self.reference


def dpp_diagnostic(p, q, H: HamiltonianField, fam_1: dict[str, FeedbackControl],
                   fam_2: dict[str, FeedbackControl], v_ref: ValueGrid, noise: NoiseGrid,
                   threads: int = 1) -> DppReport:
    """sup over player-2 strategies of the inf over player-1 controls of the
    one-step payoff on [t, t + h] = [noise.t, noise.horizon] plus the
    reference continuation value, against the reference value at (t, p, q).

    t + h must be a time-grid point of the reference; the gap is a diagnostic
    (family restriction plus Monte Carlo noise), not an asserted theorem.
    """
    t_h = noise.horizon
    if np.min(np.abs(v_ref.times - t_h)) > 1e-9:
        raise ValueError("t + h must be a time-grid point of the reference values")
    table, se = _payoff_table(p, q, H, fam_1, fam_2, noise, threads,
                              terminal=lambda x, y: v_ref.values_at_states(t_h, x, y))
    i_star, j_star = _maxmin_cell(table)
    ref = v_ref.value_at(noise.t, p, q)
    return DppReport(float(table[i_star, j_star]), float(se[i_star, j_star]),
                     float(ref), table)
