"""Desk-scale game evaluation over finite families of simple pathwise
strategies: restricted value brackets around the PDE value, and the dynamic
programming diagnostic, which is the same game played on one step [t, t + h]
with the reference value at t + h as terminal payoff.

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


def _maxmin_cell(table: np.ndarray) -> tuple[int, int]:
    """Cell (i, j) of the max over columns j of the column minimum over rows."""
    j = int(np.argmax(table.min(axis=0)))
    return int(np.argmin(table[:, j])), j


def _play(p, q, H: HamiltonianField, fam_1: dict[str, FeedbackControl],
          fam_2: dict[str, FeedbackControl], noise: NoiseGrid, reference: ValueGrid | None,
          threads: int, terminal: Callable | None = None) -> ValueBracket:
    """The restricted game on the noise grid's interval: the common-random-numbers
    payoff table over all strategy pairs, player 1 along rows, reduced to its
    min-max and max-min cells, and the reference value at the grid's start."""
    n1, n2 = len(fam_1), len(fam_2)
    if n1 * n2 > MAX_PAIRS:
        raise BudgetExceededError(f"{n1 * n2} strategy pairs exceed the {MAX_PAIRS} budget")
    table = np.empty((n1, n2))
    se = np.empty((n1, n2))
    for i, u in enumerate(fam_1.values()):
        for j, v in enumerate(fam_2.values()):
            est = estimate_j(p, q, u, v, H, noise, threads=threads, terminal=terminal)
            table[i, j], se[i, j] = est.mean, est.std_error
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


def value_bracket(p, q, H: HamiltonianField, fam_1: dict[str, FeedbackControl],
                  fam_2: dict[str, FeedbackControl], noise: NoiseGrid,
                  reference: ValueGrid | None = None, threads: int = 1) -> ValueBracket:
    """Restricted upper (min-max) and lower (max-min) values at the noise
    grid's start time, with zero terminal payoff at its horizon."""
    return _play(p, q, H, fam_1, fam_2, noise, reference, threads)


def dpp_diagnostic(p, q, H: HamiltonianField, fam_1: dict[str, FeedbackControl],
                   fam_2: dict[str, FeedbackControl], v_ref: ValueGrid, noise: NoiseGrid,
                   threads: int = 1) -> ValueBracket:
    """The one-step game on [t, t + h] = [noise.t, noise.horizon], whose
    terminal payoff is the reference value at t + h: its lower value against
    the reference value at (t, p, q) gives the DPP gap lower - reference.

    t + h must be a time-grid point of the reference; the gap is a diagnostic
    (family restriction plus Monte Carlo noise), not an asserted theorem.
    """
    t_h = noise.horizon
    if np.min(np.abs(v_ref.times - t_h)) > 1e-9:
        raise ValueError("t + h must be a time-grid point of the reference values")
    return _play(p, q, H, fam_1, fam_2, noise, v_ref, threads,
                 terminal=lambda x, y: v_ref.values_at_states(t_h, x, y))
