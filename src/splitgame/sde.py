"""Pathwise simulation of simplex-constrained martingales driven by
piecewise-constant feedback controls, plus Monte Carlo payoff estimation.

Each player's state follows an Euler scheme for dX = (P_X u) dB restricted to
the simplex: the projection uses the current support, a coordinate that would
cross zero shrinks the step to the exact face crossing, and coordinates inside
a small absorption band are set to zero and never revive.  Faces are therefore
absorbing and the support is non-increasing along every path, which mirrors
the layered face-by-face construction that makes the continuous equation well
posed.

Randomness is counter-based: path i draws its Gaussian increments from a
Philox stream keyed by (seed, stream, i).  Every estimator runs through one
block driver, _ensemble, which simulates the paths in blocks and returns each
block's partial result in block order; combining them in that order makes
results bit-identical for any batch split or thread count.

A block steps only what moves.  It yields segments of noise steps on which the
state is constant: one step while a control is active, and a whole frozen
stretch (both realized controls exactly zero) up to where either player's
next interval begins, which the estimators reduce once.  Own-noise sums are
added at an interval's end, and only if a later feedback can read them.  Sums
over a state's coordinates are added column by column, in numpy's own order.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable

import numpy as np

from splitgame.hamiltonian import HamiltonianField
from splitgame.hj import format_rows, write_atomic
from splitgame.simplex import SUM_TOL, coupling_bound_constant

ETA = 1e-10  # absorption band: a coordinate at or below it is set to zero
_GRID_SNAP = 1e-9
# the most a full-path run (simulate) may keep: paths, realized controls and
# terminal noise sums, checked before any of them is allocated
MAX_BUNDLE_BYTES = 2 * 1024**3


class GridMismatchError(ValueError):
    """A step or a control's switch is off the noise grid, or the switch is past it."""


class BundleSizeError(ValueError):
    """A full-path run would keep more than MAX_BUNDLE_BYTES."""


# ---------------------------------------------------------------------------
# noise
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NoiseGrid:
    """Uniform time grid on [t, horizon] with per-path Gaussian increments.

    Increments have variance dt per coordinate.  The two Brownian blocks B1
    (player 1, dim1 coordinates) and B2 (player 2, dim2) come from disjoint
    Philox streams, themselves split per path.
    """

    t: float
    horizon: float
    dt: float
    n_paths: int
    seed: int
    dim1: int
    dim2: int

    def __post_init__(self):
        if self.horizon <= self.t:
            raise ValueError("horizon must exceed the start time")
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        n = (self.horizon - self.t) / self.dt
        if abs(n - round(n)) > _GRID_SNAP * max(1.0, n):
            raise GridMismatchError(f"dt={self.dt} does not divide the horizon {self.horizon - self.t}")
        if self.n_paths < 1:
            raise ValueError("need at least one path")

    @property
    def n_steps(self) -> int:
        return int(round((self.horizon - self.t) / self.dt))

    def times(self) -> np.ndarray:
        return self.t + self.dt * np.arange(self.n_steps + 1)

    def _stream(self, path: int, stream: int) -> np.random.Generator:
        ss = np.random.SeedSequence(entropy=self.seed, spawn_key=(stream, path))
        return np.random.Generator(np.random.Philox(ss))

    def increments(self, lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
        """Gaussian increments for paths [lo, hi): shapes (b, N, dim)."""
        n, sd = self.n_steps, np.sqrt(self.dt)
        b = hi - lo
        db1 = np.empty((b, n, self.dim1))
        db2 = np.empty((b, n, self.dim2))
        for i in range(b):
            db1[i] = self._stream(lo + i, 0).standard_normal((n, self.dim1)) * sd
            db2[i] = self._stream(lo + i, 1).standard_normal((n, self.dim2)) * sd
        return db1, db2


# ---------------------------------------------------------------------------
# controls
# ---------------------------------------------------------------------------

@dataclass
class HistoryView:
    """What a feedback map may read when choosing the control for interval j,
    its first argument: the interval's start time, the player's own state, the
    per-interval sums of its own Brownian increments, and the opponent's
    realized controls on intervals begun earlier, with their start times.  All
    of it is fixed strictly before the interval starts; arrays are batched over
    paths.
    """

    time: float
    own_state: np.ndarray       # (b, n)
    own_noise: np.ndarray       # (b, j, n): summed own increments per past own interval
    opp_controls: np.ndarray    # (b, m, n_opp, n_opp): opponent controls already begun
    opp_times: np.ndarray       # (m,) their interval start times


@dataclass
class FeedbackControl:
    """Piecewise-constant control with step feedback on the game's interval.

    switches are the times after the game's start at which a new interval
    begins; interval 0 begins at the start, and a switch at the horizon begins
    nothing.  feedback(j, view) returns the control matrix for interval j,
    either one (n, n) matrix broadcast over paths or a (b, n, n) batch.
    """

    switches: np.ndarray
    feedback: Callable[[int, HistoryView], np.ndarray]
    dim: int
    label: str = ""

    def __post_init__(self):
        s = np.asarray(self.switches, dtype=float)
        if s.ndim != 1 or np.any(s <= 0) or np.any(np.diff(s) <= 0):
            raise ValueError("switches must be positive and strictly increasing")
        self.switches = s


def interval_starts(ctrl: FeedbackControl, noise: NoiseGrid) -> np.ndarray:
    """The noise steps on which ctrl's intervals begin, then the step count N:
    interval j covers steps [starts[j], starts[j + 1])."""
    n, starts = noise.n_steps, [0]
    for s in ctrl.switches:
        k, where = s / noise.dt, f"control {ctrl.label!r} switches at {noise.t + s:g}"
        if k > n + 1e-6:
            raise GridMismatchError(f"{where}, past the horizon {noise.horizon:g}")
        if abs(k - round(k)) > 1e-6:
            raise GridMismatchError(f"{where}, off the noise grid of step {noise.dt:g}")
        if round(k) < n:
            starts.append(round(k))
    return np.array(starts + [n])


def zero_control(dim: int) -> FeedbackControl:
    z = np.zeros((dim, dim))
    return FeedbackControl((), lambda j, view: z, dim, "zero")


def constant_control(matrix) -> FeedbackControl:
    m = np.asarray(matrix, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("control matrix must be square")
    return FeedbackControl((), lambda j, view: m, m.shape[0], "constant")


def directional_control(dim: int, scale: float) -> FeedbackControl:
    """Rank-one control harvesting the first own-noise coordinate and pushing
    along e_0 - e_1."""
    if dim < 2:
        raise ValueError("directional control needs dim >= 2")
    m = np.zeros((dim, dim))
    m[0, 0] = scale
    m[1, 0] = -scale
    return FeedbackControl((), lambda k, view: m, dim, "directional")


# ---------------------------------------------------------------------------
# stepping
# ---------------------------------------------------------------------------

def step_x(x, u, db) -> np.ndarray:
    """Single Euler step for one state; see _step_batch for the rules."""
    xv, uv, dbv = (np.asarray(a, dtype=float) for a in (x, u, db))
    if not all(np.all(np.isfinite(a)) for a in (xv, uv, dbv)):
        raise ValueError("non-finite input to step_x")
    return _step_batch(xv[None], uv[None], dbv[None])[0]


def _row_sums(a: np.ndarray) -> np.ndarray:
    """a.sum(axis=1) of a (b, n) array, bit for bit: below 8 columns numpy adds
    them left to right too, and b-long column adds cost far less than its
    axis-1 reduction; from 8 on its pairwise order differs, so it is kept."""
    if a.shape[1] >= 8:
        return a.sum(axis=1)
    s = a[:, 0].astype(float)
    for c in range(1, a.shape[1]):
        s += a[:, c]
    return s


def _by_column(op, a: np.ndarray, s: np.ndarray) -> np.ndarray:
    """op(a, s[:, None]) in place on a (b, n) array, one column at a time: the
    same operations on the same operands, but b-long column operations cost
    far less than a broadcast over a (b, 1) column."""
    for c in range(a.shape[1]):
        op(a[:, c], s, out=a[:, c])
    return a


def _step_batch(x: np.ndarray, u: np.ndarray, db: np.ndarray) -> np.ndarray:
    """Vectorized Euler step: project, detect face crossings, clamp, renormalize.

    x: (b, n) states, u: (b, n, n) controls (a broadcast view for a shared
    matrix), db: (b, n) increments.
    """
    mask = x > ETA
    w = np.einsum("bij,bj->bi", u, db)
    mean = _row_sums(np.where(mask, w, 0.0)) / _row_sums(mask)
    delta = np.where(mask, _by_column(np.subtract, w, mean), 0.0)
    prop = x + delta
    neg = prop < 0.0
    if neg.any():
        # shrink only the rows that cross a face
        bad = _row_sums(neg) > 0
        xb, db_ = x[bad], delta[bad]
        with np.errstate(divide="ignore", invalid="ignore"):
            ratios = np.where(db_ < -1e-300, xb / np.where(db_ < -1e-300, -db_, 1.0), np.inf)
        prop[bad] = xb + np.minimum(1.0, ratios.min(axis=1))[:, None] * db_
    prop = np.where(prop <= ETA, 0.0, prop)
    return _by_column(np.divide, prop, _row_sums(prop))


class _BlockSim:
    """One vectorized simulation block: paths [lo, hi) of a noise grid."""

    def __init__(self, p, q, u_ctrl: FeedbackControl, v_ctrl: FeedbackControl,
                 noise: NoiseGrid, lo: int, hi: int):
        self.noise = noise
        self.lo, self.hi = lo, hi
        self.b = hi - lo
        self.p = np.asarray(p, dtype=float)
        self.q = np.asarray(q, dtype=float)
        if self.p.size != noise.dim1 or self.q.size != noise.dim2:
            raise ValueError("state dimensions do not match the noise grid")
        for ctrl, n in ((u_ctrl, self.p.size), (v_ctrl, self.q.size)):
            if ctrl.dim != n:
                raise ValueError(f"control {ctrl.label!r} has dim {ctrl.dim}, "
                                 f"its state has {n} coordinates")
        self.u_ctrl, self.v_ctrl = u_ctrl, v_ctrl
        self.u_steps = interval_starts(u_ctrl, noise)
        self.v_steps = interval_starts(v_ctrl, noise)
        self.times = noise.times()
        self.db1, self.db2 = noise.increments(lo, hi)
        nI, nJ = self.p.size, self.q.size
        self.u_realized = np.zeros((self.b, self.u_steps.size - 1, nI, nI))
        self.v_realized = np.zeros((self.b, self.v_steps.size - 1, nJ, nJ))
        self.own1 = np.zeros(self.u_realized.shape[:3])
        self.own2 = np.zeros(self.v_realized.shape[:3])

    def _eval_feedback(self, ctrl, j, k, own_state, own_noise, realized, opp_real, opp_steps):
        """Control matrices of ctrl for interval j, which begins on step k, also
        stored in realized[:, j]; the opponent's intervals begun before k are visible."""
        visible = int(np.searchsorted(opp_steps, k))
        view = HistoryView(self.times[k], own_state, own_noise[:, :j],
                           opp_real[:, :visible], self.times[opp_steps[:visible]])
        mat = np.asarray(ctrl.feedback(j, view), dtype=float)
        if not np.all(np.isfinite(mat)):
            raise ValueError(f"feedback for control {ctrl.label!r} returned a non-finite matrix")
        if mat.ndim == 2:
            mat = np.broadcast_to(mat, (self.b,) + mat.shape)
        realized[:, j] = mat
        return mat

    def _close_interval(self, own, db, steps, j):
        """As interval j begins, sum interval j - 1's own increments in step order."""
        if j > 0:
            for k in range(steps[j - 1], steps[j]):
                own[:, j - 1] += db[:, k]

    def steps(self):
        """Yield segments (k0, k1, X, Y): the state on noise steps k0..k1-1.

        An active step is a segment of one step.  A stretch on which both
        realized controls are exactly zero is one segment, ending where the
        next interval of either player begins.  The last yield, (N, N+1, X, Y),
        carries the terminal state.
        """
        n, b = self.noise.n_steps, self.b
        x, y = np.tile(self.p, (b, 1)), np.tile(self.q, (b, 1))
        ju = jv = k = 0
        u_mat = v_mat = None
        u_zero = v_zero = False
        while k < n:
            # u_steps[-1] = v_steps[-1] = n, so neither runs past its last interval
            if k == self.u_steps[ju]:
                self._close_interval(self.own1, self.db1, self.u_steps, ju)
                u_mat = self._eval_feedback(self.u_ctrl, ju, k, x, self.own1,
                                            self.u_realized, self.v_realized, self.v_steps)
                u_zero = not u_mat.any()
                ju += 1
            if k == self.v_steps[jv]:
                self._close_interval(self.own2, self.db2, self.v_steps, jv)
                v_mat = self._eval_feedback(self.v_ctrl, jv, k, y, self.own2,
                                            self.v_realized, self.u_realized, self.u_steps)
                v_zero = not v_mat.any()
                jv += 1
            k1 = min(self.u_steps[ju], self.v_steps[jv]) if u_zero and v_zero else k + 1
            yield k, k1, x, y
            if not u_zero:
                x = _step_batch(x, u_mat, self.db1[:, k])
            if not v_zero:
                y = _step_batch(y, v_mat, self.db2[:, k])
            k = k1
        yield n, n + 1, x, y


def _block_ranges(n_paths: int, n_steps: int) -> list[tuple[int, int]]:
    # cap transient noise memory around tens of MB per block
    block = max(1, min(n_paths, 2_000_000 // max(1, n_steps)))
    return [(lo, min(lo + block, n_paths)) for lo in range(0, n_paths, block)]


def _ensemble(p, q, u_ctrl: FeedbackControl, v_ctrl: FeedbackControl,
              noise: NoiseGrid, reduce: Callable[[_BlockSim], object], threads: int) -> list:
    """reduce(sim) for each block of paths, in block order for any thread count."""
    def work(lo_hi):
        return reduce(_BlockSim(p, q, u_ctrl, v_ctrl, noise, *lo_hi))

    ranges = _block_ranges(noise.n_paths, noise.n_steps)
    if threads <= 1 or len(ranges) <= 1:
        return [work(r) for r in ranges]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(work, ranges))


# ---------------------------------------------------------------------------
# bundles
# ---------------------------------------------------------------------------

@dataclass
class TrajectoryBundle:
    """Monte Carlo ensemble of coupled (X, Y) paths with realized controls
    and terminal Brownian sums."""

    times: np.ndarray
    x_paths: np.ndarray     # (n_paths, N+1, nI)
    y_paths: np.ndarray     # (n_paths, N+1, nJ)
    u_realized: np.ndarray  # (n_paths, m_u, nI, nI)
    v_realized: np.ndarray
    b1_end: np.ndarray      # (n_paths, nI)
    b2_end: np.ndarray

    @property
    def n_paths(self) -> int:
        return self.x_paths.shape[0]

    def check_invariants(self) -> None:
        for paths in (self.x_paths, self.y_paths):
            if paths.min() < 0.0:
                raise AssertionError("negative coordinate stored in bundle")
            sums = paths.sum(axis=2)
            if np.max(np.abs(sums - 1.0)) > SUM_TOL:
                raise AssertionError("stored state does not sum to 1")
            sup = paths > ETA
            if np.any(sup[:, 1:] & ~sup[:, :-1]):
                raise AssertionError("support grew along a path")


def simulate(p, q, u_ctrl: FeedbackControl, v_ctrl: FeedbackControl,
             noise: NoiseGrid, threads: int = 1) -> TrajectoryBundle:
    """Simulate the coupled (X, Y) system and keep full paths.

    Memory grows with n_paths * n_steps and is capped at MAX_BUNDLE_BYTES
    (BundleSizeError before anything is allocated); the estimators below
    (estimate_j, simulation_report, lipschitz_p_check) keep only per-block
    reductions and suit large ensembles.
    """
    n, nsteps = noise.n_paths, noise.n_steps
    nI, nJ = noise.dim1, noise.dim2
    m_u = interval_starts(u_ctrl, noise).size - 1
    m_v = interval_starts(v_ctrl, noise).size - 1
    size = 8 * n * ((nsteps + 1) * (nI + nJ) + m_u * nI * nI + m_v * nJ * nJ + nI + nJ)
    if size > MAX_BUNDLE_BYTES:
        raise BundleSizeError(f"{n} full paths of {nsteps} steps need {size / 1024**3:.3g} GiB, "
                              f"over the {MAX_BUNDLE_BYTES / 1024**3:g} GiB limit")
    x_paths = np.empty((n, nsteps + 1, nI))
    y_paths = np.empty((n, nsteps + 1, nJ))
    u_real = np.empty((n, m_u, nI, nI))
    v_real = np.empty((n, m_v, nJ, nJ))
    b1_end = np.empty((n, nI))
    b2_end = np.empty((n, nJ))

    def reduce(sim):
        rows = slice(sim.lo, sim.hi)
        for k0, k1, x, y in sim.steps():
            x_paths[rows, k0:k1] = x[:, None]
            y_paths[rows, k0:k1] = y[:, None]
        u_real[rows] = sim.u_realized
        v_real[rows] = sim.v_realized
        b1_end[rows] = sim.db1.sum(axis=1)
        b2_end[rows] = sim.db2.sum(axis=1)

    _ensemble(p, q, u_ctrl, v_ctrl, noise, reduce, threads)
    return TrajectoryBundle(noise.times(), x_paths, y_paths, u_real, v_real, b1_end, b2_end)


# ---------------------------------------------------------------------------
# estimators
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class JEstimate:
    mean: float
    std_error: float
    n_paths: int


def estimate_j(p, q, u_ctrl: FeedbackControl, v_ctrl: FeedbackControl,
               H: HamiltonianField, noise: NoiseGrid, threads: int = 1,
               terminal: Callable | None = None) -> JEstimate:
    """Monte Carlo estimate of E[int_t^T H(s, X_s, Y_s) ds + terminal(X_T, Y_T)].

    Left-endpoint quadrature on the noise grid; paths stream through in
    blocks, only the per-path integral is kept.  terminal, if given, maps the
    batched terminal states (b, nI), (b, nJ) to (b,) values.
    """
    if noise.n_paths < 2:
        raise ValueError("need at least two paths for a standard error")

    times = noise.times()

    def reduce(sim):
        acc = np.zeros(sim.b)
        for k0, k1, x, y in sim.steps():
            h = None
            for k in range(k0, min(k1, noise.n_steps)):
                # a frozen state gives the same running cost on every step
                if h is None or H.time_dependent:
                    h = H.on_paths(times[k], x, y) * noise.dt
                acc += h
        if terminal is not None:
            acc += terminal(x, y)
        return acc

    j = np.concatenate(_ensemble(p, q, u_ctrl, v_ctrl, noise, reduce, threads))
    return JEstimate(float(j.mean()), float(j.std(ddof=1) / np.sqrt(j.size)), j.size)


@dataclass
class SimulationReport:
    """Streaming reductions over an ensemble: martingale deviation against
    standard errors at every grid time, and exact simplex membership."""

    times: np.ndarray
    mean_dev: np.ndarray           # (N+1, nI) componentwise |mean X - p|
    se: np.ndarray                 # (N+1, nI) standard error of each mean
    min_coord: float
    max_sum_err: float
    support_monotone: bool
    n_paths: int

    @property
    def martingale_ok(self) -> bool:
        # the additive slack absorbs pure summation roundoff (relevant only
        # where the SE is exactly zero, e.g. at the initial time)
        return bool(np.all(self.mean_dev <= 3.0 * self.se + 1e-12))

    @property
    def worst_dev(self) -> float:
        return float(np.max(self.mean_dev))

    @property
    def worst_margin(self) -> float:
        """Largest deviation-to-(3SE + slack) ratio over times and coordinates."""
        return float(np.max(self.mean_dev / (3.0 * self.se + 1e-12)))


def simulation_report(p, q, u_ctrl: FeedbackControl, v_ctrl: FeedbackControl,
                      noise: NoiseGrid, threads: int = 1) -> SimulationReport:
    """Run the ensemble keeping only martingale / invariance statistics."""
    def reduce(sim):
        loc_sum = np.zeros((noise.n_steps + 1, noise.dim1))
        loc_sq = np.zeros_like(loc_sum)
        mn, serr, mono = np.inf, 0.0, True
        prev = sim.p > ETA, sim.q > ETA
        for k0, k1, x, y in sim.steps():
            loc_sum[k0:k1] = x.sum(axis=0)
            loc_sq[k0:k1] = (x * x).sum(axis=0)
            mn = min(mn, float(x.min()), float(y.min()))
            serr = max(serr, float(np.max(np.abs(_row_sums(x) - 1.0))),
                       float(np.max(np.abs(_row_sums(y) - 1.0))))
            sup = x > ETA, y > ETA
            mono = mono and not any(np.any(s & ~s0) for s, s0 in zip(sup, prev))
            prev = sup
        return loc_sum, loc_sq, mn, serr, mono

    parts = _ensemble(p, q, u_ctrl, v_ctrl, noise, reduce, threads)
    sums, sq_sums, mns, serrs, monos = zip(*parts)
    n = noise.n_paths
    mean = sum(sums) / n
    var = np.maximum(sum(sq_sums) / n - mean**2, 0.0)
    se = np.sqrt(var / n)
    pv = np.asarray(p, dtype=float)
    return SimulationReport(noise.times(), np.abs(mean - pv), se,
                            min(mns), max(serrs), all(monos), n)


@dataclass(frozen=True)
class LipschitzCoupling:
    estimate: float        # sup over grid times of mean |X_s - Xbar_s|
    bound: float           # dimensional constant times |p - pbar|
    std_error: float       # at the time achieving the sup
    constant: float


def lipschitz_p_check(p, p_bar, u_ctrl: FeedbackControl, noise: NoiseGrid,
                      threads: int = 1) -> LipschitzCoupling:
    """Couple two initial conditions under the same noise and same realized
    control (evaluated along the primary path) and compare the mean distance
    against the dimensional bound."""
    pv = np.asarray(p, dtype=float)
    pbv = np.asarray(p_bar, dtype=float)
    nsteps = noise.n_steps

    def reduce(sim):
        xb = np.tile(pbv, (sim.b, 1))
        loc_s = np.zeros(nsteps + 1)
        loc_q = np.zeros(nsteps + 1)
        for k0, k1, x, _y in sim.steps():
            d = np.linalg.norm(x - xb, axis=1)
            loc_s[k0:k1] = d.sum()
            loc_q[k0:k1] = (d * d).sum()
            if k0 < nsteps:
                # the copy steps where the primary path steps: same control
                # matrices, same increments
                u = sim.u_realized[:, int(np.searchsorted(sim.u_steps[1:], k0, side="right"))]
                if u.any():
                    xb = _step_batch(xb, u, sim.db1[:, k0])
        return loc_s, loc_q

    q0 = np.full(noise.dim2, 1.0 / noise.dim2)
    parts = _ensemble(pv, q0, u_ctrl, zero_control(noise.dim2),
                      noise, reduce, threads)
    sums, sqs = (sum(c) for c in zip(*parts))
    n = noise.n_paths
    mean = sums / n
    k_star = int(np.argmax(mean))
    var = max(sqs[k_star] / n - mean[k_star] ** 2, 0.0)
    const = coupling_bound_constant(pv.size)
    return LipschitzCoupling(float(mean[k_star]),
                             const * float(np.linalg.norm(pv - pbv)),
                             float(np.sqrt(var / n)), const)


@dataclass(frozen=True)
class CovarianceEntry:
    x_coordinate: int
    functional: str
    covariance: float
    std_error: float

    @property
    def ok(self) -> bool:
        return abs(self.covariance) <= 3.0 * self.std_error + 1e-15


def independence_check(bundle: TrajectoryBundle) -> list[CovarianceEntry]:
    """Empirical covariance between X_T - p and bounded functionals of the
    opponent's Brownian block; everything should vanish to 3 standard errors.
    """
    x_t = bundle.x_paths[:, -1, :]
    x0 = bundle.x_paths[:, 0, :]
    a = x_t - x0
    functionals = {"sign_b2_first": np.sign(bundle.b2_end[:, 0]),
                   "tanh_b2_first": np.tanh(bundle.b2_end[:, 0])}
    for c in range(bundle.y_paths.shape[2]):
        functionals[f"y_T_{c}"] = bundle.y_paths[:, -1, c]
    n = bundle.n_paths
    out = []
    for name, f in functionals.items():
        fc = f - f.mean()
        for c in range(a.shape[1]):
            ac = a[:, c] - a[:, c].mean()
            prod = ac * fc
            cov = float(prod.mean())
            se = float(prod.std(ddof=1) / np.sqrt(n)) if n > 1 else 0.0
            out.append(CovarianceEntry(c, name, cov, se))
    return out


def dump_trajectories(bundle: TrajectoryBundle, path) -> None:
    """CSV dump: path_id, time, x_1..x_nI, y_1..y_nJ.  The time column is
    formatted once; each path is written as one block."""
    nI = bundle.x_paths.shape[2]
    nJ = bundle.y_paths.shape[2]
    cols = ["path_id", "time"] + [f"x_{i+1}" for i in range(nI)] + [f"y_{j+1}" for j in range(nJ)]
    times = [f"{tk:.17g}" for tk in bundle.times.tolist()]

    def blocks():
        for pid in range(bundle.n_paths):
            xy = np.concatenate([bundle.x_paths[pid], bundle.y_paths[pid]], axis=1)
            yield "".join([f"{pid},{t},{r}\n" for t, r in zip(times, format_rows(xy.tolist()))])

    write_atomic(path, [",".join(cols) + "\n"], blocks())
