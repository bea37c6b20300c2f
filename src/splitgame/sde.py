"""Pathwise simulation of simplex-constrained martingales driven by
piecewise-constant feedback controls, plus Monte Carlo payoff estimation.

Each player's state follows an Euler scheme for dX = (P_X u) dB restricted to
the simplex: the projection uses the current support, a coordinate that would
cross zero shrinks the step to the exact face crossing, and coordinates inside
a small absorption band are set to zero and never revive.  Faces are therefore
absorbing and the support is non-increasing along every path, which mirrors
the layered face-by-face construction that makes the continuous equation well
posed.

Randomness is counter-based: path i of player s draws its Gaussian
increments from a Philox stream whose key is numpy's
SeedSequence(entropy=seed, spawn_key=(s, i)).generate_state(2, np.uint64).
A block derives all its paths' keys in one pass of that hash (NoiseGrid.keys),
and a draw sets one bit generator to each key, or to a state saved from it,
in turn.  Increments are drawn on demand, per player, and only for intervals
on which that player's control is non-zero, so a zero control draws nothing.
They are drawn into a window of W rows per player, with b·W <= NOISE_CAP for
a block of b paths; the next window continues each path's stream from its
saved state, and rows that frozen stretches skip are drawn and thrown away,
so windowed rows are byte-identical to one draw of the whole path.  A path
whose state sits on a vertex (at most one coordinate above ETA) has revealed
its type and never moves again, and a vertex row steps by zero on any finite
products, so a draw leaves that path out: its rows are 0.0 and its stream is
not drawn again, nor keyed if no path of the block is drawn.  A coupled
state (lipschitz_p_check's copy of player 1 from another start) steps on
player 1's products, so there a path is left out only where the copy sits on
a vertex too.  Every estimator runs through one block driver, _ensemble,
which simulates the paths in blocks and returns each block's partial result
in block order; combining them in that order makes results bit-identical for
any thread count.  The thread count never sets the split: a block steps all
its paths while any path's control is non-zero, and renormalising an unmoved
state can change its last bit, so each path, like any sum over a block, takes
its bits from the split.  Sums run on _block_ranges, sized by the path
length; estimate_j, which keeps one value per path, on wide blocks
(_wide_ranges).  simulate keeps full paths and the report streamed from them,
terminal_states only player 1's terminal states.

A block steps only what moves, and holds only the controls in force.  It
yields segments of noise steps on which the state is constant: one step while
a control is active, and a whole frozen stretch (both controls in force
exactly zero) up to where either player's next interval begins, which the
estimators reduce once.  Sums over a state's coordinates are added column by
column, in numpy's own order.

A block holds each player's increments time-major, (W, b, dim), so a step's
row is contiguous.  An active player's products u·dB are formed for up to
_CHUNK steps at once, never past the end of the interval in force or of the
noise window, with the bits of einsum on each row; the Euler step leaves them
as they are, so the block steps a player's coupled states on them right after
the player's own state.  Two-coordinate states (every shipped Monte Carlo
run's) step in their own kernel, _step_pair, with the general kernel's bits:
a block of interior rows needs no support masks, and a row on a vertex or in
the band steps by zero.  The general kernel steps every other state size, and
a block off the interior whose products are not all finite.  Products that
overflow turn a state NaN, and it stays NaN: a block whose terminal states
are not finite raises ValueError.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable

import numpy as np

from splitgame.hamiltonian import HamiltonianField
from splitgame.hj import format_rows, write_atomic
from splitgame.simplex import coupling_bound_constant

ETA = 1e-10  # absorption band: a coordinate at or below it is set to zero
_GRID_SNAP = 1e-9
# the most a run may keep of its paths (simulate's full paths, the states of
# terminal_states), checked before any of them is allocated
MAX_BUNDLE_BYTES = 2 * 1024**3
NOISE_CAP = 2_000_000  # rows times paths that a block's noise window holds, per player
_WIDE = 4096      # paths in a block of an estimator that keeps one value per path
_DRAW_GROUP = 64  # paths drawn into one scratch buffer before it is copied into place
_CHUNK = 16       # steps whose products u·dB are formed in one pass


class GridMismatchError(ValueError):
    """A step or a control's switch is off the noise grid, or the switch is past it."""


class BundleSizeError(ValueError):
    """A run would keep more than MAX_BUNDLE_BYTES of its paths."""


def _check_kept(size: int, what: str) -> None:
    """BundleSizeError if keeping what, size bytes, passes MAX_BUNDLE_BYTES."""
    if size > MAX_BUNDLE_BYTES:
        raise BundleSizeError(f"{what} need {size / 1024**3:.3g} GiB, "
                              f"over the {MAX_BUNDLE_BYTES / 1024**3:g} GiB limit")


# ---------------------------------------------------------------------------
# noise
# ---------------------------------------------------------------------------

# numpy's SeedSequence constants: the pool hash (A), the output hash (B) and the mix
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715


def _n_words(n: int) -> int:
    """How many 32-bit words numpy makes of a non-negative integer."""
    return (n.bit_length() + 31) // 32 or 1


def _hashmix(v, h: int):
    """SeedSequence's hashmix of v (an int or an int64 array of 32-bit words)
    under multiplier h; returns the hash and the next multiplier."""
    h2 = h * _MULT_A & _MASK32
    v = (v ^ h) * h2 & _MASK32
    return v ^ v >> 16, h2


def _mix(x, y):
    r = ((_MIX_L * x & _MASK32) - (_MIX_R * y & _MASK32)) & _MASK32
    return r ^ r >> 16


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
        if isinstance(self.seed, bool) or not isinstance(self.seed, (int, np.integer)) \
                or self.seed < 0:
            raise ValueError(f"seed must be a non-negative integer, not {self.seed!r}")

    @property
    def n_steps(self) -> int:
        return int(round((self.horizon - self.t) / self.dt))

    def times(self) -> np.ndarray:
        return self.t + self.dt * np.arange(self.n_steps + 1)

    def keys(self, stream: int, lo: int, hi: int) -> np.ndarray:
        """The (hi - lo, 2) uint64 Philox keys of paths [lo, hi) of a stream, in
        one pass: row p is numpy's
        SeedSequence(entropy=seed, spawn_key=(stream, lo + p)).generate_state(2, np.uint64).

        The path's words are the last entropy, so the block starts from the pool
        numpy makes of the seed and the stream, and mixes each path's words
        into it.  Of w words (the seed's, padded to the pool size of 4, then
        the stream's), numpy hashes 4 into the pool, 12 to cross-mix it and
        each later one 4 times: 4·w hashes, each a step of the multiplier.
        """
        seed = int(self.seed)
        pool = np.random.SeedSequence(seed, spawn_key=(stream,)).pool.tolist()
        w = max(4, _n_words(seed)) + _n_words(stream)
        h = _INIT_A * pow(_MULT_A, 4 * w, 1 << 32) & _MASK32
        # int64 arrays: products wrap mod 2**64, so masked words are exact
        paths = np.arange(lo, hi, dtype=np.int64)
        for k in range(_n_words(max(hi - 1, 0))):
            # a path's k-th word exists from 2**(32k) on; word 0 always does
            high = paths >> 32 * k
            word, mixed = high & _MASK32, []
            for dst in range(4):
                v, h = _hashmix(word, h)
                mixed.append(_mix(pool[dst], v))
            pool = mixed if k == 0 else [np.where(high > 0, a, b) for a, b in zip(mixed, pool)]
        out, h = np.empty((paths.size, 4), dtype=np.uint32), _INIT_B
        for dst in range(4):
            v = pool[dst] ^ h
            h = h * _MULT_B & _MASK32
            v = v * h & _MASK32
            out[:, dst] = v ^ v >> 16
        return out.astype("<u4", copy=False).view("<u8").astype(np.uint64)

    def increments(self, lo: int, hi: int) -> BlockNoise:
        """The Gaussian increments of paths [lo, hi), drawn on demand."""
        return BlockNoise(self, lo, hi)


class BlockNoise:
    """Increments of paths [lo, hi) of a noise grid, drawn on demand into one
    window of rows per player: B1 and B2 as two time-major (W, b, dim)
    arrays, so a step's row is contiguous, with b·W <= NOISE_CAP.

    Path p of player i draws from its own Philox stream (stream i, path p).
    Philox is counter-based, so a stream is its key: the block computes the
    keys of all its paths in one pass, and a draw sets one bit generator to
    each in turn.  standard_normal fills its output in order, so a stream
    drawn in pieces gives the bytes of one draw of the whole path.  A draw
    restarts each stream from its saved state, which is its key until a
    window fills short of the path's end; then the next window continues
    the stream, so its state is saved.  Rows that the steps skip on the way
    to a window are drawn and thrown away.  A group of _DRAW_GROUP paths is
    drawn path by path into a scratch buffer, scaled there, and written into
    place with one transposed copy.

    A draw leaves out the frozen paths, those on a vertex in every state
    that steps on the rows: their rows are 0.0, and their streams are
    neither restored, drawn nor saved.  A vertex is permanent, so a stream
    left out is never needed again and its saved state may go stale.
    """

    def __init__(self, grid: NoiseGrid, lo: int, hi: int):
        self.grid, self.lo, self.b = grid, lo, hi - lo
        self.width = min(grid.n_steps, max(1, NOISE_CAP // self.b))
        self.windows = tuple(np.empty((self.width, self.b, d)) for d in (grid.dim1, grid.dim2))
        # window i holds rows [start[i], stop[i]); stream i's saved states are at row pos[i]
        self.start, self.stop, self.pos = [0, 0], [0, 0], [0, 0]
        self._keys, self._saved = [None, None], [None, None]

    def rows(self, i: int, k: int, end: int, states=()) -> np.ndarray:
        """Player i's increments from row k on: a (m, b, dim) view of rows
        [k, k + m), m >= 1, that ends by row end and by the window's end.  k
        never goes back.  A draw reaches _CHUNK rows past k and at least
        doubles the rows the window holds, so a window is drawn O(log W)
        times and generates at most twice the rows it keeps.

        states are the (b, n) states on step k that step on these rows; a
        draw leaves out the paths on a vertex in all of them.  A path left
        out must stay so: a later request passes states on the same
        vertices."""
        s, stop, n = self.start[i], self.stop[i], self.grid.n_steps
        if k >= stop:
            if k >= s + self.width:
                s = self.start[i] = k
            frozen = None
            for x in states:
                vertex = _row_sums(x > ETA) <= 1
                frozen = vertex if frozen is None else frozen & vertex
            self._draw(i, min(s + self.width, n, max(end, k + _CHUNK, 2 * stop - s)), frozen)
            stop = self.stop[i]
        return self.windows[i][k - s:min(end, stop) - s]

    def _draw(self, i: int, end: int, frozen: np.ndarray | None) -> None:
        """Draw rows [start[i], end) of player i into its window, each stream
        from its state saved at row pos[i], except the paths that frozen (a
        (b,) mask, or None) marks: their rows are 0.0."""
        s, pos, b, win = self.start[i], self.pos[i], self.b, self.windows[i]
        if frozen is not None and frozen.all():  # nothing is drawn or keyed
            win[:end - s] = 0.0
            self.stop[i] = end
            return
        dim, keys, saved = win.shape[2], self._keys[i], self._saved[i]
        if keys is None:
            keys = self._keys[i] = self.grid.keys(i, self.lo, self.lo + b)
        save = end == s + self.width < self.grid.n_steps
        if save and saved is None:
            saved = self._saved[i] = np.empty((b, 9), dtype=np.uint64)
        # a generator of this draw's own (blocks run in a thread pool), whose
        # state with nothing drawn is the template for every path's
        gen = np.random.Generator(np.random.Philox(0))
        state = gen.bit_generator.state
        scratch = np.empty((min(b, _DRAW_GROUP), end - s, dim))
        thrown = np.empty((max(1, min(s - pos, self.width)), dim))
        # a step's dim coordinates as one opaque item, so the transposed copy
        # moves whole items instead of running inner loops of dim numbers
        item = np.dtype((np.void, 8 * dim))
        to = win.view(item)[..., 0]
        for g in range(0, b, _DRAW_GROUP):
            group = keys[g:g + _DRAW_GROUP].tolist()
            at = saved[g:g + _DRAW_GROUP].tolist() if pos else ()
            still = frozen[g:g + _DRAW_GROUP].tolist() if frozen is not None else ()
            got, kept = [], []
            for path, key in enumerate(group):
                if still and still[path]:
                    scratch[path] = 0.0
                    continue
                state["state"]["key"] = key
                if pos:  # counter[4], buffer[4], buffer_pos
                    row = at[path]
                    state["state"]["counter"], state["buffer"], state["buffer_pos"] = \
                        row[:4], row[4:8], row[8]
                gen.bit_generator.state = state
                for r in range(pos, s, len(thrown)):
                    gen.standard_normal(out=thrown[:s - r])
                gen.standard_normal(out=scratch[path])
                if save:
                    got.append(gen.bit_generator.state)
                    kept.append(g + path)
            if got:  # in place, after the group's saved states were read
                saved[kept, :4] = [st["state"]["counter"] for st in got]
                saved[kept, 4:8] = [st["buffer"] for st in got]
                saved[kept, 8] = [st["buffer_pos"] for st in got]
            drawn = scratch[:len(group)]
            drawn *= np.sqrt(self.grid.dt)
            to[:end - s, g:g + len(group)] = drawn.view(item)[..., 0].T
        self.stop[i] = end
        if save:  # a path left out keeps its stale saved state
            self.pos[i] = end


# ---------------------------------------------------------------------------
# controls
# ---------------------------------------------------------------------------

@dataclass
class HistoryView:
    """What a feedback map may read when choosing the control for interval j,
    its first argument: the interval's start time and both players' states on
    the interval's first noise step, before either player steps.  The states
    are batched over paths.
    """

    time: float
    own_state: np.ndarray       # (b, n)
    opp_state: np.ndarray       # (b, n_opp)


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

def _row_sums(a: np.ndarray) -> np.ndarray:
    """a.sum(axis=1) of a (b, n) array, bit for bit: below 8 columns numpy adds
    them left to right too, and b-long column adds cost far less than its
    axis-1 reduction; from 8 on its pairwise order differs, so it is kept."""
    if a.shape[1] >= 8:
        return a.sum(axis=1)
    if a.shape[1] == 1:
        return a[:, 0].astype(float)
    s = np.add(a[:, 0], a[:, 1], dtype=float)
    for c in range(2, a.shape[1]):
        s += a[:, c]
    return s


def _by_column(op, a: np.ndarray, s: np.ndarray) -> np.ndarray:
    """op(a, s[:, None]) in place on a (b, n) array, one column at a time: the
    same operations on the same operands, but b-long column operations cost
    far less than a broadcast over a (b, 1) column."""
    for c in range(a.shape[1]):
        op(a[:, c], s, out=a[:, c])
    return a


def _products(u: np.ndarray, db: np.ndarray, out: np.ndarray) -> np.ndarray:
    """w = u·dB on each of the (c, b, n) rows db, into out, with the bits of
    einsum("bij,bj->bi", u, db[k]).  u is (b, n, n), a broadcast view for a
    shared matrix.  Up to 2 coordinates einsum adds (0.0 + u_i0·dB_0) +
    u_i1·dB_1, which whole-chunk column operations repeat; from 3 on its
    summation order differs, so it is kept, one row at a time."""
    n = db.shape[2]
    if n >= 3:
        for row, w in zip(db, out):
            np.einsum("bij,bj->bi", u, row, out=w)
        return out
    coef = u[0] if u.strides[0] == 0 else u.transpose(1, 2, 0)  # a scalar or (b,) per entry
    for i in range(n):
        w = out[..., i]
        np.multiply(coef[i, 0], db[..., 0], out=w)
        w += 0.0  # einsum's zero start: -0.0 comes out as 0.0
        if n == 2:
            w += coef[i, 1] * db[..., 1]
    return out


def _shrink(x: np.ndarray, delta: np.ndarray, prop: np.ndarray) -> None:
    """Shrink, in prop, each step x + delta that crosses a face to the first
    face it reaches.  x lies in [0, 1] and each denominator is over 1e-300 or
    1.0, so no division can overflow; a row that crosses two faces is listed
    twice and shrunk twice to the same bits."""
    rows = np.flatnonzero(prop < 0.0) // x.shape[1]
    xb, db_ = x[rows], delta[rows]
    ratios = np.where(db_ < -1e-300, xb / np.where(db_ < -1e-300, -db_, 1.0), np.inf)
    prop[rows] = xb + np.minimum(1.0, ratios.min(axis=1))[:, None] * db_


def _step_pair(x: np.ndarray, w: np.ndarray) -> np.ndarray | None:
    """_step_batch on two coordinates, with its bits, or None for the general
    kernel.  A row with a coordinate at or below ETA (a vertex, or mass in the
    band) steps by zero: there the general kernel's masked mean gives
    w_a - w_a/1.0 = 0.0, which holds for finite products only.  The crossing
    shrink and the band clamp run only when the proposal's least coordinate,
    NaN skipped, calls for them."""
    w0, w1 = w[:, 0], w[:, 1]
    if not x.min() > ETA:  # a row off the interior, or a NaN
        if not np.isfinite(w.sum()):
            return None
        inner = np.minimum(x[:, 0], x[:, 1]) > ETA
        w0, w1 = np.where(inner, w0, 0.0), np.where(inner, w1, 0.0)
    mean = np.add(w0, w1) / 2.0
    delta = np.empty_like(x)
    np.subtract(w0, mean, out=delta[:, 0])
    np.subtract(w1, mean, out=delta[:, 1])
    prop = x + delta
    low = np.fmin.reduce(prop, axis=None)
    if low < 0.0:
        _shrink(x, delta, prop)
    if low <= ETA:
        np.putmask(prop, prop <= ETA, 0.0)
    return _by_column(np.divide, prop, np.add(prop[:, 0], prop[:, 1]))


def _step_batch(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Vectorized Euler step: project, detect face crossings, clamp, renormalize.

    x: (b, n) states, w: (b, n) products u·dB of the controls and the
    increments, left as they are.  Two coordinates go to _step_pair first.
    """
    if x.shape[1] == 2 and (out := _step_pair(x, w)) is not None:
        return out
    mask = x > ETA
    wm = np.where(mask, w, 0.0)
    mean = _row_sums(wm) / _row_sums(mask)
    delta = np.where(mask, _by_column(np.subtract, wm, mean), 0.0)
    prop = x + delta
    if (prop < 0.0).any():
        _shrink(x, delta, prop)
    prop = np.where(prop <= ETA, 0.0, prop)
    return _by_column(np.divide, prop, _row_sums(prop))


class _BlockSim:
    """One vectorized simulation block: paths [lo, hi) of a noise grid.

    Each per-player piece is a pair indexed by player, 0 for (p, u, B1) and
    1 for (q, v, B2): start states x0, controls ctrl and interval starts.  db
    holds both players' increments, drawn on demand.  coupled[i] holds the
    other (b, n) states that step on player i's products u·dB
    (lipschitz_p_check's copy, set before steps() runs): steps() steps each
    right after player i's state and checks that it ends finite, and player i
    draws for every path that its state or one of them can move.
    """

    def __init__(self, p, q, u_ctrl: FeedbackControl, v_ctrl: FeedbackControl,
                 noise: NoiseGrid, lo: int, hi: int):
        self.noise = noise
        self.lo, self.hi = lo, hi
        self.b = hi - lo
        self.x0 = np.asarray(p, dtype=float), np.asarray(q, dtype=float)
        if (self.x0[0].size, self.x0[1].size) != (noise.dim1, noise.dim2):
            raise ValueError("state dimensions do not match the noise grid")
        self.ctrl = u_ctrl, v_ctrl
        for ctrl, x0 in zip(self.ctrl, self.x0):
            if ctrl.dim != x0.size:
                raise ValueError(f"control {ctrl.label!r} has dim {ctrl.dim}, "
                                 f"its state has {x0.size} coordinates")
        self.starts = tuple(interval_starts(ctrl, noise) for ctrl in self.ctrl)
        self.db = noise.increments(lo, hi)
        self.coupled = [(), ()]

    def _eval_feedback(self, i, j, k, state):
        """Player i's control matrices for interval j, which begins on step k,
        read from the state pair there."""
        ctrl = self.ctrl[i]
        view = HistoryView(self.noise.t + self.noise.dt * k, state[i], state[1 - i])
        mat = np.asarray(ctrl.feedback(j, view), dtype=float)
        if not np.all(np.isfinite(mat)):
            raise ValueError(f"feedback for control {ctrl.label!r} returned a non-finite matrix")
        if mat.ndim == 2:
            mat = np.broadcast_to(mat, (self.b,) + mat.shape)
        return mat

    def steps(self):
        """Yield segments (k0, k1, X, Y): the state on noise steps k0..k1-1.

        An active step is a segment of one step.  A stretch on which both
        controls in force are exactly zero is one segment, ending where the
        next interval of either player begins.  The last yield, (N, N+1, X, Y),
        carries the terminal state; a ValueError instead if a state is not
        finite, which only products u·dB that overflow can make (and a NaN
        state stays NaN).  An active player's products are formed _CHUNK
        steps at a time, never past the end of its interval or of its noise
        window, from rows drawn for the paths that can still move.
        """
        n, starts = self.noise.n_steps, self.starts
        state = [np.tile(x0, (self.b, 1)) for x0 in self.x0]
        j, mat, prod = [-1, -1], [None, None], [None, None]
        coupled = self.coupled
        zero = [False, False]
        # player i's products of steps [first[i], formed[i]) lead buf[i]
        buf = [np.empty((_CHUNK, self.b, x0.size)) for x0 in self.x0]
        first, formed = [0, 0], [0, 0]
        k = 0
        while k < n:
            for i in (0, 1):
                # starts[i][-1] = n, so no player runs past its last interval
                end = starts[i][j[i] + 1]
                if k == end:
                    j[i] += 1
                    end = starts[i][j[i] + 1]
                    mat[i] = self._eval_feedback(i, j[i], k, state)
                    zero[i] = not mat[i].any()
                if zero[i]:
                    prod[i] = None
                    continue
                # a chunk ends by the interval's end and by the noise window's,
                # so a new interval starts one
                if k >= formed[i]:
                    rows = self.db.rows(i, k, end, (state[i], *coupled[i]))[:_CHUNK]
                    first[i], formed[i] = k, k + len(rows)
                    _products(mat[i], rows, buf[i][:len(rows)])
                prod[i] = buf[i][k - first[i]]
            k1 = min(starts[0][j[0] + 1], starts[1][j[1] + 1]) if all(zero) else k + 1
            yield k, k1, *state
            for i in (0, 1):
                if prod[i] is not None:
                    state[i] = _step_batch(state[i], prod[i])
                    if coupled[i]:
                        coupled[i] = tuple(_step_batch(c, prod[i]) for c in coupled[i])
            k = k1
        _check_finite(*state, *coupled[0], *coupled[1])
        yield n, n + 1, *state


def _check_finite(*states: np.ndarray) -> None:
    """ValueError unless every state is finite."""
    if not all(np.isfinite(x).all() for x in states):
        raise ValueError("a state is not finite: the products u·dB of a control's "
                         "matrices and the increments overflow")


def _split(n_paths: int, block: int) -> list[tuple[int, int]]:
    return [(lo, min(lo + block, n_paths)) for lo in range(0, n_paths, block)]


def _block_ranges(n_paths: int, n_steps: int) -> list[tuple[int, int]]:
    """Blocks of as many whole paths as one noise window holds, or of one
    path, for a reduction that sums over a block's paths."""
    return _split(n_paths, max(1, min(n_paths, NOISE_CAP // max(1, n_steps))))


def _wide_ranges(n_paths: int) -> list[tuple[int, int]]:
    """Blocks of up to _WIDE paths, for a reduction that keeps one value per
    path."""
    return _split(n_paths, min(n_paths, _WIDE))


def _ensemble(p, q, u_ctrl: FeedbackControl, v_ctrl: FeedbackControl,
              noise: NoiseGrid, reduce: Callable[[_BlockSim], object], threads: int,
              per_path: bool = False) -> list:
    """reduce(sim) for each block of paths, in block order; the blocks are
    wide if reduce keeps one value per path, and never set by the thread count."""
    def work(lo_hi):
        # products that overflow make a state NaN, which steps() reports itself
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            return reduce(_BlockSim(p, q, u_ctrl, v_ctrl, noise, *lo_hi))

    ranges = (_wide_ranges(noise.n_paths) if per_path
              else _block_ranges(noise.n_paths, noise.n_steps))
    if threads <= 1 or len(ranges) <= 1:
        return [work(r) for r in ranges]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(work, ranges))


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

    def reduce(sim):
        acc = np.zeros(sim.b)
        for k0, k1, x, y in sim.steps():
            h = None
            for k in range(k0, min(k1, noise.n_steps)):
                # a frozen state gives the same running cost on every step
                if h is None or H.time_dependent:
                    h = H.on_paths(noise.t + noise.dt * k, x, y) * noise.dt
                acc += h
        if terminal is not None:
            acc += terminal(x, y)
        return acc

    j = np.concatenate(_ensemble(p, q, u_ctrl, v_ctrl, noise, reduce, threads,
                                 per_path=True))
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


def _report_block(x0, segments, n_steps: int) -> tuple:
    """simulation_report's reduction of one block: segments (k0, k1, X, Y)
    from start states x0 give player 1's sums and sums of squares at every
    grid time, the least coordinate, the worst sum error and whether no
    support grew.  The axis-0 sums are einsum's, which calls no BLAS and on
    two or more columns has the bits of numpy's sum; a one-coordinate state is
    1.0 on every path, so its sum is exact in any order."""
    loc_sum = np.zeros((n_steps + 1, x0[0].size))
    loc_sq = np.zeros_like(loc_sum)
    mn, serr, mono = np.inf, 0.0, True
    prev = [x > ETA for x in x0]
    for k0, k1, *state in segments:
        x = state[0]
        loc_sum[k0:k1] = np.einsum("bi->i", x)
        loc_sq[k0:k1] = np.einsum("bi->i", x * x)
        mn = min(mn, *(float(s.min()) for s in state))
        serr = max(serr, *(float(np.max(np.abs(_row_sums(s) - 1.0))) for s in state))
        sup = [s > ETA for s in state]
        mono = mono and not any(np.any(s & ~s0) for s, s0 in zip(sup, prev))
        prev = sup
    return loc_sum, loc_sq, mn, serr, mono


def _report(parts: list, p, times: np.ndarray, n: int) -> SimulationReport:
    """Combine the blocks' reductions of n paths started at p, in block order."""
    sums, sq_sums, mns, serrs, monos = zip(*parts)
    mean = sum(sums) / n
    var = np.maximum(sum(sq_sums) / n - mean**2, 0.0)
    se = np.sqrt(var / n)
    pv = np.asarray(p, dtype=float)
    return SimulationReport(times, np.abs(mean - pv), se, min(mns), max(serrs), all(monos), n)


def simulation_report(p, q, u_ctrl: FeedbackControl, v_ctrl: FeedbackControl,
                      noise: NoiseGrid, threads: int = 1) -> SimulationReport:
    """Run the ensemble keeping only martingale / invariance statistics."""
    parts = _ensemble(p, q, u_ctrl, v_ctrl, noise,
                      lambda sim: _report_block(sim.x0, sim.steps(), noise.n_steps), threads)
    return _report(parts, p, noise.times(), noise.n_paths)


@dataclass
class TrajectoryBundle:
    """Monte Carlo ensemble of coupled (X, Y) paths, with the report that
    simulation_report streams from the same run."""

    times: np.ndarray
    x_paths: np.ndarray     # (n_paths, N+1, nI)
    y_paths: np.ndarray     # (n_paths, N+1, nJ)
    report: SimulationReport

    @property
    def n_paths(self) -> int:
        return self.x_paths.shape[0]


def simulate(p, q, u_ctrl: FeedbackControl, v_ctrl: FeedbackControl,
             noise: NoiseGrid, threads: int = 1) -> TrajectoryBundle:
    """Simulate the coupled (X, Y) system and keep full paths, in one pass
    that also reduces them to simulation_report's report.

    Memory grows with n_paths * n_steps and is capped at MAX_BUNDLE_BYTES
    (BundleSizeError before anything is allocated); the other estimators
    keep only per-block reductions and suit large ensembles.
    """
    n, nsteps = noise.n_paths, noise.n_steps
    dims = noise.dim1, noise.dim2
    _check_kept(8 * n * (nsteps + 1) * sum(dims), f"{n} full paths of {nsteps} steps")
    paths = [np.empty((n, nsteps + 1, d)) for d in dims]

    def kept(sim):
        for seg in sim.steps():
            for path, x in zip(paths, seg[2:]):
                path[sim.lo:sim.hi, seg[0]:seg[1]] = x[:, None]
            yield seg

    parts = _ensemble(p, q, u_ctrl, v_ctrl, noise,
                      lambda sim: _report_block(sim.x0, kept(sim), nsteps), threads)
    times = noise.times()
    return TrajectoryBundle(times, *paths, _report(parts, p, times, n))


def terminal_states(p, q, u_ctrl: FeedbackControl, v_ctrl: FeedbackControl,
                    noise: NoiseGrid, threads: int = 1) -> np.ndarray:
    """Player 1's terminal states, (n_paths, nI), with simulate's bits from the
    same blocks; BundleSizeError first if they pass MAX_BUNDLE_BYTES."""
    _check_kept(8 * noise.n_paths * noise.dim1, f"{noise.n_paths} terminal states")

    def reduce(sim):
        for *_, x, _y in sim.steps():
            pass
        return x

    return np.concatenate(_ensemble(p, q, u_ctrl, v_ctrl, noise, reduce, threads))


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
        sim.coupled[0] = (np.tile(pbv, (sim.b, 1)),)
        loc_s = np.zeros(nsteps + 1)
        loc_q = np.zeros(nsteps + 1)
        for k0, k1, x, _y in sim.steps():
            d = np.linalg.norm(x - sim.coupled[0][0], axis=1)
            loc_s[k0:k1] = d.sum()
            loc_q[k0:k1] = (d * d).sum()
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
