"""Running-cost construction: matrix game values, payoff tensors, and the
convex/concave envelope operators on simplex grids.

The running cost H(t,p,q) is the mixed value of the finite zero-sum game whose
entries are the bilinear aggregation sum_ij p_i q_j f_ij(t,k,l) over the action
grids.  Every matrix game here has one convention: the row player, the k axis,
maximizes, and the column player, the l axis, minimizes.  The shipped
configs/payoff_tent.json has one k action and two l actions, f_0 = (1, 0) and
f_1 = (0, 1), so its game is the row (p_1, p_2) and H = min(p_1, p_2), the tent.
Finite action grids need not satisfy a pure-strategy minimax equality, so the
mixed value (which always exists) is used as the discretization.  A game with
a pure saddle point or a 2x2 kernel is solved in closed form; any other costs
one HiGHS LP, whose duals give the column player's strategy.  Both
answers pass one certificate, certificate_gap <= GAME_VALUE_TOL.  Each payoff
tensor keeps a bounded memo from a game's bytes to its value, so a game that
eval_H meets again (the solver's two alternation orders and its residuals
evaluate the same nodes) is solved once per tensor.

Running costs are HamiltonianFields with one elementwise evaluation fn(t, P, Q)
over broadcasting belief arrays; on_grid (node lists, for the solver and the
checks) and on_paths (coupled paths, for the Monte Carlo estimators) are its
two shapes.

Envelopes: vex_p(values, p_grid) and cav_q(values, q_grid) take and return
(n_p, n_q) arrays.  vex_p takes the convex envelope in the p slot of the node
values for each fixed q node, cav_q the concave envelope in q.  Both are exact
on every grid: on two coordinates the lower hull of each slice's samples (a
monotone chain per slice, lower_hull_1d, which returns the hull's vertices,
then one chord fill per call for all slices), on more the lower hull of the
lifted points (x, V), x the n-1 lattice coordinates.  Grids of any dimension
carry the lattice difference primitives (neighbour triples, second
differences, edge slopes) that the solver's residual and regularity checks
use, and the Kuhn cell lookup behind every interpolation.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import lru_cache, reduce
from itertools import chain
from typing import Callable

import numpy as np
from scipy.optimize import linprog
from scipy.spatial import ConvexHull

GAME_VALUE_TOL = 1e-9


# ---------------------------------------------------------------------------
# matrix games
# ---------------------------------------------------------------------------

def _game_matrix(m) -> np.ndarray:
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.size == 0:
        raise ValueError("payoff matrix must be 2-D and nonempty")
    if not np.all(np.isfinite(m)):
        raise ValueError("payoff matrix has non-finite entries")
    return m


def certificate_gap(m: np.ndarray, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """max_i (M y)_i - min_j (x^T M)_j for a row strategy x and a column
    strategy y (rows maximize); stacked pairs x (k, nr), y (k, nc) give k gaps.

    The game's value lies between the two terms, so a gap at most
    GAME_VALUE_TOL certifies both strategies as optimal to that tolerance.
    """
    return (np.max(np.einsum("...j,ij->...i", y, m), axis=-1)
            - np.min(np.einsum("...i,ij->...j", x, m), axis=-1))


def matrix_game_value(m) -> tuple[float, np.ndarray, np.ndarray]:
    """Value and optimal mixed strategies of a finite zero-sum matrix game.

    Convention, the running cost's: the row player maximizes, the column
    player minimizes, i.e. value = max_x min_j (x^T M)_j = min_y max_i (M y)_i.
    One linear program is solved, the row player's; by LP duality its
    constraint duals are the column player's optimal strategy.  The pair is
    certified: its certificate_gap must not exceed GAME_VALUE_TOL.
    """
    m = _game_matrix(m)
    nr, nc = m.shape

    # row player: min w  s.t.  -M^T x <= w, sum x = 1, x >= 0; the value is -w
    c = np.zeros(nr + 1)
    c[-1] = 1.0
    a_ub = np.hstack([-m.T, -np.ones((nc, 1))])
    a_eq = np.hstack([np.ones((1, nr)), np.zeros((1, 1))])
    bounds = [(0.0, None)] * nr + [(None, None)]
    res = linprog(c, A_ub=a_ub, b_ub=np.zeros(nc), A_eq=a_eq, b_eq=[1.0],
                  bounds=bounds, method="highs")
    if not res.success:
        raise RuntimeError(f"matrix game LP failed: {res.message}")

    x = np.maximum(res.x[:-1], 0.0)
    y = np.maximum(-res.ineqlin.marginals, 0.0)
    x, y = x / x.sum(), y / y.sum()
    gap = float(certificate_gap(m, x, y))
    if not gap <= GAME_VALUE_TOL:  # also true on NaN
        raise RuntimeError(f"certificate gap {gap:.2e} exceeds {GAME_VALUE_TOL}")
    return -float(res.x[-1]), x, y


# The kernel search stacks one strategy pair of nr + nc entries per candidate,
# C(nr, 2) * C(nc, 2) of them at most.  A game that would stack more than
# KERNEL_WORK entries (8 MiB) goes straight to the LP, which bounds the search's
# memory on a large action grid; two actions on a side stay under it to 2 x 127.
KERNEL_WORK = 1 << 20


@lru_cache(maxsize=None)
def _pairs(n: int) -> tuple[np.ndarray, np.ndarray]:
    """np.triu_indices(n, 1), built once per action count and read-only."""
    pairs = np.triu_indices(n, 1)
    for a in pairs:
        a.setflags(write=False)
    return pairs


def small_game_value(m: np.ndarray) -> tuple[float, np.ndarray, np.ndarray] | None:
    """Closed-form value and strategies of a game (rows maximize, as in
    matrix_game_value) that has a pure saddle point or a certified 2x2 kernel
    (Shapley & Snow 1950); None when it has neither.

    A pure saddle point is an exact tie of max_i min_j M and min_j max_i M.
    Otherwise every submatrix [[a, b], [c, d]] on a pair of rows and a pair of
    columns is a candidate, with the equalising mixes x = (d - c, a - b) / D,
    y = (d - b, a - c) / D and value (ad - bc) / D, where D = a - b - c + d.
    The value is evaluated as the row mix's payoff on the first column,
    c + x_1 (a - c), which avoids the cancellation in ad - bc.  A candidate is
    kept only if both mixes lie in [0, 1] and, embedded in the full game, pass
    certificate_gap <= GAME_VALUE_TOL; the first in row-major order wins.
    Every game with one or two actions on a side and within KERNEL_WORK is
    solved here; a larger game with no pure saddle point returns None
    unsearched.
    """
    nr, nc = m.shape
    row_min, col_max = m.min(axis=1), m.max(axis=0)
    i, j = int(np.argmax(row_min)), int(np.argmin(col_max))
    if row_min[i] == col_max[j]:
        return float(m[i, j]), np.eye(nr)[i], np.eye(nc)[j]
    rows, cols = _pairs(nr), _pairs(nc)
    if rows[0].size * cols[0].size * (nr + nc) > KERNEL_WORK:
        return None
    r1, r2 = (r[:, None] for r in rows)
    c1, c2 = cols
    a, b, c, d = m[r1, c1], m[r1, c2], m[r2, c1], m[r2, c2]
    with np.errstate(divide="ignore", invalid="ignore"):
        s = (d - c) / ((d - c) + (a - b))
        t = (d - b) / ((d - b) + (a - c))
    # the comparisons are false on the NaN of a singular candidate
    k = np.flatnonzero((s >= 0.0) & (s <= 1.0) & (t >= 0.0) & (t <= 1.0))
    if k.size == 0:
        return None
    s, t = s.ravel()[k], t.ravel()[k]
    ri, ci = np.divmod(k, cols[0].size)
    x, y, at = np.zeros((k.size, nr)), np.zeros((k.size, nc)), np.arange(k.size)
    x[at, rows[0][ri]], x[at, rows[1][ri]] = s, 1.0 - s
    y[at, cols[0][ci]], y[at, cols[1][ci]] = t, 1.0 - t
    ok = np.flatnonzero(certificate_gap(m, x, y) <= GAME_VALUE_TOL)
    if ok.size == 0:
        return None
    w = ok[0]
    a, c = a.ravel()[k[w]], c.ravel()[k[w]]
    return float(c + s[w] * (a - c)), x[w], y[w]


# ---------------------------------------------------------------------------
# payoff tensors
# ---------------------------------------------------------------------------

# A tensor's memo of solved games holds at most GAME_MEMO_BYTES.  An entry
# counts its key's bytes plus MEMO_ENTRY_BYTES for the rest: the key's bytes
# header, the float value and the entry's share of the dict's table, which
# tracemalloc measured at up to 155 bytes in all (at the peak of a table
# resize); the margin covers allocator rounding.
GAME_MEMO_BYTES = 16 << 20
MEMO_ENTRY_BYTES = 192


@dataclass(frozen=True)
class PayoffTensor:
    """Sampled payoff f_ij(t,k,l) on finite index and action grids.

    values has shape (n_times, nI, nJ, nK, nL) with finite entries in [0,1];
    time_samples is finite and strictly increasing, but need not lie in
    [0, horizon]: at_time holds the end values beyond the samples.

    _games is eval_H's memo, game.tobytes() -> value.  All of one tensor's
    games have the shape (nK, nL), so the bytes are the whole input of the
    solve and a hit returns the bits a new solve would.  The memo is bounded
    by GAME_MEMO_BYTES and cleared when a store passes it, so at worst it
    holds 74,898 2x2 games, 63,550 3x3 games or 7,543 games of 2 x 127 (the
    widest that KERNEL_WORK searches); a game whose entry alone passes the
    bound (over two million action pairs) is cleared as soon as it is
    stored.  The memo is left out of eq and repr, and dies with its tensor.
    """

    values: np.ndarray
    time_samples: np.ndarray
    _games: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        t = np.asarray(self.time_samples, dtype=float)
        if v.ndim != 5:
            raise ValueError("payoff tensor must have shape (n_t, nI, nJ, nK, nL)")
        if min(v.shape) == 0:
            raise ValueError("payoff tensor has an empty axis")
        if t.ndim != 1 or t.size != v.shape[0]:
            raise ValueError("time_samples length must match the leading axis")
        if not np.all(np.isfinite(t)) or np.any(np.diff(t) <= 0):
            raise ValueError("time_samples must be finite and strictly increasing")
        if not np.all((v >= 0.0) & (v <= 1.0)):  # also false on NaN
            raise ValueError("payoff entries must be finite and lie in [0, 1]")
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "time_samples", t)

    @property
    def dim_p(self) -> int:
        return self.values.shape[1]

    @property
    def dim_q(self) -> int:
        return self.values.shape[2]

    def at_time(self, t: float) -> np.ndarray:
        """Linear interpolation of the tensor between adjacent time samples."""
        ts = self.time_samples
        if ts.size == 1 or t <= ts[0]:
            return self.values[0]
        if t >= ts[-1]:
            return self.values[-1]
        hi = int(np.searchsorted(ts, t, side="right"))
        lo = hi - 1
        w = (t - ts[lo]) / (ts[hi] - ts[lo])
        return (1.0 - w) * self.values[lo] + w * self.values[hi]

    @staticmethod
    def from_dict(d: dict) -> "PayoffTensor":
        return PayoffTensor(np.asarray(d["values"], dtype=float),
                            np.asarray(d["time_samples"], dtype=float))


def eval_H(f: PayoffTensor, t: float, p, q) -> float:
    """Mixed game value of the action matrix aggregated by beliefs (p, q),
    from f's memo when f has solved the same game before.

    The memo takes only dict get, set and clear, and needs no lock: two
    threads that miss on one game store the same bits, and every store is
    followed by its own size check, so the memo is within its bound
    whenever no thread is inside eval_H.
    """
    pv = np.asarray(p, dtype=float)
    qv = np.asarray(q, dtype=float)
    if pv.size != f.dim_p or qv.size != f.dim_q:
        raise ValueError(
            f"dimension mismatch: tensor is {f.dim_p}x{f.dim_q}, "
            f"point is {pv.size}x{qv.size}"
        )
    ft = f.at_time(t)
    game = np.einsum("i,j,ijkl->kl", pv, qv, ft)
    key = game.tobytes()
    value = f._games.get(key)
    if value is None:
        value = (small_game_value(game) or matrix_game_value(game))[0]
        f._games[key] = value
        if len(f._games) * (len(key) + MEMO_ENTRY_BYTES) > GAME_MEMO_BYTES:
            f._games.clear()
    return value


# ---------------------------------------------------------------------------
# simplex grids
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class SimplexGrid:
    """Regular lattice on a simplex with any number n of coordinates.

    resolution is the number of segments per edge; nodes are all lattice
    points with coordinates in {0, 1/res, ..., 1} summing to 1.  The grid
    carries the lattice differences along the edge directions e_a - e_b:
    neighbour triples, second differences and edge slopes.
    """

    n: int
    resolution: int
    nodes: np.ndarray = field(repr=False)
    _index: np.ndarray | None = field(repr=False, default=None)  # node id by first n-1 lattice coords
    _triples: dict = field(repr=False, default_factory=dict)
    CELL_BYTES = 17  # per cell of _index: its int64, and build's int64 sum and bool mask

    @staticmethod
    def build(n: int, resolution: int) -> "SimplexGrid":
        if n == 1:
            return SimplexGrid(1, 1, np.array([[1.0]]), None)
        if resolution < 1:
            raise ValueError("resolution must be >= 1")
        m = resolution
        # the first n-1 lattice coordinates, row-major, whose sum is at most m
        lattice = np.nonzero(reduce(np.add.outer, [np.arange(m + 1)] * (n - 1)) <= m)
        index = np.full((m + 1,) * (n - 1), -1)
        index[lattice] = np.arange(lattice[0].size)
        x = np.column_stack(lattice) / m
        last = 1.0 - x[:, 0] if n == 2 else (m - sum(lattice)) / m
        return SimplexGrid(n, m, np.column_stack([x, last]), index)

    @property
    def n_nodes(self) -> int:
        return self.nodes.shape[0]

    def directions(self) -> list[tuple[int, int]]:
        """Edge directions e_a - e_b (a < b) available on this grid."""
        return [(a, b) for a in range(self.n) for b in range(a + 1, self.n)]

    def _shift(self, direction: tuple[int, int], sign: int) -> np.ndarray:
        """Index of every node + sign * (e_a - e_b)/resolution, -1 off the grid."""
        if direction not in self.directions():
            raise ValueError(f"unknown direction {direction} for a {self.n}-coordinate grid")
        step = np.zeros(self.n, dtype=int)
        step[list(direction)] = sign, -sign
        to = np.rint(self.nodes * self.resolution).astype(int) + step
        inside = np.all(to >= 0, axis=1)
        out = np.full(self.n_nodes, -1)
        out[inside] = self._index[tuple(to[inside, :-1].T)]
        return out

    def neighbor_triples(self, direction: tuple[int, int]) -> np.ndarray:
        """(center, plus, minus) node indices with both neighbors in-grid,
        where plus = center + (e_a - e_b)/resolution; centers ascend."""
        if direction not in self._triples:
            plus, minus = self._shift(direction, 1), self._shift(direction, -1)
            c = np.flatnonzero((plus >= 0) & (minus >= 0))
            self._triples[direction] = np.column_stack([c, plus[c], minus[c]])
        return self._triples[direction]

    def second_differences(self, values: np.ndarray) -> np.ndarray:
        """Second differences of values (grid nodes on axis 0) along each edge
        direction, scaled to unit-length directional second derivatives.

        Shape (n_directions, *values.shape); NaN where a node lacks a neighbor.
        """
        out = np.full((len(self.directions()), *values.shape), np.nan)
        h2 = self.step_length() ** 2
        for k, d in enumerate(self.directions()):
            c, plus, minus = self.neighbor_triples(d).T
            out[k, c] = (values[plus] - 2.0 * values[c] + values[minus]) / h2
        return out

    def max_slope(self, values: np.ndarray, axis: int = 0) -> float:
        """Largest |difference| / step over every lattice edge, with the grid
        nodes on the given axis of values; 0 on a grid without edges."""
        slope = 0.0
        for d in self.directions():
            head = self._shift(d, 1)
            tail = np.flatnonzero(head >= 0)
            diff = np.take(values, head[tail], axis) - np.take(values, tail, axis)
            slope = max(slope, float(np.max(np.abs(diff)) / self.step_length()))
        return slope

    def step_length(self) -> float:
        """Euclidean length of one lattice step along an edge direction."""
        return np.sqrt(2.0) / self.resolution

    def cells(self, pts) -> tuple[np.ndarray, np.ndarray]:
        """Lattice cell of each point as (b, n) node indices and (b, n)
        barycentric weights, coordinates clipped to [0, 1]: the Kuhn simplex
        (Freudenthal 1942) in z_k = m (p_1 + ... + p_k), whose vertices step
        up from floor(z) one coordinate at a time, in descending order of z's
        fractional parts, ties to the later coordinate so that each is a node."""
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        if self.n == 1:
            return np.zeros((pts.shape[0], 1), dtype=int), np.ones((pts.shape[0], 1))
        m = self.resolution
        z = np.cumsum(np.clip(pts[:, :self.n - 1], 0.0, 1.0) * m, axis=1)
        base = np.minimum(np.floor(z), m - 1).astype(int)
        frac = z - base
        # the gaps between 1, the fractional parts in descending order, and 0
        weights = np.diff(np.sort(-frac, axis=1), axis=1, prepend=-1.0, append=0.0)
        order = np.argsort(frac, axis=1, kind="stable")[:, ::-1]
        steps = np.argsort(order, axis=1)[:, None] < np.arange(self.n)[:, None]
        vertices = np.diff(base[:, None] + steps, axis=2, prepend=0)
        return self._index[tuple(np.moveaxis(vertices, 2, 0))], weights


# ---------------------------------------------------------------------------
# envelopes
# ---------------------------------------------------------------------------

def lower_hull_1d(y: np.ndarray) -> list[int]:
    """Vertices of the largest convex minorant of uniformly spaced samples,
    ascending node indices from 0 to y.size - 1: a monotone chain on Python
    floats whose top two vertices (a, b) live in locals and the rest in a
    list.  It runs once per slice; the chords between its vertices are
    filled once per envelope call, for all slices at once (_lower_envelopes).

    b is popped unless slope(a, b) <= slope(b, i), so a NaN comparison pops."""
    m = y.size
    if m <= 2:
        return list(range(m))
    v = y.tolist()
    below = []
    a, va, b, vb = 0, v[0], 1, v[1]
    for i in range(2, m):
        vi = v[i]
        while not (vb - va) * (i - b) <= (vi - vb) * (b - a):
            if not below:
                break           # the stack is [a]: i takes b's place
            b, vb = a, va
            a = below.pop()
            va = v[a]
        else:
            below.append(a)
            a, va = b, vb
        b, vb = i, vi
    below += (a, b)
    return below


def _lower_envelopes(values: np.ndarray) -> np.ndarray:
    """Largest convex minorant of each column of an (m, k) array: one
    lower_hull_1d chain per column, then one chord fill for all columns, in
    which the two ends of a column keep their samples.

    Column j's vertices are numbered j * m + their local index, so one sorted
    array holds every column's stack and the offsets cancel in each chord's
    differences.  The chord of a node runs between the stack entries around
    it; only a column's last node can look past its column's stack, so its
    index is clamped to that column's last vertex."""
    m, k = values.shape
    cols = np.ascontiguousarray(values.T)
    stacks = [lower_hull_1d(col) for col in cols]
    if m <= 2:  # every node is an end
        return values.copy()
    sizes = np.fromiter(map(len, stacks), np.intp, k)
    s = np.fromiter(chain.from_iterable(stacks), np.intp, sizes.sum())
    s += np.repeat(np.arange(0, k * m, m), sizes)
    x, y = np.arange(k * m), cols.ravel()
    end = np.searchsorted(s, x, "right")
    end[m - 1::m] = np.cumsum(sizes) - 1
    ia, ib = s[end - 1], s[end]
    t = (x - ia) / (ib - ia)
    out = (1.0 - t) * y[ia]
    out += t * y[ib]
    out = out.reshape(k, m)
    out[:, 0], out[:, -1] = cols[:, 0], cols[:, -1]
    return np.minimum(out, cols, out=out).T


def _grid_vex(values: np.ndarray, grid: SimplexGrid) -> np.ndarray:
    """Convex envelope of one slice (1-D array over the nodes of a grid of
    three or more coordinates): the lower hull of the lifted points (x,
    value), x the n-1 integer lattice coordinates; an apex above the centroid
    keeps affine data full-dimensional.  Lower-hull vertices keep their
    values, other nodes take the max of the lower-facet planes, capped by
    their own values."""
    m = grid.resolution
    x = np.vstack([np.rint(grid.nodes[:, :-1] * m), np.full(grid.n - 1, m / grid.n)])
    apex = np.max(values) + np.ptp(values) + 1.0
    hull = ConvexHull(np.column_stack([x, np.append(values, apex)]))
    # on integer x the vertical facets over the simplex's faces get a value
    # normal of exactly 0, so this keeps only the lower facets
    lower = hull.equations[:, -2] < 0.0
    eq = hull.equations[lower]
    out = values.copy()
    rest = np.setdiff1d(np.arange(values.size), hull.simplices[lower])
    step = max(1, (1 << 18) // eq.shape[0])  # 2 MB blocks of plane values
    for s in range(0, rest.size, step):
        idx = rest[s:s + step]
        planes = -(x[idx] @ eq[:, :-2].T + eq[:, -1]) / eq[:, -2]
        out[idx] = np.minimum(np.max(planes, axis=1), values[idx])
    return out


def _vex_columns(values: np.ndarray, grid: SimplexGrid) -> np.ndarray:
    if values.shape[0] != grid.n_nodes:
        raise ValueError(f"values have {values.shape[0]} rows, the grid {grid.n_nodes} nodes")
    if grid.n == 1:  # one node: each slice is its own envelope
        return values.copy()
    if grid.n == 2:
        return _lower_envelopes(values)
    out = np.empty_like(values)
    for j in range(values.shape[1]):
        out[:, j] = _grid_vex(values[:, j], grid)
    return out


def vex_p(values: np.ndarray, p_grid: SimplexGrid) -> np.ndarray:
    """Convex envelope in p of an (n_p, n_q) array, slice by slice over q
    nodes."""
    return _vex_columns(np.asarray(values, dtype=float), p_grid)


def cav_q(values: np.ndarray, q_grid: SimplexGrid) -> np.ndarray:
    """Concave envelope in q of an (n_p, n_q) array, slice by slice over p
    nodes."""
    return -_vex_columns(-np.asarray(values, dtype=float).T, q_grid).T


# ---------------------------------------------------------------------------
# Hamiltonian fields
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HamiltonianField:
    """Bounded Lipschitz running cost, evaluated elementwise.

    fn(t, P, Q) takes belief arrays P (..., dim_p) and Q (..., dim_q) whose
    leading axes broadcast, and returns H(t, p, q) at every broadcast point.
    on_grid is its outer form over node lists, on_paths its pairwise form
    along coupled paths.  bound dominates |H|; lipschitz is the recorded
    (measured or declared) Lipschitz constant in (t, p, q).
    """

    name: str
    fn: Callable[[float, np.ndarray, np.ndarray], np.ndarray]
    dim_p: int
    dim_q: int
    bound: float
    lipschitz: float
    time_dependent: bool = False

    def on_grid(self, t: float, P: np.ndarray, Q: np.ndarray) -> np.ndarray:
        """(a, b) array of H(t, P[i], Q[j]) over node arrays P (a, dim_p), Q (b, dim_q)."""
        return self.fn(t, P[:, None], Q[None])

    def on_paths(self, t: float, P: np.ndarray, Q: np.ndarray) -> np.ndarray:
        """H(t, P[i], Q[i]) along coupled paths P (b, dim_p), Q (b, dim_q)."""
        return self.fn(t, P, Q)

    def __call__(self, t: float, p, q=None) -> float:
        if q is None:
            if self.dim_q != 1:
                raise ValueError("q is required when the field has a nontrivial q slot")
            q = [1.0]
        return float(self.fn(t, np.asarray(p, dtype=float), np.asarray(q, dtype=float)))


def _points(P: np.ndarray, Q: np.ndarray) -> tuple[int, ...]:
    """Broadcast shape of the leading (point) axes of P and Q."""
    return np.broadcast_shapes(P.shape[:-1], Q.shape[:-1])


ANALYTIC_PARAMS = {
    "zero": ("dim_p", "dim_q"),
    "constant": ("level", "dim_p", "dim_q"),
    "tent": ("center",),
    "quad_convex": ("center",),
    "double_well": ("left", "right"),
    "bilinear": (),
    "saddle_mix": ("scale",),
}


def analytic_field(name: str, **params) -> HamiltonianField:
    """Closed-form running costs used by golden tests and the CLI.

    Names and parameters are ANALYTIC_PARAMS; any other parameter raises.
    zero and constant(level) take their dimensions dim_p and dim_q, positive
    integers (2 and 1 by default).  The
    one-sided costs (tent, quad_convex, double_well) carry a factor q_1, which
    is 1 on the one-coordinate simplex and broadcasts the p-values over Q's
    points.
    """
    if name not in ANALYTIC_PARAMS:
        raise ValueError(f"unknown analytic hamiltonian {name!r}")
    unknown = sorted(set(params) - set(ANALYTIC_PARAMS[name]))
    if unknown:
        raise ValueError(f"{name} takes no parameter {', '.join(map(repr, unknown))} "
                         f"(its parameters: {', '.join(ANALYTIC_PARAMS[name]) or 'none'})")
    dims = params.get("dim_p", 2), params.get("dim_q", 1)
    if not all(isinstance(d, (int, np.integer)) and not isinstance(d, bool) and d >= 1
               for d in dims):
        raise ValueError(f"dim_p and dim_q must be positive integers, got {dims}")
    if name == "zero":
        return HamiltonianField("zero", lambda t, P, Q: np.zeros(_points(P, Q)), *dims, 0.0, 0.0)
    if name == "constant":
        c = float(params.get("level", 0.5))
        return HamiltonianField("constant", lambda t, P, Q: np.full(_points(P, Q), c),
                                *dims, abs(c), 0.0)
    if name == "tent":
        c = float(params.get("center", 0.5))
        def fn(t, P, Q, c=c):
            return (0.5 - np.abs(P[..., 0] - c)) * Q[..., 0]
        return HamiltonianField("tent", fn, 2, 1, 0.5, 1.0)
    if name == "quad_convex":
        c = float(params.get("center", 0.4))
        def fn(t, P, Q, c=c):
            return (P[..., 0] - c) ** 2 * Q[..., 0]
        bound = max(c, 1 - c) ** 2
        return HamiltonianField("quad_convex", fn, 2, 1, bound, 2 * max(c, 1 - c))
    if name == "double_well":
        lo = float(params.get("left", 0.2))
        hi = float(params.get("right", 0.8))
        def fn(t, P, Q, lo=lo, hi=hi):
            x = P[..., 0]
            return 16.0 * (x - lo) ** 2 * (x - hi) ** 2 * Q[..., 0]
        xs = np.linspace(0, 1, 2001)
        w = 16.0 * (xs - lo) ** 2 * (xs - hi) ** 2
        lip = float(np.max(np.abs(np.diff(w))) / (xs[1] - xs[0]))
        return HamiltonianField("double_well", fn, 2, 1, float(np.max(np.abs(w))), lip)
    if name == "bilinear":
        return HamiltonianField("bilinear", lambda t, P, Q: P[..., 0] * Q[..., 0],
                                2, 2, 1.0, 1.0)
    # saddle_mix, the one name left
    s = float(params.get("scale", 0.5))
    def fn(t, P, Q, s=s):
        return s * (np.cos(np.pi * P[..., 0]) * np.cos(np.pi * Q[..., 0]))
    return HamiltonianField("saddle_mix", fn, 2, 2, s, s * np.pi)


def tensor_field(f: PayoffTensor, horizon: float = 1.0) -> HamiltonianField:
    """Running cost backed by a payoff tensor: one eval_H per broadcast point,
    in row-major order; bound and Lipschitz constant measured."""
    def fn(t, P, Q):
        shape = _points(P, Q)
        ps = np.broadcast_to(P, shape + P.shape[-1:]).reshape(-1, P.shape[-1])
        qs = np.broadcast_to(Q, shape + Q.shape[-1:]).reshape(-1, Q.shape[-1])
        return np.array([eval_H(f, t, p, q) for p, q in zip(ps, qs)]).reshape(shape)

    out = HamiltonianField("tensor", fn, f.dim_p, f.dim_q, float(np.max(np.abs(f.values))),
                           0.0, time_dependent=f.time_samples.size > 1)
    if max(f.dim_p, f.dim_q) > 3:
        return out
    pg, qg = SimplexGrid.build(f.dim_p, 8), SimplexGrid.build(f.dim_q, 8)
    ts = np.unique(np.clip(f.time_samples, 0.0, horizon))
    lip = 0.0
    for t in ts[:: max(1, ts.size // 4)]:
        h = out.on_grid(float(t), pg.nodes, qg.nodes)
        lip = max(lip, pg.max_slope(h, axis=0), qg.max_slope(h, axis=1))
    return replace(out, lipschitz=lip)
