"""Backward value iteration for the obstacle equation with convexity
constraints, via alternating convex/concave envelope steps.

One backward step is V[k] = Vex_p(Cav_q(V[k+1] + dt * H(t_k))), the discrete
counterpart of the three branches of the equation: the time-H term, the
"convex in p" constraint (smallest tangent eigenvalue of D^2_p V nonnegative)
and the "concave in q" constraint.  The alternation order is a tag; both
orders are available and their gap is a consistency diagnostic.

Each iterate is convex in p and concave in q simultaneously (an envelope in
one slot preserves the shape in the other on a product grid), which makes the
scheme monotone, bounded by C*(T - t), and nonexpansive in time.
"""

from __future__ import annotations

import contextlib
import glob
import os
import uuid
from dataclasses import dataclass

import numpy as np

from splitgame.hamiltonian import HamiltonianField, SimplexGrid, cav_q, vex_p
from splitgame.simplex import coupling_bound_constant, rel_eigen_max, rel_eigen_min, tangent_basis

MAX_DT = 1.0 / 16
MIN_NODES = 11

BRANCH_TIME = 0
BRANCH_CONVEX = 1   # the lambda_min (convexity in p) constraint binds
BRANCH_CONCAVE = 2  # the lambda_max (concavity in q) constraint binds


@dataclass
class ValueGrid:
    """Value function samples on time x p-grid x q-grid."""

    times: np.ndarray
    p_grid: SimplexGrid
    q_grid: SimplexGrid
    values: np.ndarray      # (N+1, n_p, n_q)
    order: str              # "vex_cav" (Vex o Cav) or "cav_vex"
    bound: float            # bound C of the running cost used to build this

    @property
    def dt(self) -> float:
        return float(self.times[1] - self.times[0])

    def slice_at(self, t: float) -> np.ndarray:
        """Values at a grid time (linear interpolation between time slices)."""
        ts = self.times
        if t <= ts[0]:
            return self.values[0]
        if t >= ts[-1]:
            return self.values[-1]
        pos = (t - ts[0]) / self.dt
        k = int(pos)
        w = pos - k
        if min(w, 1.0 - w) < 1e-12:  # a grid time, reached from either side
            return self.values[k + (w > 0.5)]
        return (1.0 - w) * self.values[k] + w * self.values[k + 1]

    def value_at(self, t: float, p, q=None) -> float:
        return float(self.values_at_states(t, p, [1.0] if q is None else q)[0])

    def values_at_states(self, t: float, P, Q) -> np.ndarray:
        """Batched evaluation along coupled path states: the tensor product of
        the interpolations over each state's p-cell and q-cell."""
        pn, pw = self.p_grid.cells(P)
        qn, qw = self.q_grid.cells(Q)
        return np.einsum("bi,bj,bij->b", pw, qw, self.slice_at(t)[pn[:, :, None], qn[:, None, :]])


def solve(H: HamiltonianField, p_grid: SimplexGrid, q_grid: SimplexGrid,
          horizon: float, n_steps: int, order: str = "vex_cav") -> ValueGrid:
    """Run the backward envelope scheme from the zero terminal condition."""
    if order not in ("vex_cav", "cav_vex"):
        raise ValueError("order must be 'vex_cav' or 'cav_vex'")
    dt = horizon / n_steps
    if dt > MAX_DT + 1e-12:
        raise ValueError(f"time step {dt} exceeds {MAX_DT}")
    for g in (p_grid, q_grid):
        if g.n > 1 and g.resolution + 1 < MIN_NODES:
            raise ValueError(f"need at least {MIN_NODES} nodes per 1-D slice")
    if p_grid.nodes.shape[1] != H.dim_p or q_grid.nodes.shape[1] != H.dim_q:
        raise ValueError("grid dimensions do not match the running cost")
    times = dt * np.arange(n_steps + 1)
    vals = np.zeros((n_steps + 1, p_grid.n_nodes, q_grid.n_nodes))
    frozen_h = None if H.time_dependent else H.on_grid(0.0, p_grid.nodes, q_grid.nodes)
    for k in range(n_steps - 1, -1, -1):
        hk = frozen_h if frozen_h is not None else H.on_grid(times[k], p_grid.nodes, q_grid.nodes)
        g = vals[k + 1] + dt * hk
        if order == "vex_cav":
            vals[k] = vex_p(cav_q(g, q_grid), p_grid)
        else:
            vals[k] = cav_q(vex_p(g, p_grid), q_grid)
    return ValueGrid(times, p_grid, q_grid, vals, order, H.bound)


def order_gap(H: HamiltonianField, p_grid: SimplexGrid, q_grid: SimplexGrid,
              horizon: float, n_steps: int) -> tuple[ValueGrid, ValueGrid, float]:
    """Both alternation orders and their maximum pointwise gap."""
    a = solve(H, p_grid, q_grid, horizon, n_steps, "vex_cav")
    b = solve(H, p_grid, q_grid, horizon, n_steps, "cav_vex")
    return a, b, float(np.max(np.abs(a.values - b.values)))


# ---------------------------------------------------------------------------
# discrete second derivatives on simplex grids
# ---------------------------------------------------------------------------

def _curvature(values: np.ndarray, grid: SimplexGrid, nodes: np.ndarray,
               want_max: bool) -> np.ndarray:
    """Smallest (largest if want_max) tangent eigenvalue of the discrete second
    derivative at interior nodes; values has the grid nodes on axis 0, the
    result shape (nodes.size, *values.shape[1:]).

    A single-coordinate grid has no tangent space (+inf / -inf); a segment
    has one direction, whose second difference is the curvature.  On n >= 3
    coordinates every interior node has full support, so one tangent basis and
    one least-squares fit serve all nodes: the C(n, 2) edge second differences
    fix the n(n-1)/2 entries of the reduced Hessian, as distances fix a
    centred Gram matrix.  One stacked eigenvalue call holds one support for
    all nodes and columns, so nodes that do not all share one raise ValueError.
    """
    shape = (nodes.size, *values.shape[1:])
    if grid.n == 1:
        return np.full(shape, -np.inf if want_max else np.inf)
    second = grid.second_differences(values)[:, nodes]
    if grid.n == 2:
        return second[0]
    if nodes.size == 0:
        return np.empty(shape)
    supports = grid.nodes[nodes] > 0.0
    if np.any(supports != supports[0]):
        raise ValueError("curvature nodes do not all share one support")
    b = np.column_stack(tangent_basis(range(grid.n), grid.n))
    upper = np.triu_indices(grid.n - 1)
    head, tail = np.array(grid.directions()).T
    # a unit edge direction's tangent coordinates c give its row c_a c_b, doubled off the diagonal
    c = np.array([b.T @ u for u in (np.eye(grid.n)[head] - np.eye(grid.n)[tail]) / np.sqrt(2.0)])
    rows = c[:, upper[0]] * c[:, upper[1]] * np.where(upper[0] == upper[1], 1.0, 2.0)
    fit = np.linalg.lstsq(rows, second.reshape(len(rows), -1), rcond=None)[0]
    reduced = np.empty((fit.shape[1], grid.n - 1, grid.n - 1))
    reduced[:, upper[0], upper[1]] = reduced[:, upper[1], upper[0]] = fit.T
    full = b @ reduced @ b.T
    full = 0.5 * (full + np.swapaxes(full, -1, -2))
    rel_eigen = rel_eigen_max if want_max else rel_eigen_min
    return rel_eigen(grid.nodes[nodes[0]], full).reshape(shape)


def _interior_nodes(grid: SimplexGrid) -> np.ndarray:
    """Nodes off every face (all of a single-coordinate grid)."""
    return np.flatnonzero(np.min(grid.nodes, axis=1) > 0.5 / grid.resolution)


@dataclass
class ResidualReport:
    """Which branch of the obstacle equation binds at each interior node."""

    times: np.ndarray
    p_nodes: np.ndarray
    q_nodes: np.ndarray
    binding: np.ndarray       # (n_t, n_p_int, n_q_int) int8 branch codes
    residual: np.ndarray      # same shape, the min-max expression
    max_residual: float


def residuals(v: ValueGrid, H: HamiltonianField) -> ResidualReport:
    """Classify the binding branch of the equation at interior nodes.

    Discrete time derivative is forward; second derivatives are directional
    second differences reduced to the tangent space, with the vertex/face
    conventions (vacuous constraints) inherited from the eigenvalue helpers.
    """
    pg, qg = v.p_grid, v.q_grid
    ip_nodes = _interior_nodes(pg)
    iq_nodes = _interior_nodes(qg)
    n_t = v.values.shape[0] - 1
    binding = np.zeros((n_t, ip_nodes.size, iq_nodes.size), dtype=np.int8)
    resid = np.zeros((n_t, ip_nodes.size, iq_nodes.size))
    dt = v.dt
    frozen_h = None if H.time_dependent else H.on_grid(0.0, pg.nodes, qg.nodes)
    for k in range(n_t):
        hvals = frozen_h if frozen_h is not None else H.on_grid(v.times[k], pg.nodes, qg.nodes)
        dvdt = (v.values[k + 1] - v.values[k]) / dt
        sl = v.values[k]
        lam_lo = _curvature(sl[:, iq_nodes], pg, ip_nodes, want_max=False)
        lam_hi = _curvature(sl[ip_nodes].T, qg, iq_nodes, want_max=True).T
        term_a = -dvdt[np.ix_(ip_nodes, iq_nodes)] - hvals[np.ix_(ip_nodes, iq_nodes)]
        term_b = -lam_lo
        term_c = -lam_hi
        inner = np.maximum(term_a, term_b)
        resid[k] = np.minimum(inner, term_c)
        binding[k] = np.where(term_c < inner, BRANCH_CONCAVE,
                              np.where(term_b > term_a, BRANCH_CONVEX, BRANCH_TIME))
    finite = resid[np.isfinite(resid)]
    return ResidualReport(v.times[:n_t], ip_nodes, iq_nodes, binding, resid,
                          float(np.max(np.abs(finite))) if finite.size else 0.0)


def naive_hji_residual(v: ValueGrid, H: HamiltonianField, k: int, p_node: int) -> float:
    """Residual of the unconstrained equation with the zero test function at a
    locally flat node of a one-sided value grid.

    The value must vanish (within 1e-8) at the node and its neighbors
    (present and next time slice) so that the zero function is a valid
    touching test function; the infimum of the half-trace volatility term over
    the grid directions is then zero and the residual reduces to
    -dphi/dt - H = -H.
    """
    if v.q_grid.n != 1:
        raise ValueError("the classical-equation check runs one-sided configurations")
    pg = v.p_grid
    if p_node <= 0 or p_node >= pg.n_nodes - 1:
        raise ValueError("node must be interior")
    patch = v.values[k:k + 2, p_node - 1:p_node + 2, 0]
    if np.max(np.abs(patch)) > 1e-8:
        raise ValueError("value is not locally flat at the requested node")
    return -H(float(v.times[k]), pg.nodes[p_node])


@dataclass
class RegularityReport:
    """Measured regularity of a solved grid against the theoretical bounds."""

    time_lip: float
    time_lip_bound: float        # 8 C dt
    min_p_second: float          # most negative second difference along p-lines
    max_q_second: float          # most positive second difference along q-lines
    lip_p: float
    lip_q: float
    lip_bound: float             # C * Cbar * T
    time_ok: bool
    convex_ok: bool
    concave_ok: bool
    lip_ok: bool

    @property
    def all_ok(self) -> bool:
        return self.time_ok and self.convex_ok and self.concave_ok and self.lip_ok


# time slices per block of _second_extreme: 256 KB of values, so that a
# block's temporaries stay in cache (three slices of a 101 x 101 grid)
SLICE_BLOCK_BYTES = 1 << 18


def _second_extreme(vals: np.ndarray, grid: SimplexGrid, axis: int, reduce, initial) -> float:
    """reduce (np.fmin or np.fmax, which skip the NaN off the centres) over
    every second difference of vals (n_t, n_p, n_q) along the grid on axis,
    a block of time slices at a time, from initial; 0.0 when there is none."""
    step = max(1, SLICE_BLOCK_BYTES // vals[0].nbytes)
    out = initial
    for s in range(0, vals.shape[0], step):
        second = grid.second_differences(np.moveaxis(vals[s:s + step], axis, 0))
        out = reduce.reduce(second, axis=None, initial=out)
    return float(out) if np.isfinite(out) else 0.0


def regularity_report(v: ValueGrid) -> RegularityReport:
    """Time and p/q Lipschitz constants against their bounds, each with a slack
    of 1e-3, and the discrete shape (second differences) within 1e-8."""
    vals = v.values
    time_lip = float(np.max(np.abs(np.diff(vals, axis=0)))) if vals.shape[0] > 1 else 0.0
    time_bound = 8.0 * v.bound * v.dt

    min_p = _second_extreme(vals, v.p_grid, 1, np.fmin, np.inf)
    max_q = _second_extreme(vals, v.q_grid, 2, np.fmax, -np.inf)
    lip_p = v.p_grid.max_slope(vals, axis=1)
    lip_q = v.q_grid.max_slope(vals, axis=2)

    horizon = float(v.times[-1])
    cbar = coupling_bound_constant(v.p_grid.nodes.shape[1])
    lip_bound = v.bound * cbar * horizon
    return RegularityReport(
        time_lip=time_lip,
        time_lip_bound=time_bound,
        min_p_second=min_p,
        max_q_second=max_q,
        lip_p=lip_p,
        lip_q=lip_q,
        lip_bound=lip_bound,
        time_ok=time_lip <= time_bound + 1e-3,
        convex_ok=min_p >= -1e-8,
        concave_ok=max_q <= 1e-8,
        lip_ok=(lip_p <= lip_bound + 1e-3) and (lip_q <= lip_bound + 1e-3),
    )


# ---------------------------------------------------------------------------
# export
# ---------------------------------------------------------------------------

def write_atomic(path, *parts) -> None:
    """Write each iterable of strings in parts to a .tmp file of this writer's
    own beside path (the directory made if missing), then os.replace it onto
    path: readers see the old file or one writer's whole new one, concurrent
    writers of one path never share a .tmp, and a failed write leaves none.
    The .tmp is <path>.<pid>.<hex>.tmp, so the next write of path removes one
    whose writer died mid-write: a pid that no longer runs."""
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    for stale in glob.glob(glob.escape(str(path)) + ".*.*.tmp"):
        try:
            os.kill(int(stale[len(str(path)) + 1:].split(".")[0]), 0)
        except ProcessLookupError:
            with contextlib.suppress(FileNotFoundError):
                os.remove(stale)
        except (ValueError, OverflowError, PermissionError):
            pass  # not a pid, or a live process of another user
    tmp = f"{path}.{os.getpid()}.{uuid.uuid4().hex}.tmp"
    try:
        with open(tmp, "x") as fh:
            for chunks in parts:
                fh.writelines(chunks)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def format_rows(rows: list) -> list[str]:
    """CSV fields of each row of floats, at 17 significant digits."""
    return [",".join([f"{x:.17g}" for x in r]) for r in rows]


def export_csv(v: ValueGrid, path) -> None:
    """CSV columns: t, p coordinates, q coordinates, V.  Times and node
    coordinates are formatted once, the nodes into one template of a slice's
    rows, "<t>,<p>,<q>,%.17g\\n" per node; each time slice is written as one
    block, one %-format of that template with its time in place of <t>."""
    nI, nJ = v.p_grid.nodes.shape[1], v.q_grid.nodes.shape[1]
    cols = ["t", *(f"p_{i+1}" for i in range(nI)), *(f"q_{j+1}" for j in range(nJ)), "V"]
    q_rows = format_rows(v.q_grid.nodes.tolist())
    # numbers hold no "\0" or "%", so the time's mark and the value fields are the only ones
    rows = "".join([f"\0,{a},{b},%.17g\n" for a in format_rows(v.p_grid.nodes.tolist())
                    for b in q_rows])
    blocks = (rows.replace("\0", t) % tuple(vals.ravel().tolist())
              for t, vals in zip(format_rows(v.times[:, None].tolist()), v.values))
    write_atomic(path, [",".join(cols) + "\n"], blocks)


def summary_dict(v: ValueGrid, H: HamiltonianField) -> dict:
    """JSON-ready summary: extrema, residual norm, regularity checks."""
    reg = regularity_report(v)
    return {
        "order": v.order,
        "n_time_steps": int(v.values.shape[0] - 1),
        "p_nodes": int(v.p_grid.n_nodes),
        "q_nodes": int(v.q_grid.n_nodes),
        "min_value": float(np.min(v.values)),
        "max_value": float(np.max(v.values)),
        "bound": float(v.bound),
        "regularity": {
            "time_lipschitz": reg.time_lip,
            "time_lipschitz_bound": reg.time_lip_bound,
            "min_p_second_difference": reg.min_p_second,
            "max_q_second_difference": reg.max_q_second,
            "lipschitz_p": reg.lip_p,
            "lipschitz_q": reg.lip_q,
            "all_ok": reg.all_ok,
        },
        "max_interior_residual": residuals(v, H).max_residual,
    }
