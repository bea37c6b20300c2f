"""The four benchmark workloads: their inputs, and the checks on their outputs.

Each workload names a CLI subcommand and a config.  ``config(tmp)`` returns
the config file one invocation runs (writing generated inputs into the
invocation's own temporary directory), and ``check(out, code)`` reads the
artifacts in ``out`` (the ``<out>/<hash>/`` directory) and returns an
``Outcome``.  The checks use only the artifacts and references computed here,
never the program's own helpers, so a wrong answer cannot vouch for itself.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
CONFIGS = ROOT / "configs"

# value_err below this is rounding; a relative bound on it would flag noise.
VALUE_ERR_FLOOR = 1e-12
# value_err of an invocation whose output cannot be read: the largest error
# possible for values that lie in [0, 1].
VALUE_ERR_MISSING = 1.0


@dataclass(frozen=True)
class Outcome:
    ok: bool
    value_err: float
    detail: str


def _read_json(path: Path) -> dict:
    return json.loads(path.read_text())


def _floored(err: float) -> float:
    return max(float(err), VALUE_ERR_FLOOR)


class Workload:
    name = ""
    subcommand = ""
    why = ""
    config_file = ""

    def __init__(self, seed: int):
        self.seed = seed

    def config(self, tmp: Path) -> Path:
        return CONFIGS / self.config_file

    def check(self, out: Path, code: int) -> Outcome:
        raise NotImplementedError


class SolveBilinear(Workload):
    name = "solve-bilinear"
    subcommand = "solve-hj"
    config_file = "hj_bilinear.json"
    why = ("shipped 101x101-node two-sided solve: per-slice 1-D hulls and a 62 MB "
           "CSV export; no Monte Carlo and no LP")
    TOL = 1e-9

    def check(self, out: Path, code: int) -> Outcome:
        if code != 0:
            return Outcome(False, VALUE_ERR_MISSING, f"exit {code}")
        hj = _read_json(CONFIGS / self.config_file)["hj"]
        n0 = (hj["p_resolution"] + 1) * (hj["q_resolution"] + 1)
        # columns t, p_1, p_2, q_1, q_2, V; the first n0 rows are t = 0
        rows = np.loadtxt(out / "values.csv", delimiter=",", skiprows=1,
                          max_rows=n0, ndmin=2)
        if rows.shape != (n0, 6) or np.any(rows[:, 0] != 0.0):
            return Outcome(False, VALUE_ERR_MISSING, "values.csv has no full t=0 slice")
        err = float(np.max(np.abs(rows[:, 5] - rows[:, 1] * rows[:, 3])))
        return Outcome(err <= self.TOL, _floored(err),
                       f"max|V(0,p,q) - p1*q1| = {err:.3g} (tol {self.TOL:g})")


class GameTent(Workload):
    name = "game-tent"
    subcommand = "mc-game"
    config_file = "mc_game_tent.json"
    why = ("shipped 3x1 strategy pairs on 4,000 x 2,560-step paths: noise redrawn "
           "per pair, controls mostly zero")
    PDE_VALUE = 0.0  # Vex of the tent at its peak
    TOL = 0.08       # acceptance check 9

    def check(self, out: Path, code: int) -> Outcome:
        if code != 0:
            return Outcome(False, VALUE_ERR_MISSING, f"exit {code} (bracket not ordered)")
        upper = float(_read_json(out / "report.json")["mc_game"]["upper"])
        err = abs(upper - self.PDE_VALUE)
        return Outcome(err <= self.TOL, _floored(err),
                       f"|upper - V| = {err:.4g} (tol {self.TOL:g})")


class SimulateActive(Workload):
    name = "simulate-active"
    subcommand = "simulate"
    config_file = "simulate_directional.json"
    why = ("shipped 10,000 x 512-step simulation with both players active on every "
           "step: the no-change control for gains from zero controls or shared noise")

    def check(self, out: Path, code: int) -> Outcome:
        if code != 0:
            return Outcome(False, VALUE_ERR_MISSING, f"exit {code} (martingale check)")
        rep = _read_json(out / "report.json")["simulate"]
        ok = bool(rep["martingale_ok"]) and float(rep["min_coord"]) >= 0.0
        # X is a martingale started at p, so |mean X_t - p| is the estimator's error
        err = float(rep["worst_dev"])
        return Outcome(ok, _floored(err),
                       f"sup|mean X - p| = {err:.4g}, min_coord = {rep['min_coord']:g}")


# --- solve-simplex3: generated tensor and exact lifted-hull reference ---------

SIMPLEX3_RES = 24
SIMPLEX3_STEPS = 32
SIMPLEX3_HORIZON = 1.0
# Base payoff tensor, index shape 3x1, actions 3x3.  The seed relabels the
# p-coordinates and both action sets: every seed gets another tensor file and
# another artifact hash, but the same game up to symmetry, so the solve does
# the same work and has the same error.  Independent uniform tensors per seed
# moved run_s between 6.9 and 12.3 s and value_err between 2.8e-3 and 1.4e-2,
# which would be the spread of the inputs, not of the program.
SIMPLEX3_BASE_SEED = 1
SIMPLEX3_TOL = 2e-2  # acceptance check 2's sup-norm tolerance for (T-t)*Vex(H)


def simplex3_tensor(seed: int) -> np.ndarray:
    """(1, 3, 1, 3, 3) payoff tensor in [0, 1] for a benchmark seed."""
    base = np.random.default_rng(SIMPLEX3_BASE_SEED).random((1, 3, 1, 3, 3))
    rng = np.random.default_rng(seed)
    pi, pk, pl = rng.permutation(3), rng.permutation(3), rng.permutation(3)
    return base[:, pi][:, :, :, pk][:, :, :, :, pl]


def simplex3_nodes(m: int) -> np.ndarray:
    """Lattice points (i/m, j/m, 1 - (i+j)/m) of the 3-simplex."""
    return np.array([(i / m, j / m, (m - i - j) / m)
                     for i in range(m + 1) for j in range(m + 1 - i)])


def maximin_lp(game: np.ndarray) -> float:
    """Mixed value of a matrix game whose rows maximize: one HiGHS LP."""
    from scipy.optimize import linprog

    nr, nc = game.shape
    c = np.zeros(nr + 1)
    c[-1] = -1.0
    a_ub = np.hstack([-game.T, np.ones((nc, 1))])
    a_eq = np.hstack([np.ones((1, nr)), np.zeros((1, 1))])
    res = linprog(c, A_ub=a_ub, b_ub=np.zeros(nc), A_eq=a_eq, b_eq=[1.0],
                  bounds=[(0.0, None)] * nr + [(None, None)], method="highs")
    if not res.success:
        raise RuntimeError(f"reference LP failed: {res.message}")
    return float(-res.fun)


def lifted_lower_hull(nodes: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Exact convex envelope of node values on the 3-simplex: the lower hull
    of the lifted points (p1, p2, h), evaluated at the nodes."""
    from scipy.spatial import ConvexHull

    eq = ConvexHull(np.column_stack([nodes[:, 0], nodes[:, 1], h])).equations
    low = eq[eq[:, 2] < -1e-12]  # facets whose outward normal points down
    planes = -(low[:, :1] * nodes[:, 0] + low[:, 1:2] * nodes[:, 1] + low[:, 3:]) / low[:, 2:3]
    return planes.max(axis=0)


class SolveSimplex3(Workload):
    name = "solve-simplex3"
    subcommand = "solve-hj"
    why = ("generated 3x1-index, 3x3-action tensor on the 3-simplex (325 nodes): the "
           "only matrix-game LPs, 3-simplex sweep and tangent-eigen residuals")

    def __init__(self, seed: int):
        super().__init__(seed)
        self.tensor = simplex3_tensor(seed)
        self.tensor_json = json.dumps({"time_samples": [0.0],
                                       "values": self.tensor.tolist()})
        self.digest = hashlib.sha256(self.tensor_json.encode()).hexdigest()[:12]
        m = SIMPLEX3_RES
        nodes = simplex3_nodes(m)
        h = np.array([maximin_lp(np.einsum("i,ikl->kl", p, self.tensor[0, :, 0]))
                      for p in nodes])
        vex = lifted_lower_hull(nodes, h)
        self.vex = {(i, j): v for (i, j), v in
                    zip(np.rint(nodes[:, :2] * m).astype(int).tolist(), vex)}

    def config(self, tmp: Path) -> Path:
        # cli.run hashes the tensor path, not its contents: the digest in the
        # name keeps two seeds' artifacts out of one hash directory
        tensor_name = f"payoff-simplex3-{self.digest}.json"
        (tmp / tensor_name).write_text(self.tensor_json)
        cfg = {
            "schema_version": 1, "seed": 0, "horizon": SIMPLEX3_HORIZON,
            "hamiltonian": {"kind": "tensor", "path": tensor_name},
            "hj": {"p_resolution": SIMPLEX3_RES, "q_resolution": 1,
                   "time_steps": SIMPLEX3_STEPS, "order": "vex_cav"},
        }
        path = tmp / "solve-simplex3.json"
        path.write_text(json.dumps(cfg, indent=2))
        return path

    def check(self, out: Path, code: int) -> Outcome:
        if code != 0:
            return Outcome(False, VALUE_ERR_MISSING, f"exit {code}")
        # columns t, p_1, p_2, p_3, q_1, V
        rows = np.loadtxt(out / "values.csv", delimiter=",", skiprows=1, ndmin=2)
        m = SIMPLEX3_RES
        expect = (SIMPLEX3_STEPS + 1) * len(self.vex)
        if rows.shape != (expect, 6):
            return Outcome(False, VALUE_ERR_MISSING, f"values.csv shape {rows.shape}")
        ij = np.rint(rows[:, 1:3] * m).astype(int).tolist()
        ref = (SIMPLEX3_HORIZON - rows[:, 0]) * np.array([self.vex[tuple(k)] for k in ij])
        err = float(np.max(np.abs(rows[:, 5] - ref)))
        return Outcome(err <= SIMPLEX3_TOL, _floored(err),
                       f"sup|V - (T-t)*Vex(H)| = {err:.4g} (tol {SIMPLEX3_TOL:g})")


WORKLOADS = {w.name: w for w in (SolveBilinear, GameTent, SimulateActive, SolveSimplex3)}
