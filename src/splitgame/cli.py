"""Experiment runner: parse a JSON config, dispatch to the solver, simulator,
split demo, or game arena, and emit machine-readable artifacts.

Artifacts land in <out>/<config-hash>/ and depend only on the effective
config (flag overrides included, and the sha256 of a payoff tensor file's
bytes), so a rerun is bit-identical regardless of thread count.  Each file is
written through hj.write_atomic (a .tmp of its own beside it, then a
rename).  Wall-clock timings go to stdout, never into artifacts.

Payoff tensor files (hamiltonian.kind = "tensor") are JSON objects with two
keys: "time_samples", finite, strictly increasing times (not bound to [0,
horizon]; the payoff holds its end values beyond them), and "values", a
nested list of shape (n_times, nI, nJ, nK, nL) with entries in [0, 1] giving
the payoff for index pair (i, j) and action pair (k, l).

Every config field is read once through a Reader, typed (a number is a JSON
number, never true or false; a flag is true or false; a block is an object),
and a missing field or a wrong type exits 2 naming its dotted path.

Each subcommand returns its report payload and verdict; run writes
report.json and maps the verdict to the exit code.  Exit codes: 0 success, 1
check failure, 2 config/parse error, 3 internal error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from splitgame.hj import write_atomic
from splitgame.simplex import SimplexPoint

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG = 2
EXIT_INTERNAL = 3


class ConfigError(ValueError):
    """Invalid configuration; the message carries the offending field path."""


# ---------------------------------------------------------------------------
# config plumbing
# ---------------------------------------------------------------------------

def config_hash(cfg: dict) -> str:
    canon = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()[:12]


def _number(v) -> bool:
    """A finite JSON number: an int or float within float range, not true or false."""
    return isinstance(v, (int, float)) and not isinstance(v, bool) and abs(v) <= sys.float_info.max


def _numbers(v, n: int | None = None) -> bool:
    """A list of finite numbers, of length n if given."""
    return isinstance(v, list) and (n is None or len(v) == n) and all(map(_number, v))


class Reader:
    """One JSON object of the config and its dotted path.  Each read takes a
    key and, for an optional field, its default; a value that is missing or of
    the wrong type raises a ConfigError that names the field's full path."""

    def __init__(self, obj, path: str = ""):
        if not isinstance(obj, dict):
            raise ConfigError(f"{path}: must be an object, got {obj!r}")
        self.obj = obj
        self.path = path

    def where(self, key: str) -> str:
        return f"{self.path}.{key}" if self.path else key

    def get(self, key: str, default=None):
        if key not in self.obj and default is None:
            raise ConfigError(f"{self.where(key)}: required field missing")
        return self.obj.get(key, default)

    def read(self, key: str, ok, what: str, default=None):
        """The value at key, which ok(value) must accept."""
        value = self.get(key, default)
        if not ok(value):
            raise ConfigError(f"{self.where(key)}: must be {what}, got {value!r}")
        return value

    def child(self, key: str, default=None) -> "Reader":
        return Reader(self.get(key, default), self.where(key))

    def call(self, fn, *args, **kwargs):
        """fn(*args, **kwargs); a ValueError it raises names this object's path."""
        try:
            return fn(*args, **kwargs)
        except ValueError as e:
            raise ConfigError(f"{self.path}: {e}") from None

    def string(self, key: str) -> str:
        return self.read(key, lambda v: isinstance(v, str), "a string")

    def choice(self, key: str, choices: tuple, default=None) -> str:
        what = "one of " + ", ".join(map(repr, choices))
        return self.read(key, lambda v: isinstance(v, str) and v in choices, what, default)

    def flag(self, key: str, default=None) -> bool:
        return self.read(key, lambda v: isinstance(v, bool), "true or false", default)

    def positive(self, key: str, default=None) -> float:
        ok = lambda v: _number(v) and v > 0
        return float(self.read(key, ok, "a positive number", default))

    def positive_int(self, key: str, default=None) -> int:
        ok = lambda v: _number(v) and v > 0 and v == int(v)
        return int(self.read(key, ok, "a positive integer", default))

    def path_count(self, key: str, default=None) -> int:
        """A Monte Carlo path count: an integer of at least two, so that every
        estimate has a standard error."""
        n = self.positive_int(key, default)
        if n < 2:
            raise ConfigError(f"{self.where(key)}: need at least two paths for a standard error")
        return n

    def seed(self, key: str, default=None) -> int:
        ok = lambda v: isinstance(v, int) and not isinstance(v, bool) and v >= 0
        return self.read(key, ok, "a non-negative integer", default)

    def fraction(self, key: str, default=None) -> float:
        ok = lambda v: _number(v) and 0 <= v <= 1
        return float(self.read(key, ok, "a number in [0, 1]", default))

    def simplex(self, key: str) -> SimplexPoint:
        value = self.read(key, _numbers, "a list of numbers")
        try:
            return SimplexPoint(value)
        except ValueError as e:
            raise ConfigError(f"{self.where(key)}: {e}") from None

    def matrix(self, key: str, n: int) -> np.ndarray:
        ok = lambda v: isinstance(v, list) and len(v) == n and all(_numbers(r, n) for r in v)
        return np.array(self.read(key, ok, f"a {n}x{n} matrix of finite numbers"), dtype=float)


def load_config(path) -> dict:
    p = Path(path)
    if not p.exists():
        raise ConfigError(f"config file {p} does not exist")
    try:
        cfg = json.loads(p.read_text(encoding="utf-8"))
    except json.JSONDecodeError as e:
        raise ConfigError(f"config is not valid JSON: {e}") from None
    except (OSError, UnicodeDecodeError) as e:
        raise ConfigError(f"config file {p} cannot be read: {e}") from None
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be an object")
    Reader(cfg).read("schema_version", lambda v: v == SCHEMA_VERSION, str(SCHEMA_VERSION))
    cfg.setdefault("_config_dir", str(p.parent))
    return cfg


def build_field(cfg: Reader, horizon: float):
    from splitgame.hamiltonian import ANALYTIC_PARAMS, PayoffTensor, analytic_field, tensor_field

    block = cfg.child("hamiltonian")
    if block.choice("kind", ("analytic", "tensor")) == "analytic":
        name = block.choice("name", tuple(ANALYTIC_PARAMS))
        params = block.child("params", {})
        kwargs = {key: params.positive_int(key) if key in ("dim_p", "dim_q")
                  else params.read(key, _number, "a number") for key in params.obj}
        return params.call(analytic_field, name, **kwargs)
    path = Path(cfg.get("_config_dir", ".")) / block.string("path")
    data = cfg.obj.get("_tensor_bytes")  # read once by run, which hashed them
    if data is None:
        raise ConfigError(f"hamiltonian.path: file {path} does not exist")
    try:
        tensor = PayoffTensor.from_dict(json.loads(data))
        return tensor_field(tensor, horizon=horizon)
    except (KeyError, TypeError, ValueError) as e:  # ValueError covers bad JSON
        raise ConfigError(f"hamiltonian.path: cannot load tensor: {e}") from None


def build_split_spec(block: Reader, dim: int | None = None):
    """The split block's spec; given dim, it must split a state of dim
    coordinates."""
    from splitgame.splitting import SplitSpec, unit_segment_spec

    readers = {"steps": block.positive_int, "horizon": block.positive, "delta": block.positive,
               "kappa": block.positive, "lam1": block.fraction}
    fields = {key: read(key) for key, read in readers.items() if key in block.obj}
    if "p1" not in block.obj and "p2" not in block.obj:
        spec = block.call(unit_segment_spec, **fields)
    else:
        spec = block.call(SplitSpec, block.simplex("p1"), block.simplex("p2"), **fields)
    if dim is not None and spec.p.n != dim:
        raise ConfigError(f"{block.path}: split spec dimension {spec.p.n} != {dim}")
    return spec


def build_control(block: Reader, dim: int, split: Reader):
    from splitgame.sde import constant_control, directional_control, zero_control
    from splitgame.splitting import make_split_control

    kind = block.choice("kind", ("zero", "constant", "directional", "split"))
    if kind == "zero":
        return zero_control(dim)
    if kind == "constant":
        return constant_control(block.matrix("matrix", dim))
    if kind == "directional":
        scale = block.positive("scale", 0.5)
        return block.call(directional_control, dim, scale)
    return make_split_control(build_split_spec(split, dim))


def _start(sim: Reader) -> tuple[np.ndarray, np.ndarray]:
    start = sim.child("start")
    return start.simplex("p").coords, start.simplex("q").coords


def _write_json(path: Path, payload: dict) -> None:
    write_atomic(path, [json.dumps(payload, sort_keys=True, indent=2, allow_nan=False) + "\n"])


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_solve_hj(cfg: Reader, out: Path, threads: int, seed: int) -> tuple[dict, bool]:
    from splitgame.hamiltonian import SimplexGrid
    from splitgame.hj import export_csv, order_gap, summary_dict
    from splitgame.sde import _check_kept

    horizon = cfg.positive("horizon", 1.0)
    field = build_field(cfg, horizon)
    hj = cfg.child("hj", {})
    p_res = hj.positive_int("p_resolution", 200 if field.dim_p == 2 else 100)
    q_res = hj.positive_int("q_resolution", 1)
    steps = hj.positive_int("time_steps", 128)
    order = hj.choice("order", ("vex_cav", "cav_vex"), "vex_cav")
    # order_gap keeps both orders' value grids, and each grid its dense lattice
    # index of (res + 1)^(dim - 1) cells; refuse them before any grid is built
    dims = ((p_res, field.dim_p), (q_res, field.dim_q))
    n_p, n_q = (math.comb(res + dim - 1, dim - 1) for res, dim in dims)
    cells = sum((res + 1) ** (dim - 1) for res, dim in dims)
    hj.call(_check_kept, 2 * 8 * (steps + 1) * n_p * n_q + SimplexGrid.CELL_BYTES * cells,
            f"two value grids of {steps + 1} x {n_p} x {n_q} nodes and {cells} lattice cells")
    pg, qg = (SimplexGrid.build(dim, res) for res, dim in dims)
    a, b, gap = hj.call(order_gap, field, pg, qg, horizon, steps)
    chosen = a if order == "vex_cav" else b
    export_csv(chosen, out / "values.csv")
    report = summary_dict(chosen, field)
    report["order_gap"] = gap
    return report, True


def _cmd_simulate(cfg: Reader, out: Path, threads: int, seed: int) -> tuple[dict, bool]:
    from splitgame.sde import (BundleSizeError, NoiseGrid, dump_trajectories, interval_starts,
                               simulate, simulation_report)

    horizon = cfg.positive("horizon", 1.0)
    if "hamiltonian" in cfg.obj:  # not used here, but a malformed block still exits 2
        build_field(cfg, horizon)
    sim = cfg.child("sim", {})
    dt = sim.positive("dt", 1.0 / 512)
    n_paths = sim.path_count("n_paths", 1000)
    p, q = _start(sim)
    controls = sim.child("controls")
    split = cfg.child("split", {})
    u = build_control(controls.child("u"), p.size, split)
    v = build_control(controls.child("v"), q.size, split)
    dump = sim.flag("dump_trajectories", False)
    noise = sim.call(NoiseGrid, 0.0, horizon, dt, n_paths, seed, p.size, q.size)
    for ctrl in (u, v):
        split.call(interval_starts, ctrl, noise)
    try:
        if dump:  # one stepping pass keeps the paths and streams the report
            bundle = simulate(p, q, u, v, noise, threads=threads)
            rep = bundle.report
            dump_trajectories(bundle, out / "trajectories.csv")
        else:
            rep = simulation_report(p, q, u, v, noise, threads=threads)
    except BundleSizeError as e:
        raise ConfigError(f"{sim.where('n_paths')}: {e}") from None
    except ValueError as e:
        raise ConfigError(f"sim: {e}") from None
    return {
        "n_paths": rep.n_paths,
        "martingale_ok": rep.martingale_ok,
        "worst_dev": rep.worst_dev,
        "worst_margin": rep.worst_margin,
        "min_coord": rep.min_coord,
        "max_sum_err": rep.max_sum_err,
        "support_monotone": rep.support_monotone,
    }, rep.martingale_ok and rep.min_coord >= 0.0


def _cmd_split_demo(cfg: Reader, out: Path, threads: int, seed: int) -> tuple[dict, bool]:
    from splitgame.sde import BundleSizeError
    from splitgame.splitting import landing_report, run_split

    spec = build_split_spec(cfg.child("split", {}))
    sim = cfg.child("sim", {})
    n_paths = sim.path_count("n_paths", 10_000)
    try:
        xt = run_split(spec, n_paths=n_paths, seed=seed, threads=threads)
    except BundleSizeError as e:
        raise ConfigError(f"{sim.where('n_paths')}: {e}") from None
    rep = landing_report(spec, xt)

    # histogram of scalar landing positions
    x = spec.scalar_of(xt)
    edges = np.linspace(-spec.delta - 0.05, 1.0 + spec.delta + 0.05, 64)
    counts, _ = np.histogram(x, bins=edges)
    write_atomic(out / "histogram.csv", ["bin_left,bin_right,count\n"],
                 (f"{edges[i]:.17g},{edges[i+1]:.17g},{int(c)}\n" for i, c in enumerate(counts)))

    return {
        "eps_mean": rep.eps_mean, "eps_se": rep.eps_se,
        "hit1_freq": rep.hit1_freq, "hit1_se": rep.hit1_se,
        "lam1": rep.lam1, "hit1_ok": rep.hit1_ok,
        "unabsorbed_frac": rep.unabsorbed_frac,
        "martingale_ok": rep.martingale_ok,
        "segment_excess": rep.segment_excess,
        "n_paths": rep.n_paths,
    }, rep.hit1_ok and rep.martingale_ok


def _cmd_mc_game(cfg: Reader, out: Path, threads: int, seed: int) -> tuple[dict, bool]:
    from splitgame.arena import preset_family, value_bracket
    from splitgame.sde import BundleSizeError, NoiseGrid, interval_starts

    horizon = cfg.positive("horizon", 1.0)
    field = build_field(cfg, horizon)
    arena = cfg.child("arena", {})
    n_paths = arena.path_count("n_paths", 2000)
    dt = arena.positive("dt", 1.0 / 512)
    scale = arena.positive("scale", 0.5)
    p, q = _start(cfg.child("sim", {}))
    if field.dim_p != p.size or field.dim_q != q.size:
        raise ConfigError("sim.start: dimensions do not match the hamiltonian")

    split = cfg.child("split", {})
    split_spec = build_split_spec(split, p.size) if "split" in cfg.obj or p.size == 2 else None
    fam1 = preset_family(p.size, scale=scale, split_spec=split_spec)
    fam2 = preset_family(q.size, scale=scale)
    noise = arena.call(NoiseGrid, 0.0, horizon, dt, n_paths, seed, p.size, q.size)
    for ctrl in [*fam1.values(), *fam2.values()]:
        split.call(interval_starts, ctrl, noise)
    try:
        br = value_bracket(p, q, field, fam1, fam2, noise, threads=threads)
    except BundleSizeError as e:
        raise ConfigError(f"{arena.where('n_paths')}: {e}") from None
    except ValueError as e:
        raise ConfigError(f"arena: {e}") from None
    result = {
        "lower": br.lower, "lower_se": br.lower_se,
        "upper": br.upper, "upper_se": br.upper_se,
        "ordered": br.ordered,
        "names_1": br.names_1, "names_2": br.names_2,
        "table": br.table.tolist(),
    }
    return result, br.ordered


def _cmd_verify(cfg: Reader, out: Path, threads: int, seed: int) -> tuple[list, bool]:
    from splitgame.acceptance import run_all

    results = run_all(seed=seed, threads=threads)
    for r in results:
        print(r.line())
    payload = [{"name": r.name, "passed": bool(r.passed), "measured": float(r.measured),
                "bound": float(r.bound), "detail": r.detail} for r in results]
    return payload, all(r.passed for r in results)


_DISPATCH = {
    "solve-hj": _cmd_solve_hj,
    "simulate": _cmd_simulate,
    "split-demo": _cmd_split_demo,
    "mc-game": _cmd_mc_game,
    "verify": _cmd_verify,
}
SUBCOMMANDS = tuple(_DISPATCH)


def run(subcommand: str, config: dict, out_dir, threads: int = 1,
        seed: int | None = None) -> int:
    """Programmatic entry point: runs the subcommand, writes report.json and
    returns the exit code.  The hash covers the raw config plus the sha256 of
    a tensor file's bytes, which are read once and parsed as hashed."""
    if subcommand not in _DISPATCH:
        raise ConfigError(f"unknown subcommand {subcommand!r}")
    cfg = {k: v for k, v in config.items() if not k.startswith("_")}
    if seed is not None:
        cfg["seed"] = Reader({"--seed": seed}).seed("--seed")
    root = Reader(cfg)
    seed = root.seed("seed", 0)
    hashed = dict(cfg)
    cfg["_config_dir"] = config.get("_config_dir", ".")
    block = cfg.get("hamiltonian")
    name = block.get("path") if isinstance(block, dict) and block.get("kind") == "tensor" else None
    if isinstance(name, str):  # otherwise build_field names the field at fault
        tensor = Path(cfg["_config_dir"]) / name
        try:
            cfg["_tensor_bytes"] = tensor.read_bytes()
        except FileNotFoundError:  # build_field raises the ConfigError
            pass
        except OSError as e:
            raise ConfigError(f"hamiltonian.path: cannot read tensor file {tensor}: {e}") from None
        else:
            sha = hashlib.sha256(cfg["_tensor_bytes"]).hexdigest()
            hashed["hamiltonian"] = {**block, "sha256": sha}
    out = Path(out_dir) / config_hash(hashed)
    payload, ok = _DISPATCH[subcommand](root, out, threads, seed)
    _write_json(out / "report.json",
                {"config_hash": out.name, subcommand.replace("-", "_"): payload})
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="splitgame",
        description="Simplex-martingale game laboratory: solve, simulate, verify.")
    parser.add_argument("subcommand", choices=SUBCOMMANDS)
    parser.add_argument("--config", type=str, default=None,
                        help="JSON experiment configuration (a missing or mistyped "
                             "field exits 2 and names its path)")
    parser.add_argument("--out", type=str, default=None,
                        help="output directory (fallback: $SPLITGAME_OUT, then ./out)")
    parser.add_argument("--threads", type=int, default=1,
                        help="worker threads (default: 1)")
    parser.add_argument("--seed", type=int, default=None,
                        help="override the config seed")
    args = parser.parse_args(argv)

    import time as _time
    t0 = _time.time()
    try:
        if args.config is None:
            if args.subcommand != "verify":
                raise ConfigError("--config is required for this subcommand")
            cfg = {"schema_version": SCHEMA_VERSION}
        else:
            cfg = load_config(args.config)
        out_dir = args.out or os.environ.get("SPLITGAME_OUT") or "out"
        threads = Reader({"--threads": args.threads}).positive_int("--threads")
        code = run(args.subcommand, cfg, out_dir, threads=threads, seed=args.seed)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception as e:  # noqa: BLE001 - the CLI boundary reports and exits
        print(f"internal error: {type(e).__name__}: {e}", file=sys.stderr)
        return EXIT_INTERNAL
    print(f"done in {_time.time() - t0:.2f}s (exit {code})")
    return code


if __name__ == "__main__":
    sys.exit(main())
