"""Experiment runner: parse a JSON config, dispatch to the solver, simulator,
split demo, or game arena, and emit machine-readable artifacts.

Artifacts land in <out>/<config-hash>/ and depend only on the effective
config (flag overrides included, and the sha256 of a payoff tensor file's
bytes), so a rerun is bit-identical regardless of thread count.  Each file is
written through hj.write_atomic (a .tmp beside it, then a rename).  Wall-clock
timings go to stdout, never into artifacts.

Payoff tensor files (hamiltonian.kind = "tensor") are JSON objects with two
keys: "time_samples", a sorted list of times in [0, horizon], and "values", a
nested list of shape (n_times, nI, nJ, nK, nL) with entries in [0, 1] giving
the payoff for index pair (i, j) and action pair (k, l).

Exit codes: 0 success, 1 check failure, 2 config/parse error, 3 internal
error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from pathlib import Path

import numpy as np

from splitgame.hj import write_atomic

SCHEMA_VERSION = 1
SUBCOMMANDS = ("solve-hj", "simulate", "split-demo", "mc-game", "verify")

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


def _need(cfg: dict, key: str, path: str):
    if key not in cfg:
        raise ConfigError(f"{path}.{key}: required field missing")
    return cfg[key]


def _block(cfg: dict, key: str) -> dict:
    """Optional top-level object such as "hj" or "sim"; {} when absent."""
    block = cfg.get(key, {})
    if not isinstance(block, dict):
        raise ConfigError(f"{key}: must be an object, got {block!r}")
    return block


def _seed(value, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int) or value < 0:
        raise ConfigError(f"{path}: must be a non-negative integer, got {value!r}")
    return value


def _positive(value, path: str) -> float:
    try:
        v = float(value)
    except (TypeError, ValueError):
        raise ConfigError(f"{path}: expected a number, got {value!r}") from None
    if not np.isfinite(v) or v <= 0:
        raise ConfigError(f"{path}: must be positive, got {value!r}")
    return v


def _positive_int(value, path: str) -> int:
    v = _positive(value, path)
    if v != int(v):
        raise ConfigError(f"{path}: must be an integer, got {value!r}")
    return int(v)


def load_config(path) -> dict:
    p = Path(path)
    if not p.exists():
        raise ConfigError(f"config file {p} does not exist")
    try:
        cfg = json.loads(p.read_text())
    except json.JSONDecodeError as e:
        raise ConfigError(f"config is not valid JSON: {e}") from None
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be an object")
    version = cfg.get("schema_version")
    if version != SCHEMA_VERSION:
        raise ConfigError(f"schema_version: expected {SCHEMA_VERSION}, got {version!r}")
    cfg.setdefault("_config_dir", str(p.parent))
    return cfg


def build_field(cfg: dict):
    from splitgame.hamiltonian import PayoffTensor, analytic_field, tensor_field

    block = _need(cfg, "hamiltonian", "")
    kind = _need(block, "kind", "hamiltonian")
    if kind == "analytic":
        name = _need(block, "name", "hamiltonian")
        params = block.get("params", {})
        if not isinstance(params, dict):
            raise ConfigError("hamiltonian.params: must be an object")
        try:
            return analytic_field(name, **params)
        except (ValueError, TypeError) as e:
            raise ConfigError(f"hamiltonian: {e}") from None
    if kind == "tensor":
        rel = _need(block, "path", "hamiltonian")
        path = Path(cfg.get("_config_dir", ".")) / rel
        if not path.exists():
            raise ConfigError(f"hamiltonian.path: file {path} does not exist")
        try:
            data = json.loads(path.read_text())
            tensor = PayoffTensor.from_dict(data)
        except (json.JSONDecodeError, KeyError, ValueError) as e:
            raise ConfigError(f"hamiltonian.path: cannot load tensor: {e}") from None
        return tensor_field(tensor, horizon=float(cfg.get("horizon", 1.0)))
    raise ConfigError(f"hamiltonian.kind: unknown kind {kind!r}")


def build_split_spec(block: dict, path: str = "split"):
    from splitgame.simplex import SimplexPoint
    from splitgame.splitting import SplitSpec, unit_segment_spec

    steps = _positive_int(block.get("steps", 256), f"{path}.steps")
    horizon = _positive(block.get("horizon", 0.125), f"{path}.horizon")
    delta = _positive(block.get("delta", 0.02), f"{path}.delta")
    kappa = _positive(block.get("kappa", 1.0), f"{path}.kappa")
    lam1 = block.get("lam1", 0.5)
    if not isinstance(lam1, (int, float)) or not 0.0 <= lam1 <= 1.0:
        raise ConfigError(f"{path}.lam1: must lie in [0, 1]")
    if "p1" in block or "p2" in block:
        try:
            p1 = SimplexPoint(_need(block, "p1", path))
            p2 = SimplexPoint(_need(block, "p2", path))
            p = SimplexPoint(lam1 * p1.coords + (1 - lam1) * p2.coords)
            return SplitSpec(p, p1, p2, float(lam1), horizon, steps, delta, kappa)
        except ValueError as e:
            raise ConfigError(f"{path}: {e}") from None
    return unit_segment_spec(steps=steps, delta=delta, kappa=kappa,
                             lam1=float(lam1), horizon=horizon)


def build_control(block: dict, t: float, horizon: float, dim: int, path: str,
                  split_cfg: dict):
    from splitgame.sde import constant_control, directional_control, zero_control
    from splitgame.splitting import make_split_control

    kind = _need(block, "kind", path)
    if kind == "zero":
        return zero_control(t, horizon, dim)
    if kind == "constant":
        m = np.asarray(_need(block, "matrix", path), dtype=float)
        if m.shape != (dim, dim):
            raise ConfigError(f"{path}.matrix: expected shape ({dim}, {dim})")
        return constant_control(t, horizon, m)
    if kind == "directional":
        scale = _positive(block.get("scale", 0.5), f"{path}.scale")
        if dim < 2:
            raise ConfigError(f"{path}: directional control needs dim >= 2")
        return directional_control(t, horizon, dim, scale)
    if kind == "split":
        spec = build_split_spec(split_cfg)
        if spec.p.n != dim:
            raise ConfigError(f"{path}: split spec dimension {spec.p.n} != {dim}")
        return make_split_control(spec, t, horizon)
    raise ConfigError(f"{path}.kind: unknown control kind {kind!r}")


def _simplex_vector(value, path: str) -> np.ndarray:
    from splitgame.simplex import SimplexPoint

    try:
        return SimplexPoint(value).coords
    except (ValueError, TypeError) as e:
        raise ConfigError(f"{path}: {e}") from None


def _write_json(path: Path, payload: dict) -> None:
    write_atomic(path, [json.dumps(payload, sort_keys=True, indent=2) + "\n"])


def _load_registry(path: Path) -> dict:
    """The mc-game registry, {} if absent.  One that is not a JSON object is
    moved aside to <name>.corrupt, with one line on stderr."""
    if not path.exists():
        return {}
    try:
        data = json.loads(path.read_text())
        if isinstance(data, dict):
            return data
    except ValueError:  # JSONDecodeError, UnicodeDecodeError
        pass
    aside = path.with_name(path.name + ".corrupt")
    os.replace(path, aside)
    print(f"warning: {path.name} is not a JSON object; moved to {aside.name}, "
          "starting a new registry", file=sys.stderr)
    return {}


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_solve_hj(cfg: dict, out: Path, threads: int) -> int:
    from splitgame.hamiltonian import SimplexGrid
    from splitgame.hj import export_csv, order_gap, summary_dict

    field = build_field(cfg)
    block = _block(cfg, "hj")
    horizon = _positive(cfg.get("horizon", 1.0), "horizon")
    p_default = 200 if field.dim_p == 2 else 100
    p_res = _positive_int(block.get("p_resolution", p_default), "hj.p_resolution")
    q_res = _positive_int(block.get("q_resolution", 1), "hj.q_resolution")
    steps = _positive_int(block.get("time_steps", 128), "hj.time_steps")
    order = block.get("order", "vex_cav")
    if order not in ("vex_cav", "cav_vex"):
        raise ConfigError("hj.order: must be 'vex_cav' or 'cav_vex'")
    try:
        pg = SimplexGrid.build(field.dim_p, p_res)
        qg = SimplexGrid.build(field.dim_q, q_res if field.dim_q > 1 else 1)
    except ValueError as e:
        tensor = cfg["hamiltonian"]["kind"] == "tensor"
        where = "hamiltonian.path" if tensor else "hamiltonian.params"
        raise ConfigError(f"{where}: {e}, got {field.dim_p}x{field.dim_q}") from None
    try:
        a, b, gap = order_gap(field, pg, qg, horizon, steps)
    except ValueError as e:
        raise ConfigError(f"hj: {e}") from None
    chosen = a if order == "vex_cav" else b
    export_csv(chosen, out / "values.csv")
    report = summary_dict(chosen, field)
    report["order_gap"] = gap
    _write_json(out / "report.json", {"config_hash": out.name, "solve_hj": report})
    return EXIT_OK


def _sim_params(cfg: dict):
    sim = _block(cfg, "sim")
    horizon = _positive(cfg.get("horizon", 1.0), "horizon")
    dt = _positive(sim.get("dt", 1.0 / 512), "sim.dt")
    n_paths = _positive_int(sim.get("n_paths", 1000), "sim.n_paths")
    start = _need(sim, "start", "sim")
    p = _simplex_vector(_need(start, "p", "sim.start"), "sim.start.p")
    q = _simplex_vector(_need(start, "q", "sim.start"), "sim.start.q")
    return sim, horizon, dt, n_paths, p, q


def _cmd_simulate(cfg: dict, out: Path, threads: int) -> int:
    from splitgame.sde import NoiseGrid, dump_trajectories, simulate, simulation_report

    sim, horizon, dt, n_paths, p, q = _sim_params(cfg)
    seed = cfg.get("seed", 0)
    controls = _need(sim, "controls", "sim")
    u = build_control(_need(controls, "u", "sim.controls"), 0.0, horizon,
                      p.size, "sim.controls.u", _block(cfg, "split"))
    v = build_control(_need(controls, "v", "sim.controls"), 0.0, horizon,
                      q.size, "sim.controls.v", _block(cfg, "split"))
    try:
        noise = NoiseGrid(0.0, horizon, dt, n_paths, seed, p.size, q.size)
        rep = simulation_report(0.0, p, q, u, v, noise, threads=threads)
        if sim.get("dump_trajectories", False):
            bundle = simulate(0.0, p, q, u, v, noise, threads=threads)
            dump_trajectories(bundle, out / "trajectories.csv")
    except ValueError as e:
        raise ConfigError(f"sim: {e}") from None
    payload = {
        "config_hash": out.name,
        "simulate": {
            "n_paths": rep.n_paths,
            "martingale_ok": rep.martingale_ok,
            "worst_dev": rep.worst_dev,
            "worst_margin": rep.worst_margin,
            "min_coord": rep.min_coord,
            "max_sum_err": rep.max_sum_err,
            "support_monotone": rep.support_monotone,
        },
    }
    _write_json(out / "report.json", payload)
    return EXIT_OK if rep.martingale_ok and rep.min_coord >= 0.0 else EXIT_CHECK_FAILED


def _cmd_split_demo(cfg: dict, out: Path, threads: int) -> int:
    from splitgame.splitting import landing_report, run_split

    spec = build_split_spec(_block(cfg, "split"))
    seed = cfg.get("seed", 0)
    n_paths = _positive_int(_block(cfg, "sim").get("n_paths", 10_000), "sim.n_paths")
    bundle = run_split(spec, n_paths=n_paths, seed=seed, threads=threads)
    xt = bundle.x_paths[:, -1, :]
    rep = landing_report(spec, xt)

    # histogram of scalar landing positions
    x = spec.scalar_of(xt)
    edges = np.linspace(-spec.delta - 0.05, 1.0 + spec.delta + 0.05, 64)
    counts, _ = np.histogram(x, bins=edges)
    write_atomic(out / "histogram.csv", ["bin_left,bin_right,count\n"],
                 (f"{edges[i]:.17g},{edges[i+1]:.17g},{int(c)}\n" for i, c in enumerate(counts)))

    payload = {
        "config_hash": out.name,
        "split_demo": {
            "eps_mean": rep.eps_mean, "eps_se": rep.eps_se,
            "hit1_freq": rep.hit1_freq, "hit1_se": rep.hit1_se,
            "lam1": rep.lam1, "hit1_ok": rep.hit1_ok,
            "unabsorbed_frac": rep.unabsorbed_frac,
            "martingale_ok": rep.martingale_ok,
            "segment_excess": rep.segment_excess,
            "n_paths": rep.n_paths,
        },
    }
    _write_json(out / "report.json", payload)
    return EXIT_OK if rep.hit1_ok and rep.martingale_ok else EXIT_CHECK_FAILED


def _cmd_mc_game(cfg: dict, out: Path, threads: int) -> int:
    from splitgame.arena import Strategy, StrategyFamily, preset_family, value_bracket
    from splitgame.sde import zero_control
    from splitgame.splitting import make_split_control

    field = build_field(cfg)
    block = _block(cfg, "arena")
    horizon = _positive(cfg.get("horizon", 1.0), "horizon")
    seed = cfg.get("seed", 0)
    n_paths = _positive_int(block.get("n_paths", 2000), "arena.n_paths")
    dt = _positive(block.get("dt", 1.0 / 512), "arena.dt")
    start = _need(_block(cfg, "sim"), "start", "sim")
    p = _simplex_vector(_need(start, "p", "sim.start"), "sim.start.p")
    q = _simplex_vector(_need(start, "q", "sim.start"), "sim.start.q")
    scale = _positive(block.get("scale", 0.5), "arena.scale")
    if field.dim_p != p.size or field.dim_q != q.size:
        raise ConfigError("sim.start: dimensions do not match the hamiltonian")

    split_spec = build_split_spec(_block(cfg, "split")) if p.size == 2 else None
    fam1 = preset_family(p.size, scale=scale, split_spec=split_spec)
    if q.size == 1:
        fam2 = StrategyFamily(1, [Strategy("zero", lambda t, T: zero_control(t, T, 1))])
    else:
        fam2 = preset_family(q.size, scale=scale)
    try:
        br = value_bracket(0.0, p, q, field, fam1, fam2, horizon=horizon, dt=dt,
                           n_paths=n_paths, seed=seed, threads=threads)
    except ValueError as e:
        raise ConfigError(f"arena: {e}") from None
    result = {
        "lower": br.lower, "lower_se": br.lower_se,
        "upper": br.upper, "upper_se": br.upper_se,
        "ordered": br.ordered,
        "names_1": br.names_1, "names_2": br.names_2,
        "table": br.table.tolist(),
    }
    _write_json(out / "report.json", {"config_hash": out.name, "mc_game": result})

    # cumulative results file keyed by config hash
    registry = out.parent / "mc_game_results.json"
    existing = _load_registry(registry)
    existing[out.name] = result
    _write_json(registry, existing)
    return EXIT_OK if br.ordered else EXIT_CHECK_FAILED


def _cmd_verify(cfg: dict, out: Path, threads: int) -> int:
    from splitgame.acceptance import run_all

    seed = cfg.get("seed", 0)
    results = run_all(seed=seed, threads=threads)
    for r in results:
        print(r.line())
    payload = {
        "config_hash": out.name,
        "verify": [
            {"name": r.name, "passed": bool(r.passed), "measured": float(r.measured),
             "bound": float(r.bound), "detail": r.detail}
            for r in results
        ],
    }
    _write_json(out / "report.json", payload)
    return EXIT_OK if all(r.passed for r in results) else EXIT_CHECK_FAILED


_DISPATCH = {
    "solve-hj": _cmd_solve_hj,
    "simulate": _cmd_simulate,
    "split-demo": _cmd_split_demo,
    "mc-game": _cmd_mc_game,
    "verify": _cmd_verify,
}


def run(subcommand: str, config: dict, out_dir, threads: int = 1,
        seed: int | None = None) -> int:
    """Programmatic entry point; returns the process exit code."""
    if subcommand not in _DISPATCH:
        raise ConfigError(f"unknown subcommand {subcommand!r}")
    cfg = {k: v for k, v in config.items() if not k.startswith("_")}
    if seed is not None:
        cfg["seed"] = _seed(seed, "--seed")
    _seed(cfg.get("seed", 0), "seed")
    cfg["_config_dir"] = config.get("_config_dir", ".")
    hashed = {k: v for k, v in cfg.items() if not k.startswith("_")}
    block = cfg.get("hamiltonian")
    if isinstance(block, dict) and block.get("kind") == "tensor":
        tensor = Path(cfg["_config_dir"]) / str(block.get("path", ""))
        if tensor.is_file():  # otherwise build_field raises the ConfigError
            sha = hashlib.sha256(tensor.read_bytes()).hexdigest()
            hashed["hamiltonian"] = {**block, "sha256": sha}
    digest = config_hash(hashed)
    out = Path(out_dir) / digest
    out.mkdir(parents=True, exist_ok=True)
    return _DISPATCH[subcommand](cfg, out, threads)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="splitgame",
        description="Simplex-martingale game laboratory: solve, simulate, verify.")
    parser.add_argument("subcommand", choices=SUBCOMMANDS)
    parser.add_argument("--config", type=str, default=None,
                        help="JSON experiment configuration")
    parser.add_argument("--out", type=str, default=None,
                        help="output directory (fallback: $SPLITGAME_OUT, then ./out)")
    parser.add_argument("--threads", type=int, default=None,
                        help="worker threads (default: all cores)")
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
        threads = args.threads if args.threads is not None else (os.cpu_count() or 1)
        if threads < 1:
            raise ConfigError("--threads must be at least 1")
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
