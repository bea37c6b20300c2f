#!/usr/bin/env python3
"""splitgame benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout.  Every invocation is a fresh process
(bench/child.py) that loads splitgame from ./src and runs one CLI subcommand
through ``cli.run`` with one thread, in a fresh temporary directory under
./.bench-work that is deleted once its output is checked.

--trace 0 spawns one setup probe (a process that only loads and parses,
which also warms the file cache), then runs the workload back to back while
the next invocation is expected to end within S seconds (at least once),
then spends what is left of S on further setup probes (at least one).  It
reports the end-to-end metrics as medians over the invocations; setup_s is
the median over probes and invocations alike.

run_s and setup_s are stated at the reference speed of the host: each
process times a fixed loop while it works (bench/child.py), and its wall
time is divided by how much slower than the reference that loop ran.  The
vCPUs of a shared host slow down by up to half for seconds to minutes at a
time, which moves raw wall time more than any bound could allow; the
correction takes most of that out (README.md, "Noise").  Raw wall time and
the slowdown are reported by the traced run as host.wall_run_s and
host.slowdown.

--trace 1 runs pairs of an untraced and a traced invocation instead and
reports the per-layer metrics of the traced ones, plus the gap between the
two as the tracing overhead; the two must leave byte-identical artifacts.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics; the line before it carries the provenance.
The exit code is 1 if any output check failed, 2 if the program is missing.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path

import spans
from workloads import CONFIGS, ROOT, VALUE_ERR_MISSING, WORKLOADS, Outcome

BENCH = Path(__file__).resolve().parent
SRC = ROOT / "src"
WORK = ROOT / ".bench-work"

END_TO_END = [
    ("run_s", "s", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("ok_frac", "1", "higher"),
    ("value_err", "1", "lower"),
]
CHILD_TIMEOUT_S = 150.0
POLL_S = 0.02
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


@dataclass
class Invocation:
    setup_s: float | None  # at the reference speed
    run_s: float           # at the reference speed
    wall_run_s: float
    slowdown: float        # of the host while cli.run ran, against the reference
    rss_mb: float
    outcome: Outcome
    artifact_bytes: int = 0
    digest: str = ""
    spans: list = field(default_factory=list)
    counts: dict = field(default_factory=dict)


def _wait(proc: subprocess.Popen, timeout: float):
    """Reap proc with wait4 and return its rusage; kill it past timeout."""
    deadline = time.monotonic() + timeout
    try:
        while True:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                break
            if time.monotonic() > deadline:
                proc.kill()
                _, status, usage = os.wait4(proc.pid, 0)
                break
            time.sleep(POLL_S)
    except BaseException:
        proc.kill()
        os.wait4(proc.pid, 0)
        proc.returncode = -9
        raise
    proc.returncode = os.waitstatus_to_exitcode(status)
    return usage


def spawn(args: list[str], tmp: Path) -> tuple[int, float | None, dict, float]:
    """Run bench/child.py; returns (exit code, setup_s at the reference speed,
    its result, peak RSS MB).

    A child that dies before writing its result gets run_s = its whole lifetime
    and no setup_s.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    env.update({name: "1" for name in THREAD_ENV})
    env["PYTHONHASHSEED"] = "0"  # the same dict and set layouts in every process
    with open(tmp / "child.log", "w") as log:
        spawned = time.monotonic()
        proc = subprocess.Popen([sys.executable, str(BENCH / "child.py"), *args],
                                stdout=log, stderr=subprocess.STDOUT, cwd=ROOT, env=env)
        usage = _wait(proc, CHILD_TIMEOUT_S)
        lifetime = time.monotonic() - spawned
    try:
        result = json.loads((tmp / "result.json").read_text())
    except (OSError, ValueError):
        result = {}
    result.setdefault("run_s", lifetime)
    setup_s = None
    if "setup_slowdown" in result:
        setup_s = (result["ready"] - spawned - result["setup_probe_s"]) / result["setup_slowdown"]
    return proc.returncode, setup_s, result, usage.ru_maxrss / 1024.0


def _artifacts(out: Path) -> tuple[int, str]:
    """Total bytes under out/, and a digest of the files in its hash directory."""
    total = 0
    h = hashlib.sha256()
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        total += path.stat().st_size
        if path.parent != out:
            h.update(str(path.relative_to(out)).encode())
            h.update(path.read_bytes())
    return total, h.hexdigest()


def invoke(wl, traced: bool = False) -> Invocation:
    """One workload invocation in a fresh process and temporary directory."""
    tmp = Path(tempfile.mkdtemp(prefix=f"{wl.name}-", dir=WORK))
    try:
        cfg = wl.config(tmp)
        args = [wl.subcommand, str(cfg), str(tmp)] + (["--trace"] if traced else [])
        code, setup_s, result, rss = spawn(args, tmp)
        out = tmp / "out"
        hash_dirs = [d for d in out.iterdir() if d.is_dir()] if out.is_dir() else []
        if len(hash_dirs) == 1:
            try:
                outcome = wl.check(hash_dirs[0], code)
            except (OSError, ValueError, KeyError, TypeError) as e:
                outcome = Outcome(False, VALUE_ERR_MISSING, f"unreadable output: {e}")
        else:
            outcome = Outcome(False, VALUE_ERR_MISSING, f"exit {code}, no artifact directory")
        slowdown = result.get("run_slowdown", 1.0)
        inv = Invocation(setup_s, result["run_s"] / slowdown, result["run_s"], slowdown,
                         rss, outcome)
        if out.is_dir():
            inv.artifact_bytes, inv.digest = _artifacts(out)
        if traced and (tmp / "spans.jsonl").is_file():
            inv.spans = spans.read_spans(tmp / "spans.jsonl")
            inv.counts = result.get("counts", {})
            shutil.copyfile(tmp / "spans.jsonl", WORK / f"spans-{wl.name}.jsonl")
        if not outcome.ok:
            log = (tmp / "child.log").read_text(errors="replace")[-2000:]
            print(f"{wl.name}: check failed: {outcome.detail}\n{log}", file=sys.stderr)
        return inv
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def probe_setup(wl) -> float:
    """setup_s of a process that only loads splitgame and parses the config."""
    tmp = Path(tempfile.mkdtemp(prefix=f"{wl.name}-setup-", dir=WORK))
    try:
        code, setup_s, _, _ = spawn([wl.subcommand, str(wl.config(tmp)), str(tmp),
                                     "--setup-only"], tmp)
        if code != 0 or setup_s is None:
            log = (tmp / "child.log").read_text(errors="replace")[-2000:]
            raise RuntimeError(f"setup probe exited {code}:\n{log}")
        return setup_s
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def measure(wl, seconds: float, trace: bool) -> dict:
    """One benchmark run: the result object of the last output line."""
    deadline = time.monotonic() + seconds
    setups: list[float] = []
    plain: list[Invocation] = []
    traced: list[Invocation] = []
    if not trace:
        setups.append(probe_setup(wl))
    # start no round that the last one says would end past the deadline
    while True:
        round_start = time.monotonic()
        plain.append(invoke(wl))
        if trace:
            traced.append(invoke(wl, traced=True))
        now = time.monotonic()
        if now + (now - round_start) > deadline:
            break
    while not trace:
        probe_start = time.monotonic()
        setups.append(probe_setup(wl))
        now = time.monotonic()
        if now + (now - probe_start) > deadline:
            break

    invocations = plain + traced
    failed = sum(not inv.outcome.ok for inv in invocations)
    if trace:
        mismatched = sum(u.digest != t.digest for u, t in zip(plain, traced))
        if mismatched:
            print(f"{wl.name}: tracing changed the artifacts in {mismatched} run(s)",
                  file=sys.stderr)
        failed += mismatched
        metrics = _layer_values(plain, traced)
        units = {name: unit for name, unit, _ in spans.LAYER_METRICS}
    else:
        metrics = _end_to_end_values(plain, setups)
        units = {name: unit for name, unit, _ in END_TO_END}
    return {
        "correct": failed == 0,
        "attempted": len(invocations),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }


def _median(values) -> float:
    return statistics.median(v for v in values if v is not None)


def _end_to_end_values(invs: list[Invocation], setups: list[float]) -> dict:
    return {
        "run_s": _median(inv.run_s for inv in invs),
        "setup_s": _median(setups + [inv.setup_s for inv in invs]),
        "peak_rss_mb": _median(inv.rss_mb for inv in invs),
        "ok_frac": sum(inv.outcome.ok for inv in invs) / len(invs),
        "value_err": _median(inv.outcome.value_err for inv in invs),
    }


def layer_values(inv: Invocation) -> dict:
    """Per-layer metrics of one traced invocation (trace.* and host.* excepted),
    span times at the reference speed."""
    values = spans.layer_metrics(inv.spans, inv.counts)
    for name, unit, _ in spans.LAYER_METRICS:
        if unit == "s" and name in values:
            values[name] /= inv.slowdown
    values["cli.artifact_bytes"] = inv.artifact_bytes
    return values


def _layer_values(plain: list[Invocation], traced: list[Invocation]) -> dict:
    per_inv = [layer_values(inv) for inv in traced]
    out = {name: _median(v[name] for v in per_inv) for name, _, _ in spans.LAYER_METRICS
           if not name.startswith(spans.RUN_PREFIXES)}
    out["host.wall_run_s"] = _median(inv.wall_run_s for inv in plain)
    out["host.slowdown"] = _median(inv.slowdown for inv in plain)
    base = _median(inv.run_s for inv in plain)
    gap = _median(inv.run_s for inv in traced) - base
    out["trace.overhead_s"] = gap
    out["trace.overhead_frac"] = gap / base
    return out


def _git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def provenance() -> dict:
    sources = sorted(SRC.rglob("*.py"))
    h = hashlib.sha256()
    lines = 0
    for path in sources:
        data = path.read_bytes()
        h.update(str(path.relative_to(SRC)).encode())
        h.update(data)
        lines += data.count(b"\n")
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "git_commit": _git_commit(),
        "src_lines": lines,
        "src_sha256": h.hexdigest(),
    }


def _print_metrics(prefix: str, result: dict) -> None:
    for name, m in result["metrics"].items():
        print(f"{prefix}{name} = {m['value']:.6g} {m['unit']}")
    print(f"{prefix}correct = {result['correct']} "
          f"({result['failed']} of {result['attempted']} invocations failed)")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per run (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "splitgame" / "cli.py").is_file() or not CONFIGS.is_dir():
        print(f"error: no splitgame program under {ROOT} (src/splitgame, configs/)",
              file=sys.stderr)
        return 2
    seconds = args.seconds
    if seconds is None:
        seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    WORK.mkdir(exist_ok=True)

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        wl = WORKLOADS[name](args.seed)
        results[name] = measure(wl, seconds, bool(args.trace))
        _print_metrics(f"{name}: " if len(names) > 1 else "", results[name])
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}/{metric}": m for name, r in results.items()
                        for metric, m in r["metrics"].items()},
        }
    print("provenance " + json.dumps(provenance(), sort_keys=True))
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
