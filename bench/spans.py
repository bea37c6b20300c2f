"""Spans and counts recorded from outside the program.

``install`` wraps splitgame's public functions after import.  A wrapped name
is replaced in every splitgame module that holds it, because modules look
names up in their own namespace (``hj.vex_p``, ``splitting.lower_hull_1d``,
``hamiltonian.linprog``): patching only the defining module would let those
calls escape their spans.  Spans live in memory as ``[name, start, end,
parent]`` and are written out once the run is over.  The recorder assumes one
thread, which is what ``--threads 1`` runs.

``layer_metrics`` turns spans and counts into the per-layer metrics: for a
span name S, ``S.calls``, ``S.s`` (total span time) and ``S.self_s`` (span time
minus the time of its child spans); every other name is a count.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import sys
import time

# (name, unit, better).  BENCHMARK.json's per_layer list is this list.
LAYER_METRICS = [
    ("cli.build_field.s", "s", "lower"),
    ("cli.artifact_bytes", "bytes", "lower"),
    ("hamiltonian.vex_p.calls", "count", "lower"),
    ("hamiltonian.vex_p.s", "s", "lower"),
    ("hamiltonian.vex_p.self_s", "s", "lower"),
    ("hamiltonian.cav_q.calls", "count", "lower"),
    ("hamiltonian.cav_q.s", "s", "lower"),
    ("hamiltonian.lower_hull_1d.calls", "count", "lower"),
    ("hamiltonian.lower_hull_1d.s", "s", "lower"),
    ("hamiltonian.eval_H.calls", "count", "lower"),
    ("hamiltonian.eval_H.s", "s", "lower"),
    ("hamiltonian.lp.calls", "count", "lower"),
    ("hamiltonian.lp.s", "s", "lower"),
    ("hamiltonian.on_paths.calls", "count", "lower"),
    ("hamiltonian.on_paths.s", "s", "lower"),
    ("simplex.rel_eigen.calls", "count", "lower"),
    ("simplex.rel_eigen.s", "s", "lower"),
    ("hj.solve.calls", "count", "lower"),
    ("hj.solve.s", "s", "lower"),
    ("hj.solve.self_s", "s", "lower"),
    ("hj.node_steps", "count", "lower"),
    ("hj.residuals.s", "s", "lower"),
    ("hj.residuals.self_s", "s", "lower"),
    ("hj.regularity_report.s", "s", "lower"),
    ("hj.export_csv.s", "s", "lower"),
    ("hj.export_csv.bytes", "bytes", "lower"),
    ("sde.noise.calls", "count", "lower"),
    ("sde.noise.s", "s", "lower"),
    ("sde.noise.draws", "count", "lower"),
    ("sde.noise.unique_frac", "1", "higher"),
    ("sde.estimator.calls", "count", "lower"),
    ("sde.estimator.s", "s", "lower"),
    ("sde.estimator.self_s", "s", "lower"),
    ("sde.path_steps", "count", "lower"),
    ("splitting.feedback.calls", "count", "lower"),
    ("splitting.feedback.s", "s", "lower"),
    ("arena.value_bracket.s", "s", "lower"),
    ("arena.pairs", "count", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.overhead_frac", "1", "lower"),
    ("host.wall_run_s", "s", "lower"),
    ("host.slowdown", "1", "lower"),
]
# metrics of the run as a whole, which bench/run.py computes (no span behind them)
RUN_PREFIXES = ("trace.", "host.")

SPAN_STATS = ("calls", "s", "self_s")


class Recorder:
    """In-memory spans plus named counts."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, int] = {}
        self._stack: list[int] = []
        self._noise_steps: dict[tuple, int] = {}

    def add(self, name: str, n: int) -> None:
        self.counts[name] = self.counts.get(name, 0) + int(n)

    def wrap(self, name: str, fn, count=None):
        """fn inside a span called name; count(args, kwargs, result) runs after."""
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(idx)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if count is not None:
                count(args, kwargs, result)
            return result

        return wrapper

    def note_noise(self, grid, lo: int, hi: int) -> None:
        """Count noise draws and remember which (seed, path, step) they were."""
        n = grid.n_steps
        self.add("sde.noise.draws", (hi - lo) * n)
        seen = self._noise_steps
        for path in range(lo, hi):
            key = (grid.seed, grid.t, grid.dt, grid.dim1, grid.dim2, path)
            if seen.get(key, 0) < n:
                seen[key] = n

    def final_counts(self) -> dict:
        """Counts plus the share of noise draws that were not repeats (0 if none)."""
        out = dict(self.counts)
        draws = out.get("sde.noise.draws", 0)
        out["sde.noise.unique_frac"] = sum(self._noise_steps.values()) / draws if draws else 0.0
        return out

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def read_spans(path) -> list[list]:
    with open(path) as fh:
        return [json.loads(line) for line in fh]


def _replace(orig, new) -> None:
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "splitgame" or mod_name.startswith("splitgame.")):
            continue
        for key, val in list(vars(mod).items()):
            if val is orig:
                setattr(mod, key, new)


def install(rec: Recorder) -> None:
    """Wrap the public functions of every splitgame layer."""
    from splitgame import arena, cli, hamiltonian, hj, sde, simplex, splitting

    def wrap_fn(module, attr, name, count=None):
        orig = getattr(module, attr)
        _replace(orig, rec.wrap(name, orig, count))

    def wrap_method(cls, attr, name, count=None):
        setattr(cls, attr, rec.wrap(name, getattr(cls, attr), count))

    wrap_fn(cli, "build_field", "cli.build_field")
    for attr in ("vex_p", "cav_q", "lower_hull_1d", "eval_H"):
        wrap_fn(hamiltonian, attr, f"hamiltonian.{attr}")
    wrap_fn(hamiltonian, "linprog", "hamiltonian.lp")
    wrap_method(hamiltonian.HamiltonianField, "on_paths", "hamiltonian.on_paths")
    wrap_fn(simplex, "rel_eigen_min", "simplex.rel_eigen")
    wrap_fn(simplex, "rel_eigen_max", "simplex.rel_eigen")

    wrap_fn(hj, "solve", "hj.solve",
            lambda a, k, v: rec.add("hj.node_steps", (v.values.shape[0] - 1)
                                    * v.values.shape[1] * v.values.shape[2]))
    wrap_fn(hj, "residuals", "hj.residuals")
    wrap_fn(hj, "regularity_report", "hj.regularity_report")
    wrap_fn(hj, "export_csv", "hj.export_csv",
            lambda a, k, r: rec.add("hj.export_csv.bytes", os.path.getsize(a[1])))

    wrap_method(sde.NoiseGrid, "increments", "sde.noise",
                lambda a, k, r: rec.note_noise(a[0], a[1], a[2]))
    for attr in ("simulate", "estimate_j", "simulation_report"):
        sig = inspect.signature(getattr(sde, attr))

        def count(a, k, r, sig=sig):
            noise = sig.bind(*a, **k).arguments["noise"]
            rec.add("sde.path_steps", noise.n_paths * noise.n_steps)

        wrap_fn(sde, attr, "sde.estimator", count)

    orig_split = splitting.make_split_control

    @functools.wraps(orig_split)
    def make_split_control(*args, **kwargs):
        ctrl = orig_split(*args, **kwargs)
        ctrl.feedback = rec.wrap("splitting.feedback", ctrl.feedback)
        return ctrl

    _replace(orig_split, make_split_control)
    wrap_fn(arena, "value_bracket", "arena.value_bracket",
            lambda a, k, br: rec.add("arena.pairs", br.table.size))


def summarize(spans: list[list]) -> dict[str, dict[str, float]]:
    """Per span name: calls, total time s, and self time self_s."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out: dict[str, dict[str, float]] = {}
    for (name, start, end, _), inner in zip(spans, child_time):
        row = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["s"] += end - start
        row["self_s"] += end - start - inner
    return out


def layer_metrics(spans: list[list], counts: dict) -> dict[str, float]:
    """Every LAYER_METRICS value that spans and counts define (0 if none)."""
    summary = summarize(spans)
    out = {}
    for name, _, _ in LAYER_METRICS:
        prefix, _, stat = name.rpartition(".")
        if stat in SPAN_STATS:
            out[name] = summary.get(prefix, {}).get(stat, 0)
        else:
            out[name] = counts.get(name, 0)
    return out
