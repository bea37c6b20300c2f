#!/usr/bin/env python3
"""Self-test of the benchmark's tracing.

    python3 bench/selftest.py [WORKLOAD ...]

Runs each workload traced twice and checks that

- every per-layer metric is non-zero on each workload it is predicted to
  move (PREDICTED), which catches a wrapper patched in the wrong namespace;
- every deterministic count repeats exactly between the two runs, and the
  pinned counts (PINNED) have their known values;
- BENCHMARK.json lists exactly the metrics and workloads the code reports.

Exit code 0 if all hold, 1 otherwise.  Takes about two minutes per workload.
"""

from __future__ import annotations

import json
import sys

import run
import spans
from workloads import ROOT, WORKLOADS

BILINEAR, TENT, ACTIVE, SIMPLEX3 = WORKLOADS

# per-layer metric -> workloads on which it must be non-zero, because it is
# predicted to move an end-to-end metric there (bench/README.md lists which)
PREDICTED = {
    "cli.build_field.s": [SIMPLEX3],
    "cli.artifact_bytes": [BILINEAR],
    "hamiltonian.vex_p.calls": [BILINEAR, SIMPLEX3],
    "hamiltonian.vex_p.s": [BILINEAR, SIMPLEX3],
    "hamiltonian.vex_p.self_s": [BILINEAR, SIMPLEX3],
    "hamiltonian.cav_q.calls": [BILINEAR, SIMPLEX3],
    "hamiltonian.cav_q.s": [BILINEAR, SIMPLEX3],
    "hamiltonian.lower_hull_1d.calls": [BILINEAR],
    "hamiltonian.lower_hull_1d.s": [BILINEAR],
    "hamiltonian.eval_H.calls": [SIMPLEX3],
    "hamiltonian.eval_H.s": [SIMPLEX3],
    "hamiltonian.lp.calls": [SIMPLEX3],
    "hamiltonian.lp.s": [SIMPLEX3],
    "hamiltonian.on_paths.calls": [TENT],
    "hamiltonian.on_paths.s": [TENT],
    "simplex.rel_eigen.calls": [SIMPLEX3],
    "simplex.rel_eigen.s": [SIMPLEX3],
    "hj.solve.calls": [BILINEAR, SIMPLEX3],
    "hj.solve.s": [BILINEAR, SIMPLEX3],
    "hj.solve.self_s": [BILINEAR, SIMPLEX3],
    "hj.node_steps": [BILINEAR, SIMPLEX3],
    "hj.residuals.s": [SIMPLEX3],
    "hj.residuals.self_s": [SIMPLEX3],
    "hj.regularity_report.s": [BILINEAR, SIMPLEX3],
    "hj.export_csv.s": [BILINEAR],
    "hj.export_csv.bytes": [BILINEAR],
    "sde.noise.calls": [TENT, ACTIVE],
    "sde.noise.s": [TENT, ACTIVE],
    "sde.noise.draws": [TENT, ACTIVE],
    "sde.noise.unique_frac": [TENT, ACTIVE],
    "sde.estimator.calls": [TENT, ACTIVE],
    "sde.estimator.s": [TENT, ACTIVE],
    "sde.estimator.self_s": [TENT, ACTIVE],
    "sde.path_steps": [TENT, ACTIVE],
    "splitting.feedback.calls": [TENT],
    "splitting.feedback.s": [TENT],
    "arena.value_bracket.s": [TENT],
    "arena.pairs": [TENT],
}

PINNED = {
    (BILINEAR, "hamiltonian.lower_hull_1d.calls"): 25_856,
    (SIMPLEX3, "hamiltonian.eval_H.calls"): 1_020,
    (TENT, "sde.noise.unique_frac"): 1 / 3,
}


def traced_layers(wl) -> dict:
    inv = run.invoke(wl, traced=True)
    if not inv.outcome.ok:
        raise SystemExit(f"{wl.name}: output check failed: {inv.outcome.detail}")
    return run.layer_values(inv)


def check_benchmark_json(problems: list[str]) -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    listed = [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
    if listed != spans.LAYER_METRICS:
        problems.append("BENCHMARK.json per_layer differs from spans.LAYER_METRICS")
    listed = [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]]
    if listed != run.END_TO_END:
        problems.append("BENCHMARK.json end_to_end differs from run.END_TO_END")
    listed = [(w["name"], w["why"]) for w in spec["workloads"]]
    if listed != [(w.name, w.why) for w in WORKLOADS.values()]:
        problems.append("BENCHMARK.json workloads differ from workloads.WORKLOADS")
    per_span = {m for m, _, _ in spans.LAYER_METRICS if not m.startswith(spans.RUN_PREFIXES)}
    if set(PREDICTED) != per_span:
        problems.append("PREDICTED does not cover exactly the per-layer metrics")


def main(argv: list[str]) -> int:
    names = argv or list(WORKLOADS)
    problems: list[str] = []
    check_benchmark_json(problems)
    run.WORK.mkdir(exist_ok=True)
    units = {m: unit for m, unit, _ in spans.LAYER_METRICS}
    for name in names:
        wl = WORKLOADS[name](0)
        first, second = traced_layers(wl), traced_layers(wl)
        for metric, on in PREDICTED.items():
            if name in on and not first[metric]:
                problems.append(f"{name}: {metric} is 0 but predicted to move")
        for metric, value in first.items():
            # timings vary from run to run; everything else is a count
            if units[metric] != "s" and not metric.startswith(spans.RUN_PREFIXES) \
                    and value != second[metric]:
                problems.append(f"{name}: {metric} = {value} then {second[metric]}")
        for (where, metric), want in PINNED.items():
            if where == name and first[metric] != want:
                problems.append(f"{name}: {metric} = {first[metric]}, expected {want}")
        print(f"{name}: traced twice, {len(problems)} problem(s) so far", flush=True)
    for p in problems:
        print(f"FAIL {p}")
    print("selftest " + ("FAILED" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
