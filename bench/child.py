"""One benchmark invocation, in a fresh process.

    python3 bench/child.py SUBCOMMAND CONFIG TMPDIR [--trace] [--setup-only]

Loads splitgame (with numpy and scipy) and parses CONFIG, then records the
moment it is ready: the parent subtracts its spawn time to get setup_s.
Unless --setup-only, it then runs the subcommand through ``cli.run`` with one
thread, writing artifacts under TMPDIR/out, and times that call as run_s.
With --trace the layers are wrapped first and the spans go to
TMPDIR/spans.jsonl, outside every <out>/<hash>/ directory.  The timings go to
TMPDIR/result.json; the exit code is the CLI's.

A speed probe runs from the first line on: a fixed pure-Python loop, timed a
few times at the start, once every PROBE_EVERY_S while the process works (on
SIGALRM, between the program's own bytecodes), and a few times after the
run.  ``setup_slowdown`` and ``run_slowdown`` are its mean time over each
phase as a multiple of PROBE_REF_S, so the parent can state both phases at
the reference speed of the host.  The probes taken inside cli.run are
subtracted from run_s, and those taken during setup are reported as
``setup_probe_s`` for the parent to subtract from setup_s.
"""

import signal
import statistics
import sys
import time

PROBE_LOOP = 20_000     # iterations of the probe loop, about 1.2 ms
PROBE_EVERY_S = 0.1
PROBE_EDGE = 5          # probes before setup and after the run
# the probe's time on an idle vCPU of the 2-vCPU Xeon (2.0 GHz, Python 3.11)
# host the bounds were set on
PROBE_REF_S = 1.2e-3


def _probe() -> float:
    start = time.perf_counter()
    total = 0
    for i in range(PROBE_LOOP):
        total += i * i % 7
    return time.perf_counter() - start


class Speedometer:
    """Probe times in the order taken; ``mark()`` indexes them by phase."""

    def __init__(self):
        self.samples: list[float] = []
        self._sample(PROBE_EDGE)
        signal.signal(signal.SIGALRM, lambda *_: self._sample(1))
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)

    def _sample(self, n: int) -> None:
        for _ in range(n):
            self.samples.append(_probe())

    def mark(self) -> int:
        return len(self.samples)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        self._sample(PROBE_EDGE)

    def slowdown(self, lo: int, hi: int | None = None) -> float:
        return statistics.fmean(self.samples[lo:hi]) / PROBE_REF_S


def main(argv: list[str]) -> int:
    speed = Speedometer()
    subcommand, config, tmp = argv[:3]
    traced = "--trace" in argv[3:]
    setup_only = "--setup-only" in argv[3:]

    import json
    from pathlib import Path

    import splitgame  # noqa: F401 - numpy, scipy and the layers
    import splitgame.arena  # noqa: F401 - loaded lazily by mc-game otherwise
    from splitgame import cli

    try:
        cfg = cli.load_config(config)
    except cli.ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return cli.EXIT_CONFIG
    ready = time.monotonic()
    ready_mark = speed.mark()

    result = {"ready": ready}
    code = cli.EXIT_OK
    if not setup_only:
        rec = None
        if traced:
            import spans  # bench/ is sys.path[0]

            rec = spans.Recorder()
            spans.install(rec)
        start_mark = speed.mark()
        start = time.perf_counter()
        try:
            code = cli.run(subcommand, cfg, Path(tmp) / "out", threads=1)
        except cli.ConfigError as e:
            print(f"config error: {e}", file=sys.stderr)
            code = cli.EXIT_CONFIG
        except Exception as e:  # noqa: BLE001 - reported like the CLI does
            print(f"internal error: {type(e).__name__}: {e}", file=sys.stderr)
            code = cli.EXIT_INTERNAL
        run_s = time.perf_counter() - start
        end_mark = speed.mark()
        speed.stop()
        result["run_s"] = run_s - sum(speed.samples[start_mark:end_mark])
        result["run_slowdown"] = speed.slowdown(start_mark)
        if rec is not None:
            rec.write(Path(tmp) / "spans.jsonl")
            result["counts"] = rec.final_counts()
    else:
        speed.stop()
    result["setup_probe_s"] = sum(speed.samples[:ready_mark])
    result["setup_slowdown"] = speed.slowdown(0, ready_mark)
    Path(tmp, "result.json").write_text(json.dumps(result))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
