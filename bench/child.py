"""One benchmark case, in its own process.

    python3 bench/child.py plain STATS ARGS...           # as `python -m lietop ARGS`
    python3 bench/child.py traced STATS PREFIX ARGS...   # same, with layer spans

Both modes sample the CPU's speed while the case runs: every 10 ms of CPU
time a SIGPROF handler times a fixed piece of pure-Python work (the probe).
On a shared host the same code runs up to ~1.8x slower while co-tenants are
busy, switching within a second; the probe slows down with it.  The mean of
1/probe time over the ticks is the time-weighted speed, which lets the
parent scale the case's wall time to a fixed reference speed.

`plain` imports lietop the way `python -m lietop` does and then runs the CLI
module.  `traced` wraps every layer entry point first, runs lietop.cli.main
and writes the spans to PREFIX.* when the command ends.  Both print the
command's output to stdout and write JSON to the file STATS at exit: the
mean of 1/probe seconds, and for `plain` also setup_s (from the parent's
spawn, LIETOP_BENCH_SPAWN_NS as time.monotonic_ns, to import done) and the
mean of 1/probe seconds up to then.
"""

import atexit
import json
import os
import signal
import sys
import time

# The probe is made of what lietop's hot loops are made of: Python calls,
# tuple keys and small-dict lookups and updates.  Of the probes tried
# (rational arithmetic, a large-table walk, this one cold, long and warm),
# this one timed warm tracked lietop's slowdowns best on every workload.
PROBE_TABLE = {(i, j): {k: i + j + k for k in range(3)} for i in range(6) for j in range(6) if (i + j) % 2}
PROBE_INTERVAL_S = 0.01
inverse_probe = [0.0, 0]  # sum of 1/probe seconds, ticks
stats: dict = {}


def _probe_entry(i: int, j: int) -> dict:
    return PROBE_TABLE.get((i, j), {})


def _probe_step(row: dict) -> dict:
    out: dict = {}
    for k, v in row.items():
        for kk, vv in _probe_entry(k, k + 1).items():
            out[kk] = out.get(kk, 0) + v * vv
    return out


def _probe_work() -> None:
    for i in range(4):
        for j in range(6):
            _probe_step(_probe_entry(i, j))


def probe(_signum, _frame) -> None:
    """Time the probe work on warm caches: the first round refills them
    after lietop's work evicted the probe's code and data."""
    _probe_work()
    t0 = time.perf_counter()
    _probe_work()
    inverse_probe[0] += 1 / (time.perf_counter() - t0)
    inverse_probe[1] += 1


def mean_inverse_probe() -> float | None:
    total, ticks = inverse_probe
    return total / ticks if ticks else None


def setup_done() -> None:
    stats["setup_s"] = (time.monotonic_ns() - int(os.environ["LIETOP_BENCH_SPAWN_NS"])) / 1e9
    stats["setup_inverse_probe"] = mean_inverse_probe()


def write_stats(path: str) -> None:
    signal.setitimer(signal.ITIMER_PROF, 0)
    stats["inverse_probe"] = mean_inverse_probe()
    stats["ticks"] = inverse_probe[1]
    with open(path, "w") as fh:
        json.dump(stats, fh)


def plain(args: list[str]) -> None:
    import runpy

    import lietop.cli  # noqa: F401  -- everything `python -m lietop` imports

    setup_done()
    sys.argv = ["lietop", *args]
    runpy.run_module("lietop", run_name="__main__", alter_sys=True)


def traced(prefix: str, args: list[str]) -> int:
    from tracer import Tracer, instrument_lietop

    tracer = Tracer()
    missing = instrument_lietop(tracer)
    import lietop.cli

    t0 = time.perf_counter()
    code = lietop.cli.main(args)
    wall = time.perf_counter() - t0
    sys.stdout.flush()
    tracer.dump(prefix, wall=wall, missing=missing)
    return code


if __name__ == "__main__":
    mode, stats_path = sys.argv[1], sys.argv[2]
    atexit.register(write_stats, stats_path)
    signal.signal(signal.SIGPROF, probe)
    signal.setitimer(signal.ITIMER_PROF, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
    if mode == "plain":
        plain(sys.argv[3:])
    else:
        raise SystemExit(traced(sys.argv[3], sys.argv[4:]))
