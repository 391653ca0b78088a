"""lietop benchmark: one workload, measured for a fixed time.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs closed-loop passes over the workload's lietop CLI cases, each case a
fresh `python -m lietop ... --format records` process, until another pass
would overrun S seconds (at least one pass).  Every output is checked.
--trace 0 reports the end-to-end metrics; --trace 1 alternates plain and
traced passes and reports the per-layer metrics.  The last stdout line is
one JSON object: correct, attempted, failed, metrics.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import harness
import tracer
import workloads

# a run never outlives this, whatever --seconds says (a hung case is killed)
HARD_LIMIT_S = 170.0


def src_line_count() -> int:
    return sum(len(p.read_text().splitlines()) for p in sorted(harness.SRC.rglob("*.py")))


def run_passes(cases, work: Path, seconds: float, trace: bool, pinned) -> list[tuple[bool, list]]:
    """Plain passes, or plain/traced pairs, until the next one would end
    after `seconds`; returns (traced, case runs) per pass."""
    start = time.monotonic()
    deadline = start + seconds
    hard_deadline = start + HARD_LIMIT_S
    kinds = (False, True) if trace else (False,)
    passes = []
    while True:
        round_start = time.monotonic()
        for traced in kinds:
            runs = harness.run_pass(cases, work, traced, hard_deadline, pinned)
            passes.append((traced, runs))
        round_s = time.monotonic() - round_start
        hung = any(r.error and r.error.startswith("timed out") for _, runs in passes for r in runs)
        if hung or time.monotonic() + round_s > deadline:
            return passes


def end_to_end(plain: list[list]) -> dict[str, tuple[float, str]]:
    walls = [sum(r.wall_s for r in runs) for runs in plain]
    setups = [r.setup_s for runs in plain for r in runs if r.setup_s is not None]
    rss = [max(r.rss_mb for r in runs) for runs in plain]
    return {
        "wall_s": (statistics.median(walls), "s"),
        "setup_s": (statistics.median(setups) if setups else 0.0, "s"),
        "peak_rss_mb": (statistics.median(rss), "MB"),
    }


def per_layer(traced: list[list], plain: list[list]) -> dict[str, tuple[float, str]]:
    """Medians over traced passes of the per-pass layer totals; self times
    are scaled to the reference CPU speed like wall_s."""
    per_pass: list[dict[str, float]] = []
    for runs in traced:
        totals: dict[str, float] = {}
        root = wall = 0.0
        for r in runs:
            if r.trace is None:
                continue
            for name in tracer.SPAN_NAMES:
                self_s = r.trace["self_s"].get(name, 0.0) * r.speed
                totals[f"{name}.self_s"] = totals.get(f"{name}.self_s", 0.0) + self_s
                totals[f"{name}.calls"] = totals.get(f"{name}.calls", 0) + r.trace["calls"].get(name, 0)
            for name in tracer.COUNT_NAMES:
                got = r.trace["counts"].get(name, 0)
                if name.endswith("max_coeff_bits"):
                    totals[name] = max(totals.get(name, 0), got)
                else:
                    totals[name] = totals.get(name, 0) + got
            root += r.trace["root_s"]
            wall += r.trace["wall_s"]
        inserts = totals.get("qlinalg.Echelon.insert.calls", 0)
        totals["qlinalg.Echelon.insert.accept_ratio"] = (
            totals.get("qlinalg.Echelon.insert.accepted", 0) / inserts if inserts else 0.0
        )
        totals["trace.coverage"] = root / wall if wall else 0.0
        per_pass.append(totals)
    traced_wall = statistics.median(sum(r.wall_s for r in runs) for runs in traced)
    plain_wall = statistics.median(sum(r.wall_s for r in runs) for runs in plain)
    out = {name: (statistics.median(p.get(name, 0) for p in per_pass), metric_unit(name))
           for name in metric_names()}
    out["trace.overhead_frac"] = (traced_wall / plain_wall - 1, "ratio")
    return out


def metric_names() -> list[str]:
    """Every per-layer metric name, in report order."""
    names = [f"{s}.{kind}" for s in tracer.SPAN_NAMES for kind in ("self_s", "calls")]
    names += list(tracer.COUNT_NAMES)
    names += ["qlinalg.Echelon.insert.accept_ratio", "trace.coverage", "trace.overhead_frac"]
    return names


def metric_unit(name: str) -> str:
    if name.endswith("self_s"):
        return "s"
    if name.startswith("trace.") or name.endswith("ratio"):
        return "ratio"
    return "bits" if name.endswith("bits") else "count"


def report_cases(passes) -> None:
    """One row per case: medians over the plain passes; raw_s is unscaled."""
    rows: dict[str, list] = {}
    for traced, runs in passes:
        for r in runs:
            rows.setdefault(r.case.id, []).append((traced, r))
    print(f"# {'case':<34} {'wall_s':>8} {'raw_s':>8} {'setup_s':>8} {'rss_mb':>7}  status")
    for case_id, entries in rows.items():
        plain = [r for traced, r in entries if not traced]
        wall = statistics.median(r.wall_s for r in plain)
        raw = statistics.median(r.raw_wall_s for r in plain)
        setups = [r.setup_s for r in plain if r.setup_s is not None]
        setup = f"{statistics.median(setups):8.4f}" if setups else f"{'-':>8}"
        rss = max(r.rss_mb for r in plain)
        errors = sorted({r.error for _, r in entries if r.error})
        print(f"  {case_id:<34} {wall:8.3f} {raw:8.3f} {setup} {rss:7.1f}  {'; '.join(errors) or 'ok'}")


def report_raw(plain: list[list]) -> None:
    """The unscaled end-to-end times, for reference; not part of the result."""
    walls = [sum(r.raw_wall_s for r in runs) for runs in plain]
    setups = [r.raw_setup_s for runs in plain for r in runs if r.raw_setup_s is not None]
    speeds = [r.speed for runs in plain for r in runs]
    print(f"wall_raw_s {statistics.median(walls):.6g} s")
    if setups:
        print(f"setup_raw_s {statistics.median(setups):.6g} s")
    print(f"cpu_speed {min(speeds):.3f}..{max(speeds):.3f} of the reference")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (harness.SRC / "lietop" / "__init__.py").is_file():
        sys.stderr.write(f"bench: no lietop package under {harness.SRC}; run from a lietop checkout\n")
        return 2

    work = harness.WORK_ROOT / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        cases = workloads.build(args.workload, args.seed, work)
        pinned = harness.load_pinned()
        # untimed warm-up: byte-compile the package and fill the file cache
        subprocess.run([sys.executable, "-c", "import lietop.cli"], check=True, timeout=120,
                       env=dict(os.environ, PYTHONPATH=str(harness.SRC)))
        passes = run_passes(cases, work, args.seconds, bool(args.trace), pinned)
    finally:
        shutil.rmtree(work)
        try:
            harness.WORK_ROOT.rmdir()
        except OSError:
            pass  # another run is still using it

    plain = [runs for traced, runs in passes if not traced]
    traced = [runs for traced, runs in passes if traced]
    all_runs = [r for _, runs in passes for r in runs]
    failed = sum(1 for r in all_runs if r.error)

    print(f"# lietop benchmark: workload {args.workload}, seed {args.seed}, "
          f"{args.seconds:g} s, trace {args.trace}")
    print(f"# machine: nproc {os.cpu_count()}, Python {platform.python_version()}, "
          f"src/ {src_line_count()} lines")
    print(f"# passes: {len(plain)} plain ({', '.join(f'{sum(r.wall_s for r in p):.3f}' for p in plain)} s)"
          + (f", {len(traced)} traced" if traced else ""))
    report_cases(passes)
    metrics = per_layer(traced, plain) if args.trace else end_to_end(plain)
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    report_raw(plain)
    print(f"failed_frac {failed / len(all_runs):.6g} ({failed}/{len(all_runs)} cases)")
    if args.trace:
        missing = sorted({m for runs in traced for r in runs if r.trace for m in r.trace["missing"]})
        if missing:
            print(f"# trace: entry points not found in lietop: {', '.join(missing)}")
        for problem in workloads.trace_problems(args.workload, {k: v for k, (v, _) in metrics.items()}):
            print(f"# trace check: {problem}")
    result = {
        "correct": failed == 0,
        "attempted": len(all_runs),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
