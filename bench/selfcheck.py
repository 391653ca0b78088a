"""Checks on the benchmark itself.

    python3 bench/selfcheck.py

1. Tracer arithmetic: on synthetic nested and recursive calls, self times
   add up to the root span's duration.
2. Every per-layer metric is exercised by some workload.
3. Gates: a corrupted pin, and a corrupted oracle input, fail their case;
   the Witt oracle rejects a wrong dimension.
4. One traced round of every workload: coverage >= 0.9 and no metric
   contradicts the workload's trace expectations.
Exits 1 on the first failed check.  Takes about two minutes.
"""

from __future__ import annotations

import json
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import harness
import run
import tracer
import workloads


def check(ok: bool, what: str) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {what}", flush=True)
    if not ok:
        raise SystemExit(1)


def tracer_arithmetic() -> None:
    t = tracer.Tracer()

    def leaf():
        time.sleep(0.002)

    def inner():
        time.sleep(0.001)
        leaf()

    def outer():
        inner()
        time.sleep(0.003)
        inner()

    def countdown(n):
        time.sleep(0.001)
        if n:
            countdown(n - 1)

    leaf, inner, outer = t.wrap("leaf", leaf), t.wrap("inner", inner), t.wrap("outer", outer)
    countdown = t.wrap("countdown", countdown)
    outer()
    countdown(3)
    self_s, calls, root = tracer.layer_totals(t.names, t.span_name, t.span_parent, t.span_start, t.span_end)
    roots = [t.span_end[i] - t.span_start[i] for i in range(len(t.span_name)) if t.span_parent[i] < 0]
    check(calls == {"leaf": 2, "inner": 2, "outer": 1, "countdown": 4}, f"span counts {calls}")
    check(abs(sum(self_s.values()) - root) < 1e-9 and abs(root - sum(roots)) < 1e-12,
          "self times add up to the root spans' duration")
    check(all(v > 0 for v in self_s.values()), "every self time is positive")
    check(self_s["leaf"] >= 0.004 and self_s["outer"] >= 0.003 and self_s["countdown"] >= 0.004,
          "each span keeps only its own sleep")


def metric_coverage() -> None:
    names = [n for n in run.metric_names() if n != "trace.overhead_frac"]
    exercised = tuple(p for nonzero, _ in workloads.TRACE_EXPECTATIONS.values() for p in nonzero)
    missing = [n for n in names if not n.startswith(exercised)]
    check(not missing, f"every per-layer metric is exercised by a workload {missing or ''}")


def gates() -> None:
    pinned = harness.load_pinned()
    harness.WORK_ROOT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=harness.WORK_ROOT) as tmp:
        work = Path(tmp)
        case = next(c for c in workloads.build("sullivan-dual", 0, work) if "wedge-circles" in c.id)
        good = harness.run_case(case, 0, work, False, 60, {}, pinned)
        check(good.error is None, f"{case.id} passes against its pin")
        flipped = pinned[case.id][:-1] + ("0" if pinned[case.id][-1] != "0" else "1")
        bad = harness.run_case(case, 0, work, False, 60, {}, {**pinned, case.id: flipped})
        check(bad.error is not None, f"a corrupted pin fails the case: {bad.error}")

        # the inverse case of a bch pair, fed v instead of v^-1
        cases = workloads.build("free-lie", 0, work)
        first, second = cases[1], cases[2]
        u, v = first.args[1], first.args[2]
        wrong = workloads.Case(second.id, ("bch", v, workloads.invert_group_word(u), *second.args[3:]),
                               second.checks)
        earlier: dict = {}
        earlier[first.id] = harness.run_case(first, 0, work, False, 60, earlier, pinned).records
        right = harness.run_case(second, 1, work, False, 60, earlier, pinned)
        check(right.error is None, "bch(v^-1, u^-1) negates bch(u, v)")
        bad = harness.run_case(wrong, 1, work, False, 60, earlier, pinned)
        check(bad.error is not None, f"a corrupted oracle input fails the case: {bad.error}")

    witt = workloads.witt_lcs(3, 4)
    records = {"lcs.1.total": "3", "lcs.2.total": "3", "lcs.3.total": "8", "lcs.4.total": "18"}
    check(witt(records, {}) is None, "Witt oracle accepts 3, 3, 8, 18")
    check(witt({**records, "lcs.3.total": "9"}, {}) is not None, "Witt oracle rejects a wrong dim")


def traced_rounds() -> None:
    for name in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(harness.BENCH / "run.py"), "--workload", name, "--seed", "0",
             "--seconds", "1", "--trace", "1"],
            capture_output=True, text=True, timeout=600,
        )
        check(proc.returncode == 0, f"{name}: traced round exits 0 {proc.stderr[-300:]}")
        result = json.loads(proc.stdout.splitlines()[-1])
        metrics = {k: v["value"] for k, v in result["metrics"].items()}
        check(result["correct"], f"{name}: every traced output is correct")
        check(set(metrics) == set(run.metric_names()), f"{name}: every per-layer metric is reported")
        check(metrics["trace.coverage"] >= 0.9, f"{name}: trace.coverage {metrics['trace.coverage']:.4f} >= 0.9")
        problems = workloads.trace_problems(name, metrics)
        check(not problems, f"{name}: trace matches expectations {problems or ''}"
              f" (overhead_frac {metrics['trace.overhead_frac']:+.3f})")


if __name__ == "__main__":
    tracer_arithmetic()
    metric_coverage()
    gates()
    traced_rounds()
    print("selfcheck passed")
