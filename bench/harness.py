"""Runs benchmark cases in fresh processes and checks their outputs.

Each case is spawned, waited for with os.wait4 (which gives that child's own
peak RSS), timed from spawn to reap, scaled by the CPU speed the child
sampled (see child.py), and checked: exit code, the case's oracle checks,
then the pinned output hash for fixed cases.
"""

from __future__ import annotations

import hashlib
import json
import os
import select
import signal
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import tracer
from oracles import parse_records
from workloads import Case

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
PINNED_FILE = BENCH / "pinned.json"
# scratch files of running benchmarks; each run removes its own directory
WORK_ROOT = ROOT / ".bench_work"


def load_pinned() -> dict[str, str]:
    return json.loads(PINNED_FILE.read_text())


# Seconds the child's speed probe typically took on the 2-core host the
# benchmark was defined on.  A time multiplied by
# REFERENCE_PROBE_S * mean(1/probe seconds) reads as seconds on that CPU.
REFERENCE_PROBE_S = 30e-6


@dataclass
class CaseRun:
    case: Case
    raw_wall_s: float
    rss_mb: float
    code: int
    output: str
    speed: float = 1.0  # the case's time-weighted CPU speed, relative to the reference
    raw_setup_s: float | None = None
    setup_speed: float = 1.0
    error: str | None = None
    records: dict = field(default_factory=dict)
    trace: dict | None = None  # traced runs: self_s, calls, counts, root_s, wall_s

    @property
    def wall_s(self) -> float:
        """Spawn-to-reap seconds at the reference CPU speed."""
        return self.raw_wall_s * self.speed

    @property
    def setup_s(self) -> float | None:
        """Spawn-to-import-done seconds at the reference CPU speed."""
        return None if self.raw_setup_s is None else self.raw_setup_s * self.setup_speed


def spawn(argv: list[str], env: dict, out: Path, err: Path, timeout: float) -> tuple[float, int, float, bool]:
    """Run argv with stdout/stderr to files; (wall s, exit code, peak RSS MB, timed out)."""
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [
        (os.POSIX_SPAWN_OPEN, 1, str(out), flags, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, str(err), flags, 0o644),
    ]
    t0 = time.monotonic_ns()
    env["LIETOP_BENCH_SPAWN_NS"] = str(t0)
    pid = os.posix_spawn(argv[0], argv, env, file_actions=actions)
    pidfd = os.pidfd_open(pid)
    try:
        timed_out = not select.select([pidfd], [], [], timeout)[0]
        if timed_out:
            signal.pidfd_send_signal(pidfd, signal.SIGKILL)
        _, status, usage = os.wait4(pid, 0)
        t1 = time.monotonic_ns()
    finally:
        os.close(pidfd)
    return (t1 - t0) / 1e9, os.waitstatus_to_exitcode(status), usage.ru_maxrss / 1024, timed_out


def run_case(case: Case, n: int, work: Path, traced: bool, timeout: float,
             earlier: dict, pinned: dict[str, str]) -> CaseRun:
    stem = work / f"case{n}"
    stats_path = Path(f"{stem}.stats")
    stats_path.unlink(missing_ok=True)
    env = dict(os.environ, PYTHONPATH=str(SRC))
    mode = ["traced", str(stats_path), str(stem)] if traced else ["plain", str(stats_path)]
    argv = [sys.executable, str(BENCH / "child.py"), *mode, *case.argv]
    wall, code, rss, timed_out = spawn(argv, env, Path(f"{stem}.out"), Path(f"{stem}.err"), timeout)
    output = Path(f"{stem}.out").read_text()
    run = CaseRun(case, wall, rss, code, output)
    if stats_path.exists():
        stats = json.loads(stats_path.read_text())
        inverse = stats.get("inverse_probe")
        if inverse:
            run.speed = REFERENCE_PROBE_S * inverse
            if not traced and "setup_s" in stats:
                run.raw_setup_s = stats["setup_s"]
                run.setup_speed = REFERENCE_PROBE_S * (stats["setup_inverse_probe"] or inverse)
    if timed_out:
        run.error = f"timed out after {timeout:.0f} s"
    elif code != 0:
        err = Path(f"{stem}.err").read_text().strip().splitlines()
        run.error = f"exit code {code}: {err[-1] if err else ''}"
    else:
        run.error = check_output(case, output, earlier, pinned)
    if traced and run.error is None:
        run.trace = read_trace(stem)
    if run.error is None:
        run.records = parse_records(output)
    return run


def check_output(case: Case, output: str, earlier: dict, pinned: dict[str, str]) -> str | None:
    """The first failed check, oracles before the pin, or None."""
    try:
        records = parse_records(output)
        for check in case.checks:
            error = check(records, earlier)
            if error:
                return error
    except (ValueError, KeyError) as exc:
        return f"unreadable output: {exc!r}"
    if case.pinned:
        digest = hashlib.sha256(output.encode()).hexdigest()
        if pinned.get(case.id) != digest:
            return f"records output sha256 {digest[:12]}... differs from the pinned one"
    return None


def read_trace(stem: Path) -> dict:
    meta, arrays = tracer.load(stem)
    self_s, calls, root = tracer.layer_totals(meta["names"], *arrays)
    return {"self_s": self_s, "calls": calls, "counts": meta["counts"],
            "root_s": root, "wall_s": meta["wall"], "missing": meta["missing"]}


def run_pass(cases: list[Case], work: Path, traced: bool, deadline: float,
             pinned: dict[str, str]) -> list[CaseRun]:
    """One closed-loop pass: each case starts after the previous one exits.
    A case that would outlive `deadline` (time.monotonic) is killed."""
    earlier: dict[str, dict] = {}
    runs = []
    for n, case in enumerate(cases):
        timeout = max(1.0, deadline - time.monotonic())
        run = run_case(case, n, work, traced, timeout, earlier, pinned)
        earlier[case.id] = run.records
        runs.append(run)
    return runs
