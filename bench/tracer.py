"""Outside-in layer tracing for lietop.

A Tracer wraps functions so that each call records a span (name, start, end,
parent span) in memory, plus optional counts read from the call's arguments
and return value.  instrument_lietop() wraps the public entry points of every
lietop layer and rebinds each module-level alias of them, so calls made
through `from .x import f` names are traced too.  The spans are written out
when the traced command ends; layer_totals() turns them into per-layer self
times, where a span's self time is its duration minus the time its child
spans cover.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from array import array
from pathlib import Path

# module -> entry points, as attribute paths inside lietop.<module>
LAYERS = {
    "cli": ("parse", "build", "Report.records"),
    "freelie": (
        "lie_slice", "mul", "bracket", "exp", "log", "bch",
        "log_group_word", "certify_lie", "format_lie",
    ),
    "qlinalg": ("Echelon.insert", "Echelon.reduce", "kernel_basis"),
    "dgl": (
        "ChainComplex.boundary", "ChainComplex.coordinates", "ChainComplex.element",
        "homology", "lcs_dims",
    ),
    "attach": (
        "attach_cells", "inert_homological", "targets_injective",
        "surjectivity_verdict", "inert_anick",
    ),
    "sullivan": (
        "truncation_lie_data", "cochains", "check_sullivan",
        "semiquadratic_homology", "wedge_homology",
    ),
}

SPAN_NAMES = tuple(f"{m}.{f}" for m, fs in LAYERS.items() for f in fs)

# counts read from arguments and return values; accept_ratio is derived
COUNT_NAMES = (
    "freelie.lie_slice.built",
    "freelie.lie_slice.words",
    "freelie.lie_slice.dim",
    "freelie.mul.terms_out",
    "qlinalg.Echelon.insert.accepted",
    "dgl.ChainComplex.boundary.nnz",
    "dgl.ChainComplex.boundary.max_coeff_bits",
    "dgl.homology.reps",
    "attach.surjectivity_verdict.failing",
)


class Tracer:
    """Records one span per call of each wrapped function, in memory."""

    def __init__(self):
        self.names: list[str] = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.counts: dict[str, int] = {}
        self._open: list[int] = []

    def wrap(self, name: str, fn, on_return=None):
        """fn wrapped in a span named `name`; on_return(result, args) runs
        after the span closes, so its cost lands in the parent's self time."""
        nid = len(self.names)
        self.names.append(name)
        span_name, span_parent = self.span_name, self.span_parent
        span_start, span_end, open_spans = self.span_start, self.span_end, self._open
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(span_name)
            span_name.append(nid)
            span_parent.append(open_spans[-1] if open_spans else -1)
            span_start.append(0.0)
            span_end.append(0.0)
            open_spans.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                open_spans.pop()
                span_start[idx] = t0
                span_end[idx] = t1
            if on_return is not None:
                on_return(result, args)
            return result

        return traced

    def count(self, name: str, amount: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def dump(self, prefix: Path, **extra) -> None:
        """Write the spans (binary arrays) and a JSON summary next to them."""
        with open(f"{prefix}.spans", "wb") as fh:
            for arr in (self.span_name, self.span_parent, self.span_start, self.span_end):
                arr.tofile(fh)
        meta = {"names": self.names, "spans": len(self.span_name), "counts": self.counts, **extra}
        Path(f"{prefix}.json").write_text(json.dumps(meta))


def load(prefix: Path) -> tuple[dict, tuple[array, array, array, array]]:
    meta = json.loads(Path(f"{prefix}.json").read_text())
    n = meta["spans"]
    arrays = (array("i"), array("i"), array("d"), array("d"))
    with open(f"{prefix}.spans", "rb") as fh:
        for arr in arrays:
            arr.fromfile(fh, n)
    return meta, arrays


def layer_totals(names, span_name, span_parent, span_start, span_end):
    """({name: self seconds}, {name: calls}, seconds under root spans).

    Spans are stored in the order they opened, so a parent always precedes
    its children, and children of one parent never overlap.
    """
    n = len(span_name)
    covered = [0.0] * n
    for i in range(n):
        p = span_parent[i]
        if p >= 0:
            covered[p] += span_end[i] - span_start[i]
    self_s = dict.fromkeys(names, 0.0)
    calls = dict.fromkeys(names, 0)
    root = 0.0
    for i in range(n):
        dur = span_end[i] - span_start[i]
        name = names[span_name[i]]
        self_s[name] += dur - covered[i]
        calls[name] += 1
        if span_parent[i] < 0:
            root += dur
    return self_s, calls, root


# ---------------------------------------------------------------------------
# lietop instrumentation
# ---------------------------------------------------------------------------


def _counters(tracer: Tracer) -> dict:
    """Per-entry-point hooks that read counts from return values.

    Objects counted once per identity are kept alive, so an id is never
    reused for a second object during the traced command.
    """
    seen: dict[int, object] = {}

    def first_time(obj) -> bool:
        if id(obj) in seen:
            return False
        seen[id(obj)] = obj
        return True

    def on_slice(slc, _args):
        if first_time(slc):
            tracer.count("freelie.lie_slice.built")
            tracer.count("freelie.lie_slice.words", len(getattr(slc, "words", ())))
            tracer.count("freelie.lie_slice.dim", getattr(slc, "dim", 0))

    def on_mul(t, _args):
        tracer.count("freelie.mul.terms_out", len(t.terms))

    def on_insert(accepted, _args):
        if accepted:
            tracer.count("qlinalg.Echelon.insert.accepted")

    def on_boundary(m, _args):
        if first_time(m):
            tracer.count("dgl.ChainComplex.boundary.nnz", len(m.entries))
            bits = max(
                (max(abs(c.numerator).bit_length(), c.denominator.bit_length()) for c in m.entries.values()),
                default=0,
            )
            key = "dgl.ChainComplex.boundary.max_coeff_bits"
            tracer.counts[key] = max(tracer.counts.get(key, 0), bits)

    def on_homology(table, _args):
        if first_time(table):
            tracer.count("dgl.homology.reps", sum(len(r) for r in table.representatives.values()))

    def on_verdict(verdict, _args):
        tracer.count("attach.surjectivity_verdict.failing", len(verdict.failing))

    return {
        "freelie.lie_slice": on_slice,
        "freelie.mul": on_mul,
        "qlinalg.Echelon.insert": on_insert,
        "dgl.ChainComplex.boundary": on_boundary,
        "dgl.homology": on_homology,
        "attach.surjectivity_verdict": on_verdict,
    }


def instrument_lietop(tracer: Tracer) -> list[str]:
    """Wrap every entry point in LAYERS; returns the names it could not find."""
    import lietop.cli  # noqa: F401  -- loads every layer module

    modules = [m for name, m in sys.modules.items() if name == "lietop" or name.startswith("lietop.")]
    hooks = _counters(tracer)
    missing = []
    for span in SPAN_NAMES:
        module, *path = span.split(".")
        owner = sys.modules[f"lietop.{module}"]
        for part in path[:-1]:
            owner = getattr(owner, part, None)
        fn = getattr(owner, path[-1], None)
        if fn is None:
            missing.append(span)
            continue
        wrapper = tracer.wrap(span, fn, hooks.get(span))
        if isinstance(owner, type):
            setattr(owner, path[-1], wrapper)
            continue
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    setattr(mod, attr, wrapper)
    return missing
