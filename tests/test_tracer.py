"""The benchmark tracer names lietop entry points and attributes by string;
a rename in the package would only show in a traced run as entry points not
found.  These tests resolve every one of them against the package."""

import importlib
import importlib.util
from pathlib import Path

from lietop import attach, cli, dgl
from lietop.freelie import lie_slice

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("lietop_bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_entry_points_resolve():
    tracer = load_tracer()
    assert tracer.SPAN_NAMES
    for span in tracer.SPAN_NAMES:
        module, *path = span.split(".")
        owner = importlib.import_module(f"lietop.{module}")
        for part in path:
            owner = getattr(owner, part, None)
            assert owner is not None, span
        assert callable(owner), span


def test_tracer_hooks_read_existing_attributes():
    model = cli.build(cli.parse(cli._load_source("cp2")[1]))
    gens = model.attached.generators
    assert lie_slice(gens, 2, 2).words
    assert dgl.ChainComplex(model.attached).boundary(3).entries
    assert dgl.homology(model.attached).representatives
    verdict = attach.inert_homological(model.base, model.amap)
    assert verdict.failing
