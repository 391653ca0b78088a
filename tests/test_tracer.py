"""The benchmark tracer names lietop entry points and attributes by string;
a rename in the package would only show in a traced run as entry points not
found.  These tests resolve every one of them against the package."""

import importlib
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

from lietop import attach, cli, dgl
from lietop.freelie import lie_slice

from helpers import checkout_env

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


TRACED_KERNELS = """
import importlib.util, json, sys
spec = importlib.util.spec_from_file_location("tracer", sys.argv[1])
tracer_mod = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracer_mod)
tracer = tracer_mod.Tracer()
missing = tracer_mod.instrument_lietop(tracer)
from lietop import cli
kernel = tracer.names.index("qlinalg.kernel_basis")
runs = []
for argv in json.loads(sys.argv[2]):
    start = len(tracer.span_name)
    code = cli.run(argv)[0]
    runs.append([code, sum(1 for name in tracer.span_name[start:] if name == kernel)])
print(json.dumps({"missing": missing, "runs": runs}))
"""


def test_traced_inert_and_sullivan_record_kernel_basis():
    # the benchmark expects qlinalg.kernel_basis spans on attach-inert and
    # sullivan-dual: cp2's inert witnesses read base cycles, and the Sullivan
    # table reads V cap ker d1; run traced, in a child so the wrapping stays there
    argv = [
        ["inert", "--file", "cp2", "--window", "12", "12"],
        ["sullivan", "--file", "cp2", "--window", "10", "12"],
    ]
    proc = subprocess.run(
        [sys.executable, "-c", TRACED_KERNELS, str(TRACER), json.dumps(argv)],
        capture_output=True, text=True, env=checkout_env(),
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    assert result["missing"] == []
    for (code, kernels), args in zip(result["runs"], argv):
        assert code == 0 and kernels >= 1, args
