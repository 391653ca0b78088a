"""The package is pure stdlib: every import in src/lietop is relative to
lietop or names a standard-library module.  Importing the CLI loads every
layer module and nothing slow to import that it does not use.  The only
process-wide dicts are the slice cache and the weak generator table.  No
module but qlinalg reads qlinalg's private names, and none uses `/` or a
`global` statement.  The one parameter with a bool default is Echelon's
`track`."""

import ast
import json
import subprocess
import sys
from pathlib import Path

from helpers import checkout_env

SRC = Path(__file__).resolve().parent.parent / "src" / "lietop"
DICT_TYPES = {"dict", "defaultdict", "OrderedDict", "Counter", "WeakValueDictionary", "WeakKeyDictionary"}


def test_package_imports_only_stdlib_and_lietop():
    outside = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.split(".")[0]
                if top != "lietop" and top not in sys.stdlib_module_names:
                    outside.append(f"{path.name}:{node.lineno} imports {name}")
    assert list(SRC.glob("*.py")), f"no package sources under {SRC}"
    assert not outside, "\n".join(outside)


def test_cli_import_loads_layers_without_dataclasses():
    # bench/tracer.py wraps the layers through sys.modules["lietop.<layer>"]
    # right after `import lietop.cli`, so every layer must be loaded by then
    probe = (
        "import json, sys; before = set(sys.modules); import lietop.cli; "
        "print(json.dumps(sorted(set(sys.modules) - before)))"
    )
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, check=True, text=True,
                         env=checkout_env())
    loaded = set(json.loads(out.stdout))
    assert "dataclasses" not in loaded
    layers = {f"lietop.{m}" for m in ("freelie", "qlinalg", "dgl", "attach", "sullivan")}
    assert layers <= loaded, sorted(layers - loaded)


def test_cli_import_without_site_loads_no_resource_machinery():
    # -S keeps site-packages' .pth hooks from importing these first; the
    # built-in examples are plain files next to the package
    probe = "import sys, lietop.cli; print(' '.join(sorted(sys.modules)))"
    out = subprocess.run([sys.executable, "-S", "-c", probe], capture_output=True, check=True, text=True,
                         env=checkout_env())
    loaded = set(out.stdout.split())
    assert "lietop.cli" in loaded
    assert not loaded & {"importlib.resources", "pathlib", "tempfile"}, sorted(loaded)


def test_module_level_dicts_are_the_slice_cache_and_generator_table():
    # a module-level dict lives as long as the process; memos belong on the
    # objects they serve
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text(), filename=str(path)).body:
            if isinstance(node, ast.Assign):
                targets, value = node.targets, node.value
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                targets, value = [node.target], node.value
            else:
                continue
            is_dict = isinstance(value, (ast.Dict, ast.DictComp)) or (
                isinstance(value, ast.Call) and ast.unparse(value.func).split(".")[-1] in DICT_TYPES)
            if is_dict:
                found.extend(f"{path.stem}.{ast.unparse(t)}" for t in targets)
    assert sorted(found) == ["freelie._generators", "freelie._slice_cache"]


def test_no_global_statements():
    # with the module-level dict check, this keeps process-wide mutable
    # state to the slice cache and the weak generator table
    found = [
        f"{path.name}:{node.lineno} global {', '.join(node.names)}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Global)
    ]
    assert not found, "\n".join(found)


def test_only_qlinalg_reads_its_private_names():
    # other modules go through qlinalg's public API, so its stored-row
    # layout can change without touching them
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "qlinalg.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ImportFrom) and node.module == "qlinalg" and node.level == 1:
                found.extend(f"{path.name}:{node.lineno} imports {a.name}" for a in node.names
                             if a.name.startswith("_"))
            elif isinstance(node, ast.Attribute) and node.attr in {"_rows", "_combos", "_insert"}:
                found.append(f"{path.name}:{node.lineno} reads .{node.attr}")
    assert not found, "\n".join(found)


def test_no_true_division():
    # integral values are ints, so a / would silently make a float
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div)
    ]
    assert not found, "\n".join(found)


def bool_defaults(node, prefix=""):
    """The qualified name of every parameter with a bool default of the
    functions and methods under node."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            name = f"{prefix}{child.name}."
            if not isinstance(child, ast.ClassDef):
                a = child.args
                positional = a.posonlyargs + a.args
                pairs = list(zip(positional[len(positional) - len(a.defaults):], a.defaults))
                pairs += zip(a.kwonlyargs, a.kw_defaults)
                yield from (f"{name}{arg.arg}" for arg, d in pairs
                            if isinstance(d, ast.Constant) and type(d.value) is bool)
            yield from bool_defaults(child, name)


def test_only_switch_is_echelon_track():
    # a bool default is a switch, and a switch that a derivable value can
    # replace is not kept; package code sets track both ways (tracked for
    # slices and kernels, untracked for images)
    found = []
    for path in sorted(SRC.glob("*.py")):
        found.extend(bool_defaults(ast.parse(path.read_text(), filename=str(path)), f"{path.stem}."))
    assert found == ["qlinalg.Echelon.__init__.track"]
