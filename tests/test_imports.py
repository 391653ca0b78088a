"""The package is pure stdlib: every import in src/lietop is relative to
lietop or names a standard-library module.  Importing the CLI loads every
layer module and nothing slow to import that it does not use.  The only
process-wide dicts are the slice cache and the weak generator table."""

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
