"""Frozen records output of every command, compared byte for byte.

Each case's `--format records` output is pinned in tests/golden/ as
`<command>-<input>[-<window>].records`.  The files change only with an
intended change of printed output.  Regenerate them with:

    PYTHONPATH=src python tests/test_golden.py
"""

import hashlib
import json
from pathlib import Path

import pytest

from lietop import cli

GOLDEN = Path(__file__).parent / "golden"
CRITERION6 = str(GOLDEN / "criterion6.lt")
WORDS = str(GOLDEN / "words.lt")

# (record file stem, CLI arguments); the built-in examples run at their
# default windows, and lemaire28's default (4,2) is the window with witnesses;
# the larger inert windows are those of the benchmark's attach-inert cases,
# plus torus (10,3), the timing baseline of boundary assembly, and genus2
# (7,3), a window above the others where slice construction dominates; every
# case pinned in bench/pinned.json has its file here
CASES = [
    (f"{command}-{name}", [command, "--file", name])
    for command in ("homology", "inert")
    for name in cli.BUILTIN_EXAMPLES
    if (command, name) != ("inert", "wedge-circles")
] + [
    ("lcs-wedge-circles", ["lcs", "--file", "wedge-circles"]),
    ("logword-wedge-circles", ["logword", "cmt", "--file", "wedge-circles"]),
    ("bch-torus-5-3", ["bch", "a b", "a^-1 b^-1", "--file", "torus", "--window", "5", "3"]),
    ("homology-torus-8-3", ["homology", "--file", "torus", "--window", "8", "3"]),
    # the homology-reps benchmark's window: 654 representatives
    ("homology-genus2-6-3", ["homology", "--file", "genus2", "--window", "6", "3"]),
    # the free-lie benchmark's windows: its lcs case and one fixed bch pair with its inverse pair
    ("lcs-wedge-circles-8-0", ["lcs", "--file", "wedge-circles", "--window", "8", "0"]),
    ("bch-torus-7-3", ["bch", "a b^-1 a^-1 b", "b a b^-1 a", "--file", "torus", "--window", "7", "3"]),
    ("bch-inverse-torus-7-3",
     ["bch", "a^-1 b a^-1 b^-1", "b^-1 a b a^-1", "--file", "torus", "--window", "7", "3"]),
    # a wider bch window: printed denominators reach 241920, against 120 at (7,3)
    ("bch-torus-9-3", ["bch", "a b^-1 a a", "b a b^-1 a", "--file", "torus", "--window", "9", "3"]),
    ("logword-wedge-circles-6-2", ["logword", "cmt", "--file", "wedge-circles", "--window", "6", "2"]),
] + [
    (f"inert-{name}-{w}-{d}", ["inert", "--file", name, "--window", str(w), str(d)])
    for name, w, d in (
        ("genus2", 6, 3), ("anick29", 6, 3), ("cp2", 12, 12), ("torus", 8, 3), ("torus", 10, 3), ("genus2", 7, 3),
    )
] + [
    (f"sullivan-{name}-{w}-{d}", ["sullivan", "--file", name, "--window", str(w), str(d)])
    for name, w, d in (
        ("torus", 4, 2), ("torus", 6, 2), ("cp2", 6, 6), ("wedge-circles", 3, 2), ("lemaire28", 3, 2),
        ("cp2", 10, 12), ("genus2", 4, 2),
        # a window that cuts cp2's differential: the CLI builds the model at
        # the quotient degree instead
        ("cp2", 6, 1),
    )
] + [
    (f"{command}-criterion6", [command, "--file", CRITERION6, "--window", "4", "3"])
    for command in ("homology", "inert")
] + [
    # cell targets that name group words, one of them at a wider window, and
    # a word that no target uses
    (f"{command}-words", [command, *args, "--file", WORDS])
    for command, args in (("homology", []), ("inert", []), ("logword", ["u"]))
]


def records(argv: list[str]) -> bytes:
    code, out = cli.run([*argv, "--format", "records"])
    assert code == 0
    # the input path differs between checkouts; pin only its file name
    return out.replace(CRITERION6, "criterion6.lt").replace(WORDS, "words.lt").encode()


@pytest.mark.parametrize("stem, argv", CASES, ids=[stem for stem, _ in CASES])
def test_golden_records(stem, argv):
    assert records(argv) == (GOLDEN / f"{stem}.records").read_bytes()


def test_every_benchmark_pin_is_a_golden_file():
    """The benchmark refuses output drift on its fixed cases; failing here
    first names the case."""
    pinned = json.loads((Path(__file__).parent.parent / "bench" / "pinned.json").read_text())
    golden = {hashlib.sha256(path.read_bytes()).hexdigest() for path in GOLDEN.glob("*.records")}
    assert {case: digest for case, digest in pinned.items() if digest not in golden} == {}


def test_golden_inert_without_cells_exits_2(capsys):
    assert cli.main(["inert", "--file", "wedge-circles", "--format", "records"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "cell directive" in captured.err


if __name__ == "__main__":
    for stem, argv in CASES:
        (GOLDEN / f"{stem}.records").write_bytes(records(argv))
