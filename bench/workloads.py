"""The benchmark's workloads: lietop CLI cases, their seeded inputs, and the
checks every output must pass.

Fixed cases run built-in examples; their records output is pinned by SHA-256
in pinned.json.  Seeded cases are generated from --seed into the run's work
directory and checked by the oracles in oracles.py, which share no code with
lietop.  Why each workload exists is in README.md.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from oracles import invert_group_word, one_relator_dims, parse_lie_terms

# A check gets the case's records (as a dict) and the records of the cases
# that ran before it in the same pass, keyed by case id; it returns an error
# message, or None when the output is right.
Check = Callable[[dict, dict], "str | None"]


@dataclass(frozen=True)
class Case:
    id: str
    args: tuple[str, ...]
    checks: tuple[Check, ...] = ()
    pinned: bool = False  # fixed input: the records output is pinned by hash

    @property
    def argv(self) -> list[str]:
        return [*self.args, "--format", "records"]


def _window(w: int, d: int) -> tuple[str, ...]:
    return ("--window", str(w), str(d))


def fixed(command: str, example: str, w: int, d: int, *checks: Check) -> Case:
    return Case(f"{command} {example} ({w},{d})", (command, "--file", example, *_window(w, d)), checks, True)


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------


def expect(key: str, value: str) -> Check:
    def check(rec, _earlier):
        got = rec.get(key)
        return None if got == value else f"{key} is {got!r}, expected {value!r}"

    return check


def has_witness(rec, _earlier):
    return None if "inert.failing.0.witness" in rec else "no failing witness reported"


def one_relator_homology(generators: int, relator_weight: int, w: int, d: int) -> Check:
    """An inert one-relator attachment on degree-0 generators: H_0 has the
    Labute dims summed over weights <= w, higher degrees vanish, and every
    degree prints exactly dim representatives."""
    h0 = sum(one_relator_dims(generators, relator_weight, w))

    def check(rec, _earlier):
        for deg in range(d):
            want = h0 if deg == 0 else 0
            got = rec.get(f"homology.{deg}.dim")
            if got != str(want):
                return f"homology.{deg}.dim is {got!r}, expected {want}"
            reps = sum(1 for k in rec if k.startswith(f"homology.{deg}.rep."))
            if reps != want:
                return f"degree {deg} prints {reps} representatives, expected {want}"
        return None

    return check


def witt_lcs(generators: int, k_max: int) -> Check:
    dims = one_relator_dims(generators, None, k_max)

    def check(rec, _earlier):
        for k, want in enumerate(dims, start=1):
            got = rec.get(f"lcs.{k}.total")
            if got != str(want):
                return f"lcs.{k}.total is {got!r}, Witt gives {want}"
        return None

    return check


def negates(partner_id: str) -> Check:
    """bch(v^-1, u^-1) = log((uv)^-1) = -bch(u, v), term by term."""

    def check(rec, earlier):
        partner = earlier.get(partner_id)
        if not partner:
            return f"partner case {partner_id!r} has no checked output"
        mine = parse_lie_terms(rec["bch"])
        theirs = parse_lie_terms(partner["bch"])
        if not mine:
            return "bch is zero"
        if mine != {body: -c for body, c in theirs.items()}:
            return f"bch is not the negation of {partner_id!r}"
        return None

    return check


INERT = expect("inert.status", "inert-up-to-window")
SULLIVAN_VALID = (expect("sullivan.d_squared", "true"), expect("sullivan.filtration", "true"))

# ---------------------------------------------------------------------------
# seeded inputs
# ---------------------------------------------------------------------------

# A basis of the weight-1..3 part of the free Lie algebra on a, b, c: the
# brackets [x,[y,z]] with y < z span weight 3, and dropping [a,[b,c]] removes
# the one Jacobi relation among them.
CRITERION6_TERMS = (
    "a", "b", "c",
    "[a,b]", "[a,c]", "[b,c]",
    "[a,[a,b]]", "[a,[a,c]]", "[b,[a,b]]", "[b,[a,c]]",
    "[b,[b,c]]", "[c,[a,b]]", "[c,[a,c]]", "[c,[b,c]]",
)


def criterion6_target(rng: random.Random) -> str:
    """Every basis term with a random sign.  The weight-1 part is nonzero, so
    the target is provably nonzero and its cell has weight 1; the fixed
    support keeps the work per seed nearly constant."""
    expr = ""
    for term in CRITERION6_TERMS:
        sign = rng.choice("+-")
        expr += f" {sign} {term}" if expr else ("-" if sign == "-" else "") + term
    return expr


def write_criterion6(path: Path, rng: random.Random, seed: int) -> None:
    path.write_text(
        f"# seeded criterion-6 target, seed {seed}\n"
        + "".join(f"generator {g} degree 0\n" for g in "abc")
        + f"cell s degree 1 attach {criterion6_target(rng)}\n"
    )


def group_word(rng: random.Random, letters: str, length: int, avoid_first: str | None = None) -> str:
    """A freely reduced word; its first letter is not `avoid_first`."""
    pieces: list[str] = []
    while len(pieces) < length:
        piece = rng.choice(letters) + rng.choice(("", "^-1"))
        inverse = invert_group_word(piece)
        if pieces and pieces[-1] == inverse or not pieces and piece == avoid_first:
            continue
        pieces.append(piece)
    return " ".join(pieces)


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


def attach_inert(rng: random.Random, seed: int, work: Path) -> list[Case]:
    cases = [
        fixed("inert", "torus", 8, 3, INERT),
        fixed("inert", "genus2", 6, 3, INERT),
        fixed("inert", "lemaire28", 4, 2, expect("inert.status", "inconclusive"), has_witness),
        fixed("inert", "anick29", 6, 3, INERT, expect("anick.passed", "true")),
        fixed(
            "inert", "cp2", 12, 12,
            expect("inert.status", "not-inert"),
            expect("inert.failing.0.degree", "4"),
            expect("inert.failing.0.witness", "[x,sy]"),
        ),
    ]
    for i in (1, 2):
        path = work / f"criterion6-{i}.lt"
        write_criterion6(path, rng, seed)
        cases.append(Case(f"inert seeded-{i} (5,3)", ("inert", "--file", str(path), *_window(5, 3)), (INERT,)))
    return cases


def homology_reps(rng: random.Random, seed: int, work: Path) -> list[Case]:
    path = work / "criterion6.lt"
    write_criterion6(path, rng, seed)
    return [
        fixed("homology", "genus2", 6, 3, one_relator_homology(4, 2, 6, 3)),
        # the target's weight-1 part makes the quotient free on two generators
        Case("homology seeded (5,3)", ("homology", "--file", str(path), *_window(5, 3)),
             (one_relator_homology(3, 1, 5, 3),)),
    ]


def free_lie(rng: random.Random, seed: int, work: Path) -> list[Case]:
    cases = [fixed("lcs", "wedge-circles", 8, 0, witt_lcs(3, 8))]
    for i in (1, 2):
        u = group_word(rng, "ab", 4)
        v = group_word(rng, "ab", 4, avoid_first=invert_group_word(u.split()[-1]))
        first = Case(f"bch pair-{i} torus (7,3)", ("bch", u, v, "--file", "torus", *_window(7, 3)))
        second = Case(
            f"bch pair-{i} inverse torus (7,3)",
            ("bch", invert_group_word(v), invert_group_word(u), "--file", "torus", *_window(7, 3)),
            (negates(first.id),),
        )
        cases += [first, second]
    return cases


def sullivan_dual(rng: random.Random, seed: int, work: Path) -> list[Case]:
    return [
        fixed("sullivan", "torus", 6, 2, *SULLIVAN_VALID),
        fixed("sullivan", "lemaire28", 3, 2, *SULLIVAN_VALID),
        fixed("sullivan", "cp2", 10, 12, *SULLIVAN_VALID),
        # differential-free, so the wedge-degree table is computed too
        fixed("sullivan", "wedge-circles", 3, 2, *SULLIVAN_VALID),
    ]


WORKLOADS: dict[str, Callable[[random.Random, int, Path], list[Case]]] = {
    "attach-inert": attach_inert,
    "homology-reps": homology_reps,
    "free-lie": free_lie,
    "sullivan-dual": sullivan_dual,
}


def build(name: str, seed: int, work: Path) -> list[Case]:
    """The workload's cases; seeded input files are written under `work`."""
    rng = random.Random(f"{name}/{seed}")
    return WORKLOADS[name](rng, seed, work)


# ---------------------------------------------------------------------------
# trace expectations
# ---------------------------------------------------------------------------

# every workload runs cli.build, which calls attach.attach_cells
VERDICT_LAYERS = ("attach.inert_homological.", "attach.targets_injective.",
                  "attach.surjectivity_verdict.", "attach.inert_anick.")
SERIES_LAYERS = ("freelie.mul.", "freelie.exp.", "freelie.log.", "freelie.bch.", "freelie.log_group_word.")

# Per workload: per-layer metric name prefixes it exists to exercise, which a
# traced run must report nonzero, and layers it never calls, which must read
# zero.  trace.overhead_frac is a difference of noisy walls and is exempt.
TRACE_EXPECTATIONS: dict[str, tuple[tuple[str, ...], tuple[str, ...]]] = {
    "attach-inert": (
        ("cli.", "freelie.lie_slice.", "freelie.bracket.", "freelie.certify_lie.", "freelie.format_lie.",
         "qlinalg.", "dgl.ChainComplex.", "dgl.homology.", "attach.", "trace.coverage"),
        (*SERIES_LAYERS, "dgl.lcs_dims.", "sullivan."),
    ),
    "homology-reps": (
        ("cli.", "freelie.lie_slice.", "freelie.format_lie.", "qlinalg.", "dgl.ChainComplex.",
         "dgl.homology.", "trace.coverage"),
        (*SERIES_LAYERS, "dgl.lcs_dims.", *VERDICT_LAYERS, "sullivan."),
    ),
    "free-lie": (
        ("cli.", "freelie.lie_slice.", *SERIES_LAYERS, "freelie.certify_lie.", "freelie.format_lie.",
         "qlinalg.Echelon.", "dgl.lcs_dims.", "trace.coverage"),
        ("qlinalg.kernel_basis.", "dgl.ChainComplex.", "dgl.homology.", *VERDICT_LAYERS, "sullivan."),
    ),
    "sullivan-dual": (
        ("cli.", "freelie.lie_slice.", "freelie.bracket.", "qlinalg.", "sullivan.", "trace.coverage"),
        # (the wedge-circles file declares a group word, so build takes its log)
        ("freelie.bch.", "dgl.ChainComplex.", "dgl.homology.", "dgl.lcs_dims.", *VERDICT_LAYERS),
    ),
}


def trace_problems(workload: str, metrics: dict[str, float]) -> list[str]:
    """Layer metrics that contradict TRACE_EXPECTATIONS for this workload."""
    nonzero, zero = TRACE_EXPECTATIONS[workload]
    problems = []
    for name, value in metrics.items():
        if name.startswith(nonzero) and not value:
            problems.append(f"{name} is 0 but {workload} exists to exercise it")
        if name.startswith(zero) and value:
            problems.append(f"{name} is {value:g} but {workload} never calls it")
    return problems
