"""Acceptance suite: one test per criterion, every tolerance exact.

Each test records a PASS/FAIL line that is printed in the terminal summary;
run with `pytest tests/test_acceptance.py -v` for the per-criterion report.
"""

import random
import subprocess
import sys
from fractions import Fraction

import pytest

import acceptance_log
from lietop.attach import (
    INERT_UP_TO_WINDOW,
    NOT_INERT,
    AttachingMap,
    attach_cells,
    inert_anick,
    inert_homological,
    quotient_consistency,
    sequential_attach,
)
from lietop.dgl import (
    DglPresentation,
    free_presentation,
    homology,
    indecomposable_dims,
)
from lietop.freelie import (
    Generator,
    LieElement,
    TensorElement,
    Window,
    ad_power,
    bch,
    bracket,
    exp,
    generator_element,
    lie_slice,
    log,
    log_group_word,
    mul,
)
from lietop.sullivan import (
    check_sullivan,
    cochains,
    homotopy_lie,
    semiquadratic_homology,
    truncation_lie_data,
)

from helpers import checkout_env, slice_element
from oracles import witt


def record(number: int, description: str):
    """Decorator: logs PASS/FAIL for the terminal summary."""

    def wrap(fn):
        def run(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                acceptance_log.add(number, description, False)
                raise
            acceptance_log.add(number, description, True)

        run.__name__ = fn.__name__
        return run

    return wrap


def el(g, window):
    return generator_element(g, window)


def random_lie(rng, gens, window, weights, degree):
    out = TensorElement.zero(window)
    for w in weights:
        slc = lie_slice(gens, w, degree)
        for k in range(slc.dim):
            c = rng.randint(-2, 2)
            if c:
                out = out + Fraction(c) * slice_element(slc, k, window).value
    return LieElement(out)


@record(1, "Witt-dimension oracle, 2 and 3 generators, weights 1..8")
def test_criterion_1_witt_oracle():
    two = tuple(Generator(n, 0) for n in "ab")
    dims2 = [lie_slice(two, w, 0).dim for w in range(1, 9)]
    assert dims2 == [2, 1, 2, 3, 6, 9, 18, 30]
    assert dims2 == [witt(2, w) for w in range(1, 9)]
    three = tuple(Generator(n, 0) for n in "abc")
    dims3 = [lie_slice(three, w, 0).dim for w in range(1, 9)]
    assert dims3 == [witt(3, w) for w in range(1, 9)]


@record(2, "structure identities on 200 randomized instances each, window (5,5)")
def test_criterion_2_structure_identities():
    W = Window(5, 5)
    a = Generator("a", 0)
    b = Generator("b", 0)
    x = Generator("x", 1)
    t = Generator("t", 2, weight=2)
    u = Generator("u", 2, weight=2)
    s = Generator("s", 3, weight=2)
    diffs = {
        t: bracket(el(a, W), el(x, W)),
        u: bracket(el(b, W), el(x, W)),
        s: bracket(el(x, W), el(x, W)),
    }
    p = DglPresentation([a, b, x, t, u, s], diffs, W)
    gens = p.generators
    rng = random.Random(55)

    def sample(max_degree=5):
        while True:
            w = rng.randint(1, 2)
            d = rng.randint(0, max_degree)
            if lie_slice(gens, w, d).dim:
                v = random_lie(rng, gens, W, [w], d)
                if not v.is_zero():
                    return v, d

    for _ in range(200):  # graded antisymmetry
        (ea, da), (eb, db) = sample(), sample()
        assert (bracket(ea, eb) + (Fraction(-1) ** (da * db)) * bracket(eb, ea)).is_zero()
    for _ in range(200):  # graded Jacobi
        (ex, dx), (ey, dy), (ez, dz) = sample(), sample(), sample()
        lhs = bracket(ex, bracket(ey, ez))
        rhs = bracket(bracket(ex, ey), ez) + (Fraction(-1) ** (dx * dy)) * bracket(
            ey, bracket(ex, ez)
        )
        assert lhs == rhs
    for _ in range(200):  # derivation rule; the instance must fit the window,
        # since the degree cap is not stable under the degree-lowering d
        (ea, da), (eb, db) = sample(), sample()
        while da + db > 5:
            (ea, da), (eb, db) = sample(), sample()
        lhs = p.derive(bracket(ea, eb))
        rhs = (Fraction(-1) ** db) * bracket(p.derive(ea), eb) + bracket(ea, p.derive(eb))
        assert lhs == rhs
    for _ in range(200):  # d^2 = 0
        (ea, _), = (sample(),)
        assert p.derive(p.derive(ea)).is_zero()


@record(3, "BCH through weight 3 and log of the commutator word")
def test_criterion_3_bch():
    W = Window(3, 0)
    a, b = Generator("a", 0), Generator("b", 0)
    ea, eb = el(a, W), el(b, W)
    closed_form = (
        ea
        + eb
        + Fraction(1, 2) * bracket(ea, eb)
        + Fraction(1, 12) * bracket(ea, bracket(ea, eb))
        + Fraction(1, 12) * bracket(eb, bracket(eb, ea))
    )
    oracle = log(mul(exp(ea.value), exp(eb.value)))
    assert closed_form.value == oracle
    assert bch(ea, eb).value == oracle

    W4 = Window(4, 0)
    word = [(a, 1), (b, 1), (a, -1), (b, -1)]
    lg = log_group_word(word, (a, b), W4)
    remainder = lg.value - bracket(el(a, W4), el(b, W4)).value
    assert remainder.min_weight() is not None and remainder.min_weight() >= 3


@record(4, "CP^2 homology dims 1,0,0,1,0 and not-inert witness [x,sy] at (6,6)")
def test_criterion_4_cp2():
    W = Window(6, 6)
    x = Generator("x", 1)
    base = free_presentation([x], W)
    amap = AttachingMap([("sy", bracket(el(x, W), el(x, W)))])
    att = attach_cells(base, amap)
    table = homology(att)
    assert [table.dims[d] for d in range(1, 6)] == [1, 0, 0, 1, 0]
    sy = att.generator("sy")
    expected = bracket(el(x, W), el(sy, W))
    (rep4,) = table.representatives[4]
    assert rep4 == expected or rep4 == Fraction(-1) * expected
    verdict = inert_homological(base, amap)
    assert verdict.status == NOT_INERT
    (deg, witness), = verdict.failing
    assert deg == 4
    assert table.stabilized[4]
    assert witness == expected or witness == Fraction(-1) * expected


@record(5, "torus and genus-2 relators inert at windows (4..6, 3) with consistent quotients")
def test_criterion_5_surfaces():
    a, b = Generator("a", 0), Generator("b", 0)
    gens2 = [Generator(n, 0) for n in ("a1", "b1", "a2", "b2")]
    for n in (4, 5, 6):
        W = Window(n, 3)
        base = free_presentation([a, b], W)
        amap = AttachingMap([("sz", bracket(el(a, W), el(b, W)))])
        assert inert_homological(base, amap).status == INERT_UP_TO_WINDOW
        report = quotient_consistency(base, amap)
        assert report.consistent
        assert report.attached_dims[0] == 2

        base2 = free_presentation(gens2, W)
        a1, b1, a2, b2 = (el(g, W) for g in gens2)
        relator = bracket(a1, b1) + bracket(a2, b2)
        amap2 = AttachingMap([("s", relator)])
        assert inert_homological(base2, amap2).status == INERT_UP_TO_WINDOW
        report2 = quotient_consistency(base2, amap2)
        assert report2.consistent


@record(6, "20 random nonzero degree-0 targets, all inert at (5,3)")
def test_criterion_6_random_targets():
    rng = random.Random(20260810)
    W = Window(5, 3)
    gens = tuple(Generator(n, 0) for n in "abc")
    base = free_presentation(list(gens), W)
    for trial in range(20):
        target = LieElement(TensorElement.zero(W))
        while target.is_zero():
            target = random_lie(rng, gens, W, [1, 2, 3], 0)
        verdict = inert_homological(base, AttachingMap([("s", target)]))
        assert verdict.status == INERT_UP_TO_WINDOW, f"trial {trial}"


@record(7, "Anick certificate: x^n y^n z passes, {ab, ba} fails with the overlap")
def test_criterion_7_anick():
    W = Window(7, 0)
    x, y, z = (Generator(n, 0) for n in "xyz")
    relators = [
        ad_power(el(x, W), n, ad_power(el(y, W), n, el(z, W))).value for n in (1, 2, 3)
    ]
    cert = inert_anick(relators, [x, y, z])
    assert cert.passed
    assert [tuple(g.name for g in w) for w in cert.leading] == [
        tuple("xyz"), tuple("xxyyz"), tuple("xxxyyyz"),
    ]
    a, b = Generator("a", 0), Generator("b", 0)
    W2 = Window(2, 0)
    mutated = [TensorElement(W2, {(a, b): 1}), TensorElement(W2, {(b, a): 1})]
    cert2 = inert_anick(mutated, [a, b])
    assert not cert2.passed
    assert "overlap" in cert2.violation


@record(8, "secondary-weight growth of degree-1 indecomposables at r0 = 2, 3, 4")
def test_criterion_8_lemaire_growth():
    def model(r0):
        W = Window(r0, 2)
        xs = [Generator(f"x{i}", 0) for i in range(1, 6)]
        base = free_presentation(xs, W)
        x1, x2, x3, x4, x5 = (el(g, W) for g in xs)
        targets = [
            bracket(x1, x3), bracket(x1, x4), bracket(x2, x3), bracket(x2, x4),
            bracket(x5, x1 - x3), bracket(x5, x1 - x4), bracket(x5, x2 - x3),
        ]
        return attach_cells(
            base, AttachingMap([(f"sy{i}", t) for i, t in enumerate(targets, start=1)])
        )

    values = []
    for r0 in (2, 3, 4):
        p = model(r0)
        values.append(indecomposable_dims(p)[1])
    # r0 = 2 cross-checked by hand: the seven quadratic targets are linearly
    # independent, so no degree-1 cycles survive at that stage
    assert values[0] == 0
    assert values == [0, 1, 2]
    assert values[0] < values[1] < values[2]


@record(9, "Sullivan roundtrips, (d0+d1)^2 = 0, and the kernel-comparison tables")
def test_criterion_9_sullivan():
    from lietop.sullivan import NilpotentLieData

    abelian = NilpotentLieData([("a", 0), ("b", 0)], {})
    heis = NilpotentLieData(
        [("a", 0), ("b", 0), ("c", 0)], {(0, 1): {2: 1}, (1, 0): {2: -1}}
    )
    a, b = Generator("a", 0), Generator("b", 0)
    free3 = truncation_lie_data(free_presentation([a, b], Window(3, 0)))
    for L in (abelian, heis, free3):
        back = homotopy_lie(cochains(L))
        assert back.basis == L.basis
        assert back.brackets == L.brackets
        assert back.diff == L.diff

    x = Generator("x", 1)
    sy = Generator("sy", 3, weight=2)
    W = Window(2, 7)
    cp2_trunc = DglPresentation(
        [x, sy], {sy: bracket(el(x, W), el(x, W))}, W
    )
    sd = cochains(truncation_lie_data(cp2_trunc))
    assert not check_sullivan(sd).d_squared_violations

    g = Generator("g", 1)
    h = Generator("h", 2)
    W2 = Window(2, 9)
    acyclic = DglPresentation([g, h], {h: el(g, W2)}, W2)
    left, right = semiquadratic_homology(cochains(truncation_lie_data(acyclic)), 8)
    assert all(v == 0 for d, v in left.items() if d >= 1)
    assert all(v == 0 for v in right.values())


@record(10, "sequential genus-2 attachment and the corruption flip")
def test_criterion_10_sequential():
    W = Window(5, 3)
    gens = [Generator(n, 0) for n in ("a1", "b1", "a2", "b2")]
    base = free_presentation(gens, W)
    a1, b1, a2, b2 = (el(g, W) for g in gens)
    g1 = AttachingMap([("s1", bracket(a1, b1))])
    g2 = AttachingMap([("s2", bracket(a2, b2))])
    _, v1, v2, comb = sequential_attach(base, g1, g2)
    assert v1.status == INERT_UP_TO_WINDOW
    assert v2.status == INERT_UP_TO_WINDOW
    assert comb.status == INERT_UP_TO_WINDOW

    g2bad = AttachingMap([("s2", LieElement(TensorElement.zero(W)))])
    _, v1b, v2b, combb = sequential_attach(base, g1, g2bad)
    assert v1b.status == INERT_UP_TO_WINDOW  # unchanged
    assert v2b.status == NOT_INERT  # flipped
    assert combb.status == NOT_INERT  # flipped


@record(11, "deterministic output: lietop examples is byte-identical across runs")
def test_criterion_11_determinism():
    cmd = [sys.executable, "-m", "lietop", "examples"]
    r1 = subprocess.run(cmd, capture_output=True, check=True, env=checkout_env())
    r2 = subprocess.run(cmd, capture_output=True, check=True, env=checkout_env())
    assert r1.stdout == r2.stdout
    assert r1.stdout
