import random
from fractions import Fraction
from pathlib import Path

import pytest

from lietop.attach import (
    INCONCLUSIVE,
    INERT_UP_TO_WINDOW,
    NOT_INERT,
    AttachingMap,
    attach_cells,
    inert_anick,
    inert_homological,
    leading_word,
    quotient_consistency,
    saturate_ideal,
    sequential_attach,
)
from lietop import cli, dgl
from lietop.dgl import ChainComplex, DglPresentation, homology
from lietop.freelie import (
    Generator,
    LieElement,
    TensorElement,
    Window,
    ad_power,
    bracket,
    format_lie,
    generator_element,
    lie_slice,
)

from helpers import free_presentation, slice_element

A = Generator("a", 0)
B = Generator("b", 0)
C = Generator("c", 0)
X = Generator("x", 0)
Y = Generator("y", 0)
Z = Generator("z", 0)


def el(g, window):
    return generator_element(g, window)


def torus_map(window):
    return AttachingMap([("sz", bracket(el(A, window), el(B, window)))])


def zero_map(window, name="sz"):
    return AttachingMap([(name, LieElement(TensorElement.zero(window)))])


# ---------------------------------------------------------------------------
# attach_cells
# ---------------------------------------------------------------------------


def test_attach_empty_is_base():
    W = Window(4, 2)
    base = free_presentation([A, B], W)
    att = attach_cells(base, AttachingMap([]))
    assert att.generators == base.generators
    assert att.diff == base.diff


def test_attach_cp2():
    W = Window(6, 6)
    x = Generator("x", 1)
    base = free_presentation([x], W)
    att = attach_cells(base, AttachingMap([("sy", bracket(el(x, W), el(x, W)))]))
    sy = att.generator("sy")
    assert sy.degree == 3
    assert sy.weight == 2
    assert att.diff[sy].value == bracket(el(x, W), el(x, W)).value


def test_attach_lemaire_quadratic_model():
    W = Window(4, 2)
    xs = [Generator(f"x{i}", 0) for i in range(1, 6)]
    base = free_presentation(xs, W)
    e = [el(g, W) for g in xs]
    x1, x2, x3, x4, x5 = e
    targets = [
        bracket(x1, x3), bracket(x1, x4), bracket(x2, x3), bracket(x2, x4),
        bracket(x5, x1 - x3), bracket(x5, x1 - x4), bracket(x5, x2 - x3),
    ]
    amap = AttachingMap([(f"sy{i}", t) for i, t in enumerate(targets, start=1)])
    att = attach_cells(base, amap)
    assert len(att.generators) == 12
    assert att.check_d_squared() == []
    assert all(att.generator(f"sy{i}").weight == 2 for i in range(1, 8))


def test_attach_rejects_non_cycle():
    W = Window(4, 4)
    x = Generator("x", 1)
    h = Generator("h", 2)
    base = DglPresentation([x, h], {h: el(x, W)}, W)
    with pytest.raises(ValueError, match="not a cycle") as info:
        attach_cells(base, AttachingMap([("s", el(h, W))]))
    assert info.value.name == "s"  # the CLI reports it at cell s


def test_attach_rejects_name_collision():
    W = Window(3, 1)
    base = free_presentation([A, B], W)
    with pytest.raises(ValueError, match="collides"):
        attach_cells(base, AttachingMap([("a", bracket(el(A, W), el(B, W)))]))


def test_duplicate_cell_names_rejected():
    W = Window(3, 1)
    t = bracket(el(A, W), el(B, W))
    with pytest.raises(ValueError, match="duplicate"):
        AttachingMap([("s", t), ("s", t)])


# ---------------------------------------------------------------------------
# homological inertness
# ---------------------------------------------------------------------------


def test_torus_inert():
    W = Window(6, 3)
    base = free_presentation([A, B], W)
    v = inert_homological(base, torus_map(W))
    assert v.status == INERT_UP_TO_WINDOW
    assert v.injective
    assert v.failing == []


def test_cp2_not_inert_with_witness():
    W = Window(6, 6)
    x = Generator("x", 1)
    base = free_presentation([x], W)
    amap = AttachingMap([("sy", bracket(el(x, W), el(x, W)))])
    v = inert_homological(base, amap)
    assert v.status == NOT_INERT
    assert v.injective
    degrees = [d for d, _ in v.failing]
    assert degrees == [4]
    witness = v.failing[0][1]
    att = attach_cells(base, amap)
    sy = att.generator("sy")
    expected = bracket(el(x, W), el(sy, W))
    assert witness == expected or witness == Fraction(-1) * expected


def test_trivial_attachment_not_inert():
    W = Window(5, 3)
    base = free_presentation([A, B], W)
    v = inert_homological(base, zero_map(W))
    assert v.status == NOT_INERT
    assert v.injective is False


def test_verdict_monotone_across_windows():
    for n in (4, 5, 6):
        W = Window(n, 3)
        base = free_presentation([A, B], W)
        assert inert_homological(base, torus_map(W)).status == INERT_UP_TO_WINDOW
    for n in (4, 5, 6):
        W = Window(n, 6)
        x = Generator("x", 1)
        base = free_presentation([x], W)
        amap = AttachingMap([("sy", bracket(el(x, W), el(x, W)))])
        assert inert_homological(base, amap).status == NOT_INERT


def test_genus2_relator_inert():
    W = Window(5, 3)
    gens = [Generator(n, 0) for n in ("a1", "b1", "a2", "b2")]
    base = free_presentation(gens, W)
    a1, b1, a2, b2 = (el(g, W) for g in gens)
    rel = bracket(a1, b1) + bracket(a2, b2)
    v = inert_homological(base, AttachingMap([("s", rel)]))
    assert v.status == INERT_UP_TO_WINDOW
    assert v.injective


# ---------------------------------------------------------------------------
# quotient consistency
# ---------------------------------------------------------------------------


def test_quotient_consistency_torus():
    W = Window(5, 3)
    base = free_presentation([A, B], W)
    r = quotient_consistency(base, torus_map(W))
    assert r.consistent
    assert r.attached_dims == {0: 2, 1: 0, 2: 0}
    assert r.quotient_dims == {0: 2, 1: 0, 2: 0}


def test_quotient_consistency_kill_generator():
    W = Window(5, 3)
    base = free_presentation([A, B], W)
    r = quotient_consistency(base, AttachingMap([("s", el(A, W))]))
    assert r.consistent
    assert r.quotient_dims[0] == 1  # what is left of L(a,b) is L(b)


def test_quotient_consistency_cp2_detects_inequality():
    W = Window(6, 6)
    x = Generator("x", 1)
    base = free_presentation([x], W)
    r = quotient_consistency(base, AttachingMap([("sy", bracket(el(x, W), el(x, W)))]))
    assert not r.consistent
    assert r.mismatches() == [4]
    assert r.attached_dims[4] == 1
    assert r.quotient_dims[4] == 0


def test_base_generator_outside_the_window():
    # h has no chain slot at (3,2), so every bracket with it is dropped: the
    # saturation and the verdict read the window as if h were absent
    W = Window(3, 2)
    base = free_presentation([A, B, Generator("h", 5)], W)
    r = quotient_consistency(base, torus_map(W))
    assert r.attached_dims == r.quotient_dims == {0: 2, 1: 0}
    assert inert_homological(base, torus_map(W)).status == INERT_UP_TO_WINDOW


def test_quotient_consistency_requires_zero_diff():
    W = Window(4, 4)
    x = Generator("x", 1)
    sy = Generator("sy", 3, weight=2)
    base = DglPresentation([x, sy], {sy: bracket(el(x, W), el(x, W))}, W)
    with pytest.raises(ValueError, match="zero differential"):
        quotient_consistency(base, AttachingMap([]))


# ---------------------------------------------------------------------------
# Anick certificate
# ---------------------------------------------------------------------------


def alpha(n, window):
    return ad_power(el(X, window), n, ad_power(el(Y, window), n, el(Z, window)))


def test_leading_words_iterated_commutators():
    W = Window(7, 0)
    rels = [alpha(n, W).value for n in (1, 2, 3)]
    cert = inert_anick(rels, [X, Y, Z])
    assert cert.passed
    words = [tuple(g.name for g in w) for w in cert.leading]
    assert words == [
        ("x", "y", "z"),
        ("x", "x", "y", "y", "z"),
        ("x", "x", "x", "y", "y", "y", "z"),
    ]


def test_anick_overlap_failure():
    W = Window(2, 0)
    ab = TensorElement(W, {(A, B): 1})
    ba = TensorElement(W, {(B, A): 1})
    cert = inert_anick([ab, ba], [A, B])
    assert not cert.passed
    assert "overlap" in cert.violation


def test_anick_submonomial_failure():
    W = Window(3, 0)
    abc = TensorElement(W, {(A, B, C): 1})
    b = TensorElement(W, {(B,): 1})
    cert = inert_anick([abc, b], [A, B, C])
    assert not cert.passed
    assert "submonomial" in cert.violation


def test_anick_single_commutator_passes():
    W = Window(2, 0)
    rel = bracket(el(A, W), el(B, W)).value
    cert = inert_anick([rel], [A, B])
    assert cert.passed
    assert [g.name for g in cert.leading[0]] == ["a", "b"]


def test_anick_self_overlap_default_and_flag():
    W = Window(2, 0)
    aa = TensorElement(W, {(A, A): 1})
    assert not inert_anick([aa], [A, B]).passed


def test_anick_zero_relator_rejected():
    W = Window(2, 0)
    with pytest.raises(ValueError, match="zero relator"):
        inert_anick([TensorElement.zero(W)], [A, B])


def test_leading_word_respects_order():
    W = Window(2, 0)
    rel = TensorElement(W, {(A, B): 1, (B, A): -1})
    assert leading_word(rel, [A, B]) == (A, B)
    assert leading_word(rel, [B, A]) == (B, A)


def test_anick_pass_implies_homological_inert():
    # cross-validation on the regression suite: the weight-visible relators
    W = Window(5, 3)
    base = free_presentation([X, Y, Z], W)
    amap = AttachingMap([("sz1", alpha(1, W)), ("sz2", alpha(2, W))])
    wide = Window(7, 0)
    cert = inert_anick([alpha(1, wide).value, alpha(2, wide).value], [X, Y, Z])
    assert cert.passed
    v = inert_homological(base, amap)
    assert v.status == INERT_UP_TO_WINDOW

    base2 = free_presentation([A, B], W)
    cert2 = inert_anick([bracket(el(A, W), el(B, W)).value], [A, B])
    assert cert2.passed
    assert inert_homological(base2, torus_map(W)).status == INERT_UP_TO_WINDOW


# ---------------------------------------------------------------------------
# sequential attachments
# ---------------------------------------------------------------------------


def test_sequential_empty_second():
    W = Window(5, 3)
    base = free_presentation([A, B], W)
    p2, v1, v2, comb = sequential_attach(base, torus_map(W), AttachingMap([]))
    assert v1.status == comb.status == INERT_UP_TO_WINDOW
    assert v2.status == INERT_UP_TO_WINDOW
    assert v2.failing == []


def test_sequential_genus2():
    W = Window(5, 3)
    gens = [Generator(n, 0) for n in ("a1", "b1", "a2", "b2")]
    base = free_presentation(gens, W)
    a1, b1, a2, b2 = (el(g, W) for g in gens)
    g1 = AttachingMap([("s1", bracket(a1, b1))])
    g2 = AttachingMap([("s2", bracket(a2, b2))])
    p2, v1, v2, comb = sequential_attach(base, g1, g2)
    assert v1.status == INERT_UP_TO_WINDOW
    assert v2.status == INERT_UP_TO_WINDOW
    assert comb.status == INERT_UP_TO_WINDOW
    # the sequential-splitting equivalence on this window
    assert (comb.status == INERT_UP_TO_WINDOW) == (
        v1.status == INERT_UP_TO_WINDOW and v2.status == INERT_UP_TO_WINDOW
    )


def test_sequential_corruption_flips_second_and_combined():
    W = Window(5, 3)
    gens = [Generator(n, 0) for n in ("a1", "b1", "a2", "b2")]
    base = free_presentation(gens, W)
    a1, b1 = el(gens[0], W), el(gens[1], W)
    g1 = AttachingMap([("s1", bracket(a1, b1))])
    g2bad = zero_map(W, "s2")
    p2, v1, v2, comb = sequential_attach(base, g1, g2bad)
    assert v1.status == INERT_UP_TO_WINDOW
    assert v2.status == NOT_INERT
    assert comb.status == NOT_INERT


def test_sequential_both_kill_generators():
    # g1 kills a, g2 kills the image of b: both inert, combined inert
    W = Window(4, 2)
    base = free_presentation([A, B], W)
    g1 = AttachingMap([("sa", el(A, W))])
    g2 = AttachingMap([("sb", el(B, W))])
    p2, v1, v2, comb = sequential_attach(base, g1, g2)
    assert v1.status == INERT_UP_TO_WINDOW
    assert v2.status == INERT_UP_TO_WINDOW
    assert comb.status == INERT_UP_TO_WINDOW


# ---------------------------------------------------------------------------
# sampled structural properties
# ---------------------------------------------------------------------------


def test_inert_element_brackets_nonzero():
    # the torus relator t = [a,b] has centralizer Q.t in low weights: any y
    # outside span{t} brackets nontrivially with it within the window
    rng = random.Random(31)
    W = Window(4, 3)
    gens = (A, B)
    t = bracket(el(A, W), el(B, W))

    def proportional(y):
        if y.is_zero():
            return True
        return any((y.value - c * t.value).is_zero() for c in set(y.value.terms.values()))

    checked = 0
    for _ in range(20):
        out = TensorElement.zero(W)
        for w in (1, 2):
            slc = lie_slice(gens, w, 0)
            for k in range(slc.dim):
                c = rng.randint(-2, 2)
                if c:
                    out = out + Fraction(c) * slice_element(slc, k, W).value
        y = LieElement(out)
        if proportional(y):
            continue
        assert not bracket(t, y).is_zero()
        checked += 1
    assert checked >= 10


def test_random_degree_zero_elements_inert():
    # small deterministic sample; the full 20-point sample is acceptance #6
    rng = random.Random(20260810)
    W = Window(5, 3)
    gens = (A, B, C)
    base = free_presentation(list(gens), W)
    for _ in range(3):
        out = TensorElement.zero(W)
        while out.is_zero():
            out = TensorElement.zero(W)
            for w in (1, 2, 3):
                slc = lie_slice(gens, w, 0)
                for k in range(slc.dim):
                    c = rng.randint(-2, 2)
                    if c:
                        out = out + Fraction(c) * slice_element(slc, k, W).value
        v = inert_homological(base, AttachingMap([("s", LieElement(out))]))
        assert v.status == INERT_UP_TO_WINDOW


def test_witness_is_genuine():
    # the reported witness is a cycle, not a boundary, and not hit by H(base)
    W = Window(6, 6)
    x = Generator("x", 1)
    base = free_presentation([x], W)
    amap = AttachingMap([("sy", bracket(el(x, W), el(x, W)))])
    att = attach_cells(base, amap)
    v = inert_homological(base, amap)
    (deg, witness), = v.failing
    assert att.derive(witness).is_zero()
    from lietop.dgl import ChainComplex
    from lietop.qlinalg import Echelon

    cx = homology(att).complex
    boundaries = Echelon(cx.dim(deg))
    bnd = cx.boundary(deg + 1)
    cols = {}
    for (i, j), c in bnd.entries.items():
        cols.setdefault(j, {})[i] = c
    for vcol in cols.values():
        boundaries.insert(vcol)
    wvec = cx.coordinates(witness.value, deg)
    assert boundaries.reduce(wvec)[0]
    hit = Echelon(cx.dim(deg))
    for row in boundaries.basis().rows:
        hit.insert(dict(row))
    for rep in homology(base).representatives.get(deg, []):
        hit.insert(cx.coordinates(rep.value.rewindow(W), deg))
    assert hit.reduce(wvec)[0]


def test_anick_family_fully_visible():
    # all three iterated-commutator cells inside the window at (7,2)
    W = Window(7, 2)
    x, y, z = (Generator(n, 0) for n in "xyz")
    base = free_presentation([x, y, z], W)
    amap = AttachingMap(
        [
            (f"sz{n}", ad_power(el(x, W), n, ad_power(el(y, W), n, el(z, W))))
            for n in (1, 2, 3)
        ]
    )
    v = inert_homological(base, amap)
    assert v.status == INERT_UP_TO_WINDOW
    assert v.injective


def test_product_of_spheres_model():
    # two 2-spheres with the top cell attached along the Whitehead product:
    # an even-degree target; the homotopy of the product is reproduced
    W = Window(4, 5)
    x1, x2 = Generator("x1", 1), Generator("x2", 1)
    base = free_presentation([x1, x2], W)
    target = bracket(el(x1, W), el(x2, W))
    amap = AttachingMap([("s", target)])
    v = inert_homological(base, amap)
    assert v.status == INERT_UP_TO_WINDOW
    att = attach_cells(base, amap)
    t = homology(att)
    assert t.dims[1] == 2
    assert t.dims[2] == 2
    assert t.dims[3] == 0
    assert t.dims[4] == 0


def test_hidden_generator_growth_extends():
    # the degree-1 indecomposable count keeps climbing at the next stage
    from lietop.dgl import indecomposable_dims

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
    for r0 in (2, 3, 4, 5):
        p = model(r0)
        values.append(indecomposable_dims(p)[1])
    assert values == [0, 1, 2, 3]


def test_top_cell_of_projective_three_space():
    # base is the projective-plane model; attaching its top cell along the
    # degree-4 class is fine through degree 5 but fails at degree 6, where
    # the new top homotopy class appears -- visible only once the window
    # reaches it, and reported exactly then
    def build(window):
        x = Generator("x", 1)
        sy = Generator("sy", 3, weight=2)
        xx = bracket(el(x, window), el(x, window))
        base = DglPresentation([x, sy], {sy: xx}, window)
        target = bracket(el(x, window), el(sy, window))
        return base, AttachingMap([("c", target)])

    base, amap = build(Window(6, 6))
    assert inert_homological(base, amap).status == INERT_UP_TO_WINDOW

    base, amap = build(Window(8, 8))
    v = inert_homological(base, amap)
    assert v.status == NOT_INERT
    assert [d for d, _ in v.failing] == [6]


def test_quotient_consistency_detects_hidden_generators():
    # the seven-relator model is the canonical non-inert attachment: the
    # degree-0 table agrees (both sides compute L/I), degree 1 does not
    W = Window(4, 2)
    xs = [Generator(f"x{i}", 0) for i in range(1, 6)]
    base = free_presentation(xs, W)
    x1, x2, x3, x4, x5 = (el(g, W) for g in xs)
    targets = [
        bracket(x1, x3), bracket(x1, x4), bracket(x2, x3), bracket(x2, x4),
        bracket(x5, x1 - x3), bracket(x5, x1 - x4), bracket(x5, x2 - x3),
    ]
    amap = AttachingMap([(f"sy{i}", t) for i, t in enumerate(targets, start=1)])
    r = quotient_consistency(base, amap)
    assert r.agree(0)
    assert not r.agree(1)
    assert r.attached_dims[1] > 0
    assert r.quotient_dims[1] == 0


def test_inclusion_matches_tensor_round_trip():
    # base basis trees re-indexed into the attached complex agree with
    # building each base basis element and taking attached coordinates
    from lietop import cli
    from lietop.dgl import ChainComplex

    for name in cli.BUILTIN_EXAMPLES:
        _, text = cli._load_source(name)
        model = cli.build(cli.parse(text))
        base_cx, att_cx = ChainComplex(model.base), ChainComplex(model.attached)
        for d in range(model.window.max_degree + 1):
            into = att_cx.inclusion(base_cx, d)
            assert len(into) == base_cx.dim(d)
            for j, i in enumerate(into):
                e_j = base_cx.element({j: Fraction(1)}, d)
                assert att_cx.coordinates(e_j.value, d) == {i: 1}, (name, d, j)
        if model.amap.cells:
            with pytest.raises(ValueError, match="prefix"):
                base_cx.inclusion(att_cx, 0)


# per-degree ranks of the saturated target ideal on the base at the default
# windows (criterion6 at (4,3)), as computed with word-space generator
# brackets before they moved to chain coordinates
IDEAL_RANKS = {
    "cp2": {2: 1},
    "torus": {0: 21},
    "genus2": {0: 80},
    "lemaire28": {0: 182},
    "anick29": {0: 14},
    "criterion6.lt": {0: 24},
}


@pytest.mark.parametrize("name", list(IDEAL_RANKS))
def test_saturate_ideal_ranks_unchanged(name):
    from lietop import cli

    source, window = name, None
    if name.endswith(".lt"):
        source, window = str(Path(__file__).parent / "golden" / name), Window(4, 3)
    model = cli.build(cli.parse(cli._load_source(source)[1]), window)
    base = model.base.rewindow(model.window)
    echelons = saturate_ideal(base, [t for _, t in model.amap.cells], ChainComplex(base))
    assert {d: ech.rank for d, ech in echelons.items()} == IDEAL_RANKS[name]


GOLDEN = Path(__file__).parent / "golden"


def _golden_model(name: str, window: Window | None):
    return cli.build(cli.parse(cli._load_source(name)[1]), window)


@pytest.mark.parametrize("name, window, stem", [
    ("torus", None, "inert-torus"),
    ("genus2", Window(7, 3), "inert-genus2-7-3"),
])
def test_inert_verdict_builds_no_attached_cycle_basis(monkeypatch, name, window, stem):
    # an inert-up-to-window verdict passes the rank test in every degree, so
    # it never builds the attached model's cycle basis; the output is the
    # golden one
    cells = {cell for cell, _ in _golden_model(name, window).amap.cells}
    cycles = ChainComplex.cycles

    def guarded(self, degree):
        assert not cells & {g.name for g in self.p.generators}, "attached cycle basis built"
        return cycles(self, degree)

    monkeypatch.setattr(ChainComplex, "cycles", guarded)
    argv = ["inert", "--file", name, "--format", "records"]
    if window is not None:
        argv += ["--window", str(window.max_weight), str(window.max_degree)]
    code, out = cli.run(argv)
    assert code == 0 and out.encode() == (GOLDEN / f"{stem}.records").read_bytes()


def test_degree_without_cell_chains_skips_the_rank_test(monkeypatch):
    # cells have degree >= 1, so every degree-0 attached chain is a base
    # chain and degree 0 is onto by construction: its base cycles are never
    # included into the attached complex
    degrees: list[int] = []
    inclusion = ChainComplex.inclusion

    def recorded(self, sub, degree):
        degrees.append(degree)
        return inclusion(self, sub, degree)

    monkeypatch.setattr(ChainComplex, "inclusion", recorded)
    code, out = cli.run(["inert", "--file", "genus2", "--window", "6", "3", "--format", "records"])
    assert code == 0 and out.encode() == (GOLDEN / "inert-genus2-6-3.records").read_bytes()
    assert 0 not in degrees


def test_inert_torus_eliminates_no_kernel_on_the_attached_side(monkeypatch):
    # the attached model is ranked by untracked image eliminations; a kernel
    # is eliminated only where a degree's cycles are read, and an
    # inert-up-to-window verdict reads none on the attached side
    kernels: list[tuple[tuple[str, ...], int]] = []
    eliminate, cycles = dgl.kernel_basis, ChainComplex.cycles
    current: list[ChainComplex] = []

    def counted(self, degree):
        current.append(self)
        try:
            return cycles(self, degree)
        finally:
            current.pop()

    def tracked(columns, ambient):
        kernels.append((tuple(g.name for g in current[-1].p.generators), ambient))
        return eliminate(columns, ambient)

    monkeypatch.setattr(ChainComplex, "cycles", counted)
    monkeypatch.setattr(dgl, "kernel_basis", tracked)
    code, out = cli.run(["inert", "--file", "torus", "--window", "8", "3", "--format", "records"])
    assert code == 0 and out.encode() == (GOLDEN / "inert-torus-8-3.records").read_bytes()
    cells = {cell for cell, _ in _golden_model("torus", Window(8, 3)).amap.cells}
    assert not any(cells & set(names) for names, _ in kernels)


@pytest.mark.parametrize("name, window, stem", [
    ("cp2", None, "inert-cp2"),
    ("cp2", Window(12, 12), "inert-cp2-12-12"),
    ("lemaire28", None, "inert-lemaire28"),
])
def test_witness_elements_print_as_the_cli_prints_them(name, window, stem):
    # the CLI prints witnesses from their chain vectors; the Lie elements
    # that `failing` builds for library callers format to the same text
    model = _golden_model(name, window)
    verdict = inert_homological(model.base, model.amap)
    records = dict(line.split(": ", 1) for line in (GOLDEN / f"{stem}.records").read_text().splitlines())
    printed = [(int(records[f"inert.failing.{i}.degree"]), records[f"inert.failing.{i}.witness"])
               for i in range(len(verdict.witnesses))]
    assert f"inert.failing.{len(printed)}.degree" not in records
    assert [d for d, _ in verdict.failing] == [d for d, _ in verdict.witnesses] == [d for d, _ in printed]
    assert [format_lie(el, model.attached.generators) for _, el in verdict.failing] == [w for _, w in printed]
