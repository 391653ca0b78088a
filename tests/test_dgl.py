import random
import warnings
from fractions import Fraction
from pathlib import Path

import pytest

from lietop import cli, dgl
from lietop.dgl import (
    ChainComplex,
    DglPresentation,
    GeneratorError,
    free_product,
    homology,
    indecomposable_dims,
    lcs_dims,
    regrade,
)
from lietop.freelie import (
    Generator,
    LieElement,
    TensorElement,
    Window,
    bracket,
    format_lie,
    generator_element,
    lie_slice,
)
from lietop.sullivan import cochains, truncation_lie_data

from helpers import apply, dense, free_presentation, slice_element
from oracles import dense_null_space, dense_rank, super_witt, witt, word_space_boundary

A = Generator("a", 0)
B = Generator("b", 0)
X = Generator("x", 1)


def cp2(window=Window(6, 6)):
    x = Generator("x", 1)
    sy = Generator("sy", 3, weight=2)
    target = bracket(generator_element(x, window), generator_element(x, window))
    return DglPresentation([x, sy], {sy: target}, window)


def torus(window=Window(5, 3)):
    sz = Generator("sz", 1, weight=2)
    target = bracket(generator_element(A, window), generator_element(B, window))
    return DglPresentation([A, B, sz], {sz: target}, window)


def random_lie(rng, gens, window, weights, degree):
    out = TensorElement.zero(window)
    for w in weights:
        slc = lie_slice(gens, w, degree)
        for k in range(slc.dim):
            c = rng.randint(-2, 2)
            if c:
                out = out + Fraction(c) * slice_element(slc, k, window).value
    return LieElement(out)


# ---------------------------------------------------------------------------
# construction and validation
# ---------------------------------------------------------------------------


def test_degree_zero_diff_rejected():
    W = Window(3, 3)
    with pytest.raises(ValueError, match="^degree-0 generator a must have zero diff$") as info:
        DglPresentation([A, B], {A: generator_element(B, W)}, W)
    assert info.value.name == "a"  # the CLI reports it at a's diff directive


def test_degree_mismatch_rejected():
    W = Window(3, 3)
    sy = Generator("sy", 3)
    x = Generator("x", 1)
    with pytest.raises(ValueError, match="^diff of sy must be homogeneous of degree 2$") as info:
        DglPresentation([x, sy], {sy: generator_element(x, W)}, W)
    assert info.value.name == "sy"


def test_non_lie_diff_rejected():
    W = Window(3, 3)
    sy = Generator("sy", 1)
    t = TensorElement(W, {(X,): 1, (A, A): 1})  # inhomogeneous and non-Lie
    with pytest.raises(ValueError):
        DglPresentation([A, X, sy], {sy: LieElement(t)}, W)


def test_d_squared_validation():
    # ds = [x,h] with dh = [x,x] is valid: d^2 s = [x,[x,x]] = 0; ds7 = [h,h]
    # with dh = [x,x] is not, and the constructor names s7
    W = Window(4, 8)
    x = Generator("x", 1)
    h = Generator("h", 3)
    s = Generator("s", 5)
    xx = bracket(generator_element(x, W), generator_element(x, W))
    xh = bracket(generator_element(x, W), generator_element(h, W))
    p = DglPresentation([x, h, s], {h: xx, s: xh}, W)
    assert p.check_d_squared() == []
    s7 = Generator("s7", 7)
    hh = bracket(generator_element(h, W), generator_element(h, W))
    with pytest.raises(GeneratorError, match="d\\^2 != 0 on generators: s7$"):
        DglPresentation([x, h, s7], {h: xx, s7: hh}, W)


def xyzw(window):
    """dz = [x,y], dw = [x,z] on x, y of degree 0, z of degree 1 and w of
    degree 2: d^2 w = [x,[x,y]] has weight 3, so d^2 = 0 only below it."""
    x, y, z, w = Generator("x", 0), Generator("y", 0), Generator("z", 1), Generator("w", 2)
    gx, gz = generator_element(x, window), generator_element(z, window)
    return DglPresentation(
        [x, y, z, w], {z: bracket(gx, generator_element(y, window)), w: bracket(gx, gz)}, window
    )


def test_wider_window_that_breaks_d_squared_raises():
    p = xyzw(Window(2, 3))
    with pytest.raises(GeneratorError, match="d\\^2 != 0 on generators: w$") as err:
        p.rewindow(Window(3, 3))
    assert err.value.name == "w"
    u = Generator("u", 0)
    with pytest.raises(GeneratorError, match="d\\^2 != 0 on generators: w$") as err:
        free_product(p, DglPresentation([u], {}, Window(3, 3)))
    assert err.value.name == "w"


def test_narrower_and_degree_only_windows_keep_d_squared():
    # truncation is a quotient, and a diff image of degree <= D is never cut
    # by the degree cap, so these rebuilds pass the constructor's check
    p = xyzw(Window(2, 3))
    assert p.rewindow(Window(1, 3)).diff == {}
    assert p.rewindow(Window(2, 5)).window == Window(2, 5)
    data = truncation_lie_data(p)
    assert cochains(data) is data.dual


def test_cp2_valid_and_minimal():
    p = cp2()
    assert p.check_d_squared() == []
    assert p.is_minimal()


def test_minimality_examples():
    W = Window(4, 4)
    assert free_presentation([A, B], W).is_minimal()
    sy = Generator("sy", 1, weight=2)
    ab = bracket(generator_element(A, W), generator_element(B, W))
    assert DglPresentation([A, B, sy], {sy: ab}, W).is_minimal()
    # weight-1 term makes it non-minimal
    s1 = Generator("s1", 1)
    x = Generator("x", 1)
    h = Generator("h", 2)
    p = DglPresentation(
        [x, h], {h: generator_element(x, W)}, W
    )
    assert not p.is_minimal()


# ---------------------------------------------------------------------------
# derive
# ---------------------------------------------------------------------------


def test_derive_generator_is_diff():
    p = cp2()
    x, sy = p.generators
    assert p.derive(generator_element(sy, p.window)).value == p.diff[sy].value
    assert p.derive(generator_element(x, p.window)).is_zero()


def test_derive_spec_example():
    # deg x = 1, dx = 0; deg sy = 3, d sy = [x,x]: d[x, sy] = [x,[x,x]] = 0
    p = cp2()
    x, sy = p.generators
    el = bracket(generator_element(x, p.window), generator_element(sy, p.window))
    assert p.derive(el).is_zero()


def test_derive_unknown_generator():
    p = cp2()
    with pytest.raises(ValueError, match="unknown generators"):
        p.derive(generator_element(A, p.window))


def test_derivation_rule_random():
    # d[a,b] = (-1)^{deg b}[da, b] + [a, db], exactly
    rng = random.Random(21)
    W = Window(5, 5)
    x = Generator("x", 1)
    sy = Generator("sy", 3, weight=2)
    xx = bracket(generator_element(x, W), generator_element(x, W))
    p = DglPresentation([x, sy], {sy: xx}, W)
    gens = p.generators
    degrees = [1, 2, 3, 4, 5]
    for _ in range(30):
        da = rng.choice(degrees)
        db = rng.choice(degrees)
        if da + db > W.max_degree:
            # the degree cap is not stable under the degree-lowering d, so
            # only instances that fit the window satisfy the rule on the nose
            continue
        a = random_lie(rng, gens, W, [1, 2], da)
        b = random_lie(rng, gens, W, [1, 2], db)
        if a.is_zero() or b.is_zero():
            continue
        lhs = p.derive(bracket(a, b))
        sign = Fraction(-1) ** db
        rhs = sign * bracket(p.derive(a), b) + bracket(a, p.derive(b))
        assert lhs == rhs


def test_d_squared_everywhere_random():
    rng = random.Random(22)
    p = torus(Window(5, 3))
    for _ in range(20):
        d = rng.randint(0, 3)
        el = random_lie(rng, p.generators, p.window, [1, 2, 3], d)
        assert p.derive(p.derive(el)).is_zero()


# ---------------------------------------------------------------------------
# homology
# ---------------------------------------------------------------------------


def test_homology_free_presentation():
    p = free_presentation([A, B], Window(4, 2))
    t = homology(p)
    assert t.dims == {0: 8, 1: 0}
    assert t.dims[0] == sum(witt(2, w) for w in range(1, 5))


def test_homology_cp2():
    t = homology(cp2())
    assert {d: t.dims[d] for d in range(6)} == {0: 0, 1: 1, 2: 0, 3: 0, 4: 1, 5: 0}
    assert all(t.stabilized.values())
    (rep,) = t.representatives[4]
    p = cp2()
    x, sy = p.generators
    expected = bracket(generator_element(x, p.window), generator_element(sy, p.window))
    assert rep == expected or rep == Fraction(-1) * expected


def test_homology_cp2_small_window_hand_values():
    # weight <= 3 stage, eliminated by hand
    t = homology(cp2(Window(3, 6)))
    assert {d: t.dims[d] for d in range(6)} == {0: 0, 1: 1, 2: 0, 3: 0, 4: 1, 5: 0}


def test_homology_torus():
    t = homology(torus())
    assert t.dims == {0: 2, 1: 0, 2: 0}
    reps = t.representatives[0]
    names = {frozenset(w for w in r.value.terms) for r in reps}
    assert names == {frozenset({(A,)}), frozenset({(B,)})}


def test_homology_diff_zero_matches_lcs_totals():
    p = free_presentation([A, X], Window(4, 4))
    t = homology(p)
    table = lcs_dims(p, 4)
    for d in t.degrees:
        expected = sum(table[k].get(d, 0) for k in table)
        assert t.dims[d] == expected


def test_boundary_squared_is_zero():
    p = cp2()
    t = homology(p)
    cx = t.complex
    for d in range(1, p.window.max_degree + 1):
        m_in = cx.boundary(d)
        m_out = cx.boundary(d - 1)
        for j in range(m_in.cols):
            col = {i: c for (i, jj), c in m_in.entries.items() if jj == j}
            assert apply(m_out, col) == {}


def test_window_monotonicity_minimal_presentation():
    dims = []
    for n in (4, 5, 6):
        t = homology(cp2(Window(n, 6)))
        dims.append(tuple(t.dims[d] for d in range(6)))
    assert dims[0] == dims[1] == dims[2]


def test_stabilization_flags():
    # free algebra: degree-0 dim grows with every weight stage
    p = free_presentation([A, B], Window(4, 1))
    t = homology(p)
    assert t.stabilized[0] is False
    # torus: everything settles
    assert all(homology(torus()).stabilized.values())


def test_homology_memoized():
    p = cp2()
    assert homology(p) is homology(p)


def test_homology_cycles_built_per_degree_on_first_read(monkeypatch):
    # dims and flags come from ranks alone; each degree's cycle basis is
    # built when that degree's cycles are first read, and once
    built = []
    cycles = ChainComplex.cycles

    def counted(self, degree):
        built.append(degree)
        return cycles(self, degree)

    monkeypatch.setattr(ChainComplex, "cycles", counted)
    p = cli.build(cli.parse(cli._load_source("lemaire28")[1])).attached
    table = homology(p)
    assert built == [] and table.dims[1] > 0
    first = table.cycles[1]
    assert built == [1] and table.cycles.get(1) is first and 1 in table.cycles
    assert table.cycles.get(table.window.max_degree) is None and table.window.max_degree not in table.cycles
    assert [len(vs) for _, vs in table.cycles.items()] == [table.dims[d] for d in table.degrees]
    assert sorted(built) == table.degrees
    assert list(table.representatives) == table.degrees and built.count(1) == 1


def test_homology_cycles_concurrent_reads():
    import sys
    import threading

    p = cli.build(cli.parse(cli._load_source("genus2")[1])).attached
    table = homology(p)
    results, errors = [], []

    def read():
        try:
            results.append([table.cycles[d] for d in reversed(table.degrees)])
        except Exception as exc:  # pragma: no cover
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=read) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
            assert not t.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert not errors and len(results) == 8
    # every reader gets the one list stored for each degree
    assert all(all(a is b for a, b in zip(r, results[0])) for r in results)
    assert [len(vs) for vs in results[0]] == [table.dims[d] for d in reversed(table.degrees)]


# ---------------------------------------------------------------------------
# lcs
# ---------------------------------------------------------------------------


def test_lcs_two_generators():
    p = free_presentation([A, B], Window(5, 3))
    table = lcs_dims(p, 5)
    assert [table[k].get(0, 0) for k in range(1, 6)] == [2, 1, 2, 3, 6]


def test_lcs_odd_generator():
    p = free_presentation([X], Window(3, 3))
    table = lcs_dims(p, 3)
    assert [sum(table[k].values()) for k in (1, 2, 3)] == [1, 1, 0]


def test_lcs_single_even_generator():
    even = Generator("e", 2)
    p = free_presentation([even], Window(2, 4))
    table = lcs_dims(p, 2)
    assert [sum(table[k].values()) for k in (1, 2)] == [1, 0]


@pytest.mark.parametrize("degrees, window", [
    ([0, 1, 2], Window(7, 6)),
    ([1, 1], Window(7, 6)),
    ([2, 1, 0, 1], Window(5, 6)),
    ([0, 0, 1], Window(6, 3)),
    ([2, 2], Window(6, 6)),
])
def test_lcs_dims_against_super_witt(degrees, window):
    gens = [Generator(f"g{i}", d) for i, d in enumerate(degrees)]
    table = lcs_dims(free_presentation(gens, window), window.max_weight)
    for k in range(1, window.max_weight + 1):
        dims = {d: super_witt(degrees, k, d) for d in range(window.max_degree + 1)}
        assert table[k] == {d: n for d, n in dims.items() if n}, k


def test_lcs_requires_zero_diff():
    with pytest.raises(ValueError, match="zero differential"):
        lcs_dims(cp2(), 2)


def test_lcs_kmax_bound():
    p = free_presentation([A, B], Window(3, 1))
    with pytest.raises(ValueError, match="exceeds window"):
        lcs_dims(p, 4)


# ---------------------------------------------------------------------------
# free products
# ---------------------------------------------------------------------------


def test_free_product_unit():
    W = Window(3, 1)
    p = free_presentation([A, B], W)
    r = free_product(p, DglPresentation([], {}, W))
    assert r.generators == p.generators
    assert r.diff == p.diff


def test_free_product_of_frees():
    W = Window(3, 1)
    p = free_product(free_presentation([A], W), free_presentation([B], W))
    assert [g.name for g in p.generators] == ["a", "b"]
    table = lcs_dims(p, 3)
    assert [table[k].get(0, 0) for k in (1, 2, 3)] == [2, 1, 2]


def test_free_product_generator_count_additivity():
    W = Window(4, 1)
    p1 = free_presentation([A, B], W)
    p2 = free_presentation([Generator("c", 0)], W)
    prod = free_product(p1, p2)
    t = homology(prod)
    # weight-1 slice adds; total degree-0 dim matches the 3-generator algebra
    assert lcs_dims(prod, 1)[1][0] == 3
    assert t.dims[0] == sum(witt(3, w) for w in range(1, 5))


def test_free_product_rename_collision():
    W = Window(3, 1)
    p1 = free_presentation([A, B], W)
    p2 = free_presentation([Generator("a", 0)], W)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        prod = free_product(p1, p2)
    assert any("renamed" in str(w.message) for w in caught)
    assert [g.name for g in prod.generators] == ["a", "b", "a'"]


def test_free_product_associative_up_to_names():
    W = Window(3, 1)
    c = Generator("c", 0)
    p1, p2, p3 = (free_presentation([g], W) for g in (A, B, c))
    left = free_product(free_product(p1, p2), p3)
    right = free_product(p1, free_product(p2, p3))
    assert [g.name for g in left.generators] == [g.name for g in right.generators]
    assert homology(left).dims == homology(right).dims


def test_free_product_windows_merge():
    p1 = free_presentation([A], Window(3, 1))
    p2 = free_presentation([B], Window(5, 2))
    assert free_product(p1, p2).window == Window(5, 2)


# ---------------------------------------------------------------------------
# regrade
# ---------------------------------------------------------------------------


def test_regrade_identity():
    p = cp2()
    q = regrade(p, {})
    assert q.generators == p.generators
    assert {g: img.value.terms for g, img in q.diff.items()} == {
        g: img.value.terms for g, img in p.diff.items()
    }


def test_regrade_iterated_commutator_model():
    # x,y,z from degree 0 to degree 2; cells sz_n from 1 to 4n+3
    W = Window(5, 3)
    x, y, z = (Generator(n, 0) for n in "xyz")
    from lietop.freelie import ad_power

    def alpha(n, window):
        return ad_power(
            generator_element(x, window), n,
            ad_power(generator_element(y, window), n, generator_element(z, window)),
        )

    cells = [Generator(f"sz{n}", 1, weight=2 * n + 1) for n in (1, 2)]
    diffs = {cells[0]: alpha(1, W), cells[1]: alpha(2, W)}
    p = DglPresentation([x, y, z] + cells, diffs, W)
    new_degrees = {x: 2, y: 2, z: 2}
    for n, cell in zip((1, 2), cells):
        new_degrees[cell] = 4 * n + 3
    q = regrade(p, new_degrees)
    assert [g.degree for g in q.generators] == [2, 2, 2, 7, 11]
    # tensor data unchanged
    for g_old, g_new in zip(p.generators, q.generators):
        old = p.diff.get(g_old)
        new = q.diff.get(g_new)
        if old is None:
            assert new is None or new.is_zero()
        else:
            old_words = {tuple(gg.name for gg in w): c for w, c in old.value.terms.items()}
            new_words = {tuple(gg.name for gg in w): c for w, c in new.value.terms.items()}
            assert old_words == new_words


def test_regrade_parity_guard():
    # odd -> even on a generator appearing twice in a diff word ([x,x])
    p = cp2()
    x = p.generator("x")
    with pytest.raises(ValueError, match="parity change.*self-bracket"):
        regrade(p, {x: 2})


def test_regrade_inhomogeneous_rejected():
    W = Window(3, 3)
    sz = Generator("sz", 1, weight=2)
    ab = bracket(generator_element(A, W), generator_element(B, W))
    p = DglPresentation([A, B, sz], {sz: ab}, W)
    a = p.generator("a")
    with pytest.raises(ValueError, match="diff of sz must be homogeneous"):
        regrade(p, {a: 2})


def test_regrade_through_constructor():
    # the constructor's checks, which name the generator, decide the regrade
    W = Window(3, 3)
    sz = Generator("sz", 1, weight=2)
    ab = bracket(generator_element(A, W), generator_element(B, W))
    p = DglPresentation([A, B, sz], {sz: ab}, W)
    with pytest.raises(GeneratorError, match="degree-0 generator sz must have zero diff") as exc:
        regrade(p, {p.generator("sz"): 0})
    assert exc.value.name == "sz"


def test_regrade_single_parity_flip_keeps_certificate():
    # a -> odd, b even: the Koszul sign of the pair is unchanged, so the
    # stored data ab - ba is still the new bracket and the regrade is legal
    W = Window(3, 3)
    sz = Generator("sz", 1, weight=2)
    ab = bracket(generator_element(A, W), generator_element(B, W))
    p = DglPresentation([A, B, sz], {sz: ab}, W)
    a, b, szg = p.generators
    q = regrade(p, {a: 1, szg: 2})
    assert [g.degree for g in q.generators] == [1, 0, 2]


def test_regrade_certification_guard():
    # both a and b odd flips the pair sign: ab - ba is no longer a bracket
    W = Window(3, 3)
    sz = Generator("sz", 1, weight=2)
    ab = bracket(generator_element(A, W), generator_element(B, W))
    p = DglPresentation([A, B, sz], {sz: ab}, W)
    a, b, szg = p.generators
    with pytest.raises(ValueError, match="diff of sz is not in the free Lie subalgebra"):
        regrade(p, {a: 1, b: 1, szg: 3})


# a basis of the weight-1..3 part of the free Lie algebra on a, b, c
CRITERION6_TERMS = (
    "a", "b", "c", "[a,b]", "[a,c]", "[b,c]",
    "[a,[a,b]]", "[a,[a,c]]", "[b,[a,b]]", "[b,[a,c]]",
    "[b,[b,c]]", "[c,[a,b]]", "[c,[a,c]]", "[c,[b,c]]",
)


def seeded_criterion6(seed: int) -> str:
    """A weight-inhomogeneous cell target: every basis term with a random
    sign, so the cell has weight 1 and its boundary spans three weights."""
    rng = random.Random(seed)
    target = "".join(f" {rng.choice('+-')} {term}" for term in CRITERION6_TERMS)
    gens = "".join(f"generator {g} degree 0\n" for g in "abc")
    return f"{gens}cell s degree 1 attach {target.lstrip(' +')}\n"


GOLDEN_CRITERION6 = str(Path(__file__).parent / "golden" / "criterion6.lt")

# every built-in example at its default window, the criterion-6 golden file
# at (4,3), and a seeded weight-inhomogeneous target at (5,3)
BOUNDARY_CASES = [(name, None) for name in cli.BUILTIN_EXAMPLES] + [
    (GOLDEN_CRITERION6, Window(4, 3)),
    ("seeded", Window(5, 3)),
]


@pytest.mark.parametrize("name, window", BOUNDARY_CASES, ids=[Path(n).name for n, _ in BOUNDARY_CASES])
def test_boundary_matches_word_space_oracle(name, window):
    text = seeded_criterion6(6) if name == "seeded" else cli._load_source(name)[1]
    p = cli.build(cli.parse(text), window).attached
    cx, oracle = ChainComplex(p), ChainComplex(p)
    n = p.window.max_weight
    for d in range(p.window.max_degree + 1):
        m = cx.boundary(d)
        assert m == word_space_boundary(oracle, d), d
        # the cycles that homology reduces, read off the elimination of the
        # boundary into degree d - 1, are the reduced null space of the matrix
        null, pivots = dense_null_space(dense(m), m.cols)
        cycles = cx.cycles(d)
        assert cycles.pivots == pivots, d
        assert cycles.rows == [{j: c for j, c in enumerate(row) if c} for row in null], d
        if d < p.window.max_degree:
            block = [row[: cx.dim(d + 1, n - 1)] for row in dense(cx.boundary(d + 1))[: cx.dim(d, n - 1)]]
            assert cx.stage_rank(d) == dense_rank(block), d


KERNEL_CASES = [("torus", Window(6, 3)), ("lemaire28", Window(4, 2)), ("cp2", Window(6, 6)),
                (GOLDEN_CRITERION6, Window(5, 3))]


@pytest.mark.parametrize("name, window", KERNEL_CASES, ids=[Path(n).name for n, _ in KERNEL_CASES])
def test_cycles_match_dense_kernel_in_either_read_order(name, window):
    # the kernel is eliminated on its own first read, so it is the same
    # whether the untracked image one degree down was eliminated before it
    p = cli.build(cli.parse(cli._load_source(name)[1]), window).attached
    first, later = ChainComplex(p), ChainComplex(p)
    for d in range(1, window.max_degree + 1):
        m = ChainComplex(p).boundary(d)
        null, pivots = dense_null_space(dense(m), m.cols)
        rows = [{j: c for j, c in enumerate(row) if c} for row in null]
        got_first = first.cycles(d)
        assert later.image(d - 1).rank == m.cols - len(null), d
        got_later = later.cycles(d)
        for got in (got_first, got_later):
            assert got.pivots == pivots and got.rows == rows, d
        assert first.image(d - 1)._rows == later.image(d - 1)._rows, d


def test_cycles_are_computed_once_per_degree():
    # a degree's kernel basis is kept on its first read, degree 0 included
    p = cli.build(cli.parse(cli._load_source("torus")[1]), Window(6, 3)).attached
    cx = ChainComplex(p)
    for d in range(p.window.max_degree + 1):
        assert cx.cycles(d) is cx.cycles(d), d


@pytest.mark.parametrize("name", ["genus2", GOLDEN_CRITERION6], ids=["genus2", "criterion6"])
def test_boundary_columns_keep_integral_entries_as_ints(name):
    p = cli.build(cli.parse(cli._load_source(name)[1]), Window(5, 3)).attached
    cx = ChainComplex(p)
    entries = [c for d in range(1, 4) for j in range(cx.dim(d)) for c in cx.boundary_column(d, j).values()]
    assert entries and all(type(c) is int for c in entries if c.denominator == 1)


@pytest.mark.parametrize("name, window, golden", [
    ("genus2", Window(6, 3), "homology-genus2-6-3.records"),
    (GOLDEN_CRITERION6, Window(5, 3), None),
], ids=["genus2", "criterion6"])
def test_homology_eliminates_no_kernel_where_homology_is_zero(monkeypatch, name, window, golden):
    # images are eliminated untracked, and a degree with H_d = 0 reads no
    # cycles; here only degree 0 has classes, so no kernel is eliminated
    tracked, read = [], []
    eliminate, cycles = dgl.kernel_basis, ChainComplex.cycles
    monkeypatch.setattr(dgl, "kernel_basis", lambda *args: tracked.append(args) or eliminate(*args))
    monkeypatch.setattr(ChainComplex, "cycles", lambda self, d: read.append(d) or cycles(self, d))
    code, out = cli.run(["homology", "--file", name, "--window", str(window.max_weight),
                         str(window.max_degree), "--format", "records"])
    assert code == 0 and tracked == [] and read == [0]
    if golden:
        assert out.encode() == (Path(GOLDEN_CRITERION6).parent / golden).read_bytes()
    else:
        # the target's weight-1 part leaves the free Lie algebra on two letters
        free = sum(witt(2, k) for k in range(1, window.max_weight + 1))
        assert f"homology.0.dim: {free}\n" in out and f"homology.0.rep.{free - 1}: " in out
        assert "homology.1.dim: 0\n" in out and "homology.2.dim: 0\n" in out


def test_format_vector_matches_format_lie():
    # every representative of every built-in example at its default window,
    # and of the criterion-6 golden file at (4,3), prints as format_lie
    # prints the Lie element built from it
    fractional = multi_weight = positive_degree = False
    for name, window in [case for case in BOUNDARY_CASES if case[0] != "seeded"]:
        p = cli.build(cli.parse(cli._load_source(name)[1]), window).attached
        table = homology(p)
        cx = table.complex
        for d in table.degrees:
            weights = cx.weights(d)
            for v, rep in zip(table.cycles[d], table.representatives[d]):
                assert cx.format_vector(v, d) == format_lie(rep, p.generators), (name, d)
                fractional |= any(c.denominator != 1 for c in v.values())
                multi_weight |= len({weights[j] for j in v}) >= 2
                positive_degree |= d > 0
    assert fractional and multi_weight and positive_degree
    assert cx.format_vector({}, 0) == format_lie(cx.element({}, 0), p.generators) == "0"


@pytest.mark.parametrize("name", cli.BUILTIN_EXAMPLES)
def test_slices_record_their_factors(name):
    # every slice of the example's default window lists, in tree order, the
    # generator g_i or the candidate [g_i, b_k] that each of its trees is
    p = cli.build(cli.parse(cli._load_source(name)[1])).attached
    gens = p.generators
    for w in range(1, p.window.max_weight + 1):
        for d in range(p.window.max_degree + 1):
            slc = lie_slice(gens, w, d)
            assert list(slc.accepted.values()) == list(range(slc.dim)), (w, d)
            for (i, k), t in slc.accepted.items():
                if k is None:
                    assert slc.trees[t] == i, (w, d)
                else:
                    sub = lie_slice(gens, w - gens[i].weight, d - gens[i].degree)
                    assert slc.trees[t] == (i, sub.trees[k]), (w, d)


def random_chain(rng, cx, degree, max_weight):
    """Random coefficients on a random few chain-basis elements of weight
    at most max_weight."""
    columns = [j for j, w in enumerate(cx.weights(degree)) if w <= max_weight]
    picked = rng.sample(columns, min(len(columns), rng.randint(1, 3)))
    return {j: Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(1, 3)) for j in picked}


def attached(name, window):
    return lambda: cli.build(cli.parse(cli._load_source(name)[1]), window).attached


criterion6 = attached(GOLDEN_CRITERION6, Window(5, 3))


@pytest.mark.parametrize("presentation", [cp2, torus, lambda: free_presentation([A, X], Window(5, 4)),
                                          criterion6, attached("genus2", Window(5, 3))],
                         ids=["cp2", "torus", "free-mixed", "criterion6", "genus2"])
def test_chain_bracket_matches_word_space_bracket(presentation):
    # seeded random pairs, odd x odd included (all but torus), then every
    # generator against every degree-1 basis element: the coordinate
    # bracket against freelie.bracket of the built elements; criterion6's
    # cell has an inhomogeneous target and fractional generator solves
    p = presentation()
    cx = ChainComplex(p)
    rng = random.Random(5)
    N, D = p.window.max_weight, p.window.max_degree
    pairs = [(dx, dy) for dx in range(D + 1) for dy in range(D + 1 - dx) if cx.dim(dx) and cx.dim(dy)]
    nonzero = odd_pairs = 0
    for _ in range(60):
        dx, dy = rng.choice(pairs)
        wx = rng.randint(min(cx.weights(dx)), N)
        if wx + min(cx.weights(dy)) > N:
            continue
        x, y = random_chain(rng, cx, dx, wx), random_chain(rng, cx, dy, N - wx)
        got = cx.bracket(x, dx, y, dy)
        br = bracket(cx.element(x, dx), cx.element(y, dy))
        assert got == cx.coordinates(br.value, dx + dy), (dx, dy)
        nonzero += bool(got)
        odd_pairs += bool(got) and dx % 2 == 1 and dy % 2 == 1
    assert nonzero >= 20
    if presentation is not torus:
        assert odd_pairs
    # unit vectors where the slice accepted the tree [g_i, e_j], solves
    # where it did not
    units = fractional = 0
    for i, g in enumerate(p.generators):
        for j in range(cx.dim(1)):
            got = cx.bracket(cx.generator(i), g.degree, {j: 1}, 1)
            br = bracket(generator_element(g, p.window), cx.element({j: 1}, 1))
            assert got == cx.coordinates(br.value, g.degree + 1), (g.name, j)
            units += list(got.values()) == [1]
            fractional += any(c.denominator != 1 for c in got.values())
    assert units
    if presentation is criterion6:
        assert fractional


# ---------------------------------------------------------------------------
# indecomposables
# ---------------------------------------------------------------------------


def test_indecomposables_of_free():
    p = free_presentation([A, B], Window(3, 1))
    assert indecomposable_dims(p)[0] == 2


def test_indecomposables_of_torus():
    p = torus()
    ind = indecomposable_dims(p)
    assert ind[0] == 2


# dims of H/[H,H] at the default windows (criterion6 at (4,3)), as computed
# with word-space brackets of the representatives before brackets moved to
# chain coordinates
INDECOMPOSABLES = {
    "cp2": {0: 0, 1: 1, 2: 0, 3: 0, 4: 1, 5: 0},
    "torus": {0: 2, 1: 0, 2: 0},
    "genus2": {0: 4, 1: 0, 2: 0},
    "lemaire28": {0: 5, 1: 2},
    "anick29": {0: 3, 1: 0, 2: 0},
    "wedge-circles": {0: 3, 1: 0},
    GOLDEN_CRITERION6: {0: 2, 1: 0, 2: 0},
}


@pytest.mark.parametrize("name", list(INDECOMPOSABLES), ids=[Path(n).name for n in INDECOMPOSABLES])
def test_indecomposables_unchanged(name):
    window = Window(4, 3) if name == GOLDEN_CRITERION6 else None
    p = cli.build(cli.parse(cli._load_source(name)[1]), window).attached
    assert indecomposable_dims(p) == INDECOMPOSABLES[name]


def test_homology_against_brute_force_oracle():
    # independent path: full left-normed spans, dense elimination
    from oracles import brute_force_homology

    # torus at (3,3): gens a(0,w1), b(0,w1), sz(1,w2), d sz = [a,b]
    oracle = brute_force_homology(
        [(0, 1), (0, 1), (1, 2)],
        {2: {(0, 1): 1, (1, 0): -1}},
        3, 3,
    )
    t = homology(torus(Window(3, 3)))
    assert {d: t.dims[d] for d in t.degrees} == oracle

    # CP^2 at (4,6): x(1,w1), sy(3,w2), d sy = [x,x]
    oracle2 = brute_force_homology(
        [(1, 1), (3, 2)],
        {1: {(0, 0): 2}},
        4, 6,
    )
    t2 = homology(cp2(Window(4, 6)))
    assert {d: t2.dims[d] for d in t2.degrees} == oracle2

    # a free mixed-degree algebra at (3,4)
    oracle3 = brute_force_homology([(0, 1), (1, 1)], {}, 3, 4)
    t3 = homology(free_presentation([A, X], Window(3, 4)))
    assert {d: t3.dims[d] for d in t3.degrees} == oracle3


def test_homology_rejects_weight_decreasing_diff():
    # a hand-built cell claiming more weight than its target delivers
    W = Window(4, 4)
    x = Generator("x", 1)
    heavy = Generator("s", 3, weight=4)
    p = DglPresentation(
        [x, heavy],
        {heavy: bracket(generator_element(x, W), generator_element(x, W))},
        W,
    )
    with pytest.raises(ValueError, match="weight-decreasing"):
        homology(p)


def test_free_product_rewrites_diffs_through_rename():
    W = Window(4, 4)
    x = Generator("x", 1)
    s = Generator("s", 3, weight=2)
    xx = bracket(generator_element(x, W), generator_element(x, W))
    p1 = DglPresentation([x, s], {s: xx}, W)
    p2 = DglPresentation([x, s], {s: xx}, W)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        prod = free_product(p1, p2)
    names = [g.name for g in prod.generators]
    assert names == ["x", "s", "x'", "s'"]
    sp = prod.generator("s'")
    img = prod.diff[sp].value
    xp = prod.generator("x'")
    assert img == bracket(
        generator_element(xp, prod.window), generator_element(xp, prod.window)
    ).value
    assert prod.check_d_squared() == []


def test_homology_random_against_brute_force():
    # random small attachment models, cross-validated dimension by dimension
    from oracles import brute_force_homology

    rng = random.Random(99)
    inhomogeneous = 0
    for trial in range(6):
        n_base = rng.randint(2, 3)
        degrees = [rng.choice([0, 1]) for _ in range(n_base)]
        gens = [Generator(f"g{i}", d) for i, d in enumerate(degrees)]
        W = Window(3, 3)
        from lietop.freelie import lie_slice as ls
        se = slice_element
        from lietop.attach import AttachingMap, attach_cells

        base = free_presentation(gens, W)
        cells = []
        for c in range(rng.randint(0, 2)):
            w = rng.randint(1, 2)
            ds = [d for d in range(0, 3) if ls(tuple(gens), w, d).dim]
            if not ds:
                continue
            d = rng.choice(ds)
            slc = ls(tuple(gens), w, d)
            out = TensorElement.zero(W)
            for k in range(slc.dim):
                coef = rng.randint(-1, 1)
                if coef:
                    out = out + Fraction(coef) * se(slc, k, W).value
            if out.is_zero():
                continue
            cells.append((f"c{trial}_{c}", LieElement(out)))
        # one weight-inhomogeneous cell: its weight-1 part gives it weight 1,
        # so the (N-1) stage cuts its weight-2 part off its boundary
        ds = [d for d in range(0, 3) if ls(tuple(gens), 1, d).dim and ls(tuple(gens), 2, d).dim]
        if ds:
            d = ds[trial % len(ds)]
            parts = [se(ls(tuple(gens), w, d), 0, W).value for w in (1, 2)]
            target = parts[0] + Fraction((-1) ** trial) * parts[1]
            cells.append((f"m{trial}", LieElement(target)))
            inhomogeneous += 1
        p = attach_cells(base, AttachingMap(cells))
        spec_gens = [(g.degree, g.weight) for g in p.generators]
        index = {g: i for i, g in enumerate(p.generators)}
        diffs = {}
        for g, img in p.diff.items():
            diffs[index[g]] = {
                tuple(index[letter] for letter in word): c
                for word, c in img.value.terms.items()
            }
        oracle = brute_force_homology(spec_gens, diffs, 3, 3)
        oracle_prev = brute_force_homology(spec_gens, diffs, 2, 3)
        table = homology(p)
        assert {d: table.dims[d] for d in table.degrees} == oracle, f"trial {trial}"
        for d in table.degrees:
            assert table.stabilized[d] == (oracle[d] == oracle_prev[d]), f"trial {trial}"
    assert inhomogeneous
