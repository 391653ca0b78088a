import copy
import pickle
import random
from fractions import Fraction
from pathlib import Path

import pytest

from lietop import cli
from lietop import freelie as fl
from lietop.freelie import (
    Generator,
    LieElement,
    TensorElement,
    Window,
    ad_power,
    bch,
    bracket,
    certify_lie,
    commutator,
    exp,
    format_lie,
    generator_element,
    lie_basis,
    lie_slice,
    log,
    log_group_word,
    mul,
)

from helpers import slice_element
from oracles import (
    brute_force_lie_dim,
    dense_rref,
    dense_solve,
    greedy_trees,
    plain_exp,
    plain_log,
    plain_mul,
    plain_products,
    slice_words,
    standard_bracketing,
    super_witt,
    witt,
    word_commutator,
)

A = Generator("a", 0)
B = Generator("b", 0)
C = Generator("c", 0)
X1 = Generator("x", 1)


def gen_el(g, window):
    return generator_element(g, window)


def random_lie_element(rng, gens, window, weights, degree=None):
    """Random combination of bracket-basis elements in the given weights."""
    out = TensorElement.zero(window)
    degrees = range(0, window.max_degree + 1) if degree is None else [degree]
    for w in weights:
        for d in degrees:
            slc = lie_slice(gens, w, d)
            for k in range(slc.dim):
                c = rng.randint(-2, 2)
                if c:
                    out = out + Fraction(c) * slice_element(slc, k, window).value
    return LieElement(out)


def random_homogeneous(rng, gens, window, weight, degree):
    slc = lie_slice(gens, weight, degree)
    out = TensorElement.zero(window)
    for k in range(slc.dim):
        c = rng.randint(-2, 2)
        if c:
            out = out + Fraction(c) * slice_element(slc, k, window).value
    return LieElement(out)


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------


def test_generators_are_interned():
    assert Generator("a", 0) is A
    assert Generator("a", 0, weight=1) is A
    assert Generator("a", 1) is not A
    assert Generator("a", 0, weight=2) is not A
    assert Generator("a", 0, weight=2) is Generator("a", 0, weight=2)
    assert copy.deepcopy(X1) is X1
    assert pickle.loads(pickle.dumps((A, X1))) == (A, X1)


def test_generator_is_immutable():
    with pytest.raises(AttributeError):
        A.degree = 1
    with pytest.raises(AttributeError):
        del A.name
    assert (A.name, A.degree, A.weight) == ("a", 0, 1)


def test_generator_validation():
    with pytest.raises(ValueError, match=r"^generator g: degree must be >= 0$"):
        Generator("g", -1)
    with pytest.raises(ValueError, match=r"^generator g: weight must be >= 1$"):
        Generator("g", 0, weight=0)


def test_generator_interning_across_threads():
    import sys
    import threading

    barrier = threading.Barrier(8)
    made = []

    def work():
        barrier.wait(timeout=10)
        made.append(Generator("interned_by_threads", 2, weight=3))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert len(made) == 8
    assert all(g is made[0] for g in made)


def test_generator_table_holds_only_live_generators():
    import gc

    key = ("dropped_after_use", 5, 2)
    g = Generator(*key)
    assert fl._generators[key] is g
    del g
    gc.collect()
    assert key not in fl._generators


# ---------------------------------------------------------------------------
# bislice bases
# ---------------------------------------------------------------------------


def test_weight2_two_generators_is_one_dimensional():
    slc = lie_slice((A, B), 2, 0)
    assert slc.dim == 1
    el = slice_element(slc, 0, Window(2, 0))
    ab = bracket(gen_el(A, Window(2, 0)), gen_el(B, Window(2, 0)))
    assert el == ab


def test_witt_dims_two_generators():
    dims = [lie_slice((A, B), w, 0).dim for w in range(1, 7)]
    assert dims == [2, 1, 2, 3, 6, 9]
    assert dims == [witt(2, w) for w in range(1, 7)]


def test_odd_generator_dims():
    assert [lie_slice((X1,), w, w).dim for w in (1, 2, 3)] == [1, 1, 0]
    # independent brute force over all left-normed brackets
    assert [brute_force_lie_dim([1], w, w) for w in (1, 2, 3)] == [1, 1, 0]


def test_mixed_degree_slice_against_brute_force():
    y2 = Generator("y", 2)
    gens = (X1, y2)
    for w in (2, 3):
        for d in range(0, 3 * w + 1):
            assert lie_slice(gens, w, d).dim == brute_force_lie_dim([1, 2], w, d)


@pytest.mark.parametrize("degrees", [[1], [0, 1], [1, 1], [1, 2], [0, 1, 2], [1, 1, 2]])
def test_super_witt_against_brute_force(degrees):
    for w in range(1, 5):
        for d in range(0, w * max(degrees) + 1):
            assert super_witt(degrees, w, d) == brute_force_lie_dim(degrees, w, d)


def test_slice_dims_against_super_witt():
    # mixed parity, plus a weight-2 generator of odd degree
    gens = (A, X1, Generator("y", 2), Generator("c", 1, weight=2))
    degrees, weights = [g.degree for g in gens], [g.weight for g in gens]
    for w in range(1, 8):
        for d in range(0, 2 * w + 1):
            assert lie_slice(gens, w, d).dim == super_witt(degrees, w, d, weights)


# generator sets of the coordinate oracle test: mixed parity, and a weight-2 cell
ORACLE_GENS = [
    (A, X1, Generator("y", 2)),
    (A, X1, Generator("sx", 1, weight=2)),
]


def random_bracket(rng, gens, window, size):
    """A bracket of `size` random generators, in a random shape."""
    if size == 1:
        return gen_el(rng.choice(gens), window)
    k = rng.randint(1, size - 1)
    return bracket(random_bracket(rng, gens, window, k), random_bracket(rng, gens, window, size - k))


def dense_coordinates(slc, terms):
    """Coordinates of terms over the slice's basis by a dense word-space solve."""
    columns = [[t.get(word, 0) for word in slc.words] for t in slc.kept_terms]
    x = dense_solve(columns, [terms.get(word, 0) for word in slc.words])
    return None if x is None else {k: c for k, c in enumerate(x) if c}


@pytest.mark.parametrize("gens", ORACLE_GENS, ids=["a0-x1-y2", "a0-x1-sx1w2"])
def test_slice_coordinates_against_dense_solve(gens):
    rng = random.Random(20)
    window = Window(5, 6)
    for w in range(1, 6):
        for d in range(0, 7):
            slc = lie_slice(gens, w, d)
            if not slc.words:
                continue
            rows, pivots = dense_rref([[t.get(word, 0) for word in slc.words] for t in slc.kept_terms])
            basis = lie_basis(gens, w, d)
            assert basis.pivots == pivots
            assert [[r.get(j, 0) for j in range(len(slc.words))] for r in basis.rows] == rows
    words = [word for w in range(1, 6) for d in range(7) for word in lie_slice(gens, w, d).words]
    # one letter no element uses, declared among the others
    padded = (gens[0], Generator("unused", 1), *gens[1:])
    for _ in range(30):
        el = TensorElement.zero(window)
        for _ in range(rng.randint(2, 8)):
            el = el + Fraction(rng.randint(-3, 3), rng.randint(1, 3)) * random_bracket(
                rng, gens, window, rng.randint(1, 5)
            ).value
        # perturb one word: usually, but not always, leaves the Lie subspace
        noise = TensorElement(window, {rng.choice(words): Fraction(rng.choice([1, -2]))})
        for t in (el, el + noise):
            member = True
            for (w, d), terms in t.bislices().items():
                slc = lie_slice(gens, w, d)
                expected = dense_coordinates(slc, terms)
                assert slc.coordinates(terms) == expected
                assert slc.contains(terms) == (expected is not None)
                member = member and expected is not None
            assert (certify_lie(t, gens) is not None) == member
            assert (certify_lie(t, padded) is not None) == member
    # membership is decided over the letters an element uses
    assert all(key[0] != padded for key in fl._slice_cache)


# generator sets of the slice-level oracle tests: odd and weight-2 generators together
SLICE_GENS = [*ORACLE_GENS, (A, X1, Generator("y", 2), Generator("c", 1, weight=2))]
SLICE_IDS = ["a0-x1-y2", "a0-x1-sx1w2", "a0-x1-y2-c1w2"]


@pytest.mark.parametrize("gens", SLICE_GENS, ids=SLICE_IDS)
def test_peel_rows_against_standard_bracketing(gens):
    pos = {g: i for i, g in enumerate(gens)}
    degrees, weights = [g.degree for g in gens], [g.weight for g in gens]
    for w in range(1, 6):
        for d in range(0, 2 * w + 1):
            slc = lie_slice(gens, w, d)
            rows = slc.peel._rows
            for n, word in enumerate(slc.words):
                expected = standard_bracketing(tuple(pos[g] for g in word), degrees)
                if expected is None:
                    assert n not in rows
                    continue
                row = rows[n]
                assert min(row) == n and row[n] == 1
                assert {tuple(pos[g] for g in slc.words[j]): c for j, c in row.items()} == expected
            assert slc.peel.rank == super_witt(degrees, w, d, weights)


@pytest.mark.parametrize("gens", SLICE_GENS, ids=SLICE_IDS)
def test_generator_brackets_against_word_commutator(gens):
    # the rewritten super-Lyndon coordinates of every [g_i, P(v)] solve, over
    # the standard bracketings of the slice's leading words, the word
    # commutator of g_i with the standard bracketing of v
    degrees, weights = [g.degree for g in gens], [g.weight for g in gens]
    for w in range(2, 6):
        for d in range(0, 2 * w + 1):
            slc = lie_slice(gens, w, d)
            lead = [u for u in slice_words(degrees, weights, w, d) if standard_bracketing(u, degrees) is not None]
            assert slc.lead == lead
            expansions = [standard_bracketing(u, degrees) for u in lead]
            for i, g in enumerate(gens):
                if g.weight >= w or g.degree > d:
                    continue
                for v in lie_slice(gens, w - g.weight, d - g.degree).lead:
                    target = word_commutator({(i,): 1}, g.degree, standard_bracketing(v, degrees), d - g.degree)
                    cols = [k for k, u in enumerate(lead) if sorted(u) == sorted((i, *v))]
                    words = sorted({x for k in cols for x in expansions[k]} | set(target))
                    x = dense_solve([[expansions[k].get(y, 0) for y in words] for k in cols],
                                    [target.get(y, 0) for y in words])
                    assert x is not None
                    assert fl._product(slc, (i,), v) == {k: c for k, c in zip(cols, x) if c}, (i, v)


TREE_CASES = [(name, None) for name in cli.BUILTIN_EXAMPLES] + [
    (str(Path(__file__).parent / "golden" / "criterion6.lt"), Window(4, 3)),
]


@pytest.mark.parametrize("name, window", TREE_CASES, ids=[Path(n).name for n, _ in TREE_CASES])
def test_tree_choice_against_greedy_word_space(name, window):
    # every slice of the window accepts the trees a greedy word-space choice
    # accepts, in the same order
    p = cli.build(cli.parse(cli._load_source(name)[1]), window).attached
    gens = p.generators
    expected = greedy_trees([g.degree for g in gens], [g.weight for g in gens],
                            p.window.max_weight, p.window.max_degree)
    for (w, d), trees in expected.items():
        assert lie_slice(gens, w, d).trees == trees, (w, d)


@pytest.mark.parametrize("name, window", [("genus2", Window(6, 3)), ("torus", Window(10, 3))])
def test_full_slices_are_offered_no_candidates(monkeypatch, name, window):
    # once a slice has a tree for every leading word, every further
    # candidate is dependent, so lie_slice stops offering them
    gens = cli.build(cli.parse(cli._load_source(name)[1]), window).attached.generators
    offered, accept = [], fl.LieSlice._accept

    def counting(slc, *args):
        offered.append(slc.dim == len(slc.lead))
        accept(slc, *args)

    monkeypatch.setattr(fl, "_slice_cache", {})
    monkeypatch.setattr(fl.LieSlice, "_accept", counting)
    for w in range(1, window.max_weight + 1):
        for d in range(window.max_degree + 1):
            lie_slice(gens, w, d)
    assert offered and not any(offered)


def test_slices_build_without_tensor_words(monkeypatch):
    # fresh slices of the torus model's generators at (8,3) are built from
    # the generators alone: no tensor word is listed or multiplied out
    def refuse(*args, **kwargs):
        raise AssertionError("slice construction went through tensor words")

    gens = (A, B, Generator("sz", 1, weight=2))
    monkeypatch.setattr(fl, "_slice_cache", {})
    with monkeypatch.context() as m:
        m.setattr(fl, "_word_commutator", refuse)
        m.setattr(fl, "_slice_words", refuse)
        slices = {(w, d): lie_slice(gens, w, d) for w in range(1, 9) for d in range(4)}
    degrees, weights = [g.degree for g in gens], [g.weight for g in gens]
    for (w, d), slc in slices.items():
        assert slc.dim == super_witt(degrees, w, d, weights), (w, d)
    # a word-space query builds the peel on demand, once the patch is lifted
    slc = slices[(6, 2)]
    assert slc.dim > 0
    for k, terms in enumerate(slc.kept_terms):
        assert slc.coordinates(terms) == {k: 1}


def test_lie_basis_is_echelon():
    basis = lie_basis((A, B), 3, 0)
    assert basis.dim == 2
    assert basis.pivots == sorted(basis.pivots)


# ---------------------------------------------------------------------------
# bracket identities
# ---------------------------------------------------------------------------


def test_degree_zero_bracket_is_commutator():
    W = Window(2, 0)
    a, b = gen_el(A, W), gen_el(B, W)
    assert bracket(a, b).value.terms == {
        (A, B): Fraction(1),
        (B, A): Fraction(-1),
    }


def test_odd_self_bracket():
    W = Window(2, 2)
    x = gen_el(X1, W)
    assert bracket(x, x).value.terms == {(X1, X1): Fraction(2)}


def test_antisymmetry_random():
    rng = random.Random(7)
    W = Window(4, 4)
    gens = (A, X1, Generator("y", 2))
    for _ in range(25):
        wa, wb = rng.randint(1, 2), rng.randint(1, 2)
        da = rng.choice([d for d in range(5) if lie_slice(gens, wa, d).dim])
        db = rng.choice([d for d in range(5) if lie_slice(gens, wb, d).dim])
        a = random_homogeneous(rng, gens, W, wa, da)
        b = random_homogeneous(rng, gens, W, wb, db)
        sign = Fraction(-1) ** (da * db)
        assert (bracket(a, b) + sign * bracket(b, a)).is_zero()


def test_jacobi_random():
    rng = random.Random(8)
    W = Window(5, 5)
    gens = (A, X1)
    for _ in range(25):
        picks = []
        for _ in range(3):
            w = rng.randint(1, 2)
            d = rng.choice([dd for dd in range(6) if lie_slice(gens, w, dd).dim])
            picks.append((w, d))
        (wa, da), (wb, db), (wc, dc) = picks
        x = random_homogeneous(rng, gens, W, wa, da)
        y = random_homogeneous(rng, gens, W, wb, db)
        z = random_homogeneous(rng, gens, W, wc, dc)
        lhs = bracket(x, bracket(y, z))
        rhs = bracket(bracket(x, y), z) + (Fraction(-1) ** (da * db)) * bracket(
            y, bracket(x, z)
        )
        assert lhs == rhs


def test_jacobi_odd_cube():
    W = Window(3, 3)
    x = gen_el(X1, W)
    assert bracket(x, bracket(x, x)).is_zero()


def test_window_mismatch_rejected():
    a = gen_el(A, Window(3, 0))
    b = gen_el(B, Window(4, 0))
    with pytest.raises(ValueError, match="window mismatch"):
        bracket(a, b)


def test_products_against_plain_oracle():
    # mixed denominators, odd letters (odd x odd signs), a weight-2 letter,
    # and words longer than the window allows, so products get truncated
    Y1 = Generator("y", 1)
    S = Generator("s", 2, weight=2)
    letters = (A, B, X1, Y1, S)
    rng = random.Random(7)

    def random_element(window):
        terms = {}
        for _ in range(rng.randint(0, 7)):
            word = tuple(rng.choice(letters) for _ in range(rng.randint(0, 3)))
            terms[word] = Fraction(rng.choice((-2, -1, 1, 3)), rng.choice((1, 2, 3, 4, 6)))
        return TensorElement(window, terms)

    # words that concatenate two ways, so term pairs cancel exactly
    W = Window(4, 2)
    cancelling = (
        TensorElement(W, {(A,): 1, (A, B): Fraction(1, 2)}),
        TensorElement(W, {(B, A): Fraction(1, 3), (A,): Fraction(-2, 3), (B,): 5}),
    )
    pairs = [cancelling, cancelling[::-1]]
    for window in (Window(3, 1), Window(4, 2), Window(6, 4)):
        pairs += [(random_element(window), random_element(window)) for _ in range(40)]
    for a, b in pairs:
        window = a.window
        want_mul, want_comm = plain_products(a.terms, b.terms, window.max_weight, window.max_degree)
        for got, want in ((mul(a, b), want_mul), (commutator(a, b), want_comm)):
            assert got.window == window
            assert list(got.terms.items()) == list(want.items())
    prod, comm = plain_products(*(c.terms for c in cancelling), 4, 2)
    assert (A, B, A) not in prod and (A, A) not in comm


# ---------------------------------------------------------------------------
# certification
# ---------------------------------------------------------------------------


def test_certify_commutator():
    W = Window(2, 0)
    t = TensorElement(W, {(A, B): 1, (B, A): -1})
    assert certify_lie(t) is not None


def test_certify_rejects_plain_word():
    W = Window(2, 0)
    t = TensorElement(W, {(A, B): 1})
    assert certify_lie(t) is None


def test_certify_zero():
    assert certify_lie(TensorElement.zero(Window(2, 2))) is not None


def test_certify_rejects_unit():
    W = Window(2, 2)
    assert certify_lie(TensorElement.unit(W)) is None


def test_certify_unknown_generator():
    W = Window(2, 0)
    t = TensorElement(W, {(A,): 1})
    with pytest.raises(ValueError, match="outside the given set"):
        certify_lie(t, (B,))


# ---------------------------------------------------------------------------
# exp / log / BCH / group words
# ---------------------------------------------------------------------------


def test_exp_log_units():
    W = Window(3, 0)
    assert exp(TensorElement.zero(W)) == TensorElement.unit(W)
    assert log(TensorElement.unit(W)) == TensorElement.zero(W)


def test_exp_series():
    W = Window(3, 0)
    a = TensorElement.generator(A, W)
    expected = TensorElement(
        W,
        {
            (): 1,
            (A,): 1,
            (A, A): Fraction(1, 2),
            (A, A, A): Fraction(1, 6),
        },
    )
    assert exp(a) == expected


def test_exp_log_inverse():
    rng = random.Random(11)
    W = Window(4, 0)
    for _ in range(10):
        x = random_lie_element(rng, (A, B), W, [1, 2], degree=0).value
        assert log(exp(x)) == x
        u = exp(x)
        assert exp(log(u)) == u


def test_exp_precondition():
    W = Window(2, 0)
    with pytest.raises(ValueError):
        exp(TensorElement.unit(W))
    with pytest.raises(ValueError):
        log(TensorElement.zero(W))


def test_log_of_product_is_lie():
    W = Window(4, 0)
    u = mul(exp(TensorElement.generator(A, W)), exp(TensorElement.generator(B, W)))
    assert certify_lie(log(u)) is not None


def test_bch_neutral():
    W = Window(3, 0)
    a = gen_el(A, W)
    zero = LieElement(TensorElement.zero(W))
    assert bch(a, zero) == a


def test_bch_weight2():
    W = Window(2, 0)
    a, b = gen_el(A, W), gen_el(B, W)
    assert bch(a, b) == a + b + Fraction(1, 2) * bracket(a, b)


def test_bch_weight3_against_log_exp_oracle():
    W = Window(3, 0)
    a, b = gen_el(A, W), gen_el(B, W)
    closed_form = (
        a
        + b
        + Fraction(1, 2) * bracket(a, b)
        + Fraction(1, 12) * bracket(a, bracket(a, b))
        + Fraction(1, 12) * bracket(b, bracket(b, a))
    )
    weights, degrees = [1, 1], [0, 0]
    ea, eb = (plain_exp({(i,): Fraction(1)}, weights, degrees, 3, 0) for i in (0, 1))
    oracle = plain_log(plain_mul(ea, eb, weights, degrees, 3, 0), weights, degrees, 3, 0)
    assert index_terms(bch(a, b).value, (A, B)) == oracle
    assert index_terms(closed_form.value, (A, B)) == oracle


def index_terms(t, letters):
    """t's terms keyed by tuples of positions in letters, as the oracles take them."""
    return {tuple(letters.index(g) for g in w): c for w, c in t.terms.items()}


def test_series_against_plain_oracle():
    # non-integral coefficients, odd-degree and weight-2 letters, windows
    # that cut by degree as well as by weight
    Y1 = Generator("y", 1)
    H = Generator("h", 0, weight=2)
    S = Generator("s", 2, weight=2)
    letters = (A, B, X1, Y1, H, S)
    weights, degrees = [g.weight for g in letters], [g.degree for g in letters]
    rng = random.Random(19)

    def random_x(window):
        terms = {}
        for _ in range(rng.randint(1, 5)):
            word = tuple(rng.choice(letters) for _ in range(rng.randint(1, 3)))
            terms[word] = Fraction(rng.choice((-3, -1, 1, 2, 3)), rng.choice((1, 2, 7, 9)))
        return TensorElement(window, terms)

    def check(x):
        W = x.window
        bounds = (weights, degrees, W.max_weight, W.max_degree)
        terms = index_terms(x, letters)
        assert index_terms(exp(x), letters) == plain_exp(terms, *bounds)
        one_plus_x = TensorElement.unit(W) + x
        assert index_terms(log(one_plus_x), letters) == plain_log({(): Fraction(1), **terms}, *bounds)

    for window in (Window(4, 0), Window(5, 1), Window(4, 2), Window(6, 3), Window(3, 6)):
        for _ in range(12):
            check(random_x(window))
    # powers that vanish before max_weight: by degree (x.x has degree 2) and
    # by weight (h.h.h has weight 6)
    W = Window(5, 1)
    check(TensorElement(W, {(X1,): Fraction(3, 7), (Y1,): -1}))
    check(TensorElement(W, {(H,): Fraction(-2, 9)}))
    check(TensorElement(W, {(X1,): Fraction(3, 7), (H,): 2}))
    assert exp(TensorElement(W, {(X1,): Fraction(3, 7)})) == TensorElement(W, {(): 1, (X1,): Fraction(3, 7)})

    # bch and group-word logs over degree-0 letters and an even letter of degree 2
    T2 = Generator("t", 2)
    gens = (A, B, T2)
    weights, degrees = [g.weight for g in gens], [g.degree for g in gens]
    for W in (Window(5, 0), Window(4, 2), Window(5, 2)):
        bounds = (weights, degrees, W.max_weight, W.max_degree)
        for _ in range(4):
            x, y = (Fraction(3, 7) * random_lie_element(rng, gens, W, [1, 2]) for _ in range(2))
            ex, ey = (plain_exp(index_terms(el.value, gens), *bounds) for el in (x, y))
            assert index_terms(bch(x, y).value, gens) == plain_log(plain_mul(ex, ey, *bounds), *bounds)
        letters_ab = [(A, 1), (B, 1), (A, -1), (B, -1)]
        for _ in range(4):
            word = [rng.choice(letters_ab) for _ in range(rng.randint(1, 5))]
            product = {(): Fraction(1)}
            for g, e in word:
                product = plain_mul(product, plain_exp({(gens.index(g),): Fraction(e)}, *bounds), *bounds)
            got = log_group_word(word, gens, W)
            assert index_terms(got.value, gens) == plain_log(product, *bounds)

def test_slice_dim_counts_without_building(monkeypatch):
    gens = (A, X1, Generator("y", 2), Generator("c", 1, weight=2))
    monkeypatch.setattr(fl, "_slice_cache", {})
    dims = {(w, d): fl.slice_dim(gens, w, d) for w in range(1, 6) for d in range(0, 2 * w + 1)}
    assert fl._slice_cache == {}
    assert all(lie_slice(gens, w, d).dim == n for (w, d), n in dims.items())
    with pytest.raises(ValueError, match="weight must be >= 1"):
        fl.slice_dim(gens, 0, 0)


def test_bch_associative():
    rng = random.Random(12)
    W = Window(4, 0)
    for _ in range(5):
        x = random_lie_element(rng, (A, B), W, [1, 2], degree=0)
        y = random_lie_element(rng, (A, B), W, [1, 2], degree=0)
        z = random_lie_element(rng, (A, B), W, [1, 2], degree=0)
        assert bch(x, bch(y, z)) == bch(bch(x, y), z)


def test_bch_rejects_odd_degrees():
    W = Window(3, 3)
    x = gen_el(X1, W)
    with pytest.raises(ValueError, match="even-degree"):
        bch(x, x)


def test_log_group_word_single_letter():
    W = Window(3, 0)
    assert log_group_word([(A, 1)], (A, B), W) == gen_el(A, W)


def test_log_group_word_commutator():
    W = Window(4, 0)
    el = log_group_word([(A, 1), (B, 1), (A, -1), (B, -1)], (A, B), W)
    remainder = el.value - bracket(gen_el(A, W), gen_el(B, W)).value
    assert remainder.min_weight() is None or remainder.min_weight() >= 3


def test_log_group_word_product_formula():
    W = Window(3, 0)
    el = log_group_word([(A, 1), (B, 1)], (A, B), W)
    a, b = gen_el(A, W), gen_el(B, W)
    lead = a + b + Fraction(1, 2) * bracket(a, b)
    remainder = el.value - lead.value
    assert remainder.min_weight() is None or remainder.min_weight() >= 3


def test_log_group_word_multiplicative():
    rng = random.Random(13)
    W = Window(4, 0)
    letters = [(A, 1), (B, 1), (A, -1), (B, -1)]
    for _ in range(6):
        w1 = [rng.choice(letters) for _ in range(rng.randint(1, 3))]
        w2 = [rng.choice(letters) for _ in range(rng.randint(1, 3))]
        combined = log_group_word(w1 + w2, (A, B), W)
        split = bch(log_group_word(w1, (A, B), W), log_group_word(w2, (A, B), W))
        assert combined == split


def test_log_group_word_unknown_generator():
    W = Window(3, 0)
    with pytest.raises(ValueError, match="unknown generator"):
        log_group_word([(C, 1)], (A, B), W)


def test_ad_power():
    W = Window(4, 0)
    a, b, c = gen_el(A, W), gen_el(B, W), gen_el(C, W)
    Wc = Window(4, 0)
    ac = generator_element(C, Wc)
    assert ad_power(a, 0, b) == b
    assert ad_power(a, 1, b) == bracket(a, b)
    lhs = ad_power(a, 1, ad_power(b, 1, gen_el(C, W)))
    assert lhs == bracket(a, bracket(b, gen_el(C, W)))


# ---------------------------------------------------------------------------
# truncation and budget
# ---------------------------------------------------------------------------


def test_window_truncation_drops_terms():
    W = Window(2, 0)
    a = TensorElement.generator(A, W)
    cube = mul(mul(a, a), a)
    assert cube.is_zero()


def test_weighted_generator_truncation():
    heavy = Generator("s", 1, weight=3)
    W = Window(2, 2)
    assert TensorElement.generator(heavy, W).is_zero()
    W3 = Window(3, 2)
    assert not TensorElement.generator(heavy, W3).is_zero()


def test_term_budget(monkeypatch):
    W = Window(4, 0)
    a, b = TensorElement.generator(A, W), TensorElement.generator(B, W)
    try:
        monkeypatch.setenv("LIETOP_MAX_TERMS", "3")
        fl._reset_term_limit_cache()
        with pytest.raises(fl.TermBudgetExceeded):
            s = a + b
            mul(mul(s, s), s)
    finally:
        monkeypatch.delenv("LIETOP_MAX_TERMS")
        fl._reset_term_limit_cache()


def test_term_budget_counts_only_nonzero_terms(monkeypatch):
    # a.b passes through 4 nonzero terms, a zero sum at a.b.a, then 4 again
    W = Window(4, 0)
    a = TensorElement(W, {(A,): 1, (A, B): 1})
    b = TensorElement(W, {(B, A): 1, (A,): -1, (B,): 1})
    try:
        monkeypatch.setenv("LIETOP_MAX_TERMS", "4")
        fl._reset_term_limit_cache()
        assert len(mul(a, b).terms) == 4
        monkeypatch.setenv("LIETOP_MAX_TERMS", "3")
        fl._reset_term_limit_cache()
        with pytest.raises(fl.TermBudgetExceeded, match="4 terms exceeds LIETOP_MAX_TERMS=3"):
            mul(a, b)
    finally:
        monkeypatch.delenv("LIETOP_MAX_TERMS")
        fl._reset_term_limit_cache()



def test_series_term_budget_caps_and_messages(monkeypatch):
    # caps and messages recorded from the Fraction series (one TensorElement
    # per step); each operation's inputs are built before its cap is set
    H = Generator("h", 0, weight=2)
    W = Window(5, 1)
    x = TensorElement(W, {(A,): 1, (X1,): Fraction(3, 7), (H,): Fraction(-1, 2), (A, X1): Fraction(2, 3)})
    u = exp(x)
    ops = {
        "exp": lambda: exp(x),
        "log": lambda: log(u),
        "log_group_word": lambda: log_group_word([(A, 1), (B, 1), (A, -1), (B, -1)], (A, B), Window(6, 0)),
    }
    # cap -> the term count reported; the largest raising cap is listed
    # last, and one more passes
    raises = {
        "exp": {1: 2, 11: 12, 12: 16, 27: 28, 28: 40, 39: 40, 40: 56, 55: 56, 56: 58, 57: 58},
        "log": {56: 57},
        "log_group_word": {1: 2, 85: 86, 86: 92, 91: 92},
    }
    try:
        for name, caps in raises.items():
            for cap, terms in caps.items():
                monkeypatch.setenv("LIETOP_MAX_TERMS", str(cap))
                fl._reset_term_limit_cache()
                with pytest.raises(fl.TermBudgetExceeded) as info:
                    ops[name]()
                assert str(info.value) == f"{terms} terms exceeds LIETOP_MAX_TERMS={cap}", name
            monkeypatch.setenv("LIETOP_MAX_TERMS", str(cap + 1))
            fl._reset_term_limit_cache()
            ops[name]()
    finally:
        monkeypatch.delenv("LIETOP_MAX_TERMS")
        fl._reset_term_limit_cache()

# ---------------------------------------------------------------------------
# formatting
# ---------------------------------------------------------------------------


def test_format_lie_simple():
    W = Window(3, 0)
    a, b = gen_el(A, W), gen_el(B, W)
    el = a + b + Fraction(1, 2) * bracket(a, b)
    assert format_lie(el, (A, B)) == "a + b + 1/2 [a,b]"


def test_format_lie_zero():
    assert format_lie(LieElement(TensorElement.zero(Window(2, 0))), (A, B)) == "0"


def test_format_lie_negative_leading():
    W = Window(2, 0)
    a = gen_el(A, W)
    assert format_lie(Fraction(-1) * a, (A, B)) == "-a"
    assert format_lie(Fraction(-3, 2) * a, (A, B)) == "-3/2 a"


def test_letters_ordered_by_weight_when_names_and_degrees_tie():
    # without an explicit generator order certify_lie sorts the letters by
    # (name, degree, weight); a tie left to set iteration order would flip
    # the sign, which format_lie prints over the order it is given
    W = Window(3, 0)
    for i in range(8):
        light, heavy = Generator(f"s{i}", 0), Generator(f"s{i}", 0, weight=2)
        el = bracket(gen_el(light, W), gen_el(heavy, W))
        assert certify_lie(el.value) == el
        assert format_lie(el, (light, heavy)) == f"[s{i},s{i}]"
        assert format_lie(-el, (light, heavy)) == f"-[s{i},s{i}]"


# ---------------------------------------------------------------------------
# truncated ideal membership and concurrency
# ---------------------------------------------------------------------------


def test_log_commutator_remainder_in_truncated_ideal():
    # the remainder of log(aba^-1b^-1) past [a,b] lies, up to the window, in
    # the closed ideal generated by [a,b]
    from lietop.attach import saturate_ideal
    from lietop.dgl import ChainComplex, free_presentation

    W = Window(5, 0)
    base = free_presentation([A, B], W)
    ab = bracket(gen_el(A, W), gen_el(B, W))
    lg = log_group_word([(A, 1), (B, 1), (A, -1), (B, -1)], (A, B), W)
    remainder = lg - ab
    cx = ChainComplex(base)
    echelons = saturate_ideal(base, [ab], cx)
    vec = cx.coordinates(remainder.value, 0)
    assert not echelons[0].reduce(vec)[0]


def test_attached_model_shares_the_base_slices():
    # a cell has degree >= 1, so no degree-0 slice of the attached model can
    # contain one: it is the base model's slice, built once
    model = cli.build(cli.parse(cli._load_source("genus2")[1]))
    base, attached = model.base.generators, model.attached.generators
    assert len(attached) > len(base) and min(g.degree for g in attached[len(base):]) >= 1
    for w in range(1, model.window.max_weight + 1):
        assert lie_slice(base, w, 0) is lie_slice(attached, w, 0)
    # a slice that can hold a cell is the attached model's own
    cell = attached[len(base)]
    assert lie_slice(attached, cell.weight, cell.degree).dim == lie_slice(base, cell.weight, cell.degree).dim + 1


def test_slice_cache_concurrent_reads(monkeypatch):
    import sys
    import threading

    gens = (Generator("p", 0), Generator("q", 0), Generator("r", 1))
    keys = [(w, d) for w in (1, 2, 3, 4) for d in (0, 1, 2)]

    def run(work):
        results, errors = [], []

        def guarded():
            try:
                results.append(work())
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        threads = [threading.Thread(target=guarded) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
            assert not t.is_alive()
        assert not errors
        assert len(results) == 8 and all(r == results[0] for r in results)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        run(lambda: [lie_slice(gens, w, d).dim for w, d in keys])
        # the first word-space query of fresh slices builds their peels
        # lazily, from every thread at once
        monkeypatch.setattr(fl, "_slice_cache", {})
        slices = [lie_slice(gens, w, d) for w, d in keys]
        run(lambda: [(slc.kept_terms, [slc.coordinates(t) for t in slc.kept_terms]) for slc in slices])
    finally:
        sys.setswitchinterval(interval)
