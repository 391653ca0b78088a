import json
import math
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from lietop import cli
from lietop.dgl import DglPresentation, free_presentation
from lietop.freelie import Generator, Window, bracket, generator_element
from lietop import sullivan
from lietop.sullivan import (
    NilpotentLieData,
    SullivanData,
    _monomials,
    check_sullivan,
    cochains,
    homotopy_lie,
    mono_normalize,
    semiquadratic_homology,
    truncation_lie_data,
    wedge_homology,
)
from helpers import checkout_env, sd_diff, slice_element
from oracles import (
    dense_lie_violation,
    derivation_rank,
    lambda_monomial_counts,
    lambda_monomials,
    plain_sd_diff,
    wedge_filtration,
)

ONE = Fraction(1)


def abelian2():
    return NilpotentLieData([("a", 0), ("b", 0)], {})


def heisenberg():
    return NilpotentLieData(
        [("a", 0), ("b", 0), ("c", 0)],
        {(0, 1): {2: 1}, (1, 0): {2: -1}},
    )


def free_nilpotent_2gen(weight):
    W = Window(weight, 0)
    a, b = Generator("a", 0), Generator("b", 0)
    return truncation_lie_data(free_presentation([a, b], W))


def cp2_truncation():
    W = Window(2, 7)
    x = Generator("x", 1)
    sy = Generator("sy", 3, weight=2)
    t = bracket(generator_element(x, W), generator_element(x, W))
    return truncation_lie_data(DglPresentation([x, sy], {sy: t}, W))


def acyclic_pair():
    W = Window(2, 9)
    g = Generator("g", 1)
    h = Generator("h", 2)
    return truncation_lie_data(
        DglPresentation([g, h], {h: generator_element(g, W)}, W)
    )


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------


def test_antisymmetry_violation_detected():
    with pytest.raises(ValueError, match="antisymmetry"):
        NilpotentLieData([("a", 0), ("b", 0), ("c", 0)], {(0, 1): {2: 1}})


def test_jacobi_violation_detected():
    # corrupt one structure constant inside a weight-4 truncation, where the
    # Jacobi consequences are still visible (at weight 3 they truncate away)
    data = free_nilpotent_2gen(4)
    brackets = {k: dict(v) for k, v in data.brackets.items()}
    brackets[(0, 2)][4] = brackets[(0, 2)].get(4, Fraction(0)) + 1
    brackets[(2, 0)][4] = -brackets[(0, 2)][4]
    with pytest.raises(ValueError, match="Jacobi"):
        NilpotentLieData(data.basis, brackets)


def test_non_nilpotent_detected():
    # sl2: [h,e] = 2e, [h,f] = -2f, [e,f] = h
    brackets = {
        (0, 1): {1: 2},
        (1, 0): {1: -2},
        (0, 2): {2: -2},
        (2, 0): {2: 2},
        (1, 2): {0: 1},
        (2, 1): {0: -1},
    }
    with pytest.raises(ValueError, match="not nilpotent"):
        NilpotentLieData([("h", 0), ("e", 0), ("f", 0)], brackets)


def test_diff_index_out_of_range_rejected():
    # checked at construction, so also without validation
    for diff in ({0: {5: 1}}, {5: {0: 1}}):
        for validate in (True, False):
            with pytest.raises(ValueError, match="diff index 5 out of range"):
                NilpotentLieData([("a", 0)], {}, diff, validate=validate)


def test_corrupted_constant_detected_by_cochains():
    data = free_nilpotent_2gen(4)
    brackets = {k: dict(v) for k, v in data.brackets.items()}
    brackets[(0, 2)][3] = brackets[(0, 2)].get(3, Fraction(0)) + 1
    brackets[(2, 0)][3] = -brackets[(0, 2)][3]
    corrupt = NilpotentLieData(data.basis, brackets, validate=False)
    with pytest.raises(ValueError):
        cochains(corrupt)


def test_diff_derivation_rule_checked():
    # dh = g but [g,h] present with wrong bracket image breaks the rule
    W = Window(2, 9)
    g = Generator("g", 1)
    h = Generator("h", 2)
    data = truncation_lie_data(
        DglPresentation([g, h], {h: generator_element(g, W)}, W)
    )
    diff = {k: dict(v) for k, v in data.diff.items()}
    # corrupt: drop the image of [g,h] |-> [g,g]
    idx_gh = [i for i, (n, _) in enumerate(data.basis) if n == "[g,h]"][0]
    diff.pop(idx_gh, None)
    with pytest.raises(ValueError, match="derivation rule"):
        NilpotentLieData(data.basis, data.brackets, diff)


def example_truncation(name, weight, degree):
    _, text = cli._load_source(name)
    return truncation_lie_data(cli.build(cli.parse(text), Window(weight, degree)).attached)


def corrupt(data, rng, deltas=(-1, 1)):
    """Copies of data's brackets and diff with one constant moved by one of
    deltas: a bracket with or without its mirror, or a diff entry; the
    target index mostly keeps the degree, so the deeper identities get
    exercised."""
    n, deg = data.dim, data.degrees
    brackets = {pair: dict(cs) for pair, cs in data.brackets.items()}
    diff = {j: dict(cs) for j, cs in data.diff.items()}
    kind = rng.choice(("mirrored", "unmirrored", "diff"))
    delta = rng.choice(deltas)
    if kind == "diff":
        j = rng.choice(sorted(data.diff)) if rng.random() < 0.5 else rng.randrange(n)
        fits = [k for k in range(n) if deg[k] == deg[j] - 1]
        k = rng.choice(fits) if fits and rng.random() < 0.8 else rng.randrange(n)
        image = diff.setdefault(j, {})
        image[k] = image.get(k, 0) + delta
        return brackets, diff
    if rng.random() < 0.5:
        i, j = rng.choice(sorted(data.brackets))
    else:
        i, j = rng.randrange(n), rng.randrange(n)
    fits = [k for k in range(n) if deg[k] == deg[i] + deg[j]]
    k = rng.choice(fits) if fits and rng.random() < 0.8 else rng.randrange(n)
    image = brackets.setdefault((i, j), {})
    image[k] = image.get(k, 0) + delta
    if kind == "mirrored":
        sign = -1 if (deg[i] * deg[j]) % 2 == 0 else 1
        brackets.setdefault((j, i), {})[k] = sign * image[k]
    return brackets, diff


def test_validation_matches_dense_oracle_on_corrupted_truncations():
    # validate reads Jacobi, d^2 = 0 and the derivation rule off the
    # smallest monomials of (d0 + d1)^2 on the dual; the oracle sweeps every
    # pair and triple of the Lie data, so they must fail alike
    checks = ("antisymmetry", "homogeneous", "Jacobi", "wrong degree", "d^2", "derivation rule")
    failures = set()
    for name, weight, degree, trials in (
        ("torus", 4, 2, 100), ("cp2", 6, 6, 100), ("lemaire28", 3, 2, 4),
    ):
        data = example_truncation(name, weight, degree)
        rng = random.Random(name)
        cases = [(data.brackets, data.diff)] + [corrupt(data, rng) for _ in range(trials)]
        for brackets, diff in cases:
            expected = dense_lie_violation(data.degrees, brackets, diff)
            if expected is None:
                NilpotentLieData(data.basis, brackets, diff)
                continue
            with pytest.raises(ValueError) as err:
                NilpotentLieData(data.basis, brackets, diff)
            assert str(err.value) == expected, (name, expected)
            failures.update(check for check in checks if check in expected)
    assert failures == set(checks)


def rescaled(data, rng):
    """data in the basis lambda_i e_i, each lambda_i one of 1, 3, 1/5, 5/3:
    an isomorphic (d)gl whose constants have denominators 3 and 5."""
    lam = [rng.choice((1, 3, Fraction(1, 5), Fraction(5, 3))) for _ in range(data.dim)]
    brackets = {
        (i, j): {k: c * lam[i] * lam[j] / lam[k] for k, c in cs.items()}
        for (i, j), cs in data.brackets.items()
    }
    diff = {j: {k: c * lam[j] / lam[k] for k, c in cs.items()} for j, cs in data.diff.items()}
    return NilpotentLieData(data.basis, brackets, diff, validate=False)


def test_validation_matches_dense_oracle_with_denominators_3_and_5():
    # a rescaled truncation, one constant moved by a third, then one by a
    # fifth: validate scales the brackets and the differential by their own
    # common denominators
    thirds = (Fraction(1, 3), Fraction(-2, 3))
    fifths = (Fraction(1, 5), Fraction(-3, 5))
    failures = set()
    for name, weight, degree, trials in (("torus", 4, 2, 60), ("cp2", 6, 6, 60)):
        data = example_truncation(name, weight, degree)
        rng = random.Random(f"{name} 3 5")
        for _ in range(trials):
            scaled = rescaled(data, rng)
            scaled.validate()
            brackets, diff = corrupt(scaled, rng, thirds)
            once = NilpotentLieData(data.basis, brackets, diff, validate=False)
            brackets, diff = corrupt(once, rng, fifths)
            expected = dense_lie_violation(data.degrees, brackets, diff)
            assert expected is not None
            with pytest.raises(ValueError) as err:
                NilpotentLieData(data.basis, brackets, diff)
            assert str(err.value) == expected, (name, expected)
            failures.add(expected.split(" ")[0])
    assert {"antisymmetry", "Jacobi", "derivation"} <= failures


@pytest.mark.parametrize(
    "degrees, products, diff",
    [
        ([0] * 5, {(1, 2): 3, (0, 3): 4}, {}),
        ([0] * 5, {(0, 1): 2, (2, 3): 4}, {}),
        ([0] * 5, {(0, 2): 3, (1, 3): 4}, {}),
        ([1, 0, 0, 0], {(2, 1): 3}, {0: {2: 1}}),
        ([0, 0, 1, 0], {(0, 1): 3}, {2: {1: 1}}),
        ([2, 1, 0], {}, {0: {1: 1}, 1: {2: 1}}),
        ([1, 2, 3], {(0, 0): 1, (0, 1): 2}, {}),
        ([1, 1, 2, 3], {(0, 1): 2, (2, 0): 3}, {}),
        ([1, 2, 1], {(0, 0): 1}, {1: {2: 1}}),
        ([0] * 5, {(1, 2): 3, (0, 3): 4}, {0: {1: 1}}),
        ([0, 0], {(0, 1): 1}, {1: {0: 1}}),
    ],
    ids=["jacobi-lhs", "jacobi-bracket-first", "jacobi-bracket-second",
         "derivation-d-left", "derivation-d-right", "d-squared-first",
         "jacobi-odd-square-cubed", "jacobi-odd-square-repeated", "derivation-odd-square",
         "jacobi-before-diff-degree", "nilpotency-before-diff-degree"],
)
def test_validation_matches_dense_oracle_on_single_term_violations(degrees, products, diff):
    # [e_i, e_j] = e_k for each (i, j): k, mirrored; each case breaks one
    # identity through one term alone, first at a tuple only that term reaches
    brackets = {}
    for (i, j), k in products.items():
        brackets[(i, j)] = {k: 1}
        brackets[(j, i)] = {k: 1 if (degrees[i] * degrees[j]) % 2 else -1}
    expected = dense_lie_violation(degrees, brackets, diff)
    assert expected is not None
    with pytest.raises(ValueError) as err:
        NilpotentLieData([(f"e{i}", d) for i, d in enumerate(degrees)], brackets, diff)
    assert str(err.value) == expected


def test_diff_degree_failure_names_the_first_element():
    # both diff entries have the wrong degree and arrive out of index
    # order; the full sweep names the smaller index
    degrees, diff = [0, 1, 0, 1], {3: {3: 1}, 1: {1: 1}}
    assert dense_lie_violation(degrees, {}, diff) == "diff of basis element 1 has wrong degree"
    with pytest.raises(ValueError) as err:
        NilpotentLieData([(f"e{i}", d) for i, d in enumerate(degrees)], {}, diff)
    assert str(err.value) == "diff of basis element 1 has wrong degree"


def test_sullivan_command_validates_once(monkeypatch):
    calls = []
    series = []
    duals = []
    validate = NilpotentLieData.validate
    lower_central_dims = sullivan._lower_central_dims
    dual_differential = sullivan._dual_differential

    def counted(self):
        calls.append(self)
        return validate(self)

    def counted_series(rows):
        series.append(rows)
        return lower_central_dims(rows)

    def counted_dual(L):
        duals.append(L)
        return dual_differential(L)

    monkeypatch.setattr(NilpotentLieData, "validate", counted)
    monkeypatch.setattr(sullivan, "_lower_central_dims", counted_series)
    monkeypatch.setattr(sullivan, "_dual_differential", counted_dual)
    code, _ = cli.run(["sullivan", "--file", "torus", "--window", "4", "2"])
    assert code == 0
    assert len(calls) == 1
    assert len(series) == 1
    # cochains returns the dual that validate built and checked
    assert len(duals) == 1


@pytest.mark.parametrize("validate", [True, False])
def test_negative_basis_degree_rejected_at_construction(validate):
    with pytest.raises(ValueError, match="basis element e1 has degree -1"):
        NilpotentLieData([("e0", 0), ("e1", -1)], {}, validate=validate)


# ---------------------------------------------------------------------------
# cochains
# ---------------------------------------------------------------------------


def test_abelian_cochains():
    sd = cochains(abelian2())
    assert sd.basis == [("a", 1), ("b", 1)]
    assert sd.d0 == {} and sd.d1 == {}
    assert check_sullivan(sd).ok


def test_heisenberg_cochains():
    sd = cochains(heisenberg())
    assert sd.d1 == {2: {(0, 1): Fraction(1)}}
    assert sd.d0 == {}
    rep = check_sullivan(sd)
    assert rep.ok
    assert rep.filtration_levels == [2, 3]


def test_cp2_truncation_cochains():
    sd = cochains(cp2_truncation())
    names = [n for n, _ in sd.basis]
    assert names == ["x", "[x,x]", "sy"]
    assert [d for _, d in sd.basis] == [2, 3, 4]
    # d0 dual to the differential; d1 dual to the bracket
    assert sd.d0 == {1: {2: ONE}}
    assert sd.d1 == {1: {(0, 0): Fraction(1, 2)}}
    assert check_sullivan(sd).ok


def torus_truncation():
    W = Window(3, 3)
    a, b = Generator("a", 0), Generator("b", 0)
    sz = Generator("sz", 1, weight=2)
    t = bracket(generator_element(a, W), generator_element(b, W))
    return truncation_lie_data(DglPresentation([a, b, sz], {sz: t}, W))


def test_cochains_of_valid_input_always_checks():
    # the torus truncation is the regression case that pinned the d0/d1
    # cross-term sign: a degree-1 cell over a degree-0 base
    for data in (
        abelian2(),
        heisenberg(),
        free_nilpotent_2gen(3),
        free_nilpotent_2gen(4),
        cp2_truncation(),
        acyclic_pair(),
        torus_truncation(),
    ):
        assert check_sullivan(cochains(data)).ok


def test_check_sullivan_negative_control():
    # hand-built quadratic differential with d^2 != 0:
    # d1 t = u*v and d1 u = w*t give d^2 t = (w*t)*v != 0
    basis = [("u", 1), ("v", 1), ("w", 1), ("t", 1)]
    sd = SullivanData(
        basis,
        {},
        {3: {(0, 1): ONE}, 0: {(2, 3): ONE}},
    )
    rep = check_sullivan(sd)
    assert not rep.ok
    assert "t" in [name for name, _ in rep.d_squared_violations]


def test_check_sullivan_and_homotopy_lie_agree_on_corrupted_duals():
    # one d0 or d1 coefficient of a valid dual moved, keeping degrees: both
    # read d^2 = 0 off (d0 + d1)^2 on the generators, one on the Sullivan
    # side, the other as Jacobi, d^2 or the derivation rule of the dual (d)gl
    seen = set()
    for name, weight, degree, trials in (("torus", 4, 2, 150), ("cp2", 6, 6, 150), ("lemaire28", 3, 2, 20)):
        base = cochains(example_truncation(name, weight, degree))
        degs, n = base.degrees, base.dim
        rng = random.Random(f"{name} dual")
        for _ in range(trials):
            d0 = {k: dict(cs) for k, cs in base.d0.items()}
            d1 = {k: dict(cs) for k, cs in base.d1.items()}
            table = d0 if rng.random() < 0.3 else d1
            k = rng.choice(sorted(table)) if table and rng.random() < 0.5 else rng.randrange(n)
            if table is d0:
                fits = [j for j in range(n) if degs[j] == degs[k] + 1]
            else:
                fits = [(i, j) for i in range(n) for j in range(i, n)
                        if degs[i] + degs[j] == degs[k] + 1 and not (i == j and degs[i] % 2)]
            if not fits:
                continue
            term = rng.choice(fits)
            image = table.setdefault(k, {})
            image[term] = image.get(term, 0) + rng.choice((-1, 1, Fraction(1, 2)))
            sd = SullivanData(base.basis, d0, d1)
            try:
                homotopy_lie(sd)
                error = "valid"
            except ValueError as err:
                error = str(err)
            rep = check_sullivan(sd)
            if error.startswith("lower central"):
                # raised after Jacobi, before d^2 = 0 and the derivation rule
                assert not rep.filtration_exhausts
                assert all(len(m) < 3 for _, dd in rep.d_squared_violations for m in dd)
            else:
                assert bool(rep.d_squared_violations) == error.startswith(("Jacobi", "d^2", "derivation")), (name, error)
            seen.add(error.split(" ")[0])
    assert {"valid", "Jacobi", "d^2", "derivation"} <= seen, seen


def test_filtration_reported_for_abelian():
    rep = check_sullivan(cochains(abelian2()))
    assert rep.filtration_exhausts
    assert rep.filtration_levels == [2]


# ---------------------------------------------------------------------------
# roundtrip
# ---------------------------------------------------------------------------


def test_roundtrip_abelian():
    L = abelian2()
    back = homotopy_lie(cochains(L))
    assert back.basis == L.basis
    assert back.brackets == L.brackets
    assert back.diff == L.diff


def test_roundtrip_heisenberg():
    L = heisenberg()
    back = homotopy_lie(cochains(L))
    assert back.brackets == L.brackets


def test_roundtrip_free_nilpotent():
    L = free_nilpotent_2gen(3)
    back = homotopy_lie(cochains(L))
    assert back.basis == L.basis
    assert back.brackets == L.brackets


def test_roundtrip_with_differential():
    for L in (cp2_truncation(), acyclic_pair(), torus_truncation()):
        back = homotopy_lie(cochains(L))
        assert back.basis == L.basis
        assert back.brackets == L.brackets
        assert back.diff == L.diff


def test_degree_bookkeeping():
    for L in (heisenberg(), cp2_truncation()):
        sd = cochains(L)
        for (name, vdeg), ldeg in zip(sd.basis, L.degrees):
            assert vdeg == ldeg + 1


# ---------------------------------------------------------------------------
# wedge homology
# ---------------------------------------------------------------------------


def test_wedge_homology_abelian_binomial():
    sd = cochains(abelian2())
    wh = wedge_homology(sd, 2)
    assert wh[0] == {0: 1}
    assert wh[1] == {1: 2}
    assert wh[2] == {2: 1}


def test_wedge_homology_weight2_stage():
    sd = cochains(free_nilpotent_2gen(2))
    wh = wedge_homology(sd, 2)
    assert wh[1][1] == 2  # classes of the generator duals survive
    assert sum(wh[2].values()) > 0  # finite-stage artifact


def test_wedge_homology_requires_quadratic():
    sd = cochains(cp2_truncation())
    with pytest.raises(ValueError, match="quadratic"):
        wedge_homology(sd)


def test_wedge_homology_accepts_explicit_zero_d0():
    # a d0 that holds only zero coefficients is d0 = 0, as in check_sullivan
    basis = [("a", 1), ("b", 2)]
    assert wedge_homology(SullivanData(basis, {0: {1: 0}})) == wedge_homology(SullivanData(basis, {}))


def test_stage_inclusion_kills_h2():
    # H^[2] classes of the weight-2 stage die in the weight-3 stage
    sd2 = cochains(free_nilpotent_2gen(2))
    sd3 = cochains(free_nilpotent_2gen(3))
    degs2 = sd2.degrees
    n2, n3 = sd2.dim, sd3.dim
    # all Lambda^2 monomials on stage-2 indices (shared with stage 3)
    pairs = [(i, j) for i in range(n2) for j in range(i, n2) if not (i == j and degs2[i] % 2)]
    index = {p: k for k, p in enumerate(pairs)}
    from lietop.qlinalg import Echelon, SparseMatrix, kernel_basis

    cod = sorted({m for (i, j) in pairs for m in sd_diff(sd2, {(i, j): ONE})})
    cod_index = {m: k for k, m in enumerate(cod)}
    entries = {}
    for col, (i, j) in enumerate(pairs):
        for m, c in sd_diff(sd2, {(i, j): ONE}).items():
            entries[(cod_index[m], col)] = c
    cocycles = kernel_basis(SparseMatrix(len(cod), len(pairs), entries))
    assert cocycles.dim > 0
    # image of d1 (stage 3) restricted to stage-2 pair coordinates
    image = Echelon(len(pairs))
    for k in range(n3):
        vec = {}
        ok = True
        for (i, j), c in sd3.d1.get(k, {}).items():
            if (i, j) in index:
                vec[index[(i, j)]] = c
            else:
                ok = False
                break
        if ok and vec:
            image.insert(vec)
    for row in cocycles.rows:
        assert image.contains(dict(row))


# ---------------------------------------------------------------------------
# Lambda(V) monomials and semiquadratic homology
# ---------------------------------------------------------------------------


def test_sullivan_data_rejects_degree_below_one():
    # a degree-0 vector would make every degree of Lambda(V) infinite, and
    # semiquadratic_homology would never return
    for degree in (0, -1):
        with pytest.raises(ValueError, match=f"basis vector u has degree {degree}"):
            SullivanData([("u", degree), ("v", 1)])


def test_sullivan_data_rejects_d0_index_out_of_range():
    with pytest.raises(ValueError, match="d0 index 4 out of range"):
        SullivanData([("a", 1)], {0: {4: 1}})
    with pytest.raises(ValueError, match="d0 index -1 out of range"):
        SullivanData([("a", 1)], {-1: {0: 1}})


def test_sullivan_data_rejects_d1_index_out_of_range():
    with pytest.raises(ValueError, match="d1 index 3 out of range"):
        SullivanData([("a", 1)], None, {0: {(0, 3): 1}})
    with pytest.raises(ValueError, match="d1 index 2 out of range"):
        SullivanData([("a", 1)], None, {2: {(0, 0): 1}})


@pytest.mark.parametrize("degs", [[1, 2, 2, 3, 1, 4], [2, 1, 1], [3, 3, 2, 5], [1, 1, 1, 1]])
def test_monomials_match_brute_force_counts(degs):
    # the wedge cap binding alone, the degree cap alone, then both
    for max_wedge, max_degree in ((4, math.inf), (6, 6), (3, 5)):
        monos = _monomials(degs, max_wedge, max_degree)
        expected = lambda_monomial_counts(degs, max_wedge, min(max_degree, 4 * max(degs)))
        assert {key: len(ms) for key, ms in monos.items()} == expected, (max_wedge, max_degree)
        for (k, d), ms in monos.items():
            assert ms == sorted(set(ms))
            assert all(len(m) == k and sum(degs[i] for i in m) == d for m in ms)


def test_sullivan_ranks_each_block_once(monkeypatch):
    # wedge_homology ranks each (wedge, degree) block once and reads its
    # in-rank from the block below: 4 of its blocks plus 3 degrees of
    # semiquadratic_homology
    calls = []
    rank_of_map = sullivan._rank_of_map

    def counted(*args):
        calls.append(args)
        return rank_of_map(*args)

    monkeypatch.setattr(sullivan, "_rank_of_map", counted)
    code, out = cli.run(["sullivan", "--file", "wedge-circles", "--window", "3", "2", "--format", "records"])
    assert code == 0 and "sullivan.wedge.1.degree.1: 3" in out
    assert len(calls) == 7


def test_semiquadratic_d0_zero_case():
    sd = cochains(heisenberg())
    left, right = semiquadratic_homology(sd, 4)
    ker_d1_dims = {}
    for k in range(sd.dim):
        if not sd.d1.get(k):
            d = sd.degrees[k]
            ker_d1_dims[d] = ker_d1_dims.get(d, 0) + 1
    assert right == {1: ker_d1_dims.get(1, 0)}


def test_semiquadratic_acyclic_pair():
    sd = cochains(acyclic_pair())
    left, right = semiquadratic_homology(sd, 8)
    assert all(v == 0 for d, v in left.items() if d >= 1)
    assert all(v == 0 for v in right.values())


def test_semiquadratic_cp2_agreement():
    sd = cochains(cp2_truncation())
    left, right = semiquadratic_homology(sd, 6)
    for d in right:
        if d < 6 and d >= 1:
            assert left[d] == right[d]


SEEDED_COEFFS = (1, -1, Fraction(1, 2), Fraction(-1, 4), Fraction(3, 4), 2)


def seeded_sullivan(seed, quadratic=False):
    """SullivanData on seven vectors of degrees 1 to 3, with d0 (unless
    quadratic) and d1 entries drawn at random from SEEDED_COEFFS; d^2 = 0
    is not imposed."""
    rng = random.Random(seed)
    degs = [rng.choice((1, 1, 2, 3)) for _ in range(7)]
    n = len(degs)
    d0, d1 = {}, {}
    for k, dk in enumerate(degs):
        for j in range(n):
            if not quadratic and degs[j] == dk + 1 and rng.random() < 0.4:
                d0.setdefault(k, {})[j] = rng.choice(SEEDED_COEFFS)
        for i in range(n):
            for j in range(i, n):
                if degs[i] + degs[j] == dk + 1 and not (i == j and degs[i] % 2) and rng.random() < 0.4:
                    d1.setdefault(k, {})[(i, j)] = rng.choice(SEEDED_COEFFS)
    return SullivanData([(f"v{i}", d) for i, d in enumerate(degs)], d0, d1)


@pytest.mark.parametrize("seed", range(6))
def test_sd_diff_matches_plain_derivation(seed):
    sd = seeded_sullivan(seed, quadratic=seed % 2 == 1)
    rng = random.Random(seed)
    monos = [m for ms in lambda_monomials(sd.degrees, 3, 6).values() for m in ms]
    for _ in range(40):
        p = {m: rng.choice(SEEDED_COEFFS) for m in rng.sample(monos, 3)}
        assert sd_diff(sd, p) == plain_sd_diff(sd.degrees, sd.d0, sd.d1, p)
    # d^2 on each generator, as the oracle finds it, in basis order
    expected = []
    for k, (name, _) in enumerate(sd.basis):
        dd = plain_sd_diff(sd.degrees, sd.d0, sd.d1, plain_sd_diff(sd.degrees, sd.d0, sd.d1, {(k,): 1}))
        if dd:
            expected.append((name, dd))
    assert expected
    assert check_sullivan(sd).d_squared_violations == expected


def test_sd_diff_odd_squares_vanish():
    # d0 v1 = v0 / 2 with v0 odd: d(v0 v1) = -v0 v0 / 2 = 0, d(v1 v2) = v0 v2 / 2
    sd = SullivanData([("v0", 3), ("v1", 2), ("v2", 2)], {1: {0: Fraction(1, 2)}}, {})
    assert sd_diff(sd, {(0, 1): ONE}) == {}
    assert sd_diff(sd, {(1, 2): ONE}) == {(0, 2): Fraction(1, 2)}
    # d1 v2 = v0 v1 / 4 with v0, v1 odd: v0 v2 and v1 v2 are cycles, v2 is not
    sd = SullivanData([("v0", 1), ("v1", 1), ("v2", 1)], {}, {2: {(0, 1): Fraction(1, 4)}})
    assert sd_diff(sd, {(0, 2): ONE}) == sd_diff(sd, {(1, 2): ONE}) == {}
    assert sd_diff(sd, {(2,): ONE}) == {(0, 1): Fraction(1, 4)}
    for m in ((0, 2), (1, 2), (2,)):
        assert plain_sd_diff(sd.degrees, sd.d0, sd.d1, {m: 1}) == sd_diff(sd, {m: ONE})


def oracle_left_table(sd, max_degree):
    """semiquadratic_homology's left table from derivation_rank over every
    monomial of each degree."""
    monos = {}
    for (_, d), ms in lambda_monomials(sd.degrees, max_degree, max_degree).items():
        monos.setdefault(d, []).extend(ms)
    ranks, left = {}, {}
    for d in range(max_degree):
        dom = monos.get(d, [])
        ranks[d] = derivation_rank(sd.degrees, sd.d0, sd.d1, dom, monos.get(d + 1, []))
        left[d] = len(dom) - ranks[d] - ranks.get(d - 1, 0)
    return left


def oracle_wedge_table(sd, max_wedge):
    """wedge_homology's table from derivation_rank over every block of
    Lambda^k V in one degree, k <= max_wedge + 1."""
    monos = lambda_monomials(sd.degrees, max_wedge + 1, math.inf)
    ranks, table = {}, {k: {} for k in range(max_wedge + 1)}
    for (k, n), dom in sorted(monos.items()):
        if k > max_wedge:
            continue
        ranks[(k, n)] = derivation_rank(sd.degrees, sd.d0, sd.d1, dom, monos.get((k + 1, n + 1), []))
        h = len(dom) - ranks[(k, n)] - ranks.get((k - 1, n - 1), 0)
        if h:
            table[k][n] = h
    return table


@pytest.mark.parametrize("name, weight, degree", [("torus", 4, 2), ("cp2", 6, 6), ("lemaire28", 3, 2)])
def test_left_table_matches_dense_ranks_on_examples(name, weight, degree):
    sd = cochains(example_truncation(name, weight, degree))
    left, _ = semiquadratic_homology(sd, degree + 1)
    assert left == oracle_left_table(sd, degree + 1)


def test_tables_match_dense_ranks_on_seeded_data():
    for seed in range(6):
        sd = seeded_sullivan(seed)
        left, _ = semiquadratic_homology(sd, 6)
        assert left == oracle_left_table(sd, 6), seed
        quadratic = seeded_sullivan(seed, quadratic=True)
        assert wedge_homology(quadratic, 3) == oracle_wedge_table(quadratic, 3), seed
    sd = cochains(example_truncation("wedge-circles", 3, 2))
    assert wedge_homology(sd, 3) == oracle_wedge_table(sd, 3)


def test_mono_normalize_signs():
    degs = [1, 1, 2]
    assert mono_normalize((1, 0), degs) == ((0, 1), Fraction(-1))
    assert mono_normalize((2, 0), degs) == ((0, 2), Fraction(1))
    assert mono_normalize((0, 0), degs) is None
    assert mono_normalize((2, 2), degs) == ((2, 2), Fraction(1))


def test_filtration_needs_subspace_not_basis_vectors():
    # ker d1 = span{a, u - v} is not coordinate-aligned: the filtration
    # exhausts only because the combination u - v sits in V_0
    basis = [("a", 1), ("u", 1), ("v", 1)]
    d1 = {
        1: {(0, 1): Fraction(-1), (0, 2): ONE},
        2: {(0, 1): Fraction(-1), (0, 2): ONE},
    }
    sd = SullivanData(basis, {}, d1)
    rep = check_sullivan(sd)
    assert not rep.d_squared_violations
    assert rep.filtration_exhausts
    assert rep.filtration_levels == [2, 3]


FILTRATION_COEFFS = (1, -1, 2, Fraction(1, 2), Fraction(-3, 4))


def random_sullivan(rng):
    """SullivanData on 1 to 8 vectors of degrees 1 to 3, at random densities;
    half of them have d1 v_k in the vectors below k only, which makes deep
    filtrations that exhaust.  d^2 = 0 is not imposed."""
    n = rng.randint(1, 8)
    degs = [rng.choice((1, 1, 1, 2, 3)) for _ in range(n)]
    p0, p1 = rng.choice((0, 0.3)), rng.choice((0.2, 0.5, 0.8))
    below = rng.random() < 0.5
    d0, d1 = {}, {}
    for k, dk in enumerate(degs):
        for j in range(n):
            if degs[j] == dk + 1 and rng.random() < p0:
                d0.setdefault(k, {})[j] = rng.choice(FILTRATION_COEFFS)
        for i in range(n):
            for j in range(i, n):
                fits = degs[i] + degs[j] == dk + 1 and not (i == j and degs[i] % 2)
                if fits and (j < k or not below) and rng.random() < p1:
                    d1.setdefault(k, {})[(i, j)] = rng.choice(FILTRATION_COEFFS)
    return SullivanData([(f"v{i}", d) for i, d in enumerate(degs)], d0, d1)


def assert_report_matches_oracles(sd):
    """check_sullivan against wedge_filtration and plain_sd_diff; returns
    the report."""
    rep = check_sullivan(sd)
    assert (rep.filtration_levels, rep.filtration_exhausts) == wedge_filtration(sd.degrees, sd.d1)
    names = []
    for k, (name, _) in enumerate(sd.basis):
        if plain_sd_diff(sd.degrees, sd.d0, sd.d1, plain_sd_diff(sd.degrees, sd.d0, sd.d1, {(k,): 1})):
            names.append(name)
    assert [name for name, _ in rep.d_squared_violations] == names
    return rep


def test_filtration_matches_wedge_oracle_on_seeded_data():
    # the lower central series of the dual bracket against the Lambda^2 V
    # filtration, on data with and without d^2 = 0 and with and without
    # exhaustion
    rng = random.Random(14)
    reports = [assert_report_matches_oracles(random_sullivan(rng)) for _ in range(600)]
    assert sum(not rep.filtration_exhausts for rep in reports) >= 100
    assert sum(bool(rep.d_squared_violations) for rep in reports) >= 100
    assert sum(len(rep.filtration_levels) > 3 for rep in reports) >= 20


@pytest.mark.parametrize(
    "name, weight, degree", [("torus", 6, 2), ("lemaire28", 3, 2), ("cp2", 10, 12), ("wedge-circles", 3, 2)]
)
def test_filtration_matches_wedge_oracle_on_examples(name, weight, degree):
    rep = assert_report_matches_oracles(cochains(example_truncation(name, weight, degree)))
    assert rep.ok


TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"

TRACED_SULLIVAN = """
import importlib.util, json, sys
spec = importlib.util.spec_from_file_location("tracer", sys.argv[1])
tracer_mod = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracer_mod)
tracer = tracer_mod.Tracer()
missing = tracer_mod.instrument_lietop(tracer)
from lietop import cli
codes = [cli.run(argv)[0] for argv in json.loads(sys.argv[2])]
_, calls, _ = tracer_mod.layer_totals(
    tracer.names, tracer.span_name, tracer.span_parent, tracer.span_start, tracer.span_end
)
print(json.dumps({"missing": missing, "codes": codes, "calls": calls}))
"""


def test_traced_sullivan_calls_every_sullivan_and_qlinalg_entry_point():
    # the benchmark's sullivan-dual workload must read every sullivan.* and
    # qlinalg.* layer nonzero; run traced, in a child so the wrapping stays there
    argv = [
        ["sullivan", "--file", "cp2", "--window", "10", "12"],
        ["sullivan", "--file", "wedge-circles", "--window", "3", "2"],
    ]
    proc = subprocess.run(
        [sys.executable, "-c", TRACED_SULLIVAN, str(TRACER), json.dumps(argv)],
        capture_output=True, text=True, env=checkout_env(),
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    assert result["missing"] == [] and result["codes"] == [0, 0]
    spans = [span for span in result["calls"] if span.startswith(("sullivan.", "qlinalg."))]
    assert {span for span in spans if not result["calls"][span]} == set()
    assert "qlinalg.kernel_basis" in spans and "qlinalg.Echelon.reduce" in spans


def test_duality_on_random_presentations():
    # random valid truncations of attachment models: the dual must satisfy
    # d^2 = 0 and the Sullivan condition, and the roundtrip must be exact
    import random

    from lietop.attach import AttachingMap, attach_cells
    from lietop.dgl import free_presentation
    from lietop.freelie import LieElement, TensorElement, lie_slice

    rng = random.Random(77)
    for trial in range(8):
        n_gens = rng.randint(2, 3)
        degrees = [rng.choice([0, 0, 1, 2]) for _ in range(n_gens)]
        gens = [Generator(f"g{i}", d) for i, d in enumerate(degrees)]
        W = Window(3, 6)
        base = free_presentation(gens, W)
        cells = []
        for c in range(rng.randint(0, 2)):
            w = rng.randint(1, 2)
            choices = [d for d in range(0, 6) if lie_slice(tuple(gens), w, d).dim]
            if not choices:
                continue
            d = rng.choice(choices)
            slc = lie_slice(tuple(gens), w, d)
            out = TensorElement.zero(W)
            for k in range(slc.dim):
                coef = rng.randint(-1, 1)
                if coef:
                    out = out + Fraction(coef) * slice_element(slc, k, W).value
            if out.is_zero():
                continue
            cells.append((f"c{trial}_{c}", LieElement(out)))
        p = attach_cells(base, AttachingMap(cells))
        L = truncation_lie_data(p)
        sd = cochains(L)
        rep = check_sullivan(sd)
        assert rep.ok, f"trial {trial}: {rep.d_squared_violations}"
        back = homotopy_lie(sd)
        assert back.brackets == L.brackets and back.diff == L.diff
