"""Dual (semi-)quadratic Sullivan algebras of finite-dimensional nilpotent
(differential) graded Lie algebras, and the roundtrip back.

Frozen pairing convention.  With V-basis v_i dual to the suspended Lie basis
(deg v_i = deg e_i + 1), tensor pairs pair with the Koszul sign

    <v (x) w, sx (x) sy>  =  (-1)^{deg w . deg sx} <v, sx> <w, sy>,

and squares are normalized by <v_i^2, s e_i (x) s e_i> = 2.  Writing
[e_i, e_j] = sum_k c^k_ij e_k and (d e_j) = sum_k m^k_j e_k, the dual
differential comes out as

    d1 v_k  =  sum_{i<j} (-1)^{deg e_i (deg e_j + 1)} c^k_ij  v_i v_j
             + sum_{i, deg e_i odd} (1/2) c^k_ii  v_i^2,
    d0 v_k  =  sum_j m^k_j v_j.

The sign rule was confirmed by an exhaustive sweep of candidate conventions
against (d0+d1)^2 = 0 over truncations mixing parities (only this rule and
its basis-rescaling gauge twins survive); the test suite pins it through
the d^2 = 0 checks and the exact roundtrip.

Under this duality the Sullivan filtration V_0 = ker d1,
V_{n+1} = d1^{-1}(Lambda^2 V_n) is the annihilator of the lower central
series L^1 = L, L^{k+1} = [L, L^k] of the dual bracket: V_n = (L^{n+2})^perp.
So a (d)gl is valid exactly when its dual satisfies (d0 + d1)^2 = 0 and its
filtration exhausts V, and check_sullivan is the one routine that decides
both: NilpotentLieData.validate reads its report on the dual.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .dgl import ChainBasis
from .qlinalg import Echelon, SparseMatrix, Vector, kernel_basis

ZERO = Fraction(0)
ONE = Fraction(1)
HALF = Fraction(1, 2)

Coeffs = dict[int, Fraction]


def _acc(out: dict, key, val: Fraction) -> None:
    s = out.get(key, ZERO) + val
    if s:
        out[key] = s
    else:
        out.pop(key, None)


def _scaled(table: dict) -> tuple[dict, int]:
    """(rows, den): every row {k: c} of table as integers den*c, den the lcm
    of all denominators in the table."""
    den = math.lcm(*(c.denominator for cs in table.values() for c in cs.values()))
    return {
        key: {k: c.numerator * (den // c.denominator) for k, c in cs.items()} for key, cs in table.items()
    }, den


def _add(out: dict[int, int], v: dict[int, int] | None, scale: int) -> None:
    """out += scale*v; entries that cancel stay as 0."""
    if v:
        for k, e in v.items():
            out[k] = out.get(k, 0) + scale * e


def _check_indices(what: str, indices, n: int) -> None:
    """Raise a ValueError naming the first of indices outside range(n)."""
    for index in indices:
        if not 0 <= index < n:
            raise ValueError(f"{what} index {index} out of range")


def _lower_central_dims(rows: list[dict[int, dict[int, int]]]) -> list[int]:
    """dim L^2, dim L^3, ... of the lower central series L^1 = L,
    L^{k+1} = [L, L^k] of the graded antisymmetric bracket
    rows[i][j] = [e_i, e_j], up to the first term that is 0 or no smaller
    than the one before.  L^{k+1} lies in L^k by bilinearity alone, so a
    term that does not shrink repeats forever."""
    n = len(rows)
    current: list[dict[int, int]] = [{i: 1} for i in range(n)]
    dims: list[int] = []
    while True:
        ech = Echelon(n)
        nxt: list[dict[int, int]] = []
        for vec in current:
            # [e_i, e_m] != 0 only for i among the keys of rows[m], by antisymmetry
            for i in sorted(set().union(*(rows[m] for m in vec))):
                br: dict[int, int] = {}
                for m, c in vec.items():
                    _add(br, rows[i].get(m), c)
                br = {k: c for k, c in br.items() if c}
                if br and ech.insert(br):
                    nxt.append(br)
        dims.append(len(nxt))
        if not nxt or len(nxt) == len(current):
            return dims
        current = nxt


class NilpotentLieData:
    """A finite-dimensional nilpotent (d)gl by structure constants.

    basis: list of (name, degree), every degree >= 0; brackets maps ordered
    pairs (i, j) to {k: c} with [e_i, e_j] = sum_k c e_k; diff, when
    present, maps j to {k: m} with d e_j = sum_k m e_k.  validate() checks
    graded antisymmetry and degree homogeneity on the bracketed pairs and
    their mirrors, graded Jacobi, nilpotency (the lower central series must
    reach zero), the degree of the differential, d^2 = 0 and the
    right-derivation rule, and returns the dual it checked.

    All but the first two are read off check_sullivan's report on the dual
    Sullivan algebra (cochains): nilpotency is its filtration_exhausts, and
    Jacobi, d^2 = 0 and the derivation rule are decided together, as
    (d0 + d1)^2 = 0 on its generators: the coefficient of v_i v_j v_k in
    (d0 + d1)^2 v_l is a
    nonzero multiple of the e_l-component of the Jacobi expression on
    (i, j, k), that of v_i v_j of the derivation rule on (i, j), and that of
    v_j of d^2 e_j.  An odd square v_i^2 vanishes in Lambda(V), and so does,
    by antisymmetry alone, each expression on a tuple repeating an even e_i.
    Once antisymmetry holds, permuting a tuple changes its Jacobi or
    derivation expression only by a sign, so the smallest nonzero monomial
    of each wedge length names the first failure that a sweep over all
    index tuples in ascending order finds; that one is reported.  When a
    diff has the wrong degree the dual is checked with d0 = 0: the
    Lambda^3 part of (d0 + d1)^2 is d1^2 and the filtration reads d1 alone,
    so Jacobi and nilpotency are still decided first.

    Immutable by convention: the constructor copies its input.  A negative
    degree is a ValueError, as is an index outside the basis.
    """

    def __init__(
        self,
        basis: list[tuple[str, int]],
        brackets: dict[tuple[int, int], Coeffs],
        diff: dict[int, Coeffs] | None = None,
        validate: bool = True,
    ):
        self.basis = list(basis)
        self.degrees = [d for _, d in self.basis]
        n = len(self.basis)
        for name, d in self.basis:
            if d < 0:
                raise ValueError(f"basis element {name} has degree {d}; Lie degrees must be >= 0")
        self.brackets: dict[tuple[int, int], Coeffs] = {}
        for (i, j), cs in brackets.items():
            cs = {k: Fraction(c) for k, c in cs.items() if c}
            if cs:
                _check_indices("bracket", (i, j, *cs), n)
                self.brackets[(i, j)] = cs
        self.diff: dict[int, Coeffs] = {}
        for j, cs in (diff or {}).items():
            cs = {k: Fraction(c) for k, c in cs.items() if c}
            if cs:
                _check_indices("diff", (j, *cs), n)
                self.diff[j] = cs
        if validate:
            self.validate()

    @property
    def dim(self) -> int:
        return len(self.basis)

    def validate(self) -> SullivanData:
        deg = self.degrees
        for i, j in sorted(set(self.brackets) | {(j, i) for i, j in self.brackets}):
            left = self.brackets.get((i, j), {})
            sign = -1 if (deg[i] * deg[j]) % 2 == 0 else 1
            if left != {k: sign * c for k, c in self.brackets.get((j, i), {}).items()}:
                raise ValueError(f"antisymmetry fails on pair ({i},{j})")
            for k in left:
                if deg[k] != deg[i] + deg[j]:
                    raise ValueError(f"bracket ({i},{j}) not degree-homogeneous")
        wrong = [j for j in sorted(self.diff) if any(deg[k] != deg[j] - 1 for k in self.diff[j])]
        d0, d1 = _dual_differential(self)
        dual = SullivanData([(name, d + 1) for name, d in self.basis], {} if wrong else d0, d1)
        report = check_sullivan(dual)
        first: dict[int, Monomial] = {}  # the smallest nonzero monomial per wedge length
        for m in sorted(m for _, dd in report.d_squared_violations for m in dd):
            first.setdefault(len(m), m)
        if 3 in first:
            raise ValueError("Jacobi fails on triple ({},{},{})".format(*first[3]))
        if not report.filtration_exhausts:
            raise ValueError("lower central series does not terminate: not nilpotent")
        if wrong:
            raise ValueError(f"diff of basis element {wrong[0]} has wrong degree")
        if 1 in first:
            raise ValueError(f"d^2 != 0 on basis element {first[1][0]}")
        if 2 in first:
            raise ValueError("derivation rule fails on pair ({},{})".format(*first[2]))
        return dual


class SullivanData:
    """Semi-quadratic Sullivan data: V-basis with d0 (linear) and d1 (quadratic).

    d0 maps k to {j: c} meaning d0 v_k = sum c v_j; d1 maps k to
    {(i, j): c} over ordered pairs i <= j meaning d1 v_k = sum c v_i v_j.
    Construction checks shape and degrees only; d^2 = 0 and the Sullivan
    filtration are the business of check_sullivan, so that corrupted data
    can be built and then detected.  Every basis degree must be >= 1, which
    keeps each degree of Lambda(V) finite.  An index outside the basis is a
    ValueError.
    """

    def __init__(self, basis: list[tuple[str, int]], d0: dict[int, dict[int, Fraction]] | None = None,
                 d1: dict[int, dict[tuple[int, int], Fraction]] | None = None):
        self.basis = basis
        self.d0 = {} if d0 is None else d0
        self.d1 = {} if d1 is None else d1
        self.degrees = degs = [d for _, d in basis]
        for name, d in self.basis:
            if d < 1:
                raise ValueError(f"basis vector {name} has degree {d}; Sullivan generators need degree >= 1")
        for k, cs in self.d0.items():
            _check_indices("d0", (k, *cs), len(basis))
            for j, c in cs.items():
                if c and degs[j] != degs[k] + 1:
                    raise ValueError(f"d0 of {self.basis[k][0]} is not degree +1")
        for k, cs in self.d1.items():
            _check_indices("d1", (k, *(i for pair in cs for i in pair)), len(basis))
            for (i, j), c in cs.items():
                if i > j:
                    raise ValueError("d1 pairs must be ordered i <= j")
                if c and degs[i] + degs[j] != degs[k] + 1:
                    raise ValueError(f"d1 of {self.basis[k][0]} is not degree +1")
                if c and i == j and degs[i] % 2 == 1:
                    raise ValueError("square of an odd basis vector is zero")

    @property
    def dim(self) -> int:
        return len(self.basis)


def cochains(L: NilpotentLieData) -> SullivanData:
    """The dual semi-quadratic Sullivan algebra of a nilpotent (d)gl.

    d1 is dual to the bracket and d0 to the differential, as in the module
    docstring.  d0 keeps wedge length and d1 raises it by one, so on a
    generator (d0 + d1)^2 = d0^2 + (d0 d1 + d1 d0) + d1^2 has its parts in
    Lambda^1 V, Lambda^2 V and Lambda^3 V: d^2 = 0, the derivation rule and
    Jacobi of L, read off the dual as NilpotentLieData.validate does.

    This is where Lie data is validated on its way to a Sullivan algebra,
    also when it was constructed unchecked (as truncation_lie_data does):
    validate builds the dual, runs check_sullivan on it and returns it, so
    what cochains returns satisfies d^2 = 0 and the Sullivan condition.
    """
    return L.validate()


def _dual_differential(L: NilpotentLieData) -> tuple[dict[int, Coeffs], dict[int, dict[tuple[int, int], Fraction]]]:
    """(d0, d1) of cochains(L), zero terms dropped.  Only the brackets of
    pairs i <= j are read, so they determine the rest only when L is graded
    antisymmetric; the degrees are not checked."""
    degs = L.degrees
    d1: dict[int, dict[tuple[int, int], Fraction]] = {}
    for (i, j), cs in L.brackets.items():
        if i > j:
            continue
        if i == j:
            for k, c in cs.items():
                _acc(d1.setdefault(k, {}), (i, i), HALF * c)
        else:
            sign = -ONE if (degs[i] * (degs[j] + 1)) % 2 else ONE
            for k, c in cs.items():
                _acc(d1.setdefault(k, {}), (i, j), sign * c)
    d0: dict[int, Coeffs] = {}
    for j, cs in L.diff.items():
        for k, c in cs.items():
            _acc(d0.setdefault(k, {}), j, c)
    return {k: v for k, v in d0.items() if v}, {k: v for k, v in d1.items() if v}


def homotopy_lie(sd: SullivanData) -> NilpotentLieData:
    """The Lie structure dual to the quadratic part (plus dual differential).

    Exactly inverts cochains under the frozen pairing convention, so the
    roundtrip reproduces structure constants on the nose.
    """
    L = _dual_lie(sd)
    L.validate()
    return L


def _dual_lie(sd: SullivanData) -> NilpotentLieData:
    """homotopy_lie's (d)gl, not validated: the brackets dual to d1 are
    antisymmetric by construction, whatever d1 is."""
    degs = [d - 1 for _, d in sd.basis]
    basis = [(name, d - 1) for name, d in sd.basis]
    brackets: dict[tuple[int, int], Coeffs] = {}
    for k, cs in sd.d1.items():
        for (i, j), c in cs.items():
            if not c:
                continue
            if i == j:
                _acc(brackets.setdefault((i, i), {}), k, 2 * c)
            else:
                sign = -ONE if (degs[i] * (degs[j] + 1)) % 2 else ONE
                _acc(brackets.setdefault((i, j), {}), k, sign * c)
                back = -ONE if (degs[i] * degs[j]) % 2 == 0 else ONE
                _acc(brackets.setdefault((j, i), {}), k, back * sign * c)
    diff: dict[int, Coeffs] = {}
    for k, cs in sd.d0.items():
        for j, c in cs.items():
            _acc(diff.setdefault(j, {}), k, c)
    return NilpotentLieData(basis, brackets, diff, validate=False)


# ---------------------------------------------------------------------------
# The cdga Lambda(V): monomials are weakly increasing index tuples; Koszul
# signs come from sorting; squares of odd vectors vanish.
# ---------------------------------------------------------------------------

Monomial = tuple[int, ...]
Poly = dict[Monomial, Fraction]


def mono_normalize(seq: tuple[int, ...], degs: list[int]) -> tuple[Monomial, int] | None:
    """Sort a raw index tuple, tracking the Koszul sign (+1 or -1); None if
    it vanishes."""
    items = list(seq)
    sign = 1
    for a in range(1, len(items)):
        b = a
        while b > 0 and items[b - 1] > items[b]:
            if degs[items[b - 1]] % 2 and degs[items[b]] % 2:
                sign = -sign
            items[b - 1], items[b] = items[b], items[b - 1]
            b -= 1
    for a in range(1, len(items)):
        if items[a] == items[a - 1] and degs[items[a]] % 2:
            return None
    return tuple(items), sign


Images = list[list[tuple[Monomial, int]]]


def _images(n: int, d0: dict, d1: dict) -> tuple[Images, int]:
    """(images, den): images[k] lists the terms of den*(d0 + d1) v_k for the
    n generators v_k, with integer coefficients, den the lcm of all
    denominators of d0 and d1 (maps k -> {j: c} and k -> {(i, j): c}, as in
    SullivanData)."""
    dv: dict[int, dict[Monomial, Fraction]] = {}
    for k in range(n):
        img = {(j,): c for j, c in d0.get(k, {}).items() if c}
        img.update((pair, c) for pair, c in d1.get(k, {}).items() if c)
        dv[k] = img
    scaled, den = _scaled(dv)
    return [list(scaled[k].items()) for k in range(n)], den


def _derive(images: Images, degs: list[int], p: dict) -> dict:
    """den * (d0 + d1)(p), extended to Lambda(V) as a derivation, for the
    images and den of _images; terms that cancel stay as 0."""
    out: dict = {}
    for m, coeff in p.items():
        prefix_sign = 1  # (-1)^{degree left of position t}
        for t, k in enumerate(m):
            head, tail = m[:t], m[t + 1 :]
            for dm, dc in images[k]:
                norm = mono_normalize(head + dm + tail, degs)
                if norm is None:
                    continue
                mm, sign = norm
                out[mm] = out.get(mm, 0) + (coeff * dc if sign == prefix_sign else -coeff * dc)
            if degs[k] % 2:
                prefix_sign = -prefix_sign
    return out


class SullivanReport:
    def __init__(self, d_squared_violations: list[tuple[str, Poly]], filtration_exhausts: bool,
                 filtration_levels: list[int]):
        self.d_squared_violations = d_squared_violations
        self.filtration_exhausts, self.filtration_levels = filtration_exhausts, filtration_levels

    @property
    def ok(self) -> bool:
        return not self.d_squared_violations and self.filtration_exhausts


def check_sullivan(sd: SullivanData) -> SullivanReport:
    """Verify d^2 = 0 on generators (enough: d^2 is a derivation) and that
    the filtration V_0 = V cap ker d1, V_{n+1} = d1^{-1}(Lambda^2 V_n)
    exhausts V (the Sullivan condition, checked on the quadratic part).
    NilpotentLieData.validate reads this report on the dual of Lie data.

    d_squared_violations lists (name, (d0 + d1)^2 v_k) where it is not 0.
    The filtration is decided on the dual bracket: V_n = (L^{n+2})^perp for
    the lower central series of the Lie algebra dual to d1, so
    filtration_levels[n] = dim V - dim L^{n+2}.  It exhausts V when the
    series reaches 0, and never does once a term stops shrinking.  Only
    bilinearity goes into this, so it is exact also when d^2 != 0.
    """
    degs = sd.degrees
    images, den = _images(sd.dim, sd.d0, sd.d1)
    violations = []
    for k, (name, _) in enumerate(sd.basis):
        dd = _derive(images, degs, _derive(images, degs, {(k,): 1}))
        dd = {m: Fraction(c, den * den) for m, c in dd.items() if c}
        if dd:
            violations.append((name, dd))
    rows: list[dict[int, dict[int, int]]] = [{} for _ in range(sd.dim)]  # rows[i][j] = [e_i, e_j]
    for (i, j), cs in _scaled(_dual_lie(sd).brackets)[0].items():
        rows[i][j] = cs
    dims = _lower_central_dims(rows)
    return SullivanReport(violations, not dims[-1], [sd.dim - d for d in dims])


def _monomials(degs: list[int], max_wedge: int, max_degree: float) -> dict[tuple[int, int], list[Monomial]]:
    """Lambda(V) monomials of wedge length <= max_wedge and degree <=
    max_degree, keyed by (wedge length, degree), each list in lexicographic
    order."""
    out: dict[tuple[int, int], list[Monomial]] = {(0, 0): [()]}
    level: list[Monomial] = [()]
    for k in range(1, max_wedge + 1):
        nxt: list[Monomial] = []
        for m in level:
            d = sum(degs[j] for j in m)
            for i in range(m[-1] if m else 0, len(degs)):
                if d + degs[i] <= max_degree and not (m and i == m[-1] and degs[i] % 2):
                    mm = m + (i,)
                    out.setdefault((k, d + degs[i]), []).append(mm)
                    nxt.append(mm)
        level = nxt
    return out


def _rank_of_map(images: Images, degs: list[int], dom: list[Monomial]) -> int:
    """Rank of d0 + d1 on the span of dom.

    No codomain block is enumerated: a codomain monomial's column is the
    integer whose base-(n+1) digits are its letters plus one, padded with
    zeros to one letter more than dom's longest monomial.  Columns are then
    in lexicographic order, as in a full enumeration of the block; numbered
    by first appearance instead, the largest block of sullivan genus2 (5,2)
    took 2.5 times as long to eliminate.
    """
    width = len(degs) + 1
    length = max(map(len, dom), default=0) + 1
    shift = [width ** (length - t) for t in range(length + 1)]

    def column(mm: Monomial) -> int:
        key = 0
        for a in mm:
            key = key * width + a + 1
        return key * shift[len(mm)]

    ech = Echelon(width**length)
    for m in dom:
        ech.insert({column(mm): c for mm, c in _derive(images, degs, {m: 1}).items()})
    return ech.rank


def wedge_homology(sd: SullivanData, max_wedge: int = 3) -> dict[int, dict[int, int]]:
    """dims of H^[k](Lambda V, d1) per cohomological degree, for k <= max_wedge.

    Quadratic case only (d0 = 0): the differential raises wedge degree by
    exactly one, so each H^[k] involves only the finite pieces
    Lambda^{k-1}, Lambda^k, Lambda^{k+1}.  Each block of Lambda^k V in one
    degree is ranked once, as the source of d1; its in-rank is the out-rank
    of the block one wedge and one degree below.
    """
    if any(c for cs in sd.d0.values() for c in cs.values()):
        raise ValueError("wedge_homology requires a quadratic Sullivan algebra (d0 = 0)")
    if max_wedge < 0:
        raise ValueError("max_wedge must be >= 0")
    degs = sd.degrees
    images, _ = _images(sd.dim, sd.d0, sd.d1)
    # d1 maps block (k, n) of Lambda^k V in degree n to block (k+1, n+1);
    # blocks go in ascending (k, n), so the in-rank of (k, n) is known
    result: dict[int, dict[int, int]] = {k: {} for k in range(max_wedge + 1)}
    rank_out: dict[tuple[int, int], int] = {}
    for (k, n), dom in sorted(_monomials(degs, max_wedge, math.inf).items()):
        rank_out[(k, n)] = _rank_of_map(images, degs, dom)
        h = len(dom) - rank_out[(k, n)] - rank_out.get((k - 1, n - 1), 0)
        if h:
            result[k][n] = h
    return result


def semiquadratic_homology(
    sd: SullivanData, max_degree: int
) -> tuple[dict[int, int], dict[int, int]]:
    """(dims of H(Lambda V, d0+d1) per degree < max_degree,
        dims of H(V cap ker d1, d0) per degree).

    The two tables agree in the limit at degrees >= 1; at a finite stage the
    report is for side-by-side comparison.  The top degree of the left table
    is omitted: its incoming boundaries are not fully visible.
    """
    degs = sd.degrees
    images, _ = _images(sd.dim, sd.d0, sd.d1)
    monos: dict[int, list[Monomial]] = {}
    # only degrees below max_degree are ranked (the top degree's target is
    # cut off), and every basis degree is >= 1, so no monomial has more
    # letters than degree
    for (_, d), ms in _monomials(degs, max_degree - 1, max_degree - 1).items():
        monos.setdefault(d, []).extend(ms)
    for ms in monos.values():
        ms.sort()  # the domain order feeds elimination
    ranks: dict[int, int] = {}
    left: dict[int, int] = {}
    for d in range(0, max_degree):
        dom = monos.get(d, [])
        ranks[d] = _rank_of_map(images, degs, dom)
        left[d] = len(dom) - ranks[d] - ranks.get(d - 1, 0)

    # right table: d0-homology of V cap ker d1, degree by degree
    n = sd.dim
    by_degree: dict[int, list[int]] = {}
    for k in range(n):
        by_degree.setdefault(degs[k], []).append(k)

    def d0_vec(v: Vector) -> Vector:
        out: Vector = {}
        for k, ck in v.items():
            for j, c in sd.d0.get(k, {}).items():
                _acc(out, j, ck * c)
        return out

    rank0: dict[int, int] = {}
    right: dict[int, int] = {}
    for d, ks in sorted(by_degree.items()):
        # the d1 columns of degree d; row i*n + j holds v_i v_j, so rows go
        # in the lexicographic order of pairs
        entries = {(i * n + j, col): c for col, k in enumerate(ks) for (i, j), c in sd.d1.get(k, {}).items()}
        ech = Echelon(n)
        kern = 0  # dim of the kernel of d0 on V cap ker d1 in degree d
        for row in kernel_basis(SparseMatrix(n * n, len(ks), entries)).rows:
            if not ech.insert(d0_vec({ks[local]: c for local, c in row.items()})):
                kern += 1
        rank0[d] = ech.rank
        right[d] = kern - rank0.get(d - 1, 0)
    return left, right


def truncation_lie_data(p) -> NilpotentLieData:
    """NilpotentLieData of a presentation's weight-<=N truncation.

    Basis elements are the chain-basis elements of every degree (dgl
    ChainBasis), named by their bracket expressions; structure constants are
    their brackets and the differential matrix their boundary columns, all
    computed in chain coordinates.  The degree cap is widened to the largest
    degree reachable within the weight bound: the degree cap alone is not
    stable under brackets and the differential, so only the pure weight
    quotient is an honest nilpotent dgl.  Meant for desk-scale truncations:
    the construction is quadratic in the dimension.  The result is not
    validated here; cochains validates it.
    """
    from .freelie import Window, tree_str

    # unbounded knapsack: the largest word degree a weight budget allows
    best = [0] * (p.window.max_weight + 1)
    for budget in range(1, p.window.max_weight + 1):
        for g in p.generators:
            if g.weight <= budget:
                best[budget] = max(best[budget], best[budget - g.weight] + g.degree)
    reachable = best[p.window.max_weight]
    if reachable > p.window.max_degree:
        p = p.rewindow(Window(p.window.max_weight, reachable))
    max_weight, max_degree = p.window.max_weight, p.window.max_degree
    chains = ChainBasis(p)
    basis = []
    cells = []  # (degree, chain index, weight) of each basis element
    start: dict[int, int] = {}  # degree -> index of its first basis element
    for d in range(0, max_degree + 1):
        start[d] = len(basis)
        for slc in chains.slices(d):
            basis.extend((tree_str(tree, p.generators), d) for tree in slc.trees)
        cells.extend((d, j, w) for j, w in enumerate(chains.weights(d)))

    def globally(v: Vector, degree: int) -> Coeffs:
        return {start[degree] + j: c for j, c in v.items()}

    # each unordered pair is bracketed once; graded antisymmetry gives the
    # mirror, [e_j, e_i] = -(-1)^{|e_i||e_j|} [e_i, e_j]
    brackets: dict[tuple[int, int], Coeffs] = {}
    for i, (da, a, wa) in enumerate(cells):
        for j in range(i, len(cells)):
            db, b, wb = cells[j]
            if wa + wb > max_weight or da + db > max_degree:
                continue
            br = chains.bracket({a: ONE}, da, {b: ONE}, db)
            if not br:
                continue
            cs = brackets[(i, j)] = globally(br, da + db)
            if j != i:
                brackets[(j, i)] = cs if da * db % 2 else {k: -c for k, c in cs.items()}
    diff: dict[int, Coeffs] = {}
    for i, (d, a, _) in enumerate(cells):
        if d:
            img = chains.boundary_column(d, a)
            if img:
                diff[i] = globally(img, d - 1)
    return NilpotentLieData(basis, brackets, diff, validate=False)
