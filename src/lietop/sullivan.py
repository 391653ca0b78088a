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
both: NilpotentLieData.validate reads its report on the dual, and every
NilpotentLieData is validated as it is built.

The pairing sign and its 1/2 on squares live in _pairing alone, which
_dual_differential (Lie data to d0 and d1) and _dual_brackets (d1 back to
brackets, for homotopy_lie and check_sullivan) both read; graded
antisymmetry, [e_j, e_i] = -(-1)^{deg e_i deg e_j} [e_i, e_j], lives in
_mirror alone.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property

from .dgl import ChainComplex
from .freelie import Window, coefficient, tree_str
from .qlinalg import Echelon, Vector, add_scaled, kernel_basis

Coeffs = dict[int, Fraction]


def _mirror(di: int, dj: int) -> int:
    """The s in [e_j, e_i] = s [e_i, e_j], for Lie degrees di and dj."""
    return 1 if di * dj % 2 else -1


def _pairing(i: int, j: int, degs: list[int]) -> Fraction | int:
    """The p with p c^k_ij the coefficient of v_i v_j, i <= j, in d1 v_k
    under the frozen pairing; degs are the Lie degrees."""
    if i == j:
        return Fraction(1, 2)
    return -1 if degs[i] * (degs[j] + 1) % 2 else 1


def _scaled(table: dict) -> tuple[dict, int]:
    """(rows, den): every row {k: c} of table as integers den*c, den the lcm
    of all denominators in the table."""
    den = math.lcm(*(c.denominator for cs in table.values() for c in cs.values()))
    return {
        key: {k: c.numerator * (den // c.denominator) for k, c in cs.items()} for key, cs in table.items()
    }, den


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
                    add_scaled(br, rows[i].get(m, {}), c)
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
    present, maps j to {k: m} with d e_j = sum_k m e_k; every c and m is an
    int or a Fraction.  The constructor always validates: validate() checks
    graded antisymmetry and degree homogeneity on the bracketed pairs and
    their mirrors, graded Jacobi, nilpotency (the lower central series must
    reach zero), the degree of the differential, d^2 = 0 and the
    right-derivation rule, and returns the dual it checked, which the
    constructor keeps as `dual` for cochains.

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
    degree is a ValueError, as is an index outside the basis, a coefficient
    that is not an int or a Fraction, and data that fails validation.
    """

    def __init__(
        self,
        basis: list[tuple[str, int]],
        brackets: dict[tuple[int, int], Coeffs],
        diff: dict[int, Coeffs] | None = None,
    ):
        self.basis = list(basis)
        self.degrees = [d for _, d in self.basis]
        n = len(self.basis)
        for name, d in self.basis:
            if d < 0:
                raise ValueError(f"basis element {name} has degree {d}; Lie degrees must be >= 0")
        self.brackets: dict[tuple[int, int], Coeffs] = {}
        for (i, j), cs in brackets.items():
            cs = {k: x for k, c in cs.items() if (x := coefficient(c))}
            if cs:
                _check_indices("bracket", (i, j, *cs), n)
                self.brackets[(i, j)] = cs
        self.diff: dict[int, Coeffs] = {}
        for j, cs in (diff or {}).items():
            cs = {k: x for k, c in cs.items() if (x := coefficient(c))}
            if cs:
                _check_indices("diff", (j, *cs), n)
                self.diff[j] = cs
        self.dual = self.validate()

    @property
    def dim(self) -> int:
        return len(self.basis)

    def validate(self) -> SullivanData:
        deg = self.degrees
        for i, j in sorted(set(self.brackets) | {(j, i) for i, j in self.brackets}):
            left = self.brackets.get((i, j), {})
            sign = _mirror(deg[i], deg[j])
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
    Construction checks shape and degrees only, and stores every
    coefficient, an int or a Fraction, as a Fraction; d^2 = 0 and the
    Sullivan filtration are the business of check_sullivan, so that
    corrupted data can be built and then detected.  Every basis degree must
    be >= 1, which keeps each degree of Lambda(V) finite.  An index outside
    the basis is a ValueError, as is any other coefficient.  images is built
    on first read.
    """

    def __init__(self, basis: list[tuple[str, int]], d0: dict[int, dict[int, Fraction]] | None = None,
                 d1: dict[int, dict[tuple[int, int], Fraction]] | None = None):
        self.basis = basis
        self.d0 = {k: {j: coefficient(c) for j, c in cs.items()} for k, cs in (d0 or {}).items()}
        self.d1 = {k: {pair: coefficient(c) for pair, c in cs.items()} for k, cs in (d1 or {}).items()}
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

    @cached_property
    def images(self) -> tuple[Images, int]:
        """(images, den): images[k] lists the terms of den*(d0 + d1) v_k,
        with integer coefficients, den the lcm of all denominators of d0
        and d1."""
        dv: dict[int, dict[Monomial, Fraction]] = {}
        for k in range(self.dim):
            img = {(j,): c for j, c in self.d0.get(k, {}).items() if c}
            img.update((pair, c) for pair, c in self.d1.get(k, {}).items() if c)
            dv[k] = img
        scaled, den = _scaled(dv)
        return [list(scaled[k].items()) for k in range(self.dim)], den


def cochains(L: NilpotentLieData) -> SullivanData:
    """The dual semi-quadratic Sullivan algebra of a nilpotent (d)gl.

    d1 is dual to the bracket and d0 to the differential, as in the module
    docstring.  d0 keeps wedge length and d1 raises it by one, so on a
    generator (d0 + d1)^2 = d0^2 + (d0 d1 + d1 d0) + d1^2 has its parts in
    Lambda^1 V, Lambda^2 V and Lambda^3 V: d^2 = 0, the derivation rule and
    Jacobi of L, read off the dual as NilpotentLieData.validate does.

    L was validated when it was built, and validation built this dual and
    ran check_sullivan on it: cochains returns the dual L keeps, which
    satisfies d^2 = 0 and the Sullivan condition, with no second check.
    """
    return L.dual


def _dual_differential(L: NilpotentLieData) -> tuple[dict[int, Coeffs], dict[int, dict[tuple[int, int], Fraction]]]:
    """(d0, d1) of cochains(L).  L keeps no zero term, and each (k, pair)
    has one, so every term is assigned once.  Only the brackets of pairs
    i <= j are read, so they determine the rest only when L is graded
    antisymmetric; the degrees are not checked."""
    d1: dict[int, dict[tuple[int, int], Fraction]] = {}
    for (i, j), cs in L.brackets.items():
        if i <= j:
            p = _pairing(i, j, L.degrees)
            for k, c in cs.items():
                d1.setdefault(k, {})[(i, j)] = p * c
    d0: dict[int, Coeffs] = {}
    for j, cs in L.diff.items():
        for k, c in cs.items():
            d0.setdefault(k, {})[j] = c
    return d0, d1


def _dual_brackets(degs: list[int], d1: dict) -> dict[tuple[int, int], Coeffs]:
    """The brackets {(i, j): {k: c}} dual to d1 (as in SullivanData), in
    both orders, so graded antisymmetric whatever d1 is; degs are the Lie
    degrees.  Zero terms of d1 are skipped."""
    brackets: dict[tuple[int, int], Coeffs] = {}
    for k, cs in d1.items():
        for (i, j), c in cs.items():
            if c:
                p = _pairing(i, j, degs)
                c = c * Fraction(p.denominator, p.numerator)  # c over p
                brackets.setdefault((i, j), {})[k] = c
                if i != j:
                    brackets.setdefault((j, i), {})[k] = _mirror(degs[i], degs[j]) * c
    return brackets


def homotopy_lie(sd: SullivanData) -> NilpotentLieData:
    """The Lie structure dual to the quadratic part (plus dual differential),
    validated.

    Exactly inverts cochains under the frozen pairing convention, so the
    roundtrip reproduces structure constants on the nose.
    """
    degs = [d - 1 for d in sd.degrees]
    diff: dict[int, Coeffs] = {}
    for k, cs in sd.d0.items():
        for j, c in cs.items():
            diff.setdefault(j, {})[k] = c
    basis = [(name, d) for (name, _), d in zip(sd.basis, degs)]
    return NilpotentLieData(basis, _dual_brackets(degs, sd.d1), diff)


# ---------------------------------------------------------------------------
# The cdga Lambda(V): monomials are weakly increasing index tuples; Koszul
# signs come from sorting; squares of odd vectors vanish.
# ---------------------------------------------------------------------------

Monomial = tuple[int, ...]
Poly = dict[Monomial, Fraction]
Images = list[list[tuple[Monomial, int]]]


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


def _derive(images: Images, degs: list[int], p: dict) -> dict:
    """den * (d0 + d1)(p), extended to Lambda(V) as a derivation, for the
    images and den of SullivanData.images; terms that cancel stay as 0."""
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
    images, den = sd.images
    violations = []
    for k, (name, _) in enumerate(sd.basis):
        dd = _derive(images, degs, dict(images[k]))
        dd = {m: Fraction(c, den * den) for m, c in dd.items() if c}
        if dd:
            violations.append((name, dd))
    rows: list[dict[int, dict[int, int]]] = [{} for _ in range(sd.dim)]  # rows[i][j] = [e_i, e_j]
    for (i, j), cs in _scaled(_dual_brackets([d - 1 for d in degs], sd.d1))[0].items():
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


def wedge_homology(sd: SullivanData, max_wedge: int) -> dict[int, dict[int, int]]:
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
    images, _ = sd.images
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
    images, _ = sd.images
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

    rank0: dict[int, int] = {}
    right: dict[int, int] = {}
    for d, ks in sorted(by_degree.items()):
        # the d1 columns of degree d; row i*n + j holds v_i v_j, so rows go
        # in the lexicographic order of pairs
        columns = [{i * n + j: c for (i, j), c in sd.d1.get(k, {}).items()} for k in ks]
        ech = Echelon(n)
        kern = 0  # dim of the kernel of d0 on V cap ker d1 in degree d
        for row in kernel_basis(columns, n * n).rows:
            image: Vector = {}  # d0 of the kernel vector
            for local, c in row.items():
                add_scaled(image, sd.d0.get(ks[local], {}), c)
            if not ech.insert(image):
                kern += 1
        rank0[d] = ech.rank
        right[d] = kern - rank0.get(d - 1, 0)
    return left, right


def quotient_degree(p) -> int:
    """The largest word degree within p's weight bound: the degree the
    weight-<=N quotient of a presentation p reaches (unbounded knapsack)."""
    best = [0] * (p.window.max_weight + 1)
    for budget in range(1, p.window.max_weight + 1):
        for g in p.generators:
            if g.weight <= budget:
                best[budget] = max(best[budget], best[budget - g.weight] + g.degree)
    return best[p.window.max_weight]


def truncation_lie_data(p) -> NilpotentLieData:
    """NilpotentLieData of a presentation's weight-<=N truncation.

    Basis elements are the chain-basis elements of every degree (dgl
    ChainComplex), named by their bracket expressions; structure constants are
    their brackets and the differential matrix their boundary columns, all
    computed in chain coordinates.  The degree cap is widened to
    quotient_degree(p): the degree cap alone is not stable under brackets
    and the differential, so only the pure weight quotient is an honest
    nilpotent dgl.  Widening is exact only when no generator of weight <= N
    has degree > D + 1: such a generator's differential lies above D and was
    cut off when p was built, so a ValueError naming it asks for p built at
    quotient_degree(p).  Meant for desk-scale truncations: the construction
    is quadratic in the dimension.  The result is validated as it is built,
    like all Lie data, and keeps the dual that cochains returns.
    """
    reachable = quotient_degree(p)
    if reachable > p.window.max_degree:
        for g in p.generators:
            if g.weight <= p.window.max_weight and g.degree > p.window.max_degree + 1:
                raise ValueError(f"window degree {p.window.max_degree} cuts the differential of "
                                 f"{g.name}; build the presentation at degree {reachable}")
        p = p.rewindow(Window(p.window.max_weight, reachable))
    max_weight, max_degree = p.window.max_weight, p.window.max_degree
    chains = ChainComplex(p)
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
    # mirror
    brackets: dict[tuple[int, int], Coeffs] = {}
    for i, (da, a, wa) in enumerate(cells):
        for j in range(i, len(cells)):
            db, b, wb = cells[j]
            if wa + wb > max_weight or da + db > max_degree:
                continue
            br = chains.bracket({a: 1}, da, {b: 1}, db)
            if not br:
                continue
            cs = brackets[(i, j)] = globally(br, da + db)
            if j != i:
                brackets[(j, i)] = {k: _mirror(da, db) * c for k, c in cs.items()}
    diff: dict[int, Coeffs] = {}
    for i, (d, a, _) in enumerate(cells):
        if d:
            img = chains.boundary_column(d, a)
            if img:
                diff[i] = globally(img, d - 1)
    return NilpotentLieData(basis, brackets, diff)
