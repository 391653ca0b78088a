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
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

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


class NilpotentLieData:
    """A finite-dimensional nilpotent (d)gl by structure constants.

    basis: list of (name, degree); brackets maps ordered pairs (i, j) to
    {k: c} with [e_i, e_j] = sum_k c e_k; diff, when present, maps j to
    {k: m} with d e_j = sum_k m e_k.  validate() checks graded antisymmetry,
    graded Jacobi, degree homogeneity, nilpotency (the lower central series
    must reach zero), and for the differential d^2 = 0 plus the
    right-derivation rule.

    Each identity is checked exactly, but only on the index tuples where one
    of its terms can be nonzero, in the same ascending order as a full sweep,
    so the first failure reported is the one a full sweep finds.  With
    P(x) = {y : (x, y) bracketed}:
    - antisymmetry and homogeneity visit the bracketed pairs and their
      mirrors;
    - Jacobi visits (i, j, k) for k in P(i), P(j) or P(m), m in [e_i, e_j];
    - d^2 = 0 visits the basis elements with a differential;
    - the derivation rule visits (i, j) for all j if d e_i != 0, else for
      j in P(i) or with d e_j != 0.
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
        self.brackets: dict[tuple[int, int], Coeffs] = {}
        for (i, j), cs in brackets.items():
            cs = {k: Fraction(c) for k, c in cs.items() if c}
            if cs:
                if not (0 <= i < n and 0 <= j < n and all(0 <= k < n for k in cs)):
                    raise ValueError("bracket index out of range")
                self.brackets[(i, j)] = cs
        self.diff: dict[int, Coeffs] = {}
        for j, cs in (diff or {}).items():
            cs = {k: Fraction(c) for k, c in cs.items() if c}
            if cs:
                self.diff[j] = cs
        if validate:
            self.validate()

    @property
    def dim(self) -> int:
        return len(self.basis)

    def bracket_of(self, i: int, j: int) -> Coeffs:
        return self.brackets.get((i, j), {})

    def bracket_elems(self, a: Coeffs, b: Coeffs) -> Coeffs:
        out: Coeffs = {}
        for i, ca in a.items():
            for j, cb in b.items():
                for k, c in self.bracket_of(i, j).items():
                    _acc(out, k, ca * cb * c)
        return out

    def diff_elem(self, a: Coeffs) -> Coeffs:
        out: Coeffs = {}
        for i, ca in a.items():
            for k, c in self.diff.get(i, {}).items():
                _acc(out, k, ca * c)
        return out

    def validate(self) -> None:
        n = self.dim
        deg = self.degrees
        partners: list[list[int]] = [[] for _ in range(n)]
        for i, j in self.brackets:
            partners[i].append(j)
        for i, j in sorted(set(self.brackets) | {(j, i) for i, j in self.brackets}):
            left = self.bracket_of(i, j)
            sign = -ONE if (deg[i] * deg[j]) % 2 == 0 else ONE
            mirrored = {k: sign * c for k, c in self.bracket_of(j, i).items()}
            if left != mirrored:
                raise ValueError(f"antisymmetry fails on pair ({i},{j})")
            for k in left:
                if deg[k] != deg[i] + deg[j]:
                    raise ValueError(f"bracket ({i},{j}) not degree-homogeneous")
        for i in range(n):
            for j in range(n):
                ij = self.bracket_of(i, j)
                ks = set(partners[i]).union(partners[j], *(partners[m] for m in ij))
                sign = ONE if (deg[i] * deg[j]) % 2 == 0 else -ONE
                for k in sorted(ks):
                    lhs = self.bracket_elems({i: ONE}, self.bracket_of(j, k))
                    rhs = self.bracket_elems(ij, {k: ONE})
                    for m, c in self.bracket_elems({j: ONE}, self.bracket_of(i, k)).items():
                        _acc(rhs, m, sign * c)
                    if lhs != rhs:
                        raise ValueError(f"Jacobi fails on triple ({i},{j},{k})")
        self._check_nilpotent()
        for j, cs in self.diff.items():
            for k in cs:
                if deg[k] != deg[j] - 1:
                    raise ValueError(f"diff of basis element {j} has wrong degree")
        for j in sorted(self.diff):
            if self.diff_elem(self.diff[j]):
                raise ValueError(f"d^2 != 0 on basis element {j}")
        for i in range(n):
            js = range(n) if i in self.diff else sorted(self.diff.keys() | partners[i])
            for j in js:
                lhs = self.diff_elem(self.bracket_of(i, j))
                rhs: Coeffs = {}
                sign = ONE if deg[j] % 2 == 0 else -ONE
                for k, c in self.bracket_elems(self.diff.get(i, {}), {j: ONE}).items():
                    _acc(rhs, k, sign * c)
                for k, c in self.bracket_elems({i: ONE}, self.diff.get(j, {})).items():
                    _acc(rhs, k, c)
                if lhs != rhs:
                    raise ValueError(f"derivation rule fails on pair ({i},{j})")

    def _check_nilpotent(self) -> None:
        n = self.dim
        current: list[Coeffs] = [{i: ONE} for i in range(n)]
        for _ in range(n + 1):
            ech = Echelon(n)
            nxt: list[Coeffs] = []
            for vec in current:
                for i in range(n):
                    br = self.bracket_elems({i: ONE}, vec)
                    if br and ech.insert(dict(br)):
                        nxt.append(br)
            if not nxt:
                return
            current = nxt
        raise ValueError("lower central series does not terminate: not nilpotent")


@dataclass
class SullivanData:
    """Semi-quadratic Sullivan data: V-basis with d0 (linear) and d1 (quadratic).

    d0 maps k to {j: c} meaning d0 v_k = sum c v_j; d1 maps k to
    {(i, j): c} over ordered pairs i <= j meaning d1 v_k = sum c v_i v_j.
    Construction checks shape and degrees only; d^2 = 0 and the Sullivan
    filtration are the business of check_sullivan, so that corrupted data
    can be built and then detected.  Every basis degree must be >= 1, which
    keeps each degree of Lambda(V) finite.
    """

    basis: list[tuple[str, int]]
    d0: dict[int, dict[int, Fraction]] = field(default_factory=dict)
    d1: dict[int, dict[tuple[int, int], Fraction]] = field(default_factory=dict)

    def __post_init__(self):
        degs = [d for _, d in self.basis]
        for name, d in self.basis:
            if d < 1:
                raise ValueError(f"basis vector {name} has degree {d}; Sullivan generators need degree >= 1")
        for k, cs in self.d0.items():
            for j, c in cs.items():
                if c and degs[j] != degs[k] + 1:
                    raise ValueError(f"d0 of {self.basis[k][0]} is not degree +1")
        for k, cs in self.d1.items():
            for (i, j), c in cs.items():
                if i > j:
                    raise ValueError("d1 pairs must be ordered i <= j")
                if c and degs[i] + degs[j] != degs[k] + 1:
                    raise ValueError(f"d1 of {self.basis[k][0]} is not degree +1")
                if c and i == j and degs[i] % 2 == 1:
                    raise ValueError("square of an odd basis vector is zero")

    @cached_property
    def degrees(self) -> list[int]:
        return [d for _, d in self.basis]

    @property
    def dim(self) -> int:
        return len(self.basis)


def cochains(L: NilpotentLieData) -> SullivanData:
    """The dual semi-quadratic Sullivan algebra of a nilpotent (d)gl.

    This is where Lie data is validated on its way to a Sullivan algebra:
    Jacobi violations and non-nilpotent data are rejected here, also when
    they were constructed unchecked (as truncation_lie_data does).
    """
    L.validate()
    degs = L.degrees
    basis = [(name, d + 1) for name, d in L.basis]
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
    d0: dict[int, dict[int, Fraction]] = {}
    for j, cs in L.diff.items():
        for k, c in cs.items():
            _acc(d0.setdefault(k, {}), j, c)
    return SullivanData(
        basis,
        {k: v for k, v in d0.items() if v},
        {k: v for k, v in d1.items() if v},
    )


def homotopy_lie(sd: SullivanData) -> NilpotentLieData:
    """The Lie structure dual to the quadratic part (plus dual differential).

    Exactly inverts cochains under the frozen pairing convention, so the
    roundtrip reproduces structure constants on the nose.
    """
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
    return NilpotentLieData(basis, brackets, diff)


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


def sd_diff(sd: SullivanData, p: Poly) -> Poly:
    """d0 + d1 extended to Lambda(V) as a derivation."""
    degs = sd.degrees
    images: dict[int, list[tuple[Monomial, Fraction]]] = {}  # d v_k, built once per call
    out: Poly = {}
    for m, coeff in p.items():
        prefix_sign = 1  # (-1)^{degree left of position t}
        for t, k in enumerate(m):
            image = images.get(k)
            if image is None:
                dv: Poly = {}
                for j, c in sd.d0.get(k, {}).items():
                    _acc(dv, (j,), c)
                for pair, c in sd.d1.get(k, {}).items():
                    _acc(dv, pair, c)
                image = images[k] = list(dv.items())
            head, tail = m[:t], m[t + 1 :]
            for dm, dc in image:
                norm = mono_normalize(head + dm + tail, degs)
                if norm is None:
                    continue
                mm, sign = norm
                c = coeff * dc
                _acc(out, mm, c if sign == prefix_sign else -c)
            if degs[k] % 2:
                prefix_sign = -prefix_sign
    return out


@dataclass
class SullivanReport:
    d_squared_violations: list[tuple[str, Poly]]
    filtration_exhausts: bool
    filtration_levels: list[int]

    @property
    def ok(self) -> bool:
        return not self.d_squared_violations and self.filtration_exhausts


def _pair_index(n: int) -> dict[tuple[int, int], int]:
    """Row positions of the Lambda^2 V coordinates v_i v_j, i <= j < n."""
    pairs = [(i, j) for i in range(n) for j in range(i, n)]
    return {pair: pos for pos, pair in enumerate(pairs)}


def check_sullivan(sd: SullivanData) -> SullivanReport:
    """Verify d^2 = 0 on generators (enough: d^2 is a derivation) and that
    the filtration V_0 = V cap ker d1, V_{n+1} = d1^{-1}(Lambda^2 V_n)
    exhausts V (the Sullivan condition, checked on the quadratic part)."""
    degs = sd.degrees
    violations = []
    for k, (name, _) in enumerate(sd.basis):
        dd = sd_diff(sd, sd_diff(sd, {(k,): ONE}))
        if dd:
            violations.append((name, dd))

    n = sd.dim
    pair_index = _pair_index(n)

    current = Echelon(n)
    levels: list[int] = []
    while True:
        # Lambda^2 of the current subspace, spanned by products of its basis
        wedge = Echelon(len(pair_index))
        rows = [dict(r) for r in current.rows]
        for a in range(len(rows)):
            for b in range(a, len(rows)):
                prod: Vector = {}
                for i, ci in rows[a].items():
                    for j, cj in rows[b].items():
                        if i == j and degs[i] % 2:
                            continue
                        if i <= j:
                            _acc(prod, pair_index[(i, j)], ci * cj)
                        else:
                            sign = -ONE if (degs[i] % 2 and degs[j] % 2) else ONE
                            _acc(prod, pair_index[(j, i)], sign * ci * cj)
                if prod:
                    wedge.insert(prod)
        # V_{n+1} is the full preimage of that span: the kernel of d1 reduced
        # modulo it, as a subspace (not just the qualifying basis vectors)
        entries: dict[tuple[int, int], Fraction] = {}
        for k in range(n):
            img: Vector = {}
            for (i, j), c in sd.d1.get(k, {}).items():
                _acc(img, pair_index[(i, j)], c)
            residual, _ = wedge.reduce(img)
            for row, c in residual.items():
                entries[(row, k)] = c
        nxt = Echelon(n)
        for v in kernel_basis(SparseMatrix(len(pair_index), n, entries)).rows:
            nxt.insert(dict(v))
        levels.append(nxt.rank)
        if nxt.rank == n:
            return SullivanReport(violations, True, levels)
        if nxt.rank == current.rank:
            return SullivanReport(violations, False, levels)
        current = nxt


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


def _rank_of_map(sd: SullivanData, dom: list[Monomial], cod: list[Monomial]) -> int:
    cod_index = {m: i for i, m in enumerate(cod)}
    ech = Echelon(len(cod))
    rank = 0
    for m in dom:
        vec = {cod_index[mm]: c for mm, c in sd_diff(sd, {m: ONE}).items()}
        if ech.insert(vec):
            rank += 1
    return rank


def wedge_homology(sd: SullivanData, max_wedge: int = 3) -> dict[int, dict[int, int]]:
    """dims of H^[k](Lambda V, d1) per cohomological degree, for k <= max_wedge.

    Quadratic case only (d0 = 0): the differential raises wedge degree by
    exactly one, so each H^[k] involves only the finite pieces
    Lambda^{k-1}, Lambda^k, Lambda^{k+1}.  Each block of Lambda^k V in one
    degree is ranked once, as the source of d1; its in-rank is the out-rank
    of the block one wedge and one degree below.
    """
    if any(cs for cs in sd.d0.values()):
        raise ValueError("wedge_homology requires a quadratic Sullivan algebra (d0 = 0)")
    monos = _monomials(sd.degrees, max_wedge + 1, math.inf)
    # d1 maps block (k, n) of Lambda^k V in degree n to block (k+1, n+1);
    # blocks go in ascending (k, n), so the in-rank of (k, n) is known
    result: dict[int, dict[int, int]] = {k: {} for k in range(max_wedge + 1)}
    rank_out: dict[tuple[int, int], int] = {}
    for (k, n), dom in sorted(monos.items()):
        if k > max_wedge:
            break
        rank_out[(k, n)] = _rank_of_map(sd, dom, monos.get((k + 1, n + 1), []))
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
    monos: dict[int, list[Monomial]] = {}
    # every basis degree is >= 1, so no monomial has more letters than degree
    for (_, d), ms in _monomials(degs, max_degree, max_degree).items():
        monos.setdefault(d, []).extend(ms)
    for ms in monos.values():
        ms.sort()  # the domain order feeds elimination
    ranks: dict[int, int] = {}
    left: dict[int, int] = {}
    # the out-rank of the top degree is never needed (its target is cut off)
    for d in range(0, max_degree):
        dom = monos.get(d, [])
        ranks[d] = _rank_of_map(sd, dom, monos.get(d + 1, []))
        left[d] = len(dom) - ranks[d] - ranks.get(d - 1, 0)

    # right table: d0-homology of V cap ker d1, degree by degree
    n = sd.dim
    pair_index = _pair_index(n)
    by_degree: dict[int, list[int]] = {}
    for k in range(n):
        by_degree.setdefault(degs[k], []).append(k)

    ker_vectors: dict[int, list[Vector]] = {}
    for d, ks in sorted(by_degree.items()):
        entries = {}
        for col, k in enumerate(ks):
            for (i, j), c in sd.d1.get(k, {}).items():
                entries[(pair_index[(i, j)], col)] = c
        m = SparseMatrix(len(pair_index), len(ks), entries)
        vecs = []
        for row in kernel_basis(m).rows:
            vecs.append({ks[local]: c for local, c in row.items()})
        ker_vectors[d] = vecs

    def d0_vec(v: Vector) -> Vector:
        out: Vector = {}
        for k, ck in v.items():
            for j, c in sd.d0.get(k, {}).items():
                _acc(out, j, ck * c)
        return out

    rank0: dict[int, int] = {}
    kernel0: dict[int, int] = {}
    for d, vecs in ker_vectors.items():
        ech = Echelon(n)
        kern = 0
        for v in vecs:
            if not ech.insert(d0_vec(v)):
                kern += 1
        rank0[d] = ech.rank
        kernel0[d] = kern
    right: dict[int, int] = {}
    for d in sorted(ker_vectors):
        right[d] = kernel0[d] - rank0.get(d - 1, 0)
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
