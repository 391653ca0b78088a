"""Independent oracles: implemented from scratch, sharing no code paths with
the package internals they check."""

from fractions import Fraction
from itertools import combinations_with_replacement


def mobius(n: int) -> int:
    if n == 1:
        return 1
    out = 1
    p = 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            out = -out
        p += 1
    if n > 1:
        out = -out
    return out


def witt(k: int, w: int) -> int:
    """Number of Lyndon words: dim of the weight-w slice of the free Lie
    algebra on k ungraded generators, (1/w) sum_{d|w} mu(d) k^(w/d)."""
    total = 0
    for d in range(1, w + 1):
        if w % d == 0:
            total += mobius(d) * k ** (w // d)
    assert total % w == 0
    return total // w


def dense_rref(rows: list[list]) -> tuple[list[list[Fraction]], list[int]]:
    """Plain dense Gauss-Jordan elimination over Fraction: the nonzero rows
    of the reduced row-echelon form, and their pivot columns."""
    m = [[Fraction(x) for x in row] for row in rows]
    pivots: list[int] = []
    if not m:
        return [], pivots
    n_rows, n_cols = len(m), len(m[0])
    row = 0
    for col in range(n_cols):
        if row == n_rows:
            break
        piv = next((r for r in range(row, n_rows) if m[r][col]), None)
        if piv is None:
            continue
        m[row], m[piv] = m[piv], m[row]
        inv = 1 / m[row][col]
        m[row] = [x * inv for x in m[row]]
        for r in range(n_rows):
            if r != row and m[r][col]:
                f = m[r][col]
                m[r] = [a - f * b for a, b in zip(m[r], m[row])]
        pivots.append(col)
        row += 1
    return m[:row], pivots


def dense_rank(rows: list[list]) -> int:
    return len(dense_rref(rows)[1])


def dense_null_space(rows: list[list], cols: int) -> tuple[list[list[Fraction]], list[int]]:
    """The reduced row-echelon basis of {v : m v = 0} for the matrix with
    these rows and `cols` columns, with its pivot columns: one null vector
    per free column f of the reduced form of m, e_f - sum_i R[i][f] e_{p_i},
    then Gauss-Jordan on those."""
    reduced, pivots = dense_rref(rows)
    null = []
    for f in range(cols):
        if f in pivots:
            continue
        v = [Fraction(int(j == f)) for j in range(cols)]
        for row, p in zip(reduced, pivots):
            v[p] = -row[f]
        null.append(v)
    return dense_rref(null)


def dense_solve(columns: list[list], target: list) -> list[Fraction] | None:
    """The x with sum_k x[k] columns[k] = target, for independent columns,
    or None when target is outside their span."""
    n = len(columns)
    augmented = [[col[i] for col in columns] + [target[i]] for i in range(len(target))]
    reduced, pivots = dense_rref(augmented)
    if n in pivots:
        return None
    assert pivots == list(range(n)), "columns are dependent"
    return [row[n] for row in reduced]


def super_witt(degrees: list[int], weight: int, degree: int, weights: list[int] | None = None) -> int:
    """dim of the (weight, degree) slice of the free graded Lie algebra on
    generators of the given degrees (and weights, default 1), summed over
    multidegrees alpha of that weight and degree:

        (1/|a|) sum_{d | alpha} mu(d) (-1)^{|a|_1 + |a|_1/d} (|a|/d)! / prod_i (alpha_i/d)!

    with |a| the number of letters and |a|_1 the number of odd-degree ones.
    """
    from math import factorial, gcd, prod

    weights = weights or [1] * len(degrees)
    total = 0

    def multidegrees(i: int, left: int):
        if i == len(weights):
            if left == 0:
                yield ()
            return
        for a in range(left // weights[i] + 1):
            for rest in multidegrees(i + 1, left - a * weights[i]):
                yield (a, *rest)

    for alpha in multidegrees(0, weight):
        if sum(a * g for a, g in zip(alpha, degrees)) != degree:
            continue
        letters = sum(alpha)
        odd = sum(a for a, g in zip(alpha, degrees) if g % 2)
        common = gcd(*alpha)
        s = 0
        for d in range(1, common + 1):
            if common % d == 0:
                terms = factorial(letters // d) // prod(factorial(a // d) for a in alpha)
                s += mobius(d) * (-1) ** (odd + odd // d) * terms
        assert s % letters == 0
        total += s // letters
    return total


def word_commutator(a: dict, da: int, b: dict, db: int) -> dict:
    """[a, b] = ab - (-1)^{|a||b|} ba for word dicts a of degree da and b of
    degree db, in plain integer arithmetic."""
    sign = (-1) ** (da * db)
    out = {}
    for u, cu in a.items():
        for v, cv in b.items():
            out[u + v] = out.get(u + v, 0) + cu * cv
            out[v + u] = out.get(v + u, 0) - sign * cu * cv
    return {w: c for w, c in out.items() if c}


def slice_words(degrees: list[int], weights: list[int], weight: int, degree: int) -> list[tuple[int, ...]]:
    """Every word in generator positions of this weight and degree, in
    lexicographic order."""
    if weight == 0:
        return [()] if degree == 0 else []
    return sorted(
        (i, *rest)
        for i in range(len(degrees))
        if weights[i] <= weight and degrees[i] <= degree
        for rest in slice_words(degrees, weights, weight - weights[i], degree - degrees[i])
    )


def greedy_trees(degrees: list[int], weights: list[int], max_weight: int, max_degree: int) -> dict:
    """The left-normed bracket trees of every (weight, degree) slice of the
    window, chosen greedily in word space.

    The candidates of a slice are its generators, then [g_i, b] for each
    generator g_i in order and each tree b chosen in the slice below by g_i.
    A candidate is kept when its word expansion raises the dense_rank of the
    kept expansions of its multidegree; brackets are multihomogeneous, so
    independence splits by multidegree.  Trees are generator positions i or
    pairs (i, tree), and the result maps (weight, degree) to its trees.
    """
    chosen: dict[tuple[int, int], list] = {}

    def choose(w: int, d: int) -> list:
        if (w, d) not in chosen:
            candidates = [(i, {(i,): 1}) for i in range(len(degrees)) if (weights[i], degrees[i]) == (w, d)]
            for i in range(len(degrees)):
                if weights[i] < w and degrees[i] <= d:
                    candidates += [
                        ((i, tree), word_commutator({(i,): 1}, degrees[i], terms, d - degrees[i]))
                        for tree, terms in choose(w - weights[i], d - degrees[i])
                    ]
            kept, groups = [], {}
            for tree, terms in candidates:
                if not terms:
                    continue
                group = groups.setdefault(tuple(sorted(next(iter(terms)))), [])
                words = sorted({x for t in (*group, terms) for x in t})
                if dense_rank([[t.get(x, 0) for x in words] for t in (*group, terms)]) > len(group):
                    group.append(terms)
                    kept.append((tree, terms))
            chosen[(w, d)] = kept
        return chosen[(w, d)]

    return {
        (w, d): [tree for tree, _ in choose(w, d)]
        for w in range(1, max_weight + 1)
        for d in range(max_degree + 1)
    }


def standard_bracketing(word: tuple[int, ...], degrees: list[int]) -> dict[tuple[int, ...], int] | None:
    """Expansion of the standard bracketing of a super-Lyndon word, None for
    any other word.  Letters are generator positions, compared as integers.

    A Lyndon word (smaller than each proper suffix) of length >= 2 is uv with
    v its longest proper Lyndon suffix, and brackets as [P(u), P(v)]; the
    square ww of an odd-degree Lyndon word w brackets as half of [P(w), P(w)].
    [a, b] = ab - (-1)^{|a||b|} ba in plain integer arithmetic.
    """

    def lyndon(w):
        return all(w < w[j:] for j in range(1, len(w)))

    def deg(w):
        return sum(degrees[g] for g in w)

    def p(w):
        if len(w) == 1:
            return {w: 1}
        j = next(j for j in range(1, len(w)) if lyndon(w[j:]))
        return word_commutator(p(w[:j]), deg(w[:j]), p(w[j:]), deg(w[j:]))

    if lyndon(word):
        return p(word)
    h = len(word) // 2
    w = word[:h]
    if len(word) % 2 or word[h:] != w or not deg(w) % 2 or not lyndon(w):
        return None
    doubled = word_commutator(p(w), deg(w), p(w), deg(w))
    assert all(c % 2 == 0 for c in doubled.values())
    return {v: c // 2 for v, c in doubled.items()}


def plain_products(a: dict, b: dict, max_weight: int, max_degree: int) -> tuple[dict, dict]:
    """The concatenation product a.b and the graded commutator
    a.b - (-1)^{|u||v|} b.a of {word: coefficient} dicts, by a plain Fraction
    double loop over term pairs.  Words are tuples of letters carrying
    .weight and .degree; a pair whose concatenation leaves the window
    (weight <= max_weight, degree <= max_degree) is skipped.  A sum that
    reaches zero is removed and re-inserted at the end if it comes back, so
    the key order of both results is fixed by the loop order alone.
    """

    def size(word):
        return sum(g.weight for g in word), sum(g.degree for g in word)

    def add(out, word, c):
        s = out.get(word, Fraction(0)) + c
        if s:
            out[word] = s
        else:
            out.pop(word, None)

    prod, comm = {}, {}
    for u, cu in a.items():
        wu, du = size(u)
        for v, cv in b.items():
            wv, dv = size(v)
            if wu + wv > max_weight or du + dv > max_degree:
                continue
            c = Fraction(cu) * Fraction(cv)
            add(prod, u + v, c)
            add(comm, u + v, c)
            add(comm, v + u, c if du % 2 and dv % 2 else -c)
    return prod, comm



def plain_mul(a: dict, b: dict, weights: list[int], degrees: list[int],
              max_weight: int, max_degree: int) -> dict:
    """The concatenation product of Fraction dicts keyed by tuples of letter
    indices, letter i of weight weights[i] and degree degrees[i]; words past
    max_weight or max_degree are dropped."""
    out = {}
    for u, cu in a.items():
        for v, cv in b.items():
            w = u + v
            if sum(weights[i] for i in w) <= max_weight and sum(degrees[i] for i in w) <= max_degree:
                out[w] = out.get(w, Fraction(0)) + Fraction(cu) * Fraction(cv)
    return {w: c for w, c in out.items() if c}


def _plain_series(x: dict, coeff, weights: list[int], degrees: list[int],
                  max_weight: int, max_degree: int) -> dict:
    """sum over n >= 1 of coeff(n) x^n, up to n = max_weight: x has no unit
    term and every letter has weight >= 1, so x^n has weight >= n."""
    out, power = {}, {(): Fraction(1)}
    for n in range(1, max_weight + 1):
        power = plain_mul(power, x, weights, degrees, max_weight, max_degree)
        for w, c in power.items():
            out[w] = out.get(w, Fraction(0)) + coeff(n) * c
    return {w: c for w, c in out.items() if c}


def plain_exp(x: dict, weights: list[int], degrees: list[int], max_weight: int, max_degree: int) -> dict:
    """1 + x + x^2/2! + ... in the truncated tensor algebra, for x with no
    unit term (see plain_mul for the keys and the truncation)."""
    fact = [1]
    for n in range(1, max_weight + 1):
        fact.append(fact[-1] * n)
    out = _plain_series(x, lambda n: Fraction(1, fact[n]), weights, degrees, max_weight, max_degree)
    return {(): Fraction(1), **out}


def plain_log(u: dict, weights: list[int], degrees: list[int], max_weight: int, max_degree: int) -> dict:
    """(u-1) - (u-1)^2/2 + (u-1)^3/3 - ..., for u with unit term 1."""
    assert u.get(()) == 1
    x = {w: Fraction(c) for w, c in u.items() if w}
    return _plain_series(x, lambda n: Fraction((-1) ** (n + 1), n), weights, degrees, max_weight, max_degree)


def bareiss_rank(rows: list[list[int]]) -> int:
    """Fraction-free (Bareiss) elimination rank over the integers."""
    m = [list(map(int, row)) for row in rows]
    if not m:
        return 0
    n_rows, n_cols = len(m), len(m[0])
    prev = 1
    row = 0
    for col in range(n_cols):
        piv = None
        for r in range(row, n_rows):
            if m[r][col] != 0:
                piv = r
                break
        if piv is None:
            continue
        m[row], m[piv] = m[piv], m[row]
        for r in range(n_rows):
            if r == row:
                continue
            for c in range(n_cols):
                if c == col:
                    continue
                m[r][c] = (m[row][col] * m[r][c] - m[r][col] * m[row][c]) // prev
            m[r][col] = 0
        prev = m[row][col]
        row += 1
        if row == n_rows:
            break
    return row


def brute_force_lie_dim(degrees: list[int], weight: int, target_degree: int) -> int:
    """Rank of the span of ALL left-normed brackets of the given weight,
    computed with a standalone tensor expansion and dense elimination.

    Generators are identified with indices 0..k-1 carrying the given degrees.
    """
    from itertools import product

    k = len(degrees)

    def word_deg(word):
        return sum(degrees[i] for i in word)

    def commutator(a: dict, b: dict) -> dict:
        out: dict = {}
        for u, cu in a.items():
            for v, cv in b.items():
                c = cu * cv
                out[u + v] = out.get(u + v, 0) + c
                sign = -1 if (word_deg(u) * word_deg(v)) % 2 == 0 else 1
                out[v + u] = out.get(v + u, 0) + sign * c
        return {w: c for w, c in out.items() if c}

    vectors = []
    for tup in product(range(k), repeat=weight):
        el = {(tup[-1],): Fraction(1)}
        for i in reversed(tup[:-1]):
            el = commutator({(i,): Fraction(1)}, el)
        vectors.append(el)
    words = sorted({w for el in vectors for w in el if word_deg(w) == target_degree})
    index = {w: i for i, w in enumerate(words)}
    rows = []
    for el in vectors:
        row = [Fraction(0)] * len(words)
        keep = False
        for w, c in el.items():
            if word_deg(w) == target_degree:
                row[index[w]] = c
                keep = True
        if keep:
            rows.append(row)
    return dense_rank(rows)


def brute_force_homology(gens: list[tuple[int, int]], diffs: dict, max_weight: int,
                         max_degree: int) -> dict:
    """Homology dims of a truncated presentation, via an independent path.

    gens: list of (degree, weight); diffs: generator index -> word-dict
    (tuple of indices -> coefficient).  Chains are spanned by ALL left-normed
    brackets (no basis selection); ranks come from dense elimination, so no
    code is shared with the package's recursive slice bases.
    """
    from itertools import product

    degree = {i: d for i, (d, _) in enumerate(gens)}
    weight = {i: w for i, (_, w) in enumerate(gens)}

    def word_degree(word):
        return sum(degree[i] for i in word)

    def word_weight(word):
        return sum(weight[i] for i in word)

    def truncate(el):
        return {
            w: c
            for w, c in el.items()
            if c and word_weight(w) <= max_weight and word_degree(w) <= max_degree
        }

    def commutator(a, b):
        out = {}
        for u, cu in a.items():
            for v, cv in b.items():
                c = cu * cv
                out[u + v] = out.get(u + v, 0) + c
                sign = -1 if (word_degree(u) * word_degree(v)) % 2 == 0 else 1
                out[v + u] = out.get(v + u, 0) + sign * c
        return truncate(out)

    def derive(el):
        out = {}
        for word, coeff in el.items():
            for t in range(len(word) - 1, -1, -1):
                img = diffs.get(word[t])
                if not img:
                    continue
                sign = -1 if word_degree(word[t + 1 :]) % 2 else 1
                for v, cv in img.items():
                    new = word[:t] + v + word[t + 1 :]
                    out[new] = out.get(new, 0) + coeff * sign * cv
        return truncate(out)

    # spanning sets per degree: all left-normed brackets within the window
    spans = {d: [] for d in range(0, max_degree + 1)}
    frontier = []
    for i in range(len(gens)):
        if weight[i] <= max_weight and degree[i] <= max_degree:
            el = {(i,): Fraction(1)}
            frontier.append(el)
            spans.setdefault(degree[i], []).append(el)
    while frontier:
        new = []
        for el in frontier:
            for i in range(len(gens)):
                br = commutator({(i,): Fraction(1)}, el)
                if br:
                    new.append(br)
                    spans.setdefault(word_degree(next(iter(br))), []).append(br)
        frontier = new

    def span_rank(elements, words=None):
        if not elements:
            return 0
        if words is None:
            words = sorted({w for el in elements for w in el})
        index = {w: i for i, w in enumerate(words)}
        rows = []
        for el in elements:
            row = [Fraction(0)] * len(words)
            for w, c in el.items():
                row[index[w]] = Fraction(c)
            rows.append(row)
        return dense_rank(rows)

    dims = {}
    chain_dim = {d: span_rank(spans.get(d, [])) for d in range(0, max_degree + 1)}
    bnd_rank = {}
    for d in range(0, max_degree + 1):
        images = [derive(el) for el in spans.get(d, [])]
        bnd_rank[d] = span_rank([im for im in images if im])
    for d in range(0, max_degree):
        dims[d] = chain_dim[d] - bnd_rank[d] - bnd_rank.get(d + 1, 0)
    return dims


def dense_lie_violation(degrees: list[int], brackets: dict, diff: dict) -> str | None:
    """The first identity a (d)gl given by structure constants breaks, as the
    message NilpotentLieData.validate raises, or None when it is valid.

    brackets: (i, j) -> {k: c} with [e_i, e_j] = sum c e_k; diff: j -> {k: m}
    with d e_j = sum m e_k.  Every pair and triple of basis indices is
    visited in ascending order, checks in this order: graded antisymmetry
    [e_i, e_j] = -(-1)^{|i||j|} [e_j, e_i] and degree homogeneity per pair,
    graded Jacobi [e_i, [e_j, e_k]] = [[e_i, e_j], e_k] + (-1)^{|i||j|}
    [e_j, [e_i, e_k]] per triple, nilpotency by dense ranks of the lower
    central series, the degree of d, d^2 = 0, and the derivation rule
    d[e_i, e_j] = (-1)^{|j|} [d e_i, e_j] + [e_i, d e_j] per pair.
    """
    n = len(degrees)
    zero = Fraction(0)

    def clean(v: dict) -> dict:
        return {k: Fraction(c) for k, c in v.items() if c}

    br = {pair: clean(v) for pair, v in brackets.items()}
    dd = {j: clean(v) for j, v in diff.items()}

    def add(out: dict, v: dict, scale) -> None:
        for k, c in v.items():
            out[k] = out.get(k, zero) + scale * c

    def bracket(a: dict, b: dict) -> dict:
        out: dict = {}
        for i, ca in a.items():
            for j, cb in b.items():
                add(out, br.get((i, j), {}), ca * cb)
        return {k: c for k, c in out.items() if c}

    def d(a: dict) -> dict:
        out: dict = {}
        for j, c in a.items():
            add(out, dd.get(j, {}), c)
        return {k: c for k, c in out.items() if c}

    def e(i: int) -> dict:
        return {i: Fraction(1)}

    for i in range(n):
        for j in range(n):
            sign = -1 if (degrees[i] * degrees[j]) % 2 == 0 else 1
            mirrored = {k: sign * c for k, c in br.get((j, i), {}).items()}
            if br.get((i, j), {}) != mirrored:
                return f"antisymmetry fails on pair ({i},{j})"
            if any(degrees[k] != degrees[i] + degrees[j] for k in br.get((i, j), {})):
                return f"bracket ({i},{j}) not degree-homogeneous"
    table = [[br.get((i, j), {}) for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(n):
            sign = 1 if (degrees[i] * degrees[j]) % 2 == 0 else -1
            for k in range(n):
                # lhs - rhs, expanded over the structure constants
                diffs: dict = {}
                for m, c in table[j][k].items():
                    add(diffs, table[i][m], c)
                for m, c in table[i][j].items():
                    add(diffs, table[m][k], -c)
                for m, c in table[i][k].items():
                    add(diffs, table[j][m], -sign * c)
                if any(diffs.values()):
                    return f"Jacobi fails on triple ({i},{j},{k})"
    # L^1 = L, L^{c+1} = [L, L^c]; a step that keeps the dimension stays put
    layer = [[Fraction(int(a == b)) for b in range(n)] for a in range(n)]
    while layer:
        spans = []
        for row in layer:
            v = {k: c for k, c in enumerate(row) if c}
            for i in range(n):
                w = bracket(e(i), v)
                if w:
                    spans.append([w.get(k, zero) for k in range(n)])
        nxt = dense_rref(spans)[0]
        if len(nxt) == len(layer):
            return "lower central series does not terminate: not nilpotent"
        layer = nxt
    for j in range(n):
        if any(degrees[k] != degrees[j] - 1 for k in dd.get(j, {})):
            return f"diff of basis element {j} has wrong degree"
    for j in range(n):
        if d(d(e(j))):
            return f"d^2 != 0 on basis element {j}"
    for i in range(n):
        for j in range(n):
            rhs = {}
            add(rhs, bracket(d(e(i)), e(j)), 1 if degrees[j] % 2 == 0 else -1)
            add(rhs, bracket(e(i), d(e(j))), 1)
            if d(bracket(e(i), e(j))) != {k: c for k, c in rhs.items() if c}:
                return f"derivation rule fails on pair ({i},{j})"
    return None


def word_space_boundary(cx, degree: int):
    """The matrix of d: C_degree -> C_{degree-1} of a ChainComplex, assembled
    the word-space way: each chain-basis element is expanded into tensor
    words, differentiated letter by letter with DglPresentation.derive, and
    peeled back into chain coordinates with ChainComplex.coordinates.

    Unlike the other oracles it shares the slices and their coordinates with
    the package; it checks the assembly of boundaries from chain brackets
    by the derivation rule, which it does not use.
    """
    from lietop.freelie import TensorElement
    from lietop.qlinalg import SparseMatrix

    rows = cx.dim(degree - 1) if degree >= 1 else 0
    entries = {}
    col = 0
    for slc in cx.slices(degree):
        for terms in slc.kept_terms:
            if degree >= 1:
                img = cx.p.derive(TensorElement(cx.window, terms))
                if not img.is_zero():
                    for i, c in cx.coordinates(img, degree - 1).items():
                        entries[(i, col)] = c
            col += 1
    return SparseMatrix(rows, col, entries)


def lambda_monomials(degrees: list[int], max_wedge: int, max_degree: float) -> dict[tuple[int, int], list]:
    """Monomials of the free graded-commutative algebra on basis vectors of
    the given degrees, as sorted index tuples keyed by (wedge length,
    degree), for wedge length <= max_wedge and degree <= max_degree: every
    multiset of basis indices, dropping those that repeat an odd-degree index
    (its square is zero)."""
    out: dict[tuple[int, int], list[tuple]] = {}
    for k in range(max_wedge + 1):
        for combo in combinations_with_replacement(range(len(degrees)), k):
            if any(degrees[i] % 2 and combo.count(i) > 1 for i in combo):
                continue
            d = sum(degrees[i] for i in combo)
            if d <= max_degree:
                out.setdefault((k, d), []).append(combo)
    return out


def lambda_monomial_counts(degrees: list[int], max_wedge: int, max_degree: int) -> dict[tuple[int, int], int]:
    """The number of lambda_monomials per (wedge length, degree)."""
    return {key: len(ms) for key, ms in lambda_monomials(degrees, max_wedge, max_degree).items()}


def plain_sd_diff(degrees: list[int], d0: dict, d1: dict, poly: dict) -> dict:
    """d = d0 + d1 applied to poly in the free graded-commutative algebra on
    basis vectors v_0, v_1, ... of the given degrees, by a plain Fraction
    derivation.

    d0: k -> {j: c} and d1: k -> {(i, j): c} give d v_k = sum c v_j +
    sum c v_i v_j; poly maps index tuples (products in that order) to
    coefficients.  d(x_1 ... x_r) = sum_t (-1)^{|x_1| + ... + |x_{t-1}|}
    x_1 ... d(x_t) ... x_r; each product is brought to sorted order with the
    sign (-1)^(number of inverted pairs of odd-degree letters), and vanishes
    when an odd-degree letter repeats.  Returns {sorted tuple: Fraction}
    with zero coefficients dropped.
    """

    def sort_sign(word: tuple) -> tuple[tuple, int] | None:
        odd = [i for i in word if degrees[i] % 2]
        if len(set(odd)) < len(odd):
            return None
        inversions = sum(1 for p in range(len(odd)) for q in range(p + 1, len(odd)) if odd[p] > odd[q])
        return tuple(sorted(word)), -1 if inversions % 2 else 1

    out: dict = {}
    for word, coeff in poly.items():
        passed = 0
        for t, k in enumerate(word):
            image = [((j,), c) for j, c in d0.get(k, {}).items()]
            image += [(pair, c) for pair, c in d1.get(k, {}).items()]
            for letters, c in image:
                sorted_sign = sort_sign(word[:t] + letters + word[t + 1 :])
                if sorted_sign is None:
                    continue
                key, sign = sorted_sign
                out[key] = out.get(key, Fraction(0)) + (-1) ** passed * sign * Fraction(c) * Fraction(coeff)
            passed += degrees[k]
    return {key: c for key, c in out.items() if c}


def derivation_rank(degrees: list[int], d0: dict, d1: dict, dom: list[tuple], cod: list[tuple]) -> int:
    """Rank of plain_sd_diff from the span of the monomials dom to the span
    of the monomials cod, by dense_rank of each connected block of the
    matrix (rows that share a column are in one block; the matrix is the
    direct sum of its blocks).  Asserts that every image lies in span(cod)."""
    cod_set = set(cod)
    rows = [plain_sd_diff(degrees, d0, d1, {m: 1}) for m in dom]
    owner: dict = {}  # union-find over codomain monomials

    def find(x):
        while owner.setdefault(x, x) != x:
            x = owner[x]
        return x

    for row in rows:
        assert set(row) <= cod_set, "an image leaves the codomain"
        keys = list(row)
        for other in keys[1:]:
            owner[find(other)] = find(keys[0])
    blocks: dict = {}
    for row in rows:
        if row:
            blocks.setdefault(find(next(iter(row))), []).append(row)
    rank = 0
    for block in blocks.values():
        columns = sorted({m for row in block for m in row})
        rank += dense_rank([[row.get(m, 0) for m in columns] for row in block])
    return rank


def wedge_filtration(degrees: list[int], d1: dict) -> tuple[list[int], bool]:
    """The Sullivan filtration V_0 = ker d1, V_{n+1} = d1^{-1}(Lambda^2 V_n),
    computed on the V side: (dims of V_0, V_1, ... up to the first that is
    dim V or no larger than the one before, whether it reached dim V).

    d1: k -> {(i, j): c}, i <= j, gives d1 v_k = sum c v_i v_j.  Lambda^2 V_n
    is spanned by the products of pairs of basis vectors of V_n, with
    v_j v_i = (-1)^{|v_i||v_j|} v_i v_j and v_i v_i = 0 for odd v_i.  V_{n+1}
    is read off a Gauss-Jordan elimination of the rows (d1 v_k, e_k) and
    (w, 0), w in Lambda^2 V_n, with the Lambda^2 V columns first: the rows
    whose pivot is an e-column carry a basis of V_{n+1} there.
    """
    n = len(degrees)

    def insert(pivots: dict, v: dict) -> None:
        """Add v to the reduced row basis pivots (column -> row, 1 at its
        column and 0 at every other pivot column)."""
        v = dict(v)
        for col, row in pivots.items():
            c = v.get(col)
            if c:
                for key, x in row.items():
                    v[key] = v.get(key, 0) - c * x
        v = {key: x for key, x in v.items() if x}
        if not v:
            return
        col = min(v)
        row = {key: Fraction(x) / v[col] for key, x in v.items()}
        for other in pivots.values():
            c = other.get(col)
            if c:
                for key, x in row.items():
                    other[key] = other.get(key, 0) - c * x
                    if not other[key]:
                        del other[key]
        pivots[col] = row

    def product(x: dict, y: dict) -> dict:
        out: dict = {}
        for i, a in x.items():
            for j, b in y.items():
                if i == j and degrees[i] % 2:
                    continue
                sign = -1 if i > j and degrees[i] % 2 and degrees[j] % 2 else 1
                key = (0, min(i, j), max(i, j))
                out[key] = out.get(key, 0) + sign * a * b
        return out

    levels: list[int] = []
    squares: list[dict] = []  # a spanning set of Lambda^2 V_n, (0, i, j)-keyed
    while True:
        pivots: dict = {}
        for w in squares:
            insert(pivots, w)
        for k in range(n):
            row = {(0, i, j): c for (i, j), c in d1.get(k, {}).items() if c}
            row[(1, k)] = 1
            insert(pivots, row)
        basis = [{k: c for (_, k), c in row.items()} for col, row in pivots.items() if col[0] == 1]
        levels.append(len(basis))
        if len(basis) == n:
            return levels, True
        if len(basis) == (levels[-2] if len(levels) > 1 else 0):
            return levels, False
        squares = [product(x, y) for a, x in enumerate(basis) for y in basis[a:]]
