"""The free graded Lie algebra on finitely many generators, realized inside
a weight/degree-truncated tensor algebra over Q.

Lie elements are tensor elements certified to lie in the span of left-normed
bracket bases; there is no abstract bracket-tree normal form.  Each
(weight, degree) slice is built in super-Lyndon coordinates: the standard
bracketings of Lyndon words, and squares of odd-degree ones, form a basis,
and candidate basis brackets are computed over it by Lyndon-basis rewriting,
with no tensor words.  The same rewriting is the one bracket of basis
elements: LieSlice.bracket gives [x, b] over a slice's trees for x over
leading words, and module dgl computes chain brackets with it.  The standard
bracketings are triangular against their leading words, so word-space
queries (coordinates, membership) peel off leading words in integers; a
slice builds that peel on its first such query.
All results are relative to a truncation window (max weight, max degree):
arithmetic silently drops terms beyond the window, which makes every
computation here a computation in a finite-dimensional nilpotent quotient.

Monomial order: words compare by weight first, then lexicographically by
generator declaration order.  Basis pivots, representative cycles, and
printed expressions all derive from this order.
"""

from __future__ import annotations

import os
import threading
import weakref
from fractions import Fraction
from functools import cached_property
from math import factorial, lcm

from .qlinalg import Echelon, SubspaceBasis, Vector, add_scaled

ZERO = Fraction(0)
ONE = Fraction(1)


class TermBudgetExceeded(RuntimeError):
    """A tensor element grew past the LIETOP_MAX_TERMS cap."""


_DEFAULT_MAX_TERMS = 5_000_000
_term_limit_cache: int | None = None


def term_limit() -> int:
    """The LIETOP_MAX_TERMS cap, default 5,000,000; a value that is not a
    positive integer is a ValueError."""
    global _term_limit_cache
    if _term_limit_cache is None:
        raw = os.environ.get("LIETOP_MAX_TERMS", "")
        try:
            limit = int(raw) if raw else _DEFAULT_MAX_TERMS
        except ValueError:
            limit = 0
        if limit < 1:
            raise ValueError(f"LIETOP_MAX_TERMS must be a positive integer, got {raw!r}")
        _term_limit_cache = limit
    return _term_limit_cache


def _reset_term_limit_cache() -> None:
    global _term_limit_cache
    _term_limit_cache = None


_generators: weakref.WeakValueDictionary[tuple[str, int, int], Generator] = weakref.WeakValueDictionary()
_generators_lock = threading.Lock()


class Generator:
    """A named generator with a nonnegative homological degree.

    weight is the generator's contribution to the truncation filtration;
    declared generators have the intrinsic weight 1, while cell generators
    of attachment models inherit the weight of their attaching target, so
    that differentials never lower weight and the weight-<=N stages are
    complete finite complexes.

    Generators are interned and immutable: constructing one returns the live
    instance with the same (name, degree, weight), so generators compare
    and hash by identity and words hash as plain tuples.
    """

    __slots__ = ("name", "degree", "weight", "__weakref__")

    def __new__(cls, name: str, degree: int, weight: int = 1):
        if degree < 0:
            raise ValueError(f"generator {name}: degree must be >= 0")
        if weight < 1:
            raise ValueError(f"generator {name}: weight must be >= 1")
        key = (name, degree, weight)
        with _generators_lock:
            g = _generators.get(key)
            if g is None:
                g = _generators[key] = super().__new__(cls)
                for attr, value in zip(cls.__slots__, key):
                    object.__setattr__(g, attr, value)
        return g

    def __setattr__(self, attr, *value):
        raise AttributeError(f"generator {self.name}: {attr} is read-only")

    __delattr__ = __setattr__

    def __reduce__(self):
        return Generator, (self.name, self.degree, self.weight)

    def __repr__(self):
        if self.weight != 1:
            return f"Generator({self.name!r}, {self.degree}, weight={self.weight})"
        return f"Generator({self.name!r}, {self.degree})"


Word = tuple[Generator, ...]


def word_degree(word: Word) -> int:
    return sum(g.degree for g in word)


def word_weight(word: Word) -> int:
    return sum(g.weight for g in word)


class Window:
    """Truncation window: keep words of weight <= max_weight and degree <= max_degree."""

    __slots__ = ("max_weight", "max_degree")

    def __init__(self, max_weight: int, max_degree: int):
        if max_weight < 1:
            raise ValueError("max_weight must be >= 1")
        if max_degree < 0:
            raise ValueError("max_degree must be >= 0")
        self.max_weight = max_weight
        self.max_degree = max_degree

    def admits(self, word: Word) -> bool:
        return word_weight(word) <= self.max_weight and word_degree(word) <= self.max_degree

    def __eq__(self, other):
        return (
            isinstance(other, Window)
            and self.max_weight == other.max_weight
            and self.max_degree == other.max_degree
        )

    def __hash__(self):
        return hash((self.max_weight, self.max_degree))

    def __repr__(self):
        return f"Window({self.max_weight}, {self.max_degree})"


def merge_windows(a: Window, b: Window) -> Window:
    return Window(max(a.max_weight, b.max_weight), max(a.max_degree, b.max_degree))


def _check_same_window(a: Window, b: Window) -> Window:
    if a != b:
        raise ValueError(f"window mismatch: {a} vs {b}")
    return a


class TensorElement:
    """Q-linear combination of generator words in the truncated tensor algebra."""

    __slots__ = ("window", "terms")

    def __init__(self, window: Window, terms: dict[Word, Fraction] | None = None):
        self.window = window
        self.terms: dict[Word, Fraction] = {}
        if terms:
            for word, coeff in terms.items():
                coeff = coeff if type(coeff) is Fraction else Fraction(coeff)
                if coeff and window.admits(word):
                    self.terms[word] = coeff
        _check_term_budget(len(self.terms))

    @classmethod
    def zero(cls, window: Window) -> "TensorElement":
        return cls(window)

    @classmethod
    def unit(cls, window: Window) -> "TensorElement":
        return cls(window, {(): ONE})

    @classmethod
    def generator(cls, g: Generator, window: Window) -> "TensorElement":
        return cls(window, {(g,): ONE})

    def is_zero(self) -> bool:
        return not self.terms

    def unit_coefficient(self) -> Fraction:
        return self.terms.get((), ZERO)

    def letters(self) -> set[Generator]:
        out: set[Generator] = set()
        for word in self.terms:
            out.update(word)
        return out

    def degrees(self) -> set[int]:
        return {word_degree(w) for w in self.terms}

    def is_homogeneous(self) -> bool:
        return len(self.degrees()) <= 1

    def degree(self) -> int | None:
        """The common degree of all terms; None for 0 or inhomogeneous elements."""
        degs = self.degrees()
        return degs.pop() if len(degs) == 1 else None

    def min_weight(self) -> int | None:
        return min((word_weight(w) for w in self.terms), default=None)

    def min_length(self) -> int | None:
        """Shortest word length; length >= 2 means decomposable terms only."""
        return min((len(w) for w in self.terms), default=None)

    def bislices(self) -> dict[tuple[int, int], dict[Word, Fraction]]:
        out: dict[tuple[int, int], dict[Word, Fraction]] = {}
        for w, c in self.terms.items():
            out.setdefault((word_weight(w), word_degree(w)), {})[w] = c
        return out

    def rewindow(self, window: Window) -> "TensorElement":
        return TensorElement(window, self.terms)

    def __add__(self, other: "TensorElement") -> "TensorElement":
        _check_same_window(self.window, other.window)
        out = dict(self.terms)
        for word, coeff in other.terms.items():
            s = out.get(word, ZERO) + coeff
            if s:
                out[word] = s
            else:
                out.pop(word, None)
        return TensorElement(self.window, out)

    def __sub__(self, other: "TensorElement") -> "TensorElement":
        return self + (-1) * other

    def __neg__(self) -> "TensorElement":
        return (-1) * self

    def __rmul__(self, scale) -> "TensorElement":
        scale = Fraction(scale)
        if not scale:
            return TensorElement(self.window)
        return TensorElement(self.window, {w: scale * c for w, c in self.terms.items()})

    def __eq__(self, other):
        return (
            isinstance(other, TensorElement)
            and self.window == other.window
            and self.terms == other.terms
        )

    def __repr__(self):
        return f"TensorElement({format_tensor(self)})"


def _check_term_budget(n: int) -> None:
    if n > term_limit():
        raise TermBudgetExceeded(f"{n} terms exceeds LIETOP_MAX_TERMS={term_limit()}")


def _product_element(window: Window, out: dict[Word, int], den: int) -> TensorElement:
    """out/den as an element; products and series skip every word pair the
    window does not admit, so the words are not checked again."""
    t = TensorElement(window)
    t.terms = {w: Fraction(c, den) for w, c in out.items()}
    _check_term_budget(len(t.terms))
    return t


def _scaled_terms(t: TensorElement) -> tuple[list[tuple[Word, int, int, int]], int]:
    """(word, integer coefficient, weight, degree) for every term of t, with
    the common denominator the integer coefficients are over."""
    den = lcm(*(c.denominator for c in t.terms.values()))
    return [(v, c.numerator * (den // c.denominator), word_weight(v), word_degree(v))
            for v, c in t.terms.items()], den


class _Fitting(dict):
    """room -> the scaled terms whose weight is at most room, in their
    order; each list is built on first use."""

    def __init__(self, terms: list[tuple[Word, int, int, int]]):
        self.terms = terms

    def __missing__(self, room: int) -> list[tuple[Word, int, int, int]]:
        fits = self[room] = [term for term in self.terms if term[2] <= room]
        return fits


def _product_terms(left: list[tuple[Word, int, int, int]], right: _Fitting,
                   window: Window) -> tuple[dict[Word, int], dict[Word, tuple[int, int]]]:
    """The integer product of scaled terms: cu*cv summed into uv over every
    pair of a left term u and a right term v whose concatenation the window
    admits, with the (weight, degree) of every word formed.  A running count
    past LIETOP_MAX_TERMS raises; terms that cancel to zero are removed, so
    only nonzero terms count."""
    max_w, max_d = window.max_weight, window.max_degree
    out: dict[Word, int] = {}
    sizes: dict[Word, tuple[int, int]] = {}
    limit = term_limit()
    for u, cu, wu, du in left:
        room_d = max_d - du
        for v, cv, wv, dv in right[max_w - wu]:
            if dv > room_d:
                continue
            word = u + v
            s = out.get(word)
            if s is None:
                # scaled terms are nonzero, so a new word's product is too
                out[word] = cu * cv
                sizes[word] = (wu + wv, du + dv)
                if len(out) > limit:
                    _check_term_budget(len(out))
            else:
                s += cu * cv
                if s:
                    out[word] = s
                else:
                    del out[word]
    return out, sizes


def mul(a: TensorElement, b: TensorElement) -> TensorElement:
    """Concatenation product, truncated to the window: one pass of the
    integer product loop (_product_terms) over a's and b's integer terms,
    read as a Fraction element over the product of their denominators."""
    window = _check_same_window(a.window, b.window)
    (left, da), (right, db) = _scaled_terms(a), _scaled_terms(b)
    return _product_element(window, _product_terms(left, _Fitting(right), window)[0], da * db)


def commutator(a: TensorElement, b: TensorElement) -> TensorElement:
    """Graded commutator a.b - (-1)^{|u||v|} b.a, per homogeneous word pair."""
    window = _check_same_window(a.window, b.window)
    max_w, max_d = window.max_weight, window.max_degree
    (left, da), (right, db) = _scaled_terms(a), _scaled_terms(b)
    fitting = _Fitting(right)
    out: dict[Word, int] = {}
    for u, cu, wu, du in left:
        room_d = max_d - du
        for v, cv, wv, dv in fitting[max_w - wu]:
            if dv > room_d:
                continue
            c = cu * cv
            word = u + v
            s = out.get(word, 0) + c
            if s:
                out[word] = s
            else:
                out.pop(word, None)
            word = v + u
            s = out.get(word, 0) + (c if du & dv & 1 else -c)
            if s:
                out[word] = s
            else:
                out.pop(word, None)
    return _product_element(window, out, da * db)


class LieElement:
    """A TensorElement certified to lie in the free graded Lie subalgebra."""

    __slots__ = ("value",)

    def __init__(self, value: TensorElement):
        self.value = value

    @property
    def window(self) -> Window:
        return self.value.window

    def is_zero(self) -> bool:
        return self.value.is_zero()

    def degree(self) -> int | None:
        return self.value.degree()

    def rewindow(self, window: Window) -> "LieElement":
        # dropping whole bislices preserves membership in the Lie subspace
        return LieElement(self.value.rewindow(window))

    def __add__(self, other: "LieElement") -> "LieElement":
        return LieElement(self.value + other.value)

    def __sub__(self, other: "LieElement") -> "LieElement":
        return LieElement(self.value - other.value)

    def __neg__(self) -> "LieElement":
        return LieElement(-self.value)

    def __rmul__(self, scale) -> "LieElement":
        return LieElement(Fraction(scale) * self.value)

    def __eq__(self, other):
        return isinstance(other, LieElement) and self.value == other.value

    def __repr__(self):
        return f"LieElement({format_tensor(self.value)})"


def generator_element(g: Generator, window: Window) -> LieElement:
    return LieElement(TensorElement.generator(g, window))


def bracket(a: LieElement, b: LieElement) -> LieElement:
    """Graded bracket of certified elements; certified by construction."""
    return LieElement(commutator(a.value, b.value))


def ad_power(x: LieElement, n: int, y: LieElement) -> LieElement:
    """[x,[x,...[x,y]...]] with n nested brackets."""
    if n < 0:
        raise ValueError("n must be >= 0")
    out = y
    for _ in range(n):
        out = bracket(x, out)
    return out


# ---------------------------------------------------------------------------
# Lie bislices: left-normed bracket bases of the (weight, degree) slices.
# ---------------------------------------------------------------------------

Tree = object  # int (generator index) or (int, Tree)
Key = tuple[int, ...]  # a word as generator positions, compared lexicographically


class LieSlice:
    """Basis data for one (weight, degree) slice of the free graded Lie algebra.

    gens       -- the generators, less trailing ones that cannot occur in the
                  slice (lie_slice drops them; positions are unchanged)
    lead       -- the leading words (as generator positions) in monomial order
    lead_index -- position of each leading word in lead
    trees      -- left-normed bracket trees of the accepted basis elements
    accepted   -- (i, k) -> tree index of the accepted candidate [g_i, b_k],
                  b_k the k-th tree of the slice below by g_i, or (i, None)
                  -> tree index of the generator g_i; entries in tree order
    coords     -- super-Lyndon coordinates of the trees, integer vectors
                  over lead
    tracked    -- echelon over super-Lyndon coordinates, tracking
                  bracket-basis coords (its acceptance order is tree order)

    Built on first use, by word-space queries (coordinates, contains, basis):
    words      -- all tensor words of this weight and degree, in monomial order
    word_index -- position of each word in words
    peel       -- tracked echelon over word indices; its k-th row, keyed by
                  the index of the k-th leading word, is the integer
                  expansion of that word's standard bracketing
    kept_terms -- raw term dicts of the basis elements (windowless, integral)

    The leading words are the Lyndon words (generators compared in
    declaration order) and the squares ww of odd-degree Lyndon words w.  Their
    standard bracketings P (half the bracket, for a square) form a basis, over
    which each candidate [g_i, b_k] is rewritten (_product) and accepted by
    independence.  P(w) is w plus words later in the monomial order, so tensor
    terms get their coordinates by peeling off leading words.
    """

    def __init__(self, gens: tuple[Generator, ...], weight: int, degree: int):
        self.gens = gens
        self.weight = weight
        self.degree = degree
        self.lead = _leading_words(gens, weight, degree)
        self.lead_index = {w: i for i, w in enumerate(self.lead)}
        self.trees: list[Tree] = []
        self.accepted: dict[tuple[int, int | None], int] = {}
        self.coords: list[dict[int, int]] = []
        self.tracked = Echelon(len(self.lead), track=True)
        # [P(u), P(v)] over lead, keyed by (u, v); entries are added whole
        self._products: dict[tuple[Key, Key], dict[int, int]] = {}
        # (weight, degree, split, square) of the words that the products read
        self._shapes: dict[Key, tuple[int, int, int, bool]] = {}

    @property
    def dim(self) -> int:
        return len(self.trees)

    def _accept(self, key: tuple[int, int | None], tree: Tree, vec: dict[int, int]) -> None:
        if self.tracked.insert(vec):
            self.accepted[key] = len(self.trees)
            self.trees.append(tree)
            self.coords.append(vec)

    def bracket(self, x: dict[Key, int], sub: "LieSlice", k: int) -> Vector:
        """Coordinates of [x, b_k] over this slice's trees, where b_k is the
        k-th tree of sub and x = sum_u x[u] P(u) is given over the leading
        words u of one slice, whose weight and degree add up with sub's to
        this slice's."""
        out: dict[int, int] = {}
        for u, c in x.items():
            add_scaled(out, _bracket_sum(self, u, sub, sub.coords[k]), c)
        return self.tracked.coordinates(out)

    @cached_property
    def words(self) -> list[Word]:
        return _slice_words(self.gens, self.weight, self.degree)

    @cached_property
    def word_index(self) -> dict[Word, int]:
        return {w: i for i, w in enumerate(self.words)}

    @cached_property
    def peel(self) -> Echelon:
        # Each expansion has coefficient 1 at its smallest word and, inserted
        # in word order, meets no earlier pivot, so it is stored unchanged.
        index = self.word_index
        peel = Echelon(len(self.words), track=True)
        for u in self.lead:
            peel.insert({index[w]: c for w, c in self._expansion(u).items()})
        return peel

    @cached_property
    def kept_terms(self) -> list[dict[Word, int]]:
        rows, words = self.peel._rows, self.words
        expansions = [rows[p] for p in sorted(rows)]
        out = []
        for vec in self.coords:
            terms: dict[int, int] = {}
            for t, c in vec.items():
                for j, e in expansions[t].items():
                    terms[j] = terms.get(j, 0) + c * e
            out.append({words[j]: e for j, e in terms.items() if e})
        return out

    def _expansion(self, u: Key) -> dict[Word, int]:
        """The tensor expansion of P(u), u a leading word: [P(u1), P(u2)] for
        a Lyndon word u1u2 split as _shape says, half of [P(w), P(w)] for a square
        ww.  A factor's expansion is the peel row of its word in its slice."""
        gens = self.gens
        if len(u) == 1:
            return {(gens[u[0]],): 1}

        def factor(x: Key) -> tuple[dict[Word, int], int]:
            sub = lie_slice(gens, *_shape(self, x)[:2])
            row = sub.peel._rows[sub.word_index[tuple(gens[i] for i in x)]]
            return {sub.words[j]: c for j, c in row.items()}, sub.degree

        _, _, j, square = _shape(self, u)
        if square:
            w = factor(u[: len(u) // 2])
            return {x: c // 2 for x, c in _word_commutator(*w, *w).items()}
        return _word_commutator(*factor(u[:j]), *factor(u[j:]))

    def coordinates(self, terms: dict[Word, Fraction]) -> Vector | None:
        """Coordinates over the bracket basis, or None if not in the slice
        span: the peel leaves a word that leads nothing."""
        index = self.word_index
        vec = self.peel.coordinates({index[w]: c for w, c in terms.items()})
        return None if vec is None else self.tracked.coordinates(vec)

    def contains(self, terms: dict[Word, Fraction]) -> bool:
        return self.coordinates(terms) is not None

    def basis(self) -> SubspaceBasis:
        """Reduced echelon basis of the slice in word coordinates."""
        return self.peel.basis()


def _slice_words(gens: tuple[Generator, ...], weight: int, degree: int) -> list[Word]:
    if weight == 0:
        return [()] if degree == 0 else []
    out: list[Word] = []

    def rec(prefix: Word, wleft: int, dleft: int) -> None:
        if wleft == 0:
            if dleft == 0:
                out.append(prefix)
            return
        for g in gens:
            if g.weight <= wleft and g.degree <= dleft:
                rec(prefix + (g,), wleft - g.weight, dleft - g.degree)

    rec((), weight, degree)
    return out


def _leading_words(gens: tuple[Generator, ...], weight: int, degree: int) -> list[Key]:
    """The Lyndon words of this weight and degree, and the squares of
    odd-degree Lyndon words, in lexicographic order: depth-first generation
    of prenecklaces (Fredricksen-Kessler-Maiorana).  A prefix a of length t
    whose longest Lyndon prefix has length p extends by a[t-p], keeping p, or
    by a larger letter, which makes it Lyndon; it is Lyndon when p = t and the
    square of a Lyndon word when t = 2p.  A prefix stops early when no letters
    of the weight left can make up the degree left."""
    out: list[Key] = []
    a: list[int] = []
    top = max((g.degree for g in gens), default=0)

    def rec(p: int, wleft: int, dleft: int) -> None:
        if dleft > wleft * top:
            return
        t = len(a)
        if wleft == 0:
            if dleft == 0 and (p == t or (t == 2 * p and degree // 2 % 2)):
                out.append(tuple(a))
            return
        start = a[t - p] if t else 0
        for j in range(start, len(gens)):
            g = gens[j]
            if g.weight <= wleft and g.degree <= dleft:
                a.append(j)
                rec(p if t and j == start else t + 1, wleft - g.weight, dleft - g.degree)
                a.pop()

    rec(0, weight, degree)
    return out


def slice_dim(gens: tuple[Generator, ...] | list[Generator], weight: int, degree: int) -> int:
    """dim of the (weight, degree) slice of the free graded Lie algebra on
    gens, counted as its leading words without building the slice: lie_slice
    raises unless its basis has exactly this many trees."""
    if weight < 1:
        raise ValueError("weight must be >= 1")
    return len(_leading_words(tuple(gens), weight, degree))


def _shape(slc: LieSlice, u: Key) -> tuple[int, int, int, bool]:
    """(weight, degree, split, square) of the word u, memoised in slc: split
    is where the standard factorization of a Lyndon word u splits it, before
    its lexicographically smallest proper suffix (0 for a letter), and square
    says whether u is ww, which no Lyndon word is."""
    shape = slc._shapes.get(u)
    if shape is None:
        gens, h = slc.gens, len(u) // 2
        shape = slc._shapes[u] = (
            sum(gens[i].weight for i in u), sum(gens[i].degree for i in u),
            min(range(1, len(u)), key=lambda j: u[j:], default=0), u[:h] == u[h:])
    return shape


def _product(slc: LieSlice, u: Key, v: Key) -> dict[int, int]:
    """[P(u), P(v)] over the leading words of slc, the slice of uv, for
    leading words u and v: Lyndon-basis rewriting (Reutenauer, Free Lie
    Algebras, 1993, ch. 4-5) with Koszul signs, memoised in slc."""
    out = slc._products.get((u, v))
    if out is not None:
        return out
    _, du, j, square = _shape(slc, u)
    dv = slc.degree - du
    if u == v:
        out = {slc.lead_index[u + u]: 2} if du % 2 else {}
    elif square:
        # [P(ww), x] = [P(w), [P(w), x]] for odd w, and [[w,w],w] = 0
        w = u[: len(u) // 2]
        out = {} if v == w else _nested(slc, w, w, v)
    elif _shape(slc, v)[3] or u > v:
        sign = 1 if du * dv % 2 else -1
        out = {s: sign * c for s, c in _product(slc, v, u).items()}
    elif not j or u[j:] >= v:
        # uv is Lyndon, with standard factorization (u, v)
        out = {slc.lead_index[u + v]: 1}
    else:
        # Jacobi on u = u1u2: [[u1,u2],v] = [u1,[u2,v]] - (-1)^{|u1||u2|} [u2,[u1,v]]
        u1, u2 = u[:j], u[j:]
        out = _nested(slc, u1, u2, v)
        d1 = _shape(slc, u1)[1]
        sign = 1 if d1 * (du - d1) % 2 else -1
        for s, c in _nested(slc, u2, u1, v).items():
            out[s] = out.get(s, 0) + sign * c
        out = {s: c for s, c in out.items() if c}
    slc._products[(u, v)] = out
    return out


def _nested(slc: LieSlice, x: Key, y: Key, v: Key) -> dict[int, int]:
    """[P(x), [P(y), P(v)]] over the leading words of slc."""
    wx, dx = _shape(slc, x)[:2]
    sub = lie_slice(slc.gens, slc.weight - wx, slc.degree - dx)
    return _bracket_sum(slc, x, sub, _product(sub, y, v))


def _bracket_sum(slc: LieSlice, x: Key, sub: LieSlice, vec: dict[int, int]) -> dict[int, int]:
    """[P(x), sum_t vec[t] P(t)] over slc, for vec over the leading words of sub."""
    out: dict[int, int] = {}
    lead = sub.lead
    for t, c in vec.items():
        for s, e in _product(slc, x, lead[t]).items():
            out[s] = out.get(s, 0) + c * e
    return {s: e for s, e in out.items() if e}


def _word_commutator(a: dict[Word, int], da: int, b: dict[Word, int], db: int) -> dict[Word, int]:
    """[a, b] for integral raw terms a of degree da and b of degree db (no window)."""
    out: dict[Word, int] = {}
    sign = 1 if da & db & 1 else -1
    for u, cu in a.items():
        for v, cv in b.items():
            c = cu * cv
            w = u + v
            out[w] = out.get(w, 0) + c
            w = v + u
            out[w] = out.get(w, 0) + sign * c
    for w in [w for w, c in out.items() if not c]:
        del out[w]
    return out


_slice_cache: dict[tuple[tuple[Generator, ...], int, int], LieSlice] = {}
_slice_lock = threading.Lock()


def lie_slice(gens: tuple[Generator, ...] | list[Generator], weight: int, degree: int) -> LieSlice:
    """The (weight, degree) Lie slice, built recursively and memoized.

    Trailing generators of too high a weight or degree cannot occur in the
    slice, and dropping them shifts no position, so they are dropped before
    the slice is built: a presentation and one that appends cells to it share
    every slice without a cell letter (L(X) and T(Y) meet in L(Y)).  Safe for
    concurrent readers; inserts are serialized by a module lock.
    """
    gens = tuple(gens)
    if weight < 1:
        raise ValueError("weight must be >= 1")
    key = (gens, weight, degree)
    cached = _slice_cache.get(key)
    if cached is not None:
        return cached
    # trailing letters that cannot occur here leave every position as it is
    n = len(gens)
    while n and (gens[n - 1].weight > weight or gens[n - 1].degree > degree):
        n -= 1
    if n < len(gens):
        return lie_slice(gens[:n], weight, degree)
    subs = [
        (i, lie_slice(gens, weight - g.weight, degree - g.degree))
        for i, g in enumerate(gens)
        if g.weight < weight and g.degree <= degree
    ]
    slc = LieSlice(gens, weight, degree)
    for i, g in enumerate(gens):
        if g.weight == weight and g.degree == degree:
            slc._accept((i, None), i, {slc.lead_index[(i,)]: 1})
    # candidates past a full slice are all dependent, so none is offered
    for i, sub in subs:
        for k, tree_b in enumerate(sub.trees):
            if slc.dim == len(slc.lead):
                break
            slc._accept((i, k), (i, tree_b), _bracket_sum(slc, (i,), sub, sub.coords[k]))
    if slc.dim != slc.tracked.ambient:
        raise RuntimeError(f"slice ({weight}, {degree}) has {slc.dim} basis trees for "
                           f"{slc.tracked.ambient} leading words; this is a bug")
    with _slice_lock:
        return _slice_cache.setdefault(key, slc)


def lie_basis(gens, weight: int, degree: int) -> SubspaceBasis:
    """Echelon basis, in word coordinates, of the (weight, degree) Lie slice."""
    return lie_slice(gens, weight, degree).basis()


def certify_lie(t: TensorElement, gens=None) -> LieElement | None:
    """Certified element iff every bislice of t lies in the Lie subspace.

    Membership is decided over the letters t uses, kept in the order of
    gens: for Y a subset of X, L(X) and T(Y) meet in L(Y) (Reutenauer, Free
    Lie Algebras, 1993), so the verdict is the one over all of gens, and the
    slices over fewer letters are far smaller.
    """
    if t.unit_coefficient():
        return None
    used = t.letters()
    if gens is None:
        gens = tuple(sorted(used, key=lambda g: (g.name, g.degree, g.weight)))
    else:
        missing = used - set(gens)
        if missing:
            names = ", ".join(sorted(g.name for g in missing))
            raise ValueError(f"element mentions generators outside the given set: {names}")
        gens = tuple(g for g in gens if g in used)
    for (w, d), terms in t.bislices().items():
        if not lie_slice(gens, w, d).contains(terms):
            return None
    return LieElement(t)


# ---------------------------------------------------------------------------
# exp / log / BCH / logs of free-group words
# ---------------------------------------------------------------------------


def exp(x: TensorElement) -> TensorElement:
    """Truncated exponential series 1 + x + x^2/2! + ..., summed in integers
    (_series); x must have zero unit coefficient."""
    if x.unit_coefficient():
        raise ValueError("exp requires zero unit coefficient")
    terms, den = _scaled_terms(x)
    return _series(x.window, terms, den, lambda n: Fraction(1, factorial(n)), {(): 1})


def log(u: TensorElement) -> TensorElement:
    """Truncated logarithm x - x^2/2 + x^3/3 - ... of u = 1 + x, summed in
    integers (_series); u must have unit coefficient exactly 1."""
    if u.unit_coefficient() != 1:
        raise ValueError("log requires unit coefficient 1")
    terms, den = _scaled_terms(u)
    x = [term for term in terms if term[0] != ()]
    return _series(u.window, x, den, lambda n: Fraction((-1) ** (n + 1), n), {})


def _series(window: Window, x: list[tuple[Word, int, int, int]], den: int, coeff,
            out: dict[Word, int]) -> TensorElement:
    """out + sum_{n>=1} coeff(n) x^n, for the scaled terms x over den and
    integer terms out.  Each power x^n stays an integer dict over den^n, made
    from x^(n-1) by the product loop of mul; the sum stays an integer dict
    over one denominator, rescaled by an lcm only when a term's denominator
    does not divide it, and its size is checked after each addition.  x has
    weight >= 1, so the series stops at the window's max weight, or earlier
    when a power vanishes."""
    fitting = _Fitting(x)
    power: list[tuple[Word, int, int, int]] = [((), 1, 0, 0)]
    power_den = sum_den = 1
    for n in range(1, window.max_weight + 1):
        terms, sizes = _product_terms(power, fitting, window)
        if not terms:
            break
        c = coeff(n)
        power_den *= den
        term_den = c.denominator * power_den
        if sum_den % term_den:
            scale = lcm(sum_den, term_den) // sum_den
            out = {w: e * scale for w, e in out.items()}
            sum_den *= scale
        scale = c.numerator * (sum_den // term_den)
        for w, e in terms.items():
            s = out.get(w, 0) + scale * e
            if s:
                out[w] = s
            else:
                del out[w]
        _check_term_budget(len(out))
        power = [(w, e, *sizes[w]) for w, e in terms.items()]
    return _product_element(window, out, sum_den)


def bch(x: LieElement, y: LieElement) -> LieElement:
    """log(exp x . exp y), computed by direct series composition."""
    _check_same_window(x.window, y.window)
    for el in (x, y):
        if any(d % 2 for d in el.value.degrees()):
            raise ValueError("bch requires even-degree (e.g. degree-0) arguments")
    z = log(mul(exp(x.value), exp(y.value)))
    certified = certify_lie(z)
    if certified is None:
        raise RuntimeError("BCH result failed Lie certification; this is a bug")
    return certified


def check_group_word(word: list[tuple[Generator, int]], gens) -> None:
    """Raises ValueError unless word is a sequence of (generator, exponent)
    over degree-0 generators of gens, with exponents +1 or -1."""
    known = set(gens)
    for g, e in word:
        if g not in known:
            raise ValueError(f"unknown generator {g.name} in group word")
        if g.degree != 0:
            raise ValueError(f"group words require degree-0 generators, got {g.name}")
        if e not in (1, -1):
            raise ValueError("group word exponents must be +1 or -1")


def log_group_word(
    word: list[tuple[Generator, int]],
    gens,
    window: Window,
) -> LieElement:
    """log of a product of exp(+-g) over degree-0 generators.

    word is a sequence of (generator, exponent) with exponent +1 or -1;
    a group generator g maps to log(exp g) = g.
    """
    gens = tuple(gens)
    check_group_word(word, gens)
    out = TensorElement.unit(window)
    for g, e in word:
        out = mul(out, exp(Fraction(e) * TensorElement.generator(g, window)))
    certified = certify_lie(log(out), gens)
    if certified is None:
        raise RuntimeError("log of a group word failed Lie certification; this is a bug")
    return certified


# ---------------------------------------------------------------------------
# Formatting (bracket expressions under the global monomial order)
# ---------------------------------------------------------------------------


def format_tensor(t: TensorElement) -> str:
    """Words rendered as dotted letter strings; debugging aid."""
    if t.is_zero():
        return "0"
    items = sorted(t.terms.items(), key=lambda kv: (len(kv[0]), [g.name for g in kv[0]]))
    parts = []
    for word, coeff in items:
        body = ".".join(g.name for g in word) if word else "1"
        parts.append((coeff, body))
    return _join_terms(parts)


def tree_str(tree: Tree, gens: tuple[Generator, ...]) -> str:
    if isinstance(tree, int):
        return gens[tree].name
    i, sub = tree
    return f"[{gens[i].name},{tree_str(sub, gens)}]"


def format_lie(el: LieElement, gens) -> str:
    """Render a certified element over the left-normed bracket bases of the
    slices on gens.

    The output re-parses (module cli) to the same TensorElement.
    """
    t = el.value if isinstance(el, LieElement) else el
    gens = tuple(gens)
    parts: list[tuple[Fraction, Tree]] = []
    for (w, d), terms in sorted(t.bislices().items()):
        slc = lie_slice(gens, w, d)
        coords = slc.coordinates(terms)
        if coords is None:
            raise ValueError("element is not in the Lie subspace; cannot format")
        parts.extend((coords[k], slc.trees[k]) for k in sorted(coords))
    return format_trees(parts, gens)


def format_trees(parts: list[tuple[Fraction, Tree]], gens: tuple[Generator, ...]) -> str:
    """Render (coefficient, basis tree) pairs in order, as format_lie does; none render as 0."""
    return _join_terms([(c, tree_str(tree, gens)) for c, tree in parts]) or "0"


def _join_terms(parts: list[tuple[Fraction, str]]) -> str:
    out = []
    for coeff, body in parts:
        sign = "-" if coeff < 0 else "+"
        mag = abs(coeff)
        piece = body if mag == 1 and body != "1" else (str(mag) if body == "1" else f"{mag} {body}")
        if not out:
            out.append(piece if sign == "+" else f"-{piece}")
        else:
            out.append(f" {sign} {piece}")
    return "".join(out)
