"""The free graded Lie algebra on finitely many generators, realized inside
a weight/degree-truncated tensor algebra over Q.

Lie elements are tensor elements certified to lie in the span of left-normed
bracket bases; there is no abstract bracket-tree normal form.  Each
(weight, degree) slice is eliminated in super-Lyndon coordinates: the
standard bracketings of Lyndon words, and squares of odd-degree ones, are
triangular against their leading words, so coordinates and membership come
from peeling off leading words in integers.  All results
are relative to a truncation window (max weight, max degree): arithmetic
silently drops terms beyond the window, which makes every computation here a
computation in a finite-dimensional nilpotent quotient.

Monomial order: words compare by weight first, then lexicographically by
generator declaration order.  Basis pivots, representative cycles, and
printed expressions all derive from this order.
"""

from __future__ import annotations

import os
import threading
import weakref
from fractions import Fraction
from math import lcm

from .qlinalg import Echelon, SubspaceBasis, Vector

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

_word_degree_memo: dict[Word, int] = {}
_word_weight_memo: dict[Word, int] = {}


def word_degree(word: Word) -> int:
    d = _word_degree_memo.get(word)
    if d is None:
        d = sum(g.degree for g in word)
        _word_degree_memo[word] = d
    return d


def word_weight(word: Word) -> int:
    w = _word_weight_memo.get(word)
    if w is None:
        w = sum(g.weight for g in word)
        _word_weight_memo[word] = w
    return w


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

    def __le__(self, other):
        return self.max_weight <= other.max_weight and self.max_degree <= other.max_degree

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
        if len(self.terms) > term_limit():
            raise TermBudgetExceeded(
                f"{len(self.terms)} terms exceeds LIETOP_MAX_TERMS={term_limit()}"
            )

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


def _scaled_terms(t: TensorElement) -> tuple[list[tuple[Word, int, int, int]], int]:
    """(word, integer coefficient, weight, degree) for every term of t, with
    the common denominator the integer coefficients are over."""
    den = lcm(*(c.denominator for c in t.terms.values()))
    return [(v, c.numerator * (den // c.denominator), word_weight(v), word_degree(v))
            for v, c in t.terms.items()], den


def mul(a: TensorElement, b: TensorElement) -> TensorElement:
    """Concatenation product, truncated to the window."""
    window = _check_same_window(a.window, b.window)
    max_w, max_d = window.max_weight, window.max_degree
    (left, da), (right, db) = _scaled_terms(a), _scaled_terms(b)
    out: dict[Word, int] = {}
    limit = term_limit()
    for u, cu, wu, du in left:
        room_w, room_d = max_w - wu, max_d - du
        for v, cv, wv, dv in right:
            if wv > room_w or dv > room_d:
                continue
            word = u + v
            s = out.get(word, 0) + cu * cv
            if s:
                out[word] = s
                if len(out) > limit:
                    raise TermBudgetExceeded(
                        f"{len(out)} terms exceeds LIETOP_MAX_TERMS={limit}"
                    )
            else:
                out.pop(word, None)
    return TensorElement(window, {w: Fraction(c, da * db) for w, c in out.items()})


def commutator(a: TensorElement, b: TensorElement) -> TensorElement:
    """Graded commutator a.b - (-1)^{|u||v|} b.a, per homogeneous word pair."""
    window = _check_same_window(a.window, b.window)
    max_w, max_d = window.max_weight, window.max_degree
    (left, da), (right, db) = _scaled_terms(a), _scaled_terms(b)
    out: dict[Word, int] = {}
    for u, cu, wu, du in left:
        room_w, room_d = max_w - wu, max_d - du
        for v, cv, wv, dv in right:
            if wv > room_w or dv > room_d:
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
    return TensorElement(window, {w: Fraction(c, da * db) for w, c in out.items()})


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


class LieSlice:
    """Basis data for one (weight, degree) slice of the free graded Lie algebra.

    words      -- all tensor words of this weight and degree, in monomial order
    trees      -- left-normed bracket trees of the accepted basis elements
    accepted   -- (i, k) -> tree index of the accepted candidate [g_i, b_k],
                  b_k the k-th tree of the slice below by g_i, or (i, None)
                  -> tree index of the generator g_i; entries in tree order
    kept_terms -- raw term dicts of those elements (windowless, integral)
    peel       -- tracked echelon over word indices; its k-th row, keyed by
                  the index of the k-th leading word, is the integer
                  expansion of that word's standard bracketing
    tracked    -- echelon over super-Lyndon coordinates, tracking
                  bracket-basis coords (its acceptance order is tree order)

    The slice is eliminated in super-Lyndon coordinates: its leading words
    are the Lyndon words (generators compared in declaration order) and the
    squares ww of odd-degree Lyndon words w.  The standard bracketing of a
    leading word (half the bracket, for a square) expands to that word with
    coefficient 1 plus words later in the monomial order, so an element's
    coordinates are read off by peeling leading words in integers (vector).
    The left-normed trees are accepted by independence of their coordinates,
    which does not depend on the coordinate system.
    """

    def __init__(self, gens: tuple[Generator, ...], weight: int, degree: int):
        self.gens = gens
        self.weight = weight
        self.degree = degree
        self.words = _slice_words(gens, weight, degree)
        self.word_index = {w: i for i, w in enumerate(self.words)}
        self.trees: list[Tree] = []
        self.accepted: dict[tuple[int, int | None], int] = {}
        self.kept_terms: list[dict[Word, int]] = []
        # Each expansion has coefficient 1 at its smallest word and, inserted
        # in word order, meets no earlier pivot, so it is stored unchanged.
        self.peel = Echelon(len(self.words), track=True)
        pos = {g: i for i, g in enumerate(gens)}
        for word in self.words:
            expansion = self._standard_expansion(word, [pos[g] for g in word])
            if expansion is not None:
                self.peel.insert({self.word_index[w]: c for w, c in expansion.items()})
        self.tracked = Echelon(self.peel.rank, track=True)

    def _standard_expansion(self, word: Word, key: list[int]) -> dict[Word, int] | None:
        """The expansion P(word) of a leading word, None for any other word.

        key is the word as generator positions.  A Lyndon word uv, with v its
        lexicographically smallest proper suffix, expands as [P(u), P(v)]; a
        square ww of an odd-degree Lyndon word w as half of [P(w), P(w)].
        """
        if _is_lyndon(key):
            if len(word) == 1:
                return {word: 1}
            j = min(range(1, len(key)), key=lambda j: key[j:])
            u, v = word[:j], word[j:]
            return _word_commutator(self._factor(u), word_degree(u), self._factor(v), word_degree(v))
        h = len(word) // 2
        u = word[:h]
        if len(word) % 2 == 0 and word[h:] == u and word_degree(u) % 2 and _is_lyndon(key[:h]):
            pu, du = self._factor(u), word_degree(u)
            return {w: c // 2 for w, c in _word_commutator(pu, du, pu, du).items()}
        return None

    def _factor(self, u: Word) -> dict[Word, int]:
        # a factor of a leading word lives in a slice that lie_slice built on
        # its way down to this one, where its expansion is the peel row
        # keyed by its own word
        sub = _slice_cache[(self.gens, word_weight(u), word_degree(u))]
        words = sub.words
        return {words[j]: c for j, c in sub.peel._rows[sub.word_index[u]].items()}

    @property
    def dim(self) -> int:
        return len(self.trees)

    def vector(self, terms: dict[Word, Fraction | int]) -> Vector | None:
        """Super-Lyndon coordinates of slice-homogeneous terms, or None if
        they are not a Lie element (a word that leads nothing is left)."""
        index = self.word_index
        return self.peel.coordinates({index[w]: c for w, c in terms.items()})

    def _try_insert(self, key: tuple[int, int | None], tree: Tree, terms: dict[Word, int]) -> None:
        vec = self.vector(terms)
        if vec is None:
            raise RuntimeError("a bracket left the Lie slice; this is a bug")
        if vec and self.tracked.insert(vec):
            self.accepted[key] = len(self.trees)
            self.trees.append(tree)
            self.kept_terms.append(terms)

    def coordinates(self, terms: dict[Word, Fraction]) -> Vector | None:
        """Coordinates over the bracket basis, or None if not in the slice span."""
        vec = self.vector(terms)
        if vec is None:
            return None
        return self.tracked.coordinates(vec)

    def contains(self, terms: dict[Word, Fraction]) -> bool:
        return self.vector(terms) is not None

    def generator_bracket(self, i: int, sub: "LieSlice", k: int) -> Vector:
        """Coordinates of [g_i, b_k] over this slice's basis, where b_k is the
        k-th basis element of sub, the slice just below this one by g_i."""
        g = self.gens[i]
        terms = _word_commutator({(g,): 1}, g.degree, sub.kept_terms[k], sub.degree)
        return self.coordinates(terms) if terms else {}

    def basis(self) -> SubspaceBasis:
        """Reduced echelon basis of the slice in word coordinates."""
        ech = Echelon(len(self.words))
        for terms in self.kept_terms:
            ech.insert({self.word_index[w]: c for w, c in terms.items()})
        return ech.basis()


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


def _is_lyndon(key: list[int]) -> bool:
    """Strictly smaller than each of its proper suffixes."""
    return all(key < key[j:] for j in range(1, len(key)))


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

    Safe for concurrent readers; inserts are serialized by a module lock.
    """
    gens = tuple(gens)
    if weight < 1:
        raise ValueError("weight must be >= 1")
    key = (gens, weight, degree)
    cached = _slice_cache.get(key)
    if cached is not None:
        return cached
    subs = [
        (i, g, lie_slice(gens, weight - g.weight, degree - g.degree))
        for i, g in enumerate(gens)
        if g.weight < weight and g.degree <= degree
    ]
    slc = LieSlice(gens, weight, degree)
    for i, g in enumerate(gens):
        if g.weight == weight and g.degree == degree:
            slc._try_insert((i, None), i, {(g,): 1})
    for i, g, sub in subs:
        for k, (tree_b, terms_b) in enumerate(zip(sub.trees, sub.kept_terms)):
            slc._try_insert((i, k), (i, tree_b), _word_commutator({(g,): 1}, g.degree, terms_b, sub.degree))
    if slc.dim != slc.tracked.ambient:
        raise RuntimeError(f"slice ({weight}, {degree}) has {slc.dim} basis trees for "
                           f"{slc.tracked.ambient} leading words; this is a bug")
    with _slice_lock:
        return _slice_cache.setdefault(key, slc)


def lie_basis(gens, weight: int, degree: int) -> SubspaceBasis:
    """Echelon basis, in word coordinates, of the (weight, degree) Lie slice."""
    return lie_slice(gens, weight, degree).basis()


def certify_lie(t: TensorElement, gens=None) -> LieElement | None:
    """Certified element iff every bislice of t lies in the Lie subspace."""
    if t.unit_coefficient():
        return None
    if gens is None:
        gens = tuple(sorted(t.letters(), key=lambda g: (g.name, g.degree, g.weight)))
    else:
        gens = tuple(gens)
        missing = t.letters() - set(gens)
        if missing:
            names = ", ".join(sorted(g.name for g in missing))
            raise ValueError(f"element mentions generators outside the given set: {names}")
    for (w, d), terms in t.bislices().items():
        if w == 0:
            return None
        if not lie_slice(gens, w, d).contains(terms):
            return None
    return LieElement(t)


# ---------------------------------------------------------------------------
# exp / log / BCH / logs of free-group words
# ---------------------------------------------------------------------------


def exp(x: TensorElement) -> TensorElement:
    """Truncated exponential series; x must have zero unit coefficient."""
    if x.unit_coefficient():
        raise ValueError("exp requires zero unit coefficient")
    out = TensorElement.unit(x.window)
    power = TensorElement.unit(x.window)
    fact = 1
    for n in range(1, x.window.max_weight + 1):
        power = mul(power, x)
        if power.is_zero():
            break
        fact *= n
        out = out + Fraction(1, fact) * power
    return out


def log(u: TensorElement) -> TensorElement:
    """Truncated logarithm; u must have unit coefficient exactly 1."""
    if u.unit_coefficient() != 1:
        raise ValueError("log requires unit coefficient 1")
    x = u - TensorElement.unit(u.window)
    out = TensorElement.zero(u.window)
    power = TensorElement.unit(u.window)
    for n in range(1, u.window.max_weight + 1):
        power = mul(power, x)
        if power.is_zero():
            break
        out = out + Fraction((-1) ** (n + 1), n) * power
    return out


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
    known = set(gens)
    for g, e in word:
        if g not in known:
            raise ValueError(f"unknown generator {g.name} in group word")
        if g.degree != 0:
            raise ValueError(f"group words require degree-0 generators, got {g.name}")
        if e not in (1, -1):
            raise ValueError("group word exponents must be +1 or -1")
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


def format_tensor(t: TensorElement, gens=None) -> str:
    """Words rendered as dotted letter strings; debugging aid."""
    if t.is_zero():
        return "0"
    if gens is None:
        pos = {}
    else:
        pos = {g: i for i, g in enumerate(gens)}
    items = sorted(
        t.terms.items(),
        key=lambda kv: (len(kv[0]), [pos.get(g, g.name) for g in kv[0]]),
    )
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


def format_lie(el: LieElement, gens=None) -> str:
    """Render a certified element over left-normed bracket bases.

    The output re-parses (module cli) to the same TensorElement.
    """
    t = el.value if isinstance(el, LieElement) else el
    if gens is None:
        gens = tuple(sorted(t.letters(), key=lambda g: (g.name, g.degree, g.weight)))
    else:
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
