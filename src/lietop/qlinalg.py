"""Exact sparse linear algebra over the rationals.

Vectors are dicts column -> rational with zero entries absent; an entry is an
int when it is integral and a Fraction otherwise.  Everything
here is exact; there is no floating point anywhere in the package.  Column
indices are plain ints; callers fix their meaning (a chain-basis index over
the chain basis of dgl, a leading-word index in a Lie slice), and their
order fixes pivots, and hence reported bases and representative cycles.

Inside, elimination runs in integers: an Echelon stores primitive integer
rows in semi-echelon form and reduces fraction-free, in the style of Bareiss
(Math. Comp. 1968).  Fractions appear only where values handed to callers
are not integral: residuals, coordinates, kept vectors and the reduced
row-echelon basis, which is built on demand.  An untracked Echelon gives a
matrix's image, its rank and its pivots; kernel_basis, the one kernel
routine, tracks combinations and is run only where a kernel is read.
"""

from __future__ import annotations

from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import gcd, lcm

Vector = dict[int, Fraction | int]
IntVector = dict[int, int]


def add_scaled(out: Vector, b: Vector, scale: Fraction | int) -> None:
    """out += scale*b in place, dropping entries that cancel; an integral
    sum is kept as an int."""
    if not scale:
        return
    for col, val in b.items():
        s = out.get(col, 0) + scale * val
        if s:
            out[col] = s if type(s) is int or s.denominator != 1 else s.numerator
        else:
            out.pop(col, None)


def _integral(v: Vector) -> tuple[IntVector, int]:
    """(x, den) with x = den*v integral; den is the lcm of v's denominators.
    Entries may be Fractions or ints."""
    den = lcm(*(c.denominator for c in v.values()))
    if den == 1:
        return {col: c.numerator for col, c in v.items()}, 1
    return {col: c.numerator * (den // c.denominator) for col, c in v.items()}, den


def _fractions(x: IntVector, den: int) -> Vector:
    """x/den, zero entries dropped, integral entries as ints; den > 0."""
    if den == 1:
        return {col: c for col, c in x.items() if c}
    return {col: c // den if c % den == 0 else Fraction(c, den) for col, c in x.items() if c}


def _eliminate(
    x: IntVector, rows: dict[int, IntVector], combos: dict[int, IntVector] | None = None
) -> tuple[int, IntVector]:
    """Clears x, in place, at every column that keys a row of `rows`.

    Each row's smallest column is its key and has a positive coefficient, so
    clearing column p adds entries only after p; the keys present in x are
    visited in ascending order through a heap.  Each step is fraction-free,
    x <- a*x - b*row with a > 0 and gcd(a, b) = 1.  Returns (scale, combo):
    x ends as scale*x_in minus a combination of rows, which is
    sum_k combo[k]*accepted[k] when `combos` gives each row over the accepted
    vectors (combo is empty without them).  Entries that cancel stay as 0.
    """
    scale = 1
    combo: IntVector = {}
    heap = [c for c in x if c in rows]
    heapify(heap)
    while heap:
        p = heappop(heap)
        b = x[p]
        if not b:
            continue
        row = rows[p]
        lead = row[p]
        if lead != 1:
            g = gcd(b, lead)
            a, b = lead // g, b // g
            if a != 1:
                for c in x:
                    x[c] *= a
                scale *= a
                for k in combo:
                    combo[k] *= a
        for c, e in row.items():
            old = x.get(c)
            if old is None:
                x[c] = -b * e
                if c in rows:
                    heappush(heap, c)
            else:
                x[c] = old - b * e
        if combos is not None:
            for k, e in combos[p].items():
                combo[k] = combo.get(k, 0) + b * e
    return scale, combo


class SparseMatrix:
    """Immutable-by-convention sparse matrix; absent entry means zero."""

    def __init__(self, rows: int, cols: int, entries: dict[tuple[int, int], Fraction]):
        self.rows = rows
        self.cols = cols
        self.entries = {}
        for (i, j), val in entries.items():
            if not (0 <= i < rows and 0 <= j < cols):
                raise ValueError(f"entry ({i},{j}) out of bounds for {rows}x{cols}")
            val = Fraction(val)
            if val:
                self.entries[(i, j)] = val

    def __eq__(self, other):
        return (
            isinstance(other, SparseMatrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.entries == other.entries
        )

    def __repr__(self):
        return f"SparseMatrix({self.rows}x{self.cols}, {len(self.entries)} entries)"


class SubspaceBasis:
    """Reduced row-echelon basis of a subspace of Q^ambient.

    Rows have pivot coefficient 1, strictly increasing pivot columns, and
    every pivot column is zero in all other rows.
    """

    def __init__(self, ambient: int, rows: list[Vector], pivots: list[int]):
        self.ambient = ambient
        self.rows = rows
        self.pivots = pivots

    @property
    def dim(self) -> int:
        return len(self.rows)

    def __repr__(self):
        return f"SubspaceBasis(dim {self.dim} in Q^{self.ambient})"


class Echelon:
    """Incremental echelon form of a subspace of Q^ambient, in integers.

    Insert vectors one at a time; each is reduced against the rows so far and
    kept if independent.  Stored rows are primitive integer vectors (content
    divided out, positive pivot coefficient) keyed by pivot column, their
    smallest column.  They form a semi-echelon: a row is never reduced
    against a later one, nor changed at all once stored, so `copy` shares
    them.  A residual still comes out zero at every pivot column, and the
    span meets that coordinate subspace only in 0, so residuals and
    coordinates are those of the reduced row-echelon form; `basis` builds
    that form on demand.

    With track=True every stored row carries its expression over the
    accepted vectors as originally inserted (integer coefficients sharing the
    row's content), keyed by acceptance order: the k-th vector that enlarged
    the span is k, and rejected vectors are never referred to.  Membership
    tests then double as coordinate computations.
    """

    def __init__(self, ambient: int, track: bool = False):
        self.ambient = ambient
        self.track = track
        self._rows: dict[int, IntVector] = {}
        self._combos: dict[int, IntVector] = {}

    @property
    def rank(self) -> int:
        return len(self._rows)

    @property
    def pivots(self):
        """A read-only view of the pivot columns, in insertion order."""
        return self._rows.keys()

    def reduce(self, v: Vector) -> tuple[Vector, Vector]:
        """Returns (residual, combo) with residual = v - sum combo[k]*accepted[k]."""
        x, den = _integral(v)
        scale, combo = _eliminate(x, self._rows, self._combos if self.track else None)
        den *= scale
        return _fractions(x, den), _fractions(combo, den)

    def insert(self, v: Vector) -> bool:
        """Insert v; returns True if it enlarged the span."""
        return self._insert(v)[0] is not None

    def keep(self, v: Vector) -> Vector | None:
        """Insert v; if it enlarged the span, returns its residual scaled to
        lead with 1, the canonical representative of v modulo the old span
        (the residual, made primitive, is the new row)."""
        pivot = self._insert(v)[0]
        if pivot is None:
            return None
        row = self._rows[pivot]
        return _fractions(row, row[pivot])

    def _insert(self, v: Vector) -> tuple[int | None, int, IntVector]:
        """Insert v; returns (pivot, scale, combo).  pivot is None when v is
        in the span, and then scale*v = sum_k combo[k]*accepted[k], scale > 0,
        is the relation its elimination found (combo is empty untracked)."""
        x, den = _integral(v)
        scale, combo = _eliminate(x, self._rows, self._combos if self.track else None)
        row = {c: e for c, e in x.items() if e}
        if not row:
            return None, scale * den, combo
        pivot = min(row)
        if self.track:
            combo = {k: -e for k, e in combo.items() if e}
            combo[len(self._rows)] = scale * den
        g = gcd(*row.values(), *combo.values())
        if row[pivot] < 0:
            g = -g
        if g != 1:
            row = {c: e // g for c, e in row.items()}
            combo = {k: e // g for k, e in combo.items()}
        self._rows[pivot] = row
        self._combos[pivot] = combo
        return pivot, scale, combo

    def coordinates(self, v: Vector) -> Vector | None:
        """Express v over the accepted vectors, keyed by acceptance order
        (track=True only)."""
        if not self.track:
            raise ValueError("echelon built without tracking")
        residual, combo = self.reduce(v)
        if residual:
            return None
        return combo

    def copy(self) -> "Echelon":
        """An independent echelon with the same rows, ready to grow."""
        out = Echelon(self.ambient, self.track)
        out._rows = dict(self._rows)
        out._combos = dict(self._combos)
        return out

    def basis(self) -> SubspaceBasis:
        """The reduced row-echelon basis, by back-substitution from the top pivot."""
        reduced: dict[int, IntVector] = {}
        for p in sorted(self._rows, reverse=True):
            x = dict(self._rows[p])
            _eliminate(x, reduced)
            g = gcd(*x.values())
            reduced[p] = {c: e // g for c, e in x.items() if e}
        pivots = sorted(reduced)
        rows = [_fractions(reduced[p], reduced[p][p]) for p in pivots]
        return SubspaceBasis(self.ambient, rows, pivots)


def span_basis(ambient: int, vectors) -> SubspaceBasis:
    """The leftmost-pivot reduced row-echelon basis of the span of vectors."""
    ech = Echelon(ambient)
    for v in vectors:
        ech.insert(v)
    return ech.basis()


def kernel_basis(columns, ambient: int) -> SubspaceBasis:
    """The leftmost-pivot reduced echelon basis of the null space of the
    matrix whose columns, vectors in Q^ambient, are given in order.  They
    are inserted into a tracked Echelon, and each column j in the span of
    earlier ones gives the relation its elimination found."""
    ech = Echelon(ambient, track=True)
    accepted: list[int] = []  # the column of each accepted vector
    null: list[IntVector] = []
    for j, v in enumerate(columns):
        pivot, scale, combo = ech._insert(v)
        if pivot is None:
            null.append({j: scale, **{accepted[k]: -e for k, e in combo.items() if e}})
        else:
            accepted.append(j)
    return span_basis(len(accepted) + len(null), null)
