"""Exact sparse linear algebra over the rationals.

Vectors are dicts column -> Fraction with zero entries absent.  Everything
here is exact; there is no floating point anywhere in the package.  Column
indices are plain ints; callers fix their meaning (for the Lie modules a
column is a tensor word under the global monomial order, which makes pivots,
and hence reported bases and representative cycles, deterministic).
"""

from __future__ import annotations

from fractions import Fraction

Vector = dict[int, Fraction]

ZERO = Fraction(0)
ONE = Fraction(1)


def vec_add(a: Vector, b: Vector, scale: Fraction = ONE) -> Vector:
    """a + scale*b as a new dict, dropping entries that cancel."""
    out = dict(a)
    _acc(out, b, scale)
    return out


def _acc(out: Vector, b: Vector, scale: Fraction) -> None:
    """out += scale*b in place."""
    if not scale:
        return
    for col, val in b.items():
        s = out.get(col, ZERO) + scale * val
        if s:
            out[col] = s
        else:
            out.pop(col, None)


def vec_scale(a: Vector, scale: Fraction) -> Vector:
    if not scale:
        return {}
    return {col: scale * val for col, val in a.items()}


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

    def row_vectors(self) -> list[Vector]:
        out: list[Vector] = [dict() for _ in range(self.rows)]
        for (i, j), val in self.entries.items():
            out[i][j] = val
        return out

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

    def coordinates(self, v: Vector) -> list[Fraction] | None:
        """Coordinates of v in this basis, or None if v is outside the span."""
        coords = [v.get(p, ZERO) for p in self.pivots]
        residual = dict(v)
        for c, row in zip(coords, self.rows):
            _acc(residual, row, -c)
        if residual:
            return None
        return coords

    def contains(self, v: Vector) -> bool:
        return self.coordinates(v) is not None

    def __repr__(self):
        return f"SubspaceBasis(dim {self.dim} in Q^{self.ambient})"


class Echelon:
    """Incremental reduced row-echelon form.

    Insert vectors one at a time; each is reduced against the rows so far and
    kept if independent, with back-elimination preserving the reduced form.
    With track=True every stored row carries its expression over the vectors
    as originally inserted (keyed by insertion index), so membership tests
    double as coordinate computations.

    Rows are stored keyed by pivot column.  Reduction touches only the pivot
    columns present in the input: in reduced form, eliminating a pivot fills
    in at non-pivot columns only, so no new pivots ever appear mid-pass.
    """

    def __init__(self, ambient: int, track: bool = False):
        self.ambient = ambient
        self.track = track
        self._rows: dict[int, Vector] = {}
        self._combos: dict[int, Vector] = {}
        self.n_inserted = 0

    @property
    def rank(self) -> int:
        return len(self._rows)

    @property
    def pivots(self) -> list[int]:
        return sorted(self._rows)

    @property
    def rows(self) -> list[Vector]:
        return [self._rows[p] for p in sorted(self._rows)]

    def reduce(self, v: Vector) -> tuple[Vector, Vector]:
        """Returns (residual, combo) with residual = v - sum combo[k]*inserted[k]."""
        residual = dict(v)
        combo: Vector = {}
        rows = self._rows
        for pivot in sorted(c for c in residual if c in rows):
            coef = residual.get(pivot)
            if coef:
                _acc(residual, rows[pivot], -coef)
                if self.track:
                    _acc(combo, self._combos[pivot], coef)
        return residual, combo

    def insert(self, v: Vector) -> bool:
        """Insert v; returns True if it enlarged the span."""
        idx = self.n_inserted
        self.n_inserted += 1
        residual, combo = self.reduce(v)
        if not residual:
            return False
        pivot = min(residual)
        lead = residual[pivot]
        row = vec_scale(residual, 1 / lead)
        if self.track:
            combo = vec_scale(vec_add({idx: ONE}, combo, -ONE), 1 / lead)
        for p, existing in self._rows.items():
            coef = existing.get(pivot)
            if coef:
                _acc(existing, row, -coef)
                if self.track:
                    _acc(self._combos[p], combo, -coef)
        self._rows[pivot] = row
        self._combos[pivot] = combo if self.track else {}
        return True

    def coordinates(self, v: Vector) -> Vector | None:
        """Express v over the *inserted* vectors (track=True only)."""
        if not self.track:
            raise ValueError("echelon built without tracking")
        residual, combo = self.reduce(v)
        if residual:
            return None
        return combo

    def contains(self, v: Vector) -> bool:
        residual, _ = self.reduce(v)
        return not residual

    def copy(self) -> "Echelon":
        """An independent echelon with the same rows, ready to grow."""
        out = Echelon(self.ambient, self.track)
        out._rows = {p: dict(row) for p, row in self._rows.items()}
        out._combos = {p: dict(combo) for p, combo in self._combos.items()}
        out.n_inserted = self.n_inserted
        return out

    def basis(self) -> SubspaceBasis:
        pivots = sorted(self._rows)
        return SubspaceBasis(self.ambient, [dict(self._rows[p]) for p in pivots], pivots)


def rref(m: SparseMatrix) -> tuple[SubspaceBasis, int]:
    """Reduced row-echelon basis of the row space of m, with its rank."""
    ech = Echelon(m.cols)
    for row in m.row_vectors():
        ech.insert(row)
    b = ech.basis()
    return b, b.dim


def kernel_basis(m: SparseMatrix) -> SubspaceBasis:
    """Echelon basis of the null space {v : m v = 0}; dim = cols - rank.

    The basis is the leftmost-pivot reduced echelon form of the null space,
    which fixes the cycles that homology representatives are reduced from.
    """
    b, rank = rref(m)
    pivot_set = set(b.pivots)
    ech = Echelon(m.cols)
    for f in range(m.cols):
        if f in pivot_set:
            continue
        v: Vector = {f: ONE}
        for p, row in zip(b.pivots, b.rows):
            c = row.get(f)
            if c:
                v[p] = -c
        ech.insert(v)
    return ech.basis()
