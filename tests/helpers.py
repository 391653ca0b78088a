"""Small matrix helpers shared by the tests."""

from fractions import Fraction

from lietop.qlinalg import SparseMatrix, Vector


def from_dense(data: list[list]) -> SparseMatrix:
    """A SparseMatrix from a list of equal-length rows."""
    cols = len(data[0]) if data else 0
    entries = {(i, j): Fraction(val) for i, row in enumerate(data) for j, val in enumerate(row) if val}
    return SparseMatrix(len(data), cols, entries)


def apply(m: SparseMatrix, v: Vector) -> Vector:
    """m times the column vector v (v indexed by column), zeros dropped."""
    out: Vector = {}
    for (i, j), val in m.entries.items():
        x = v.get(j)
        if x:
            out[i] = out.get(i, 0) + val * x
    return {i: c for i, c in out.items() if c}
