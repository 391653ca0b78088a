"""Small matrix, Lie-slice, lie-expr, Sullivan and subprocess helpers shared
by the tests."""

import os
from fractions import Fraction
from pathlib import Path

from lietop.cli import _Cursor, _make_evaluator, _parse_expr, _tokenize_line
from lietop.freelie import LieElement, LieSlice, TensorElement, Window
from lietop.qlinalg import SparseMatrix, SubspaceBasis, Vector, span_basis
from lietop.sullivan import SullivanData, _derive, _images


def from_dense(data: list[list]) -> SparseMatrix:
    """A SparseMatrix from a list of equal-length rows."""
    cols = len(data[0]) if data else 0
    entries = {(i, j): Fraction(val) for i, row in enumerate(data) for j, val in enumerate(row) if val}
    return SparseMatrix(len(data), cols, entries)


def rref(m: SparseMatrix) -> tuple[SubspaceBasis, int]:
    """Reduced row-echelon basis of the row space of m, with its rank."""
    rows: dict[int, Vector] = {}
    for (i, j), val in m.entries.items():
        rows.setdefault(i, {})[j] = val
    b = span_basis(m.cols, (rows[i] for i in sorted(rows)))
    return b, b.dim


def columns(m: SparseMatrix) -> list[Vector]:
    """The columns of m, as vectors in Q^m.rows."""
    out: list[Vector] = [{} for _ in range(m.cols)]
    for (i, j), val in m.entries.items():
        out[j][i] = val
    return out


def dense(m: SparseMatrix) -> list[list[Fraction]]:
    """m as a list of rows."""
    out = [[Fraction(0)] * m.cols for _ in range(m.rows)]
    for (i, j), val in m.entries.items():
        out[i][j] = val
    return out


def apply(m: SparseMatrix, v: Vector) -> Vector:
    """m times the column vector v (v indexed by column), zeros dropped."""
    out: Vector = {}
    for (i, j), val in m.entries.items():
        x = v.get(j)
        if x:
            out[i] = out.get(i, 0) + val * x
    return {i: c for i, c in out.items() if c}


def slice_element(slc: LieSlice, k: int, window: Window) -> LieElement:
    """The k-th bracket-basis element of the slice, as a certified element."""
    return LieElement(TensorElement(window, slc.kept_terms[k]))


def eval_lie_expr(text: str, generators, window: Window) -> LieElement:
    """Parse a standalone lie-expr with the CLI's parser and evaluate it over
    the given generators."""
    cur = _Cursor(_tokenize_line(text, 1))
    expr = _parse_expr(cur)
    cur.end_of_line()
    eval_expr, _ = _make_evaluator(tuple(generators), {}, window)
    return eval_expr(expr)


def sd_diff(sd: SullivanData, p: dict) -> dict:
    """d0 + d1 of sd extended to Lambda(V) as a derivation, with the
    package's integer images and derivation."""
    images, den = _images(sd.dim, sd.d0, sd.d1)
    return {m: Fraction(c) / den for m, c in _derive(images, sd.degrees, p).items() if c}


def checkout_env() -> dict[str, str]:
    """The environment with this checkout's src first on PYTHONPATH, so a
    child `python -m lietop` runs the code under test, not an installed copy."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    rest = os.environ.get("PYTHONPATH")
    return {**os.environ, "PYTHONPATH": src + os.pathsep + rest if rest else src}
