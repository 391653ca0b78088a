from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from lietop.qlinalg import (
    Echelon,
    SparseMatrix,
    kernel_basis,
    rref,
)

from helpers import apply, from_dense
from oracles import bareiss_rank, dense_rank


def test_rref_identity():
    m = from_dense([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    basis, rank = rref(m)
    assert rank == 3
    assert basis.pivots == [0, 1, 2]


def test_rref_zero():
    m = SparseMatrix(2, 5, {})
    basis, rank = rref(m)
    assert rank == 0
    assert basis.rows == []


def test_rref_dependent_rows():
    m = from_dense([[1, 2], [2, 4]])
    basis, rank = rref(m)
    assert rank == 1
    assert basis.rows == [{0: Fraction(1), 1: Fraction(2)}]


def test_kernel_identity_empty():
    m = from_dense([[1, 0], [0, 1]])
    assert kernel_basis(m).dim == 0


def test_kernel_zero_full():
    m = SparseMatrix(2, 3, {})
    assert kernel_basis(m).dim == 3


def test_kernel_hand_example():
    m = from_dense([[1, 1, 0], [0, 1, 1]])
    ker = kernel_basis(m)
    assert ker.dim == 1
    assert ker.rows == [{0: Fraction(1), 1: Fraction(-1), 2: Fraction(1)}]
    assert apply(m, ker.rows[0]) == {}


def test_membership_zero_vector():
    basis, _ = rref(from_dense([[1, 2], [0, 1]]))
    assert basis.coordinates({}) == [0, 0]


def test_membership_basis_vector():
    basis, _ = rref(from_dense([[1, 0], [0, 1]]))
    assert basis.coordinates({0: Fraction(1)}) == [1, 0]


def test_membership_span_example():
    basis, _ = rref(from_dense([[1, 2]]))
    assert basis.coordinates({0: Fraction(1), 1: Fraction(2)}) == [1]
    assert basis.coordinates({0: Fraction(1)}) is None
    assert basis.contains({0: Fraction(2), 1: Fraction(4)})


small_matrices = st.lists(
    st.lists(st.integers(min_value=-4, max_value=4), min_size=1, max_size=5),
    min_size=1,
    max_size=6,
).filter(lambda rows: len({len(r) for r in rows}) == 1)


@given(small_matrices)
@settings(max_examples=150, deadline=None)
def test_rank_matches_fraction_free_oracle(rows):
    m = from_dense(rows)
    _, rank = rref(m)
    assert rank == bareiss_rank(rows)
    assert rank == dense_rank(rows)


@given(small_matrices)
@settings(max_examples=150, deadline=None)
def test_rank_nullity(rows):
    m = from_dense(rows)
    _, rank = rref(m)
    assert rank + kernel_basis(m).dim == m.cols


@given(small_matrices)
@settings(max_examples=100, deadline=None)
def test_rref_idempotent(rows):
    m = from_dense(rows)
    basis, rank = rref(m)
    entries = {(i, j): val for i, row in enumerate(basis.rows) for j, val in row.items()}
    again, rank2 = rref(SparseMatrix(rank, m.cols, entries))
    assert rank == rank2
    assert basis.rows == again.rows
    assert basis.pivots == again.pivots


@given(small_matrices)
@settings(max_examples=100, deadline=None)
def test_kernel_vectors_annihilate(rows):
    m = from_dense(rows)
    for v in kernel_basis(m).rows:
        assert apply(m, v) == {}


def test_echelon_coordinates_track_inserted_vectors():
    ech = Echelon(4, track=True)
    v0 = {0: Fraction(1), 1: Fraction(2)}
    v1 = {1: Fraction(1), 3: Fraction(1)}
    assert ech.insert(dict(v0))
    assert ech.insert(dict(v1))
    combo = ech.coordinates({0: Fraction(2), 1: Fraction(7), 3: Fraction(3)})
    assert combo == {0: Fraction(2), 1: Fraction(3)}
    assert ech.coordinates({2: Fraction(1)}) is None


def test_echelon_copy_grows_independently():
    ech = Echelon(3)
    ech.insert({0: Fraction(1), 2: Fraction(1)})
    ech.insert({1: Fraction(1), 2: Fraction(1)})
    grown = ech.copy()
    assert grown.insert({2: Fraction(1)})
    assert grown.rows == [{0: Fraction(1)}, {1: Fraction(1)}, {2: Fraction(1)}]
    # back-elimination in the copy leaves the original's rows untouched
    assert ech.rank == 2
    assert ech.rows == [{0: Fraction(1), 2: Fraction(1)}, {1: Fraction(1), 2: Fraction(1)}]
    assert ech.n_inserted == 2 and grown.n_inserted == 3
