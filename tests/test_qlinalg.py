import random
from fractions import Fraction
from math import gcd

from hypothesis import given, settings
from hypothesis import strategies as st

from lietop.qlinalg import (
    Echelon,
    SparseMatrix,
    kernel_basis,
)

from helpers import apply, columns, from_dense, rref
from oracles import bareiss_rank, dense_null_space, dense_rank, dense_rref, dense_solve


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
    assert kernel_basis(columns(m), m.rows).dim == 0


def test_kernel_zero_full():
    m = SparseMatrix(2, 3, {})
    assert kernel_basis(columns(m), m.rows).dim == 3


def test_kernel_hand_example():
    m = from_dense([[1, 1, 0], [0, 1, 1]])
    ker = kernel_basis(columns(m), m.rows)
    assert ker.dim == 1
    assert ker.rows == [{0: Fraction(1), 1: Fraction(-1), 2: Fraction(1)}]
    assert apply(m, ker.rows[0]) == {}


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
    assert rank + kernel_basis(columns(m), m.rows).dim == m.cols


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
    for v in kernel_basis(columns(m), m.rows).rows:
        assert apply(m, v) == {}


def assert_kernel_matches_oracle(rows: list[list]) -> None:
    # the basis itself, which representatives are reduced from, not just its size
    m = from_dense(rows)
    ker = kernel_basis(columns(m), m.rows)
    null, pivots = dense_null_space(rows, len(rows[0]))
    assert ker.pivots == pivots
    assert ker.rows == [sparse(r) for r in null]


@given(small_matrices)
@settings(max_examples=150, deadline=None)
def test_kernel_basis_matches_dense_null_space(rows):
    assert_kernel_matches_oracle(rows)


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
    assert grown.basis().rows == [{0: Fraction(1)}, {1: Fraction(1)}, {2: Fraction(1)}]
    # growing the copy leaves the original's rows untouched
    assert ech.rank == 2
    assert ech.basis().rows == [{0: Fraction(1), 2: Fraction(1)}, {1: Fraction(1), 2: Fraction(1)}]


def sparse(row: list) -> dict:
    return {j: Fraction(c) for j, c in enumerate(row) if c}


# non-integral entries, half of them zero so that rows are often dependent
rationals = st.one_of(
    st.just(Fraction(0)),
    st.builds(Fraction, st.integers(min_value=-60, max_value=60), st.integers(min_value=1, max_value=9)),
)


@st.composite
def rational_systems(draw):
    """Up to 8x8 rational rows plus one more vector of the same width."""
    cols = draw(st.integers(min_value=1, max_value=8))
    row = st.lists(rationals, min_size=cols, max_size=cols)
    return draw(st.lists(row, min_size=1, max_size=8)), draw(row)


@given(rational_systems())
@settings(max_examples=150, deadline=None)
def test_echelon_matches_dense_rref_on_rationals(system):
    rows, v = system
    ech = Echelon(len(v))
    for row in rows:
        ech.insert(sparse(row))
    # stored rows: primitive integer vectors led by a positive pivot entry
    for p, row in ech._rows.items():
        assert min(row) == p and row[p] > 0 and gcd(*row.values()) == 1
        assert all(type(c) is int for c in row.values())
    reduced, pivots = dense_rref(rows)
    assert sorted(ech._rows) == pivots
    assert ech.basis().rows == [sparse(r) for r in reduced]
    # the residual is the reduced-form normal form v - sum_p v[p] row_p
    normal = [x - sum(v[p] * r[j] for p, r in zip(pivots, reduced)) for j, x in enumerate(v)]
    residual, combo = ech.reduce(sparse(v))
    assert residual == sparse(normal)
    assert combo == {}
    assert (not ech.reduce(sparse(v))[0]) == (not residual)


@given(rational_systems(), st.lists(st.integers(min_value=-3, max_value=3), min_size=8, max_size=8))
@settings(max_examples=150, deadline=None)
def test_tracked_coordinates_match_dense_solve_on_rationals(system, weights):
    rows, v = system
    ech = Echelon(len(v), track=True)
    accepted = [k for k, row in enumerate(rows) if ech.insert(sparse(row))]
    inside = [sum(w * row[j] for w, row in zip(weights, rows)) for j in range(len(v))]
    for target in (inside, v):
        combo = ech.coordinates(sparse(target))
        expected = dense_solve([rows[k] for k in accepted], target)
        if expected is None:
            assert combo is None
            continue
        # combos are keyed by acceptance order: key n is the n-th accepted row
        assert combo == {n: c for n, c in enumerate(expected) if c}
        rebuilt = [sum(c * rows[accepted[n]][j] for n, c in combo.items()) for j in range(len(v))]
        assert rebuilt == target


@given(rational_systems(), st.integers(min_value=0, max_value=8), st.booleans())
@settings(max_examples=100, deadline=None)
def test_grown_copy_leaves_original_unchanged_on_rationals(system, split, track):
    rows, v = system
    ech = Echelon(len(v), track=track)
    for row in rows[:split]:
        ech.insert(sparse(row))
    before = (ech.basis().rows, ech.rank, ech.reduce(sparse(v)))
    grown = ech.copy()
    for row in rows[split:] + [v]:
        grown.insert(sparse(row))
    assert (ech.basis().rows, ech.rank, ech.reduce(sparse(v))) == before
    assert grown.rank == dense_rank(rows + [v])


def large_integral_matrix(rng: random.Random) -> list[list[int]]:
    """A 12x12 integer matrix with entries up to 10^6 in absolute value, of
    random rank: the rows after the first k are sums or differences of two
    earlier rows, whose entries are then kept below 5*10^5."""
    k = rng.randint(1, 12)
    bound = 10**6 if k == 12 else 5 * 10**5
    rows = [[rng.randint(-bound, bound) for _ in range(12)] for _ in range(k)]
    while len(rows) < 12:
        a, b = rng.sample(rows[:k], 2) if k > 1 else (rows[0], rows[0])
        sign = rng.choice((1, -1))
        rows.append([x + sign * y for x, y in zip(a, b)])
    rng.shuffle(rows)
    return rows


def test_large_coefficients_rank_and_kernel():
    ranks = set()
    for seed in range(30):
        rows = large_integral_matrix(random.Random(seed))
        m = from_dense(rows)
        _, rank = rref(m)
        assert rank == bareiss_rank(rows) == dense_rank(rows)
        ker = kernel_basis(columns(m), m.rows)
        assert rank + ker.dim == 12
        for v in ker.rows:
            assert apply(m, v) == {}
        assert_kernel_matches_oracle(rows)
        ranks.add(rank)
    assert len(ranks) > 5
