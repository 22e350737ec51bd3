from fractions import Fraction

from hypothesis import example, given, settings
from hypothesis import strategies as st

from rackalg.linalg import (
    RatMatrix,
    nullspace_basis,
    rank_bareiss,
    row_space_equal,
    rref,
)

F = Fraction


def test_rank_of_singular_matrix():
    m = [
        [F(1), F(2), F(3)],
        [F(2), F(4), F(6)],
        [F(1), F(0), F(1)],
    ]
    assert rank_bareiss(m) == 2


def test_rank_full():
    m = [[F(2), F(1)], [F(1), F(1)]]
    assert rank_bareiss(m) == 2


def test_rref_canonical_form():
    m = [
        [F(0), F(2), F(4)],
        [F(1), F(1), F(1)],
    ]
    rows, pivots = rref(m)
    assert pivots == [0, 1]
    assert rows == [
        [F(1), F(0), F(-1)],
        [F(0), F(1), F(2)],
    ]


def test_nullspace_matches_hand_kernel():
    # kernel of (1  1  1) is spanned by (-1,1,0), (-1,0,1)
    basis = nullspace_basis([[F(1), F(1), F(1)]])
    assert basis == [
        [F(-1), F(1), F(0)],
        [F(-1), F(0), F(1)],
    ]


def test_nullspace_of_empty_matrix_is_full():
    basis = nullspace_basis([], ncols=3)
    assert len(basis) == 3
    assert basis[0][0] == 1 and basis[2][2] == 1


def test_row_space_equal_ignores_presentation():
    a = [[F(1), F(2)], [F(0), F(1)]]
    b = [[F(3), F(1)], [F(1), F(1)]]
    assert row_space_equal(a, b)
    assert not row_space_equal(a, [[F(1), F(2)]])


def test_ratmatrix_json_and_eq():
    m = RatMatrix(1, 2, {(0, 1): F(1, 2)})
    assert m == RatMatrix(1, 2, {(0, 1): F(1, 2)})
    assert m != RatMatrix(1, 2, {(0, 0): F(1, 2)})


small_entries = st.integers(min_value=-4, max_value=4)


@st.composite
def matrices(draw):
    rows = draw(st.integers(min_value=1, max_value=5))
    cols = draw(st.integers(min_value=1, max_value=5))
    return [
        [F(draw(small_entries)) for _ in range(cols)] for _ in range(rows)
    ]


@settings(max_examples=60, deadline=None)
@given(matrices())
# a row with a zero under the pivot must still be scaled by pivot / prev
# unless the two are equal; skipping it whenever prev == 1 made later
# divisions inexact and read rank 5 here, not 4
@example([[F(x) for x in row] for row in [
    [0, 0, -4, 3, 4], [1, 2, 4, 0, -2], [-4, -2, -4, -1, 0],
    [-2, 0, 4, 0, -4], [-4, 2, -1, 3, 0],
]])
def test_rank_bounded_and_nullity_complementary(m):
    rows, cols = len(m), len(m[0])
    r = rank_bareiss(m)
    assert 0 <= r <= min(rows, cols)
    assert len(nullspace_basis(m)) == cols - r


@settings(max_examples=40, deadline=None)
@given(matrices())
def test_kernel_vectors_annihilate(m):
    for vec in nullspace_basis(m):
        for row in m:
            assert sum(a * b for a, b in zip(row, vec)) == 0
