"""Exact linear algebra: rank, nullspace, determinant, solving."""
from fractions import Fraction
from itertools import combinations, permutations

from hypothesis import example, given, settings, strategies as st

from diskeds.expr import Polynomial, RationalFunction
from diskeds.linalg import (
    det,
    mat_rank,
    nullity,
    solve_particular,
)
from oracles import in_row_span, nullspace


def test_rank_and_nullspace_basics():
    m = [[1, 2, 3], [2, 4, 6], [0, 1, 1]]
    m = [[Fraction(x) for x in row] for row in m]
    assert mat_rank(m) == 2
    basis = nullspace(m)
    assert len(basis) == 1
    for v in basis:
        assert all(sum(row[i] * v[i] for i in range(3)) == 0 for row in m)


def test_empty_matrix_conventions():
    assert mat_rank([]) == 0
    assert nullity([], 3) == 3
    assert len(nullspace([], ncols=4)) == 4


def test_solve_particular_consistent_and_not():
    A = [[Fraction(1), Fraction(1)], [Fraction(2), Fraction(2)]]
    assert solve_particular(A, [Fraction(3), Fraction(6)]) is not None
    assert solve_particular(A, [Fraction(3), Fraction(5)]) is None


def test_in_row_span():
    rows = [[Fraction(1), Fraction(0), Fraction(1)],
            [Fraction(0), Fraction(1), Fraction(1)]]
    assert in_row_span(rows, [Fraction(2), Fraction(3), Fraction(5)], 3)
    assert not in_row_span(rows, [Fraction(0), Fraction(0), Fraction(1)], 3)
    assert in_row_span([], [Fraction(0)] * 3, 3)


def test_det_rational_function_entries():
    vs = ("x",)
    x = RationalFunction(Polynomial.var(vs, "x"))
    one = RationalFunction.from_const(vs, 1)
    d = det([[x, one], [one, x]])
    assert d == x * x - one


sq = st.integers(1, 4).flatmap(
    lambda n: st.lists(
        st.lists(st.fractions(min_value=-5, max_value=5), min_size=n, max_size=n),
        min_size=n, max_size=n))


def leibniz_det(m):
    """Sum over permutations of signed products of entries."""
    total = Fraction(0)
    for perm in permutations(range(len(m))):
        inversions = sum(perm[i] > perm[j] for i, j in combinations(range(len(m)), 2))
        term = Fraction((-1) ** inversions)
        for row, col in enumerate(perm):
            term *= m[row][col]
        total += term
    return total


entry = st.one_of(st.integers(-5, 5), st.fractions(min_value=-5, max_value=5))
square = st.integers(0, 4).flatmap(
    lambda n: st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n))


@given(square)
@example([])
@example([[2, 1], [1, 3]])
@example([[0, 1], [1, 0]])
@settings(max_examples=80, deadline=None)
def test_det_matches_leibniz_expansion(m):
    # int and Fraction entries, orders 0..4; the result is always a Fraction
    d = det(m)
    assert type(d) is Fraction
    assert d == leibniz_det(m)


@given(sq)
@settings(max_examples=40, deadline=None)
def test_nullspace_vectors_annihilate(m):
    m = [[Fraction(x) for x in row] for row in m]
    n = len(m[0])
    for v in nullspace(m):
        assert all(sum(row[i] * v[i] for i in range(n)) == 0 for row in m)
    assert mat_rank(m) + len(nullspace(m)) == n
