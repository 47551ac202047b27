"""Exact linear algebra: rank, nullspace, determinant, solving."""
import operator
from fractions import Fraction
from itertools import combinations, permutations

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from diskeds.exact import FirstJet, GaussianRational, row_minus, sum_of_products
from diskeds.expr import parse_expression
from diskeds.linalg import (
    _echelon,
    dot,
    dot_plus,
    mat_rank,
    solve_particular,
)
from operands import fraction_operands
from oracles import RationalFunction, det, in_row_span, nullity, nullspace, var


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
    x = RationalFunction(var(vs, "x"))
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


# ----------------------------------------------------------------------
# the zero-skipping kernels against the dense expressions

XY = ("x", "y")
RF_ZERO = RationalFunction.from_const(XY, 0)
mostly_zero = lambda values: st.one_of(st.just(0), st.just(0), values)
# zeros, negatives, equal and coprime denominators (6, 35, 77 and a
# 4,000-bit one), and 4,000-bit numerators and denominators
BIG = 2 ** 4000
fractions_ = mostly_zero(st.one_of(
    st.fractions(min_value=-5, max_value=5),
    st.sampled_from([Fraction(1, 6), Fraction(-5, 6), Fraction(7, 6), Fraction(4, 35),
                     Fraction(-9, 77), Fraction(3, BIG - 1)]),
    st.builds(Fraction, st.integers(-BIG, BIG), st.integers(1, BIG)))).map(Fraction)
ints = st.integers(-3, 3)
gaussians = st.builds(GaussianRational, fractions_, fractions_)
_rf = lambda num, den="1": RationalFunction(parse_expression(num, XY),
                                            parse_expression(den, XY))
ratfns = st.sampled_from([RF_ZERO, RF_ZERO, RF_ZERO, _rf("1"), _rf("-2"), _rf("x"),
                          _rf("x - y"), _rf("x*y + 1"), _rf("1", "x + 2"),
                          _rf("x - 1", "y^2 + 1")])


# a FirstJet with a sparse gradient, or the constant 0 a jet product may
# collapse to
jets = st.one_of(st.just(Fraction(0)), st.builds(
    FirstJet, fractions_, st.tuples(fractions_, fractions_, fractions_)))
ZERO3 = (Fraction(0),) * 3


def _jet_view(x):
    return (x.value, x.grad) if isinstance(x, FirstJet) else (Fraction(x), ZERO3)


def _pairs(values):
    return st.lists(st.tuples(values, values), max_size=6)


def _dense_jet_fold(pairs, c=None):
    """The value and tangent of c + sum x * y by the product rule on
    Fractions, no term skipped: value sum u v, tangent sum u dv + v du."""
    value, grad = Fraction(0), ZERO3
    for x, y in (pairs if c is None else [*pairs, (c, 1)]):
        (u, du), (v, dv) = _jet_view(x), _jet_view(y)
        value += u * v
        grad = tuple(g + u * b + v * a for g, a, b in zip(grad, du, dv))
    return value, grad


def _has_jet(pairs):
    """Whether a term of ``pairs`` without an exact zero factor has a
    FirstJet factor."""
    return any(x and y and FirstJet in (type(x), type(y)) for x, y in pairs)


def _fold(pairs, zero):
    """The kept terms x * y summed one by one by the scalars' operators."""
    out = None
    for x, y in pairs:
        if x and y:
            out = x * y if out is None else out + x * y
    return zero if out is None else out


def _zero_operands(f, *args):
    """f(*args) and the exact zeros whose denominators it reads."""
    with fraction_operands() as counts:
        got = f(*args)
    return got, counts[1]


# a FirstJet c meets rational terms only: a jet has no sum with a Gaussian
@given(st.one_of(
    st.tuples(st.one_of(_pairs(fractions_), _pairs(st.one_of(fractions_, ints))),
              st.one_of(fractions_, jets)),
    st.tuples(_pairs(st.one_of(fractions_, ints, gaussians)), fractions_)))
@example(([], Fraction(7, 3)))
@example(([(Fraction(0), Fraction(3)), (Fraction(2), Fraction(0))], Fraction(7, 3)))
@example(([(Fraction(1, 6), Fraction(-5, 6)), (Fraction(4, 35), Fraction(-9, 77)),
           (Fraction(7, 6), Fraction(1, 6))], Fraction(7, 3)))
@example(([(2, 3), (Fraction(1, 2), 0), (-1, 4)], Fraction(7, 3)))
# dot_plus's c: every term skipped, c cancelling the sum to 0, c a FirstJet
@example(([(Fraction(0), Fraction(3)), (Fraction(2), Fraction(0))], Fraction(-5, 9)))
@example(([(Fraction(1, 6), Fraction(-5, 6)), (Fraction(2), Fraction(1, 3))],
          Fraction(-19, 36)))
@example(([(Fraction(1, 2), Fraction(3)), (2, 4)],
          FirstJet(Fraction(1), (Fraction(0), Fraction(2), Fraction(0)))))
@settings(derandomize=True, database=None, max_examples=150, deadline=None)
def test_dot_over_fractions_is_the_dense_sum(case):
    # mixed with ints and Gaussian rationals, the sum has the value and the
    # type of the term-by-term fold, and so has the sum plus c; plus a
    # FirstJet c it is the FirstJet of the product-rule fold
    pairs, c = case
    xs, ys = [x for x, _ in pairs], [y for _, y in pairs]
    zero = Fraction(0)
    got, zeros_read = _zero_operands(dot, xs, ys, zero)
    want = _fold(pairs, zero)
    assert got == want and type(got) is type(want)
    plus, plus_zeros_read = _zero_operands(dot_plus, xs, ys, c)
    if all(type(x) is Fraction and type(y) is Fraction for x, y in pairs):
        assert type(got) is Fraction and got == sum((x * y for x, y in pairs), zero)
        assert zeros_read == 0
        if type(c) is Fraction:
            assert plus_zeros_read == 0
    if all(not (x and y) for x, y in pairs):
        assert got is zero
        assert plus is c
    elif type(c) is FirstJet:
        assert type(plus) is FirstJet and _jet_view(plus) == _dense_jet_fold(pairs, c)
    else:
        # an exact-zero c is a skipped term too
        want_plus = want + c if c else want
        assert plus == want_plus and type(plus) is type(want_plus)
    assert dot_plus(xs, ys, zero) == got


@given(_pairs(ratfns))
@example([(RF_ZERO, RationalFunction.from_const(XY, 5))])
@settings(max_examples=60, deadline=None)
def test_dot_over_rational_functions_is_the_dense_sum(pairs):
    xs, ys = [x for x, _ in pairs], [y for _, y in pairs]
    got = dot(xs, ys, RF_ZERO)
    assert isinstance(got, RationalFunction) and got.vars == XY
    assert got == sum((x * y for x, y in pairs), RF_ZERO)
    if all(not (x and y) for x, y in pairs):
        assert got is RF_ZERO


@given(_pairs(st.one_of(jets, fractions_, ints)))
@settings(derandomize=True, database=None, max_examples=150, deadline=None)
def test_dot_over_first_jets_is_the_dense_sum(pairs):
    xs, ys = [x for x, _ in pairs], [y for _, y in pairs]
    zero = Fraction(0)
    got = dot(xs, ys, zero)
    assert _jet_view(got) == _dense_jet_fold(pairs)
    assert type(got) is (FirstJet if _has_jet(pairs) else type(_fold(pairs, zero)))
    if not pairs or all(not isinstance(x, FirstJet) and not x for x, _ in pairs):
        assert got is zero


# jet parts: zeros, +-1, negatives, and 4,000-bit numerators and denominators
jet_parts = st.one_of(
    st.just(Fraction(0)), st.sampled_from([Fraction(1), Fraction(-1), Fraction(-5, 6),
                                           Fraction(4, 35), Fraction(3, BIG - 1)]),
    st.fractions(min_value=-5, max_value=5),
    st.builds(Fraction, st.integers(-BIG, BIG), st.integers(1, BIG)))
# zero values and zero tangents come from jet_parts; one jet in five is
# all zeros, so whole terms vanish too
jet_operands = st.one_of(
    st.builds(FirstJet, jet_parts, st.tuples(jet_parts, jet_parts, jet_parts)),
    st.just(FirstJet(Fraction(0), ZERO3)))
_operands = st.one_of(jet_operands, jet_parts, st.integers(-2, 2))


def _exact_view(x):
    """The value and tangent of a scalar, each with its type."""
    if isinstance(x, FirstJet):
        return FirstJet, (type(x.value), x.value), tuple((type(t), t) for t in x.grad)
    return type(x), x


@given(_pairs(_operands),
       st.one_of(st.none(), st.integers(-2, 2), jet_parts, jet_operands, gaussians))
@example([], FirstJet(Fraction(1), ZERO3))
@example([(FirstJet(Fraction(0), ZERO3), FirstJet(Fraction(0), ZERO3))], None)
@example([(FirstJet(Fraction(2), (Fraction(1), Fraction(0), Fraction(-1))), Fraction(0)),
          (Fraction(0), FirstJet(Fraction(1), ZERO3))], Fraction(3))
@example([(FirstJet(Fraction(1, 2), (Fraction(1), Fraction(0), Fraction(-1))),
           FirstJet(Fraction(-2), (Fraction(0), Fraction(1, 3), Fraction(1, 2)))),
          (Fraction(1, 6), Fraction(-5, 6)), (2, -1)],
         FirstJet(Fraction(1), (Fraction(-1, 2), Fraction(0), Fraction(1, 2))))
@example([(FirstJet(Fraction(1), (Fraction(1), Fraction(1), Fraction(0))), Fraction(-1)),
          (FirstJet(Fraction(1), (Fraction(1), Fraction(1), Fraction(0))), 1)], 0)
@settings(derandomize=True, database=None, max_examples=300, deadline=None)
def test_sum_of_products_over_first_jets_is_the_operator_fold(pairs, c):
    # FirstJet, Fraction and int factors, and c of each of those kinds or a
    # Gaussian rational: one FirstJet from integer sums, with the value and
    # tangent of the dense product-rule fold, all Fractions; without a
    # FirstJet the value and type of the term-by-term fold over the
    # operators, plus c; None when every term has a zero factor.  A jet has
    # no sum with a Gaussian c, so that pairing is left out
    assume(not (isinstance(c, GaussianRational) and _has_jet(pairs)))
    xs, ys = [x for x, _ in pairs], [y for _, y in pairs]
    got = sum_of_products(xs, ys, c)
    if all(not (x and y) for x, y in pairs):
        assert got is None
        return
    if _has_jet(pairs) or type(c) is FirstJet:
        value, grad = _dense_jet_fold(pairs, c)
        want = FirstJet, (Fraction, value), tuple((Fraction, t) for t in grad)
    else:
        fold = _fold(pairs, None)
        want = _exact_view(fold + c if c else fold)
    assert _exact_view(got) == want


@given(jet_operands, _operands)
@example(FirstJet(Fraction(3), ZERO3), FirstJet(Fraction(0), (Fraction(1),) * 3))
@example(FirstJet(Fraction(-1, 2), (Fraction(1), Fraction(0), Fraction(2))), Fraction(-1))
@example(FirstJet(Fraction(0), ZERO3), 0)
@settings(derandomize=True, database=None, max_examples=300, deadline=None)
def test_first_jet_products_and_quotients_have_fractions_values(x, y):
    # u v, a one-term dot, and u / v are the Fractions Fraction's operators
    # give, in value, parts and type; a zero divisor raises ZeroDivisionError
    # as they do
    value = lambda s: s.value if isinstance(s, FirstJet) else s
    product = lambda a, b: dot((a,), (b,), Fraction(0))
    for rule, op in ((operator.mul, product), (operator.truediv, operator.truediv)):
        for a, b in ((x, y), (y, x)):
            try:
                want = rule(Fraction(value(a)), Fraction(value(b)))
            except ZeroDivisionError:
                with pytest.raises(ZeroDivisionError):
                    op(a, b)
                continue
            got = value(op(a, b))
            assert (type(got), got.numerator, got.denominator) == \
                (Fraction, want.numerator, want.denominator)


def _rows(values, most=6):
    return st.integers(0, most).flatmap(lambda k: st.tuples(
        st.lists(values, min_size=k, max_size=k), st.lists(values, min_size=k, max_size=k)))


mixed = st.one_of(fractions_, ints, gaussians)


@given(st.one_of(st.tuples(_rows(fractions_), fractions_), st.tuples(_rows(mixed), mixed)))
@settings(max_examples=150, deadline=None)
def test_row_update_is_the_dense_row_update(case):
    # a zero entry of the pivot row leaves the entry alone, so each entry
    # has the value and the type of the term-by-term update
    (row, pivot), factor = case
    got, zeros_read = _zero_operands(row_minus, row, factor, pivot)
    want = [(a - factor * b if a else -(factor * b)) if b else a for a, b in zip(row, pivot)]
    assert got == want and [type(x) for x in got] == [type(x) for x in want]
    assert got == [a - factor * b for a, b in zip(row, pivot)]
    if all(type(x) is Fraction for x in (*row, *pivot, factor)):
        assert all(type(x) is Fraction for x in got)
        # no exact zero of the rows is read; a zero factor is read once
        assert zeros_read == (factor == 0)


@given(_rows(ratfns, 4))
@settings(max_examples=60, deadline=None)
def test_row_update_over_rational_functions(rows):
    row, pivot = rows
    factor = RationalFunction(var(XY, "x"))
    assert row_minus(row, factor, pivot) == [a - factor * b for a, b in zip(row, pivot)]


# ----------------------------------------------------------------------
# pivot columns of a transposed stack, as jets.reduce_redundant reads them

_few = st.sampled_from([Fraction(0), Fraction(0), Fraction(1), Fraction(-1), Fraction(2),
                        Fraction(1, 2)])
_few_gaussians = st.builds(GaussianRational, _few, _few)


@st.composite
def stacks(draw):
    """(ncols, rows, split) over Fractions or Gaussian rationals: rows from
    few values, with zero rows and repeats of earlier rows put in, and a
    split into free rows and candidates anywhere from none to all."""
    values = draw(st.sampled_from([_few, _few_gaussians]))
    ncols = draw(st.integers(1, 4))
    rows = draw(st.lists(st.lists(values, min_size=ncols, max_size=ncols), max_size=6))
    for _ in range(draw(st.integers(0, 2))):
        at = draw(st.integers(0, len(rows)))
        row = list(rows[draw(st.integers(0, at - 1))]) if at and draw(st.booleans()) else (
            [Fraction(0)] * ncols)
        rows.insert(at, row)
    return ncols, rows, draw(st.integers(0, len(rows)))


_q = lambda *xs: [Fraction(x) for x in xs]


@given(stacks())
@example((3, [], 0))
@example((2, [_q(1, 2), _q(0, 0), _q(1, 2), _q(2, 4), _q(0, 1)], 0))
@example((2, [_q(1, 2), _q(0, 0), _q(1, 2), _q(2, 4), _q(0, 1)], 5))
@example((2, [[GaussianRational(1, 1), Fraction(2)], [Fraction(0), Fraction(0)],
              [GaussianRational(2, 2), Fraction(4)], [Fraction(1), GaussianRational(0, 1)]], 1))
@settings(max_examples=200, deadline=None)
def test_transposed_pivot_columns_are_the_rows_outside_the_earlier_span(case):
    # column c of the transposed stack is a pivot exactly when row c lies
    # outside the span of the rows before it, so the pivots past the free
    # rows are what greedy insertion of the candidates keeps
    ncols, stack, split = case
    pivots, _ = _echelon([list(col) for col in zip(*stack)], len(stack))
    assert pivots == [c for c in range(len(stack))
                      if not in_row_span(stack[:c], stack[c], ncols)]
    free, candidates = stack[:split], stack[split:]
    assert [c - len(free) for c in pivots if c >= len(free)] == [
        k for k in range(len(candidates))
        if not in_row_span(free + candidates[:k], candidates[k], ncols)]
