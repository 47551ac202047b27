"""Exact linear algebra over Fraction or any exact field type.

Rank and nullspace questions here are yes/no algebraic properties, so
everything is decided by exact elimination with exact zero tests; there
are no thresholds.  Entries only need +, -, *, / and a truth value that
is false exactly at 0 (a FirstJet is always truthy): Fractions,
first jets, and the test suite's rational functions (giving ranks at the
generic point) all run through the same code paths.

:func:`_echelon` is the one elimination; its callers read the pivot list
(rank, solving, the redundancy reduction), the swap count (the polar
reading's determinant sign) or the diagonal (form definiteness) off it.

Exact zeros are skipped, never approximated: :func:`dot` leaves out a
product with a zero factor and the row update leaves an entry alone
where the pivot row is zero, so the mostly-zero tables of a constant
structure cost only their nonzero terms.  Both run on the integer
kernels of :mod:`diskeds.exact` (``sum_of_products``, ``row_minus``):
Fraction terms are summed on integer numerators and denominators and
each result is one reduced Fraction, the same value and type the
term-by-term Fraction operators give.
"""
from __future__ import annotations

from fractions import Fraction

from .exact import row_minus, sum_of_products


def dot(xs, ys, zero):
    """sum_k xs[k] * ys[k] over any exact scalar, skipping every pair with
    an exact zero factor; ``zero`` (the caller's zero, of its scalar type)
    when every pair is skipped."""
    s = sum_of_products(xs, ys)
    return zero if s is None else s


def dot_plus(xs, ys, c):
    """dot(xs, ys) + c over any exact scalar, a Fraction c in the integer
    sum, skipping exact zero terms; ``c`` itself when every product is skipped."""
    s = sum_of_products(xs, ys, c)
    return c if s is None else s


def _echelon(rows, ncols):
    """In-place forward elimination; returns the list of pivot columns and
    the number of row exchanges (whose parity is the determinant's sign)."""
    pivots = []
    swaps = 0
    r = 0
    nrows = len(rows)
    for c in range(ncols):
        pivot_row = None
        for i in range(r, nrows):
            if rows[i][c]:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        if pivot_row != r:
            rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
            swaps += 1
        pv = rows[r][c]
        for i in range(r + 1, nrows):
            if rows[i][c]:
                rows[i] = row_minus(rows[i], rows[i][c] / pv, rows[r])
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return pivots, swaps


def mat_rank(matrix) -> int:
    rows = [list(row) for row in matrix]
    if not rows:
        return 0
    return len(_echelon(rows, len(rows[0]))[0])


def solve_particular(matrix, rhs):
    """One exact solution of A x = b (free variables zero), or None."""
    rows = [list(row) + [b] for row, b in zip(matrix, rhs)]
    if not rows:
        return []
    ncols = len(matrix[0])
    pivots, _ = _echelon(rows, ncols + 1)
    if pivots and pivots[-1] == ncols:
        return None
    zero = Fraction(0)
    x = [zero] * ncols
    for r in range(len(pivots) - 1, -1, -1):
        pc, row = pivots[r], rows[r]
        x[pc] = (row[ncols] - dot(row[pc + 1:ncols], x[pc + 1:], zero)) / row[pc]
    return x


def row_times_matrix(row, matrix, zero):
    """(row matrix)_i = sum_j row_j matrix_{j,i} over any exact scalar, as
    :func:`dot` with the caller's ``zero``."""
    return tuple(dot(row, column, zero) for column in zip(*matrix))
