"""Independent oracles the main pipeline is validated against.

The first section is the symbolic reference: rational functions of f
(``RationalFunction``), the gamma/beta data and the complex closed forms
over them, built from the runtime's own formulas on RationalFunction(N, q)
inputs.  The runtime itself only evaluates at points.

Everything else here recomputes quantities from first definitions along a
different code path than the library: torsion coefficients by expanding
d(theta^k) over the joint (f, p) ring, the gamma/beta value and gradient
tables by symbolic differentiation, first-prolongation dimension by
brute-force solution of the degree-2 jet membership system, the
reduced jet by directly solving the 2x2 elimination system, and the
distinguished-pair scan by one full gamma/beta build per candidate.

The second half holds reference implementations that no CLI command runs
but tests compare the runtime against, such as the Levi form, the 2n
torsion quadratic-form matrices built on full gradients, definiteness
by one determinant per leading minor, the two-branch reading of a
linearization (affine coefficients at zero top jets), the explicit
polar maps of a line with their stacked square, and ``det``,
``nullity`` and ``cramer_determinant``, which eliminate a matrix once
per quantity.  The last sections keep the expression
parser that built every term as a Polynomial, ``rat`` on
``Fraction(str)`` and ``rat`` on Fraction's constructor, which the
runtime's term-table parser and split-text ``rat`` are checked against,
and the report rendering by way of a second tree of strings
(``jsonable``), which the one-pass report writer is checked against.
"""
from __future__ import annotations

import json
import random
import re
from collections import namedtuple
from fractions import Fraction
from math import lcm

from diskeds.errors import (CrossCheckMismatch, DimensionMismatch, DiskEdsError,
                            MalformedSyntax, NegativeOrNonIntegerExponent,
                            NotComplexifiedMode, SchemaViolation, SingularD,
                            UnknownVariable, WrongDimension)
from diskeds.exact import (I_UNIT, FirstJet, GaussianRational, gaussian, normalize_scalar,
                           rat, rational_str, require_real, row_minus, scalar_conj)
from diskeds.expr import Polynomial, print_polynomial, tokenize
from diskeds.geometry import (FirstJetPoint, GammaBetaData, HypersurfaceProblem,
                              StructureMatrix, _along, _chart_order, _gamma_beta,
                              _gammas, _inputs, _mu_and_D, _tangent, _value,
                              complex_standard, compute_gamma_beta, full_jet,
                              structure_from_entries)
from diskeds.integral_element import FlagSpec, _dtheta_row_data
from diskeds.jets import _close, d_t, d_tbar, jet_table, probe_from_values
from diskeds.linalg import _echelon, dot, dot_plus, solve_particular
from diskeds.torsion import complex_torsion


# ----------------------------------------------------------------------
# the symbolic reference: gamma/beta over rational functions of f


def differentiate(p: Polynomial, name) -> Polynomial:
    """The partial derivative of ``p`` along the variable ``name``."""
    if name not in p.vars:
        raise UnknownVariable(f"unknown variable {name!r}")
    i = p.vars.index(name)
    res = {}
    for exps, c in p.terms.items():
        k = exps[i]
        if k:
            # distinct monomials have distinct derivatives: no sums here
            res[exps[:i] + (k - 1,) + exps[i + 1:]] = c * k
    return Polynomial(p.vars, res)


class DivisionByZeroFunction(DiskEdsError):
    pass


class RationalFunction:
    """Quotient of polynomials; equality by cross-multiplication.

    Only scalar content and common monomial factors are cancelled (no
    multivariate gcd); the denominator is normalized to gradlex-leading
    coefficient 1 so representations are deterministic.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: Polynomial, den: Polynomial = None):
        if den is None:
            # over 1 the monomial shift, the scaling and num == den change nothing
            self.num = num
            self.den = Polynomial.const(num.vars, 1)
            return
        if num.vars != den.vars:
            raise DimensionMismatch("numerator and denominator tables differ")
        if den.is_zero():
            raise DivisionByZeroFunction("zero denominator polynomial")
        if num.is_zero():
            den = Polynomial.const(num.vars, 1)
        else:
            nmin = [min(e[i] for e in num.terms) for i in range(len(num.vars))]
            dmin = [min(e[i] for e in den.terms) for i in range(len(num.vars))]
            shift = tuple(min(a, b) for a, b in zip(nmin, dmin))
            if any(shift):
                num = Polynomial(num.vars,
                                 {tuple(a - s for a, s in zip(e, shift)): c
                                  for e, c in num.terms.items()})
                den = Polynomial(den.vars,
                                 {tuple(a - s for a, s in zip(e, shift)): c
                                  for e, c in den.terms.items()})
        lead = den.leading()[1] if not den.is_zero() else 1
        if lead != 1:
            inv = 1 / lead
            num = num.scale(inv)
            den = den.scale(inv)
        if num == den:
            num = Polynomial.const(num.vars, 1)
            den = Polynomial.const(num.vars, 1)
        self.num = num
        self.den = den

    @classmethod
    def from_const(cls, variables, value):
        return cls(Polynomial.const(variables, value))

    @property
    def vars(self):
        return self.num.vars

    def is_zero(self):
        return self.num.is_zero()

    def __bool__(self):
        return not self.num.is_zero()

    def _coerce(self, other):
        if isinstance(other, RationalFunction):
            if self.vars != other.vars:
                raise DimensionMismatch("mixed variable tables")
            return other
        if isinstance(other, Polynomial):
            return RationalFunction(other)
        if isinstance(other, (int, Fraction, GaussianRational)):
            return RationalFunction.from_const(self.vars, other)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if self.den == other.den:
            return RationalFunction(self.num + other.num, self.den)
        return RationalFunction(self.num * other.den + other.num * self.den,
                                self.den * other.den)

    __radd__ = __add__

    def __neg__(self):
        return RationalFunction(-self.num, self.den)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return RationalFunction(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if other.num.is_zero():
            raise DivisionByZeroFunction("division by the zero function")
        if self.den == other.den:
            return RationalFunction(self.num, other.num)
        return RationalFunction(self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other):
        return self._coerce(other) / self

    def __pow__(self, k):
        if not isinstance(k, int):
            raise NegativeOrNonIntegerExponent(f"bad exponent {k!r}")
        if k < 0:
            return RationalFunction(self.den, self.num) ** (-k)
        return RationalFunction(self.num ** k, self.den ** k)

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if self.den == other.den:
            return self.num == other.num
        return self.num * other.den == other.num * self.den

    def __hash__(self):
        return hash((self.num, self.den))

    def __repr__(self):
        if self.den == 1:
            return f"RationalFunction({print_polynomial(self.num)!r})"
        return (f"RationalFunction({print_polynomial(self.num)!r} / "
                f"{print_polynomial(self.den)!r})")

    def differentiate(self, name):
        return RationalFunction(
            differentiate(self.num, name) * self.den
            - self.num * differentiate(self.den, name),
            self.den * self.den)

    def evaluate(self, point):
        d = self.den.evaluate(point)
        if d == 0:
            raise ZeroDivisionError("denominator vanishes at the point")
        n = self.num.evaluate(point)
        return normalize_scalar(n / d) if n else n

    def first_jet(self, point) -> FirstJet:
        """Value and gradient at a point (ZeroDivisionError at a pole)."""
        return self.num.first_jet(point) / self.den.first_jet(point)


def permute_polynomial(p: Polynomial, order) -> Polynomial:
    """Reorder the variable table; ``order`` lists old 0-based indices."""
    new_vars = tuple(p.vars[i] for i in order)
    res = {}
    for exps, c in p.terms.items():
        res[tuple(exps[i] for i in order)] = c
    return Polynomial(new_vars, res)


def structure_entries(structure: StructureMatrix):
    """The structure's entries N/q as RationalFunctions, user order."""
    q = structure.denominator
    return tuple(tuple(RationalFunction(N, q) for N in row) for row in structure.numerators)


def internal_vars(problem: HypersurfaceProblem):
    """The coordinate names in the chart's internal order."""
    return tuple(problem.rho.vars[i] for i in problem.internal_order())


def symbolic_gamma_beta(problem: HypersurfaceProblem) -> GammaBetaData:
    """GammaBetaData over RationalFunctions of the internal f-variables,
    from RationalFunction(N, q) inputs through geometry's own _mu_and_D
    and _gammas (beta_full forms on first read, over the same scalars).
    Raises SingularD when D = 0."""
    order = problem.internal_order()
    rho = permute_polynomial(problem.rho, order)
    grad = tuple(RationalFunction(differentiate(rho, v)) for v in rho.vars)
    q = permute_polynomial(problem.structure.denominator, order)
    N = problem.structure.numerators
    alpha = tuple(tuple(RationalFunction(permute_polynomial(N[j][i], order), q)
                        for i in order) for j in order)
    zero = RationalFunction.from_const(rho.vars, 0)
    mu, minus_mu, D = _mu_and_D(grad, alpha, zero)
    if D.is_zero():
        raise SingularD("D vanishes identically for this distinguished pair")
    return GammaBetaData(problem, alpha, grad, mu, D,
                         *_gammas(grad, mu, minus_mu, D, zero))


def squares_to_minus_identity_by_products(A_entries) -> bool:
    """Whether A^2 = -I, from all (2n)^3 products of A's polynomial
    entries, with no witness read first."""
    zero = Polynomial.zero(A_entries[0][0].vars)
    return all(sum((row[k] * A_entries[k][i] for k in range(len(row))), zero)
               == (-1 if i == j else 0)
               for j, row in enumerate(A_entries) for i in range(len(row)))


def complex_problem(rho: Polynomial) -> HypersurfaceProblem:
    """The problem of a bare rho under the standard structure at the pair
    (1, 2)."""
    two_n = len(rho.vars)
    if two_n % 2 or two_n < 4:
        raise WrongDimension(f"need an even number >= 4 of variables, got {two_n}")
    return HypersurfaceProblem(rho, complex_standard(two_n // 2, rho.vars), (1, 2))


def symbolic_complex_B(rho: Polynomial):
    """torsion.complex_B_coefficients of a bare rho over RationalFunctions:
    every B and form entry as a function of f."""
    problem = complex_problem(rho)
    gb = symbolic_gamma_beta(problem)
    fvars = internal_vars(problem)
    gammas = tuple(gamma[1::2] for gamma in (gb.gamma1, gb.gamma2))   # j = 4, 6, .., 2n
    return complex_torsion(problem, gammas, gammas,
                           lambda target, i: target.differentiate(fvars[i]),
                           RationalFunction.from_const(fvars, 0))


# ----------------------------------------------------------------------
# oracles along independent paths


def dtheta_torsion_oracle(problem: HypersurfaceProblem):
    """c^k_{1,2} by expanding d(theta^k) modulo the ideal from scratch.

    Works over the joint ring Q(f_1..f_{2n}, p_3..p_{2n}); uses only the
    structure equations theta^k = df_k - a_k dx1 - b_k dx2 and the df
    substitution, never the transcribed coefficient table.
    """
    gb = symbolic_gamma_beta(problem)
    two_n = problem.two_n
    m = two_n - 2
    fvars = internal_vars(problem)
    joint = fvars + tuple(f"p{j}" for j in range(3, two_n + 1))
    lift = lambda r: extend_to(r, joint)
    zero = RationalFunction.from_const(joint, 0)
    pvar = [RationalFunction(var(joint, f"p{j}"))
            for j in range(3, two_n + 1)]
    g1 = [lift(r) for r in gb.gamma1]
    g2 = [lift(r) for r in gb.gamma2]
    bf = [[lift(r) for r in row] for row in gb.beta_full]
    a = [sum((g1[j] * pvar[j] for j in range(m)), zero),
         sum((g2[j] * pvar[j] for j in range(m)), zero)]
    for i in range(2, two_n):
        a.append(pvar[i - 2])
    b = [sum((bf[i][j] * pvar[j] for j in range(m)), zero) for i in range(two_n)]
    cs = []
    for k in range(two_n):
        ck = sum((a[k].differentiate(fvars[i]) * b[i] for i in range(two_n)), zero) \
            - sum((b[k].differentiate(fvars[i]) * a[i] for i in range(two_n)), zero)
        cs.append(ck)
    # dp^j ^ dx_i coefficients: A^k_{(j,1),1} = -da_k/dp_j, A^k_{(j,1),2} = -db_k/dp_j
    a_table = [[(-a[k].differentiate(f"p{j}"), -b[k].differentiate(f"p{j}"))
                for j in range(3, two_n + 1)] for k in range(two_n)]
    return joint, pvar, cs, a_table


def coefficient_tables_symbolic(problem: HypersurfaceProblem, point):
    """Values and f-gradients of gamma and beta_full at a point (user order),
    by building the symbolic gamma/beta, differentiating each entry and
    evaluating it; same layout as :func:`coefficient_tables_full`."""
    gb = symbolic_gamma_beta(problem)
    pt_int = tuple(Fraction(point[i]) for i in problem.internal_order())
    if gb.D.evaluate(pt_int) == 0:
        raise SingularD("D = 0 at this point; try another distinguished pair")

    def values(row):
        return tuple(r.evaluate(pt_int) for r in row)

    def grads(row):
        return tuple(tuple(r.differentiate(v).evaluate(pt_int)
                           for v in internal_vars(problem)) for r in row)

    return (gb, (values(gb.gamma1), grads(gb.gamma1)),
            (values(gb.gamma2), grads(gb.gamma2)),
            tuple(values(row) for row in gb.beta_full),
            tuple(grads(row) for row in gb.beta_full))


def first_jet_values(gb: GammaBetaData) -> GammaBetaData:
    """The pointwise data that first-jet data ``gb`` holds: every entry's
    value.  Equals compute_gamma_beta at the same point, without
    evaluating anything again; its beta_full forms from those values."""
    values = lambda row: tuple(map(_value, row))
    return gb._replace(alpha=tuple(values(row) for row in gb.alpha),
                       rho_grad=values(gb.rho_grad), mu=values(gb.mu), D=_value(gb.D),
                       gamma1=values(gb.gamma1), gamma2=values(gb.gamma2))


def gamma_beta_first_jets(problem: HypersurfaceProblem, point) -> GammaBetaData:
    """The gamma/beta builder over exact first jets at ``point``: every
    entry is a FirstJet holding its value and its gradient in the internal
    f-variables, or its value where that gradient is zero.  Raises as
    compute_gamma_beta."""
    return _gamma_beta(*_chart_order(problem, _inputs(problem, point, jets=True)))


def coefficient_tables_full(problem: HypersurfaceProblem, point):
    """Values and f-gradients of gamma and beta_full at the point (user
    order), read from the exact first jets; also returns those jets."""
    gb = gamma_beta_first_jets(problem, point)
    values = lambda jets: tuple(map(_value, jets))
    grads = lambda jets: tuple(tuple(_tangent(x, i) for i in range(problem.two_n))
                               for x in jets)
    return (gb, (values(gb.gamma1), grads(gb.gamma1)),
            (values(gb.gamma2), grads(gb.gamma2)),
            tuple(values(row) for row in gb.beta_full),
            tuple(grads(row) for row in gb.beta_full))


def raw_torsion_matrices(gammas, gamma_grads, beta_full, beta_grads, zero):
    """The 2n unsymmetrized torsion matrices from gamma^1, gamma^2 and
    beta_full and their f-gradients (internal order), over any exact
    scalar; ``zero`` is that scalar's zero, the value of a contracted sum
    whose every term has a zero factor.  c^k at a jet is p^T raw_k p."""
    two_n = len(beta_full)
    m = two_n - 2
    gamma_pairs = tuple(zip(*gammas))
    beta_columns = tuple(zip(*beta_full))

    def contracted(i, j, jp):
        # dbeta_{i,j}/df contracted with the gammas
        grad = beta_grads[i][j]
        return dot_plus(grad[:2], gamma_pairs[jp], grad[jp + 2])

    def entry(k, j, jp):
        c = contracted(k, j, jp)
        if k >= 2:
            return -c if c else c
        s = dot(gamma_grads[k][j], beta_columns[jp], zero)
        return s - c if c else s

    return [[[entry(k, j, jp) for jp in range(m)] for j in range(m)]
            for k in range(two_n)]


def torsion_values_from_matrices(jet: FirstJetPoint, tables):
    """c^k = p^T raw_k p at the jet, from ``tables``, the full-gradient
    tables of the symbolic reference at ``jet.f``
    (:func:`coefficient_tables_symbolic`: each entry a rational function,
    differentiated, then evaluated), which no first jet of the pipeline
    enters."""
    _, (g1v, g1d), (g2v, g2d), bv, bd = tables
    raw = raw_torsion_matrices((g1v, g2v), (g1d, g2d), bv, bd, Fraction(0))
    p = tuple(Fraction(x) for x in jet.p_reduced)
    zero = Fraction(0)
    return tuple(dot(p, [dot(row, p, zero) for row in mat], zero) for mat in raw)


def torsion_values_along_tables(problem: HypersurfaceProblem, jet: FirstJetPoint):
    """c^k = sum_j p^j (D_{p2} gamma^k_j - D_{p1} beta_{k,j}), the gamma
    term for k = 1, 2 only: the table sums that torsion's contracted
    reading must equal, from the tangents along (p1, p2) of every gamma
    and of beta_full, built here over first jets along the jet by the
    gamma/beta builder."""
    inputs = _inputs(problem, jet.f, jets=True)
    gb = compute_gamma_beta(problem, jet.f)
    fj = full_jet(jet, gb)
    along = _gamma_beta(*_chart_order(gb.problem, inputs, _along((fj.p1, fj.p2))))
    p, zero = jet.p_reduced, Fraction(0)
    along_p = lambda row, d: dot(p, [_tangent(x, d) for x in row], zero)
    b = [along_p(row, 0) for row in along.beta_full]
    g = [along_p(gamma, 1) for gamma in (along.gamma1, along.gamma2)]
    return tuple([gk - bk for gk, bk in zip(g, b)] + [-bk for bk in b[2:]])


def dtheta_x2_column_full(problem: HypersurfaceProblem, jet: FirstJetPoint, tables):
    """G's X_2 column at the jet contracted from the full-gradient tables:
    sum_i p^i (D_{p2} gamma^k_i - D_{p1} beta_{k,i}) for d(theta^k), k = 2
    or, where rho_1 = 0, k = 1; then sum_i p^i D_{p1} beta_{j,i} for
    j = 3..2n, with D_v e = grad(e) . v; the gradients come from
    ``tables``, as in :func:`torsion_values_from_matrices`."""
    gb, (_, g1d), (_, g2d), bv, bd = tables
    order = problem.internal_order()
    k = 0 if gb.rho_grad[0].evaluate(tuple(Fraction(jet.f[i]) for i in order)) == 0 else 1
    fj = full_jet(jet, compute_gamma_beta(problem, jet.f))
    p1 = tuple(fj.p1[i] for i in order)
    p2 = tuple(fj.p2[i] for i in order)
    p = tuple(Fraction(x) for x in jet.p_reduced)
    along = lambda grads, v: [sum(g[a] * v[a] for a in range(len(v))) for g in grads]
    column = [sum(pi * (x - y) for pi, x, y in
                  zip(p, along((g1d, g2d)[k], p2), along(bd[k], p1)))]
    column += [sum(pi * x for pi, x in zip(p, along(bd[j], p1)))
               for j in range(2, problem.two_n)]
    return column


def quadratics_by_symmetrizing(n: int, B_lower: dict, B_upper: dict):
    """torsion.quadratics_from_B in two passes: each (j, k) fills its own
    2x2 block of two raw matrices, which are then symmetrized entry by
    entry as (raw + raw^T) / 2."""
    m = 2 * n - 2
    raw1 = [[None] * m for _ in range(m)]
    raw2 = [[None] * m for _ in range(m)]
    for j in range(2, n + 1):
        a, b = 2 * j - 4, 2 * j - 3     # p^{2j-1}, p^{2j}
        for k in range(2, n + 1):
            c, d = 2 * k - 4, 2 * k - 3
            up = B_upper[(j, k)]
            low = B_lower[(j, k)]
            minus_up = -up if up else up
            minus_low = -low if low else low
            # c1: [p^{2j-1}p^{2k-1} + p^{2j}p^{2k}] B^{j,k}
            #     + [p^{2j}p^{2k-1} - p^{2j-1}p^{2k}] B_{j,k}
            raw1[a][c], raw1[b][d], raw1[b][c], raw1[a][d] = up, up, low, minus_low
            # c2: -[..] B_{j,k} + [..] B^{j,k}
            raw2[a][c], raw2[b][d], raw2[b][c], raw2[a][d] = minus_low, minus_low, up, minus_up
    half = Fraction(1, 2)

    def entry(x, y):
        s = x + y if x and y else x or y
        return s * half if s else s

    return tuple(tuple(tuple(entry(x, y) for x, y in zip(row, column))
                       for row, column in zip(raw, zip(*raw)))
                 for raw in (raw1, raw2))


def definiteness_by_minors(matrix) -> str:
    """form_definiteness with one determinant per leading principal minor."""
    m = len(matrix)
    minors = [det([row[:k] for row in matrix[:k]]) for k in range(1, m + 1)]
    if all(x > 0 for x in minors):
        return "positive_definite"
    if all((x < 0 if k % 2 == 0 else x > 0) for k, x in enumerate(minors)):
        return "negative_definite"
    return "not_definite"


def choose_pair_by_builds(problem: HypersurfaceProblem, point=None):
    """The fallback pair scan by a full gamma/beta build per candidate pair,
    symbolic without a point: the first pair, in index order, whose build
    succeeds."""
    two_n = problem.two_n
    build = symbolic_gamma_beta if point is None else (
        lambda candidate: compute_gamma_beta(candidate, point))
    for i1 in range(1, two_n + 1):
        for i2 in range(i1 + 1, two_n + 1):
            try:
                build(problem.with_pair((i1, i2)))
                return (i1, i2)
            except SingularD:
                continue
    if point is None:
        raise SingularD("D vanishes identically for every distinguished pair")
    raise SingularD("D = 0 at the point for every distinguished pair")


def brute_force_dim_A1(gb) -> int:
    """dim A^(1) by enumerating symmetric coefficient arrays P11, P12, P22
    whose both partial derivatives lie in the span of the tableau basis."""
    two_n = gb.two_n
    m = two_n - 2
    U = []
    for j in range(m):
        x1 = [Fraction(0)] * two_n
        x1[0] = gb.gamma1[j]
        x1[1] = gb.gamma2[j]
        x1[j + 2] += Fraction(1)
        x2 = [gb.beta_full[i][j] for i in range(two_n)]
        U.append([-v for v in x1] + [-v for v in x2])
    annihilator = nullspace(U, 2 * two_n)
    # unknowns: P11 | P12 | P22, each in R^{2n}
    rows = []
    for q in annihilator:
        r1 = [Fraction(0)] * (3 * two_n)
        r2 = [Fraction(0)] * (3 * two_n)
        for i in range(two_n):
            r1[i] = 2 * q[i]                  # q . (2 P11 | P12)
            r1[two_n + i] += q[two_n + i]
            r2[two_n + i] += q[i]             # q . (P12 | 2 P22)
            r2[2 * two_n + i] = 2 * q[two_n + i]
        rows += [r1, r2]
    return nullity(rows, 3 * two_n)


def solve_A6_direct(problem: HypersurfaceProblem, f_point, p_reduced):
    """(p^1_1, p^2_1) by solving the 2x2 elimination system directly."""
    gb = compute_gamma_beta(problem, f_point)
    two_n = problem.two_n
    rhs1 = -sum(gb.rho_grad[j] * p for j, p in zip(range(2, two_n), p_reduced))
    rhs2 = -sum(gb.mu[j] * p for j, p in zip(range(2, two_n), p_reduced))
    sol = solve_particular(
        [[gb.rho_grad[0], gb.rho_grad[1]], [gb.mu[0], gb.mu[1]]], [rhs1, rhs2])
    assert sol is not None
    return tuple(sol)


def random_polynomial(rng: random.Random, variables, degree, terms, lo=-4, hi=4):
    p = Polynomial.zero(variables)
    nv = len(variables)
    for _ in range(terms):
        exps = [0] * nv
        for _ in range(rng.randint(0, degree)):
            exps[rng.randrange(nv)] += 1
        if sum(exps) > degree:
            continue
        c = Fraction(rng.randint(lo, hi))
        if c:
            p = p + Polynomial(variables, {tuple(exps): c})
    return p


def random_constant_structure(rng, n, lo=-4, hi=4):
    vs = tuple(f"f{i}" for i in range(1, 2 * n + 1))
    ent = [[Polynomial.const(vs, rng.randint(lo, hi))
            for _ in range(2 * n)] for _ in range(2 * n)]
    return structure_from_entries(n, ent), vs


def random_polynomial_structure(rng, n, lo=-2, hi=2):
    vs = tuple(f"f{i}" for i in range(1, 2 * n + 1))

    def entry():
        p = Polynomial.const(vs, rng.randint(lo, hi))
        if rng.random() < 0.4:
            p = p + var(vs, vs[rng.randrange(2 * n)]).scale(rng.randint(-2, 2))
        return p

    ent = [[entry() for _ in range(2 * n)] for _ in range(2 * n)]
    return structure_from_entries(n, ent), vs


def on_chart_point(rng, problem, tries=200):
    """Random rational point with D != 0 (not required to lie on rho = 0)."""
    two_n = problem.two_n
    for _ in range(tries):
        pt = tuple(Fraction(rng.randint(-3, 3)) for _ in range(two_n))
        try:
            compute_gamma_beta(problem, pt)
            return pt
        except SingularD:
            continue
    raise AssertionError("no chart point found")


def on_surface_point(rng, problem, tries=500):
    """Random rational point with rho = 0 and D != 0, solving rho for one
    coordinate linearly when possible."""
    two_n = problem.two_n
    rho = problem.rho
    for _ in range(tries):
        pt = [Fraction(rng.randint(-3, 3)) for _ in range(two_n)]
        # try to fix one coordinate k appearing linearly
        for k in range(two_n):
            var = rho.vars[k]
            dk = differentiate(rho, var)
            if dk.is_zero() or any(e[k] for e in dk.terms):
                continue  # var absent or nonlinear
            rest = {v: x for v, x in zip(rho.vars, pt) if v != var}
            num = partial_evaluate(rho, rest)  # c0 + slope*var
            slope = dk.evaluate(pt)
            c0 = num.constant_term()
            if slope == 0:
                continue
            pt[k] = -c0 / slope
            if rho.evaluate(pt) != 0:
                continue
            try:
                compute_gamma_beta(problem, pt)
                return tuple(pt)
            except SingularD:
                break
        else:
            continue
    raise AssertionError("no on-surface chart point found")


# ----------------------------------------------------------------------
# reference implementations that no CLI command runs


def extend_to(x, new_vars):
    """A Polynomial or RationalFunction over a larger table that contains
    its own, each variable keeping its name."""
    if isinstance(x, RationalFunction):
        return RationalFunction(extend_to(x.num, new_vars), extend_to(x.den, new_vars))
    new_vars = tuple(new_vars)
    idx = [new_vars.index(name) for name in x.vars]
    res = {}
    for exps, c in x.terms.items():
        e = [0] * len(new_vars)
        for i, k in zip(idx, exps):
            e[i] = k
        res[tuple(e)] = c
    return Polynomial(new_vars, res)


def used_variables(p: Polynomial):
    """The names of the variables that occur in ``p``."""
    return {name for exps in p.terms for name, e in zip(p.vars, exps) if e}


def partial_evaluate(p: Polynomial, assignment):
    """Substitute scalars for a subset of variables; table shrinks."""
    keep = [i for i, v in enumerate(p.vars) if v not in assignment]
    new_vars = tuple(p.vars[i] for i in keep)
    res = {}
    for exps, c in p.terms.items():
        acc = c
        for i, v in enumerate(p.vars):
            if v in assignment and exps[i]:
                acc = acc * assignment[v] ** exps[i]
        if acc == 0:
            continue
        e = tuple(exps[i] for i in keep)
        s = res.get(e, 0) + acc
        if s == 0:
            res.pop(e, None)
        else:
            res[e] = s
    return Polynomial(new_vars, res)

def substitute(p: Polynomial, mapping, target_vars):
    """Full substitution var -> Polynomial over ``target_vars``."""
    target_vars = tuple(target_vars)
    one = Polynomial.const(target_vars, 1)
    images = []
    for name in p.vars:
        img = mapping.get(name)
        if img is None:
            img = var(target_vars, name)
        images.append(img)
    out = Polynomial.zero(target_vars)
    cache = [dict() for _ in images]

    def power(i, e):
        if e == 0:
            return one
        got = cache[i].get(e)
        if got is None:
            got = images[i] ** e
            cache[i][e] = got
        return got

    for exps, c in p.terms.items():
        acc = Polynomial.const(target_vars, c)
        for i, e in enumerate(exps):
            if e:
                acc = acc * power(i, e)
        out = out + acc
    return out


def levi_form(rho: Polynomial, J: StructureMatrix, f_point, p):
    """D^2 rho(p,p) + Drho(DJ(Jp)(p)) + Drho(J(DJ(p)(p))) + D^2 rho(Jp,Jp).

    ``rho`` is a real-mode polynomial (complexified input is converted);
    for constant J the two DJ terms vanish.  Returns (value, warnings).
    """
    if any(conjugate_name(v) for v in rho.vars):
        rho = realify(rho)
    two_n = len(rho.vars)
    f_point = tuple(Fraction(x) for x in f_point)
    p = tuple(Fraction(x) for x in p)
    if len(f_point) != two_n or len(p) != two_n:
        raise DimensionMismatch("point / vector length mismatch")
    warnings = []
    entries = structure_entries(J)
    Jval = [[require_real(e.evaluate(f_point)) for e in row] for row in entries]
    ident = [[sum(Jval[r][k] * Jval[k][s] for k in range(two_n))
              for s in range(two_n)] for r in range(two_n)]
    if any(ident[r][s] != (-1 if r == s else 0)
           for r in range(two_n) for s in range(two_n)):
        warnings.append("J^2 != -I at the point")
    grad = [differentiate(rho, v).evaluate(f_point) for v in rho.vars]
    hess = [[differentiate(differentiate(rho, a), b).evaluate(f_point)
             for b in rho.vars] for a in rho.vars]
    Jp = [sum(Jval[r][s] * p[s] for s in range(two_n)) for r in range(two_n)]

    def dj_matrix(v):
        out = []
        for r in range(two_n):
            row = []
            for s in range(two_n):
                g = entries[r][s].first_jet(f_point).grad
                row.append(sum(require_real(g[l]) * v[l] for l in range(two_n)))
            out.append(row)
        return out

    quad = lambda a, b: sum(hess[i][j] * a[i] * b[j]
                            for i in range(two_n) for j in range(two_n))
    dj_jp = dj_matrix(Jp)
    dj_p = dj_matrix(p)
    vec1 = [sum(dj_jp[r][s] * p[s] for s in range(two_n)) for r in range(two_n)]
    inner = [sum(dj_p[r][s] * p[s] for s in range(two_n)) for r in range(two_n)]
    vec2 = [sum(Jval[r][s] * inner[s] for s in range(two_n)) for r in range(two_n)]
    value = (quad(p, p) + quad(Jp, Jp)
             + sum(grad[r] * vec1[r] for r in range(two_n))
             + sum(grad[r] * vec2[r] for r in range(two_n)))
    return value, tuple(warnings)


def conjugate_name(name):
    """z1 <-> zb1, w2_3 <-> wb2_3; None when the name is not complexified."""
    for plain, barred in (("z", "zb"), ("w", "wb")):
        if name.startswith(barred) and name[len(barred):] and name[len(barred)].isdigit():
            return plain + name[len(barred):]
        if name.startswith(plain) and name[len(plain):] and name[len(plain)].isdigit():
            return barred + name[len(plain):]
    return None


def var_jet_order(name: str) -> int:
    """0 for z/zb, 1 for w/wb, k + 1 for w_k/wb_k, read off the name."""
    base = name[2:] if name.startswith(("zb", "wb")) else name[1:]
    if name[0] == "z":
        return 0
    if "_" in base:
        return int(base.split("_", 1)[1]) + 1
    return 1


def conjugate_by_name(p: Polynomial) -> Polynomial:
    """jets.conjugate_involution with each variable's partner found by its
    name: swap z<->zb, w<->wb (same jet suffix), conjugate coefficients."""
    swap = []
    for name in p.vars:
        other = conjugate_name(name)
        if other is None or other not in p.vars:
            raise NotComplexifiedMode(
                f"variable {name!r} has no conjugate partner in the table")
        swap.append(p.vars.index(other))
    res = {}
    for exps, c in p.terms.items():
        e = [0] * len(p.vars)
        for i, k in enumerate(exps):
            e[swap[i]] = k
        res[tuple(e)] = scalar_conj(c)
    return Polynomial(p.vars, res)


def complexify(rho: Polynomial) -> Polynomial:
    """Real 2n-variable polynomial to the z/zb coordinates."""
    two_n = len(rho.vars)
    if two_n % 2:
        raise DimensionMismatch("need an even number of variables")
    n = two_n // 2
    table = jet_table(n, 1)
    half = Fraction(1, 2)
    mapping = {}
    for l in range(1, n + 1):
        z = var(table, f"z{l}")
        zb = var(table, f"zb{l}")
        mapping[rho.vars[2 * l - 2]] = (z + zb).scale(half)
        mapping[rho.vars[2 * l - 1]] = (zb - z).scale(gaussian("1/2") * gaussian(0, 1))
    return substitute(rho, mapping, table)


def realify(p: Polynomial, variables=None) -> Polynomial:
    """Inverse of complexify; errors if jets are present or coefficients
    fail to be real."""
    names = used_variables(p)
    if any(var_jet_order(v) > 0 for v in names):
        raise NotComplexifiedMode("cannot realify jet variables")
    n = max([int(v[2:] if v.startswith("zb") else v[1:]) for v in names] + [1])
    if variables is None:
        variables = tuple(f"f{i}" for i in range(1, 2 * n + 1))
    if len(variables) < 2 * n:
        raise DimensionMismatch("target table too small")
    znames = tuple([f"z{l}" for l in range(1, n + 1)]
                   + [f"zb{l}" for l in range(1, n + 1)])
    keep = [p.vars.index(v) for v in znames]
    p = Polynomial(znames, {tuple(e[i] for i in keep): c
                            for e, c in p.terms.items()})
    mapping = {}
    for l in range(1, n + 1):
        x = var(variables, variables[2 * l - 2])
        y = var(variables, variables[2 * l - 1])
        mapping[f"z{l}"] = x + y.scale(gaussian(0, 1))
        mapping[f"zb{l}"] = x - y.scale(gaussian(0, 1))
    out = substitute(p, mapping, variables)
    return Polynomial(out.vars, {e: require_real(c) for e, c in out.terms.items()})


def jet_to_probe(problem: HypersurfaceProblem, jet, order: int = 1) -> tuple:
    """Complexified probe from a real first jet (standard complex pairing)."""
    fj = full_jet(jet, compute_gamma_beta(problem, jet.f))
    n = problem.n
    z = [gaussian(jet.f[2 * l - 2], jet.f[2 * l - 1]) for l in range(1, n + 1)]
    w = [gaussian(fj.p1[2 * l - 2], fj.p1[2 * l - 1]) for l in range(1, n + 1)]
    return probe_from_values(n, order, z, [w])


def curve_probe(n: int, order: int, components, t0=Fraction(0)) -> tuple:
    """Probe carried by a polynomial disk t -> (z_1(t), .., z_n(t)).

    ``components`` are univariate Polynomials in the table ('t',); jets are
    exact derivatives at t0 (w^(k)_l = z_l^{(k+1)}(t0)).
    """
    derivs = [list(components)]
    for _ in range(order):
        derivs.append([differentiate(q, "t") for q in derivs[-1]])
    values = [[q.evaluate((t0,)) for q in d] for d in derivs]
    return probe_from_values(n, order, values[0], values[1:])


def mat_mul(a, b):
    if not a or not b:
        return []
    zero = 0 * a[0][0]
    cols = tuple(zip(*b))
    return [[dot(row, col, zero) for col in cols] for row in a]


def pair_X(flag: FlagSpec):
    """X coordinates of the plane spanned by the two flag generators, the
    2 x 2 minors of the generators written out: the reference the runtime's
    reading of integrality off P(E_1) is checked against."""
    a1, a2, c1, c2 = flag[:4]
    zero = Fraction(0)
    # X_2 = a^1_1 a^2_2 - a^1_2 a^2_1, then c^1_j a^2_k - c^2_j a^1_k, k = 1, 2
    X = [dot(a1, (a2[1], -a2[0]), zero)]
    for k in range(2):
        weights = (a2[k], -a1[k])
        X += [dot(c, weights, zero) for c in zip(c1, c2)]
    return X


PolarMaps = namedtuple("PolarMaps", "F G R square")


def explicit_polar_maps(rows, A1, A2, C) -> PolarMaps:
    """The polar maps of the line (A_1, A_2, C) written out as matrices on
    the X coordinates (X_2, X_3..X_{2n}, X_{2n+1}..X_{4n-2}), with G's rows
    the d(theta) rows ``rows`` of _dtheta_row_data.

    F ((4n-3) x 2n) sends (v_1, v_2, v_p3..v_p2n) to the X coordinates of
    the plane it spans with the line: X_2 = A_1 v_2 - A_2 v_1,
    X_i = C_i v_1 - A_1 v_p_i, X_{2n-2+i} = C_i v_2 - A_2 v_p_i.  R
    ((2n-2) x (4n-3)) holds the relations C_i X_2 + A_2 X_i - A_1 X_{2n-2+i}
    = 0 cutting out Im F, and ``square`` is G stacked over R.  The runtime
    reads G F off the rows in closed form (``integral_element.polar_matrix``)
    and det(square) off the pivots of G F
    (``integral_element.polar_nullity_and_determinant``).
    """
    m = len(C)
    two_n = m + 2
    nx = 2 * m + 1
    F = []
    row = [Fraction(0)] * two_n
    row[0], row[1] = -A2, A1
    F.append(row)
    for i in range(m):
        row = [Fraction(0)] * two_n
        row[0], row[2 + i] = C[i], -A1
        F.append(row)
    for i in range(m):
        row = [Fraction(0)] * two_n
        row[1], row[2 + i] = C[i], -A2
        F.append(row)
    R = []
    for i in range(m):
        row = [Fraction(0)] * nx
        row[0], row[1 + i], row[1 + m + i] = C[i], A2, -A1
        R.append(row)
    G = [[x2, *xi, *xlast] for x2, xi, xlast in rows]
    return PolarMaps(F, G, R, G + R)


def cramer_determinant(P, A1, A2):
    """The determinant of the d(theta) rows stacked over the relations
    cutting out the planes through l, read off P = polar_matrix(.., l)
    (see the ``diskeds.integral_element`` module docstring)."""
    if A1:
        return det([row[1:] for row in P]) / A1
    if A2:
        return -det([row[:1] + row[2:] for row in P]) / A2
    return Fraction(0)


def perturbed_polar_matrix(problem: HypersurfaceProblem, jet: FirstJetPoint,
                           flag: FlagSpec, eps_theta):
    """Full polar-space system for the flag's line E_1 perturbed by
    ``eps_theta`` (2n entries) in the theta directions, unknowns
    (v_1, v_2, v_theta_1..v_theta_2n, v_p3..v_p2n)."""
    two_n = problem.two_n
    m = two_n - 2
    A1, A2, C = flag.resolved(two_n)
    et = tuple(Fraction(x) for x in eps_theta)
    dim = 2 + two_n + m
    vth = lambda k: 2 + k          # 0-based theta slot k = 0..2n-1
    vp = lambda i: 2 + two_n + i   # 0-based reduced-jet slot i = 0..m-1
    rows = []
    for k in range(two_n):
        for i in range(2):
            row = [Fraction(0)] * dim
            row[vth(k)] = (A1, A2)[i]
            row[i] = row[i] - et[k]
            rows.append(row)
        for ip in range(two_n):
            row = [Fraction(0)] * dim
            row[vth(k)] = row[vth(k)] + et[ip]
            row[vth(ip)] = row[vth(ip)] - et[k]
            rows.append(row)
        for i in range(m):
            row = [Fraction(0)] * dim
            row[vth(k)] = row[vth(k)] + C[i]
            row[vp(i)] = row[vp(i)] - et[k]
            rows.append(row)
    for x2c, xic, xlc in _dtheta_row_data(problem, jet).rows:
        row = [Fraction(0)] * dim
        # X_2 = A1 v_2 - A2 v_1 ; X_i = C_i v_1 - A1 v_p_i ;
        # X_{2n-2+i} = C_i v_2 - A2 v_p_i
        row[1] += x2c * A1
        row[0] -= x2c * A2
        for i in range(m):
            row[0] += xic[i] * C[i]
            row[vp(i)] -= xic[i] * A1
            row[1] += xlc[i] * C[i]
            row[vp(i)] -= xlc[i] * A2
        rows.append(row)
    return rows, dim


def perturbed_polar_nullity(problem, jet, flag, eps_theta) -> int:
    rows, dim = perturbed_polar_matrix(problem, jet, flag, eps_theta)
    return nullity(rows, dim)


def structure_coefficient_forms(problem: HypersurfaceProblem):
    """Symbolic torsion quadratic-form matrices (RationalFunction entries)."""
    gb = symbolic_gamma_beta(problem)
    fvars = internal_vars(problem)
    grads = lambda rows: [[[e.differentiate(v) for v in fvars] for e in row]
                          for row in rows]
    raw = raw_torsion_matrices((gb.gamma1, gb.gamma2),
                                grads((gb.gamma1, gb.gamma2)), gb.beta_full,
                                grads(gb.beta_full),
                                RationalFunction.from_const(fvars, 0))
    return gb, raw


def torsion_form_matrices(problem: HypersurfaceProblem, point):
    """The 2n symmetric torsion quadratic-form matrices at a point: the
    pipeline's raw torsion matrices from the first-jet coefficient tables,
    symmetrized entry by entry."""
    gb, (g1v, g1d), (g2v, g2d), bv, bd = coefficient_tables_full(problem, point)
    raw = raw_torsion_matrices((g1v, g2v), (g1d, g2d), bv, bd, Fraction(0))
    m = problem.two_n - 2
    return [[[(mat[a][b] + mat[b][a]) / 2 for b in range(m)] for a in range(m)]
            for mat in raw]


def evaluate_form(matrix, p):
    return sum(matrix[a][b] * p[a] * p[b]
               for a in range(len(matrix)) for b in range(len(matrix)))


def dim6_completed_square(B_values: dict, variables=("p3", "p4", "p5", "p6")):
    """The completed-square forms of the two dimension-6 torsion quadratics.

    ``B_values`` maps ('lower'|'upper', j, k) to rationals; the leading
    blocks require B^{2,2} != 0 (for c1) and B_{2,2} != 0 (for c2).
    Returns (c1, c2) as Polynomials for symbolic comparison with the
    bilinear expansion.
    """
    P = {v: var(variables, v) for v in variables}
    Bl = {k: rat(v) for k, v in B_values.items() if k[0] == "lower"}
    Bu = {k: rat(v) for k, v in B_values.items() if k[0] == "upper"}
    bu22, bu33 = Bu[("upper", 2, 2)], Bu[("upper", 3, 3)]
    bl22, bl33 = Bl[("lower", 2, 2)], Bl[("lower", 3, 3)]
    bu23, bu32 = Bu[("upper", 2, 3)], Bu[("upper", 3, 2)]
    bl23, bl32 = Bl[("lower", 2, 3)], Bl[("lower", 3, 2)]
    if bu22 == 0 or bl22 == 0:
        raise WrongDimension("completed-square branch needs B_{2,2}, B^{2,2} nonzero")
    p3, p4, p5, p6 = P["p3"], P["p4"], P["p5"], P["p6"]
    e1 = (bu23 + bu32) / (2 * bu22)
    f1 = (bl23 - bl32) / (2 * bu22)
    sq1 = p3 + p5.scale(e1) - p6.scale(f1)
    sq2 = p4 + p6.scale(e1) + p5.scale(f1)
    rem1 = (4 * bu22 * bu33 - (bu23 + bu32) ** 2 - (bl23 - bl32) ** 2) / (4 * bu22)
    c1 = (sq1 * sq1 + sq2 * sq2).scale(bu22) + (p5 * p5 + p6 * p6).scale(rem1)
    e2 = (bl23 + bl32) / (2 * bl22)
    f2 = (bu23 - bu32) / (2 * bl22)
    sq3 = p3 + p5.scale(e2) + p6.scale(f2)
    sq4 = p4 + p6.scale(e2) - p5.scale(f2)
    rem2 = (-4 * bl22 * bl33 + (bl23 + bl32) ** 2 + (bu23 - bu32) ** 2) / (4 * bl22)
    c2 = (sq3 * sq3 + sq4 * sq4).scale(-bl22) + (p5 * p5 + p6 * p6).scale(rem2)
    return c1, c2


def pseudo_ellipsoid_rho(alphas, ks) -> Polynomial:
    variables = tuple(f"y{i}" for i in range(1, 7))
    p = Polynomial.zero(variables)
    for i in range(6):
        p = p + var(variables, variables[i]) ** (2 * ks[i]) * rat(alphas[i])
    return p


def nullity(matrix, ncols) -> int:
    rows = [list(row) for row in matrix if any(x != 0 for x in row)]
    if not rows:
        return ncols
    return ncols - len(_echelon(rows, ncols)[0])


def det(matrix):
    """Exact determinant by elimination; integer entries give a Fraction."""
    n = len(matrix)
    if n == 0:
        return Fraction(1)
    if any(len(row) != n for row in matrix):
        raise ValueError("determinant of a non-square matrix")
    rows = [[Fraction(x) if isinstance(x, int) else x for x in row] for row in matrix]
    sign = 1
    out = None
    for c in range(n):
        pivot_row = None
        for i in range(c, n):
            if rows[i][c] != 0:
                pivot_row = i
                break
        if pivot_row is None:
            return 0 * rows[0][0]
        if pivot_row != c:
            rows[c], rows[pivot_row] = rows[pivot_row], rows[c]
            sign = -sign
        pv = rows[c][c]
        out = pv if out is None else out * pv
        for i in range(c + 1, n):
            if rows[i][c] != 0:
                rows[i] = row_minus(rows[i], rows[i][c] / pv, rows[c])
    return out if sign > 0 else -out


def nullspace(matrix, ncols=None):
    """Basis of the right kernel, free variables set to one in turn."""
    rows = [list(row) for row in matrix]
    if ncols is None:
        if not rows:
            raise ValueError("ncols required for an empty matrix")
        ncols = len(rows[0])
    if not rows:
        basis = []
        for j in range(ncols):
            v = [Fraction(0)] * ncols
            v[j] = Fraction(1)
            basis.append(v)
        return basis
    pivots, _ = _echelon(rows, ncols)
    pivot_set = set(pivots)
    free = [c for c in range(ncols) if c not in pivot_set]
    basis = []
    for fc in free:
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for r in range(len(pivots) - 1, -1, -1):
            pc = pivots[r]
            s = 0
            for c in range(pc + 1, ncols):
                if v[c] != 0 and rows[r][c] != 0:
                    s = s + rows[r][c] * v[c]
            if s != 0:
                v[pc] = -s / rows[r][pc]
        basis.append(v)
    return basis


def in_row_span(rows, candidate, ncols) -> bool:
    """Exact membership of ``candidate`` in the row span of ``rows``."""
    base = [list(r) for r in rows if any(x != 0 for x in r)]
    if all(x == 0 for x in candidate):
        return True
    r0 = len(_echelon([list(r) for r in base], ncols)[0]) if base else 0
    r1 = len(_echelon(base + [list(candidate)], ncols)[0])
    return r1 == r0


def reduce_redundant_by_span(lin):
    """jets.reduce_redundant as reverse greedy deletion: from the last
    equality down, drop each linear top-order one whose affine part lies in
    the span of the other retained linear ones (two eliminations each).
    Returns (retained equalities, dropped equalities in descending index)."""
    eqs = lin.system.equalities
    parts = [list(g) + [v] for g, v in zip(lin.gradients, lin.values)]
    retained = list(range(len(eqs)))
    dropped = []
    for idx in reversed(range(len(eqs))):
        if lin.nonlinear[idx] or not lin.uses_top[idx]:
            continue
        base = [parts[j] for j in retained
                if j != idx and not lin.nonlinear[j]]
        if in_row_span(base, parts[idx], len(parts[idx])):
            dropped.append(eqs[idx])
            retained.remove(idx)
    return tuple(eqs[j] for j in retained), dropped


def _monomial_at(point, exps):
    """prod_i point_i ** exps_i over the slots ``point`` covers."""
    out = 1
    for x, e in zip(point, exps):
        if e:
            out = out * x ** e
    return out


def linearize_two_branch(system, probe):
    """(values, gradients, nonlinear, uses_top, mixed) of jets.linearize,
    read on two branches: with zero top jets, value and gradient are the
    constant and linear coefficients of each frozen equality; otherwise
    the frozen equality and its derived monomials are summed at the top
    jets."""
    n = system.n
    cut = len(system.table) - 2 * n
    low, x = probe[:cut], probe[cut:]
    constant = (0,) * (2 * n)
    units = [constant[:j] + (1,) + constant[j + 1:] for j in range(2 * n)]

    def sum_at(monomials):
        return normalize_scalar(sum((c * _monomial_at(x, e) for e, c in monomials),
                                    Fraction(0)))

    values, gradients, nonlinear, uses_top, mixed = [], [], [], [], False
    for p in system.equalities:
        frozen = {}
        for exps, c in p.terms.items():
            key = exps[cut:]
            frozen[key] = frozen.get(key, 0) + c * _monomial_at(low, exps)
        live = [(e, c) for e, c in frozen.items() if c != 0]
        if not any(x):
            values.append(normalize_scalar(frozen.get(constant, 0)))
            gradients.append(tuple(normalize_scalar(frozen.get(u, 0)) for u in units))
        else:
            values.append(sum_at(live))
            gradients.append(tuple(
                sum_at([(e[:j] + (e[j] - 1,) + e[j + 1:], c * e[j])
                        for e, c in live if e[j]])
                for j in range(2 * n)))
        nonlinear.append(any(sum(e) >= 2 for e, _ in live))
        uses_top.append(any(any(e) for e in frozen))
        # one equality naming a plain and a barred top jet mixes the halves
        mixed = mixed or (any(any(e[:n]) for e in frozen)
                          and any(any(e[n:]) for e in frozen))
    return (tuple(values), tuple(gradients), tuple(nonlinear), tuple(uses_top),
            mixed)


def rows_term_by_term(system, probe):
    """The rows of jets.linearize (value, top-jet gradient, nonlinear,
    uses_top, mixes), one per equality, summed term by term with the
    scalar operators: the value is sum c probe^e, gradient entry j is
    sum c e_j probe^(e - u_j) over the top jets u_j, and the flags read
    each term's top-jet exponents, its coefficient frozen at the lower jets
    and summed per top-jet exponent for ``nonlinear``; ``mixes`` holds when
    the equality names a plain and a barred top jet, in one term or two."""
    n = system.n
    cut = len(system.table) - 2 * n
    rows = []
    for p in system.equalities:
        value, grad, frozen = Fraction(0), [Fraction(0)] * (2 * n), {}
        for exps, c in p.terms.items():
            value = value + c * _monomial_at(probe, exps)
            for j in range(2 * n):
                e = exps[cut + j]
                if e:
                    down = exps[:cut + j] + (e - 1,) + exps[cut + j + 1:]
                    grad[j] = grad[j] + c * e * _monomial_at(probe, down)
            key = exps[cut:]
            frozen[key] = frozen.get(key, 0) + c * _monomial_at(probe[:cut], exps)
        rows.append((normalize_scalar(value), tuple(map(normalize_scalar, grad)),
                     any(sum(e) >= 2 for e, c in frozen.items() if c != 0),
                     any(map(any, frozen)),
                     any(any(e[:n]) for e in frozen) and any(any(e[n:]) for e in frozen)))
    return tuple(rows)


def derivation_at(p: Polynomial, probe, barred: bool):
    """(D_t p)(probe), or (D_tb p)(probe) when ``barred``, by the product
    rule read off the variable names: sum over the generators v of the
    derived kind of dp/dv at the probe times the probe's value of v's
    successor (z_l -> w_l, w_l^(k) -> w_l^(k+1), barred alike)."""
    index = {name: i for i, name in enumerate(p.vars)}
    out = Fraction(0)
    for name in used_variables(p):
        if name.startswith(("zb", "wb")) != barred:
            continue
        l, _, k = name.lstrip("zwb").partition("_")
        after = ("wb" if barred else "w") + l + (
            "" if name[0] == "z" else f"_{int(k or 0) + 1}")
        out = out + differentiate(p, name).evaluate(probe) * probe[index[after]]
    return normalize_scalar(out)


def _monic(p: Polynomial) -> Polynomial:
    if p.is_zero():
        return p
    lead = p.leading()[1]
    return p if lead == 1 else p.scale(1 / lead)


def close_by_conjugation(eqs):
    """Conjugation closure by conjugating: each equality made monic, kept
    unless already present, then followed by its monic conjugate unless
    already present; zeros dropped."""
    out, seen = [], set()
    for p in map(_monic, eqs):
        if p.is_zero():
            continue
        for q in (p, _monic(conjugate_by_name(p))):
            if q not in seen:
                out.append(q)
                seen.add(q)
    return tuple(out)


def prolong_by_conjugation(system):
    """The equalities of jets.prolong_constraints(system), re-closed by
    conjugating every one: the system's, then D_t g, D_tb g and D_t D_tb g
    for each of them."""
    table = jet_table(system.n, system.order + 1)
    eqs = [extend_to(p, table) for p in system.equalities]
    derived = []
    for p in eqs:
        dt = d_t(p)
        derived += [q for q in (dt, d_tbar(p), d_tbar(dt)) if not q.is_zero()]
    return close_by_conjugation(eqs + derived)


def substitute_vanishing_by_conjugation(equalities):
    """The equalities of jets.substitute_vanishing: bare-variable equalities
    (c*v = 0) propagated to a fixed point, then closed by conjugating."""
    eqs = list(equalities)
    while True:
        bare = {p for p in eqs if len(p.terms) == 1 and sum(next(iter(p.terms))) == 1}
        zero = {next(iter(p.terms)).index(1) for p in bare}
        new_eqs = [p if p in bare else
                   Polynomial(p.vars, {e: c for e, c in p.terms.items()
                                       if not any(e[i] for i in zero)})
                   for p in eqs]
        if new_eqs == eqs:
            return close_by_conjugation(eqs)
        eqs = new_eqs


def substitute_vanishing_by_full_passes(system):
    """jets.substitute_vanishing by full passes: every pass rebuilds every
    equality that is not bare, against every generator zeroed so far, and
    the closure makes every equality monic again and always builds a new
    system."""
    eqs = list(system.equalities)
    while True:
        bare = {p for p in eqs if len(p.terms) == 1 and sum(next(iter(p.terms))) == 1}
        zero = {next(iter(p.terms)).index(1) for p in bare}
        new_eqs = [p if p in bare else _without_rebuilt(p, zero) for p in eqs]
        if new_eqs == eqs:
            return system._replace(equalities=_close([_monic(p) for p in eqs]))
        eqs = new_eqs


def _without_rebuilt(p: Polynomial, slots) -> Polynomial:
    """``p`` with every term that involves a generator in ``slots`` removed."""
    return Polynomial(p.vars, {e: c for e, c in p.terms.items()
                               if not any(e[i] for i in slots)})


# ----------------------------------------------------------------------
# reference front end


def var(variables, name) -> Polynomial:
    """The polynomial ``name`` over ``variables``."""
    variables = tuple(variables)
    if name not in variables:
        raise UnknownVariable(f"unknown variable {name!r}")
    i = variables.index(name)
    exps = tuple(1 if j == i else 0 for j in range(len(variables)))
    return Polynomial(variables, {exps: Fraction(1)})


class ReferenceParser:
    """The grammar of ``diskeds.expr`` by Polynomial arithmetic: every atom
    is a Polynomial and every operator a Polynomial operation."""

    def __init__(self, tokens, variables, complexified):
        self.tokens = tokens
        self.pos = 0
        self.vars = tuple(variables)
        self.complexified = complexified

    def peek(self):
        return self.tokens[self.pos]

    def take(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind):
        tok = self.take()
        if tok[0] != kind:
            raise MalformedSyntax(f"expected {kind}, found {tok[1]!r}", tok[2])
        return tok

    def parse(self):
        p = self.expr()
        tok = self.peek()
        if tok[0] != "END":
            raise MalformedSyntax(f"trailing input {tok[1]!r}", tok[2])
        return p

    def expr(self):
        p = self.term()
        while self.peek()[0] in ("+", "-"):
            op = self.take()[0]
            q = self.term()
            p = p + q if op == "+" else p - q
        return p

    def term(self):
        p = self.factor()
        while self.peek()[0] == "*":
            self.take()
            p = p * self.factor()
        return p

    def factor(self):
        if self.peek()[0] == "-":
            self.take()
            return -self.factor()
        p = self.atom()
        if self.peek()[0] == "^":
            self.take()
            p = p ** self.exponent()
        return p

    def exponent(self):
        tok = self.peek()
        if tok[0] == "-":
            raise NegativeOrNonIntegerExponent(
                f"negative exponent at byte {tok[2]}")
        tok = self.take()
        if tok[0] != "INT":
            raise MalformedSyntax(f"expected integer exponent, found {tok[1]!r}", tok[2])
        if self.peek()[0] == "/" and self.tokens[self.pos + 1][0] == "INT":
            raise NegativeOrNonIntegerExponent(
                f"fractional exponent at byte {self.peek()[2]}")
        return tok[1]

    def atom(self):
        tok = self.take()
        kind, value, off = tok
        if kind == "INT":
            if self.peek()[0] == "/":
                self.take()
                den = self.expect("INT")
                if den[1] == 0:
                    raise MalformedSyntax("zero denominator", den[2])
                return Polynomial.const(self.vars, Fraction(value, den[1]))
            return Polynomial.const(self.vars, Fraction(value))
        if kind == "NAME":
            if value == "i" and self.complexified and "i" not in self.vars:
                return Polynomial.const(self.vars, I_UNIT)
            if value not in self.vars:
                raise UnknownVariable(f"unknown variable {value!r} at byte {off}")
            return var(self.vars, value)
        if kind == "(":
            p = self.expr()
            self.expect(")")
            return p
        raise MalformedSyntax(f"unexpected token {value!r}", off)


def parse_expression_reference(text, variables, complexified=False) -> Polynomial:
    return ReferenceParser(tokenize(text), variables, complexified).parse()


def product_by_operators(a, b, budget=None):
    """``diskeds.expr._product`` of two term tables, term by term on the
    coefficients' operators, with a budget taken for the integers that
    product works on.  A monomial by a monomial is one pair of its
    coefficients' words.  Otherwise each row of len(b) coefficient pairs
    is taken from ``budget`` before it is multiplied, with its
    coefficient's words times those of b, two rational tables counted on
    their numerators over the lcm of each table's denominators and other
    tables as written; after the last row, each term left over a
    denominator d = da * db other than 1 takes the words of d times those
    of its numerator over d, for its gcd.  A sum that cancels leaves the
    table, a partial product past MAX_TERMS terms raises, and so does a
    product past the coefficient bits."""
    from diskeds import expr
    words = expr._words
    da = db = 1
    monomials = len(a) == 1 and len(b) == 1
    if not monomials and all(type(c) is Fraction for t in (a, b) for c in t.values()):
        da, db = (lcm(*[c.denominator for c in t.values()]) for t in (a, b))
    res = {}
    words_b = sum(words(c * db) for c in b.values())
    for e1, c1 in a.items():
        if budget is not None:
            budget.take(len(b), words(c1 * da) * words_b)
        for e2, c2 in b.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            c = c1 * c2 if e not in res else res[e] + c1 * c2
            if c != 0:
                res[e] = c
            else:
                del res[e]
        if budget is not None and len(res) > expr.MAX_TERMS:
            raise SchemaViolation(f"expression expands past {expr.MAX_TERMS} terms")
    d = da * db
    if budget is not None and d != 1:
        budget.take(0, words(d) * sum(words(c * d) for c in res.values()))
    return res if budget is None else expr._bounded(res, expr.MAX_TERMS)


_REFERENCE_RATIONAL_RE = re.compile(r"^[+-]?\d+(\s*/\s*\d+)?$")


# what the readers below name a value of each kind they refuse
_REFUSED_KINDS = {bool: "a boolean", type(None): "null", list: "a list", dict: "an object",
                  float: "a float"}


def _refuse_kind(value):
    kind = _REFUSED_KINDS.get(type(value), f"a {type(value).__name__}")
    raise SchemaViolation(f"not an exact rational: {kind}, not a 'p/q' string or an integer")


def rat_reference(value) -> Fraction:
    """``diskeds.exact.rat`` by ``Fraction(str)`` after the regex check."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    if isinstance(value, str):
        s = value.strip()
        if not _REFERENCE_RATIONAL_RE.match(s):
            raise SchemaViolation(f"not an exact rational: {value!r}")
        try:
            return Fraction(s)
        except ZeroDivisionError as exc:
            raise SchemaViolation(f"zero denominator: {value!r}") from exc
    _refuse_kind(value)


def rat_by_fraction_constructor(value) -> Fraction:
    """``diskeds.exact.rat`` with every value built by ``Fraction(p, q)``:
    the same checks in the same order, with the same messages."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    if isinstance(value, str):
        m = re.fullmatch(r"([+-]?\d+)(?:/(\d+))?", value.strip())
        if m is None:
            raise SchemaViolation(f"not an exact rational: {value!r}")
        try:
            num, den = int(m[1]), int(m[2] or "1")
        except ValueError:
            raise SchemaViolation(
                f"not an exact rational: {len(value)} characters is too long") from None
        if den == 0:
            raise SchemaViolation(f"zero denominator: {value!r}")
        return Fraction(num, den)
    _refuse_kind(value)


# ----------------------------------------------------------------------
# the report rendering by way of a tree of strings


def jsonable(value):
    """Exact canonical JSON form: rationals as strings, no floats ever."""
    if isinstance(value, (bool, int, str)) or value is None:
        return value
    if isinstance(value, Fraction):
        return rational_str(value)
    if isinstance(value, dict):
        return {str(k): jsonable(v) for k, v in value.items()}
    if type(value) in (list, tuple):   # not a record, which subclasses tuple
        return [jsonable(v) for v in value]
    if isinstance(value, float):
        raise SchemaViolation("internal error: a float reached the report layer")
    raise CrossCheckMismatch(
        f"a {type(value).__name__} reached the report layer")


def _flatten(obj, prefix, lines):
    if isinstance(obj, dict):
        for k in sorted(obj):
            _flatten(obj[k], f"{prefix}.{k}" if prefix else k, lines)
    elif isinstance(obj, list):
        if all(not isinstance(v, (dict, list)) for v in obj):
            lines.append(f"{prefix} = [{', '.join(str(v) for v in obj)}]")
        else:
            for i, v in enumerate(obj):
                _flatten(v, f"{prefix}[{i}]", lines)
    else:
        lines.append(f"{prefix} = {obj}")


def report_by_tree(report, fmt):
    """``diskeds.reports.emit_report`` by way of the report's jsonable
    tree: ``json.dumps`` of it with sorted keys and an indent of 2, or its
    flat text lines."""
    tree = {"command": report.command, "problem": report.problem,
            "problem_digest": report.problem_digest,
            "options": jsonable(report.options), "results": jsonable(report.results),
            "warnings": jsonable(list(report.warnings))}
    if fmt == "json":
        return (json.dumps(tree, sort_keys=True, indent=2) + "\n").encode()
    lines = [f"diskeds {report.command} on {report.problem}"]
    _flatten(tree, "", lines)
    return ("\n".join(lines) + "\n").encode()
