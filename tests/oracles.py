"""Independent oracles the main pipeline is validated against.

Everything here recomputes quantities from first definitions along a
different code path than the library: torsion coefficients by expanding
d(theta^k) over the joint (f, p) ring, the gamma/beta value and gradient
tables by symbolic differentiation, first-prolongation dimension by
brute-force solution of the degree-2 jet membership system, the
reduced jet by directly solving the 2x2 elimination system, and the
distinguished-pair scan by one full gamma/beta build per candidate.
"""
from __future__ import annotations

import random
from fractions import Fraction

from diskeds.errors import IdenticallySingularD, SingularD
from diskeds.expr import Polynomial, RationalFunction
from diskeds.geometry import HypersurfaceProblem, compute_gamma_beta, structure_from_entries
from diskeds.linalg import nullity, nullspace, solve_particular


def dtheta_torsion_oracle(problem: HypersurfaceProblem):
    """c^k_{1,2} by expanding d(theta^k) modulo the ideal from scratch.

    Works over the joint ring Q(f_1..f_{2n}, p_3..p_{2n}); uses only the
    structure equations theta^k = df_k - a_k dx1 - b_k dx2 and the df
    substitution, never the transcribed coefficient table.
    """
    gb = compute_gamma_beta(problem)
    two_n = problem.two_n
    m = two_n - 2
    fvars = gb.internal_vars
    joint = fvars + tuple(f"p{j}" for j in range(3, two_n + 1))
    lift = lambda r: r.extend_to(joint)
    zero = RationalFunction.from_const(joint, 0)
    pvar = [RationalFunction(Polynomial.var(joint, f"p{j}"))
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
    evaluating it; same layout as ``torsion._coefficient_tables``."""
    gb = compute_gamma_beta(problem)
    pt_int = tuple(Fraction(point[i]) for i in problem.internal_order())
    if gb.D.evaluate(pt_int) == 0:
        raise SingularD("D = 0 at this point; try another distinguished pair")

    def values(row):
        return tuple(r.evaluate(pt_int) for r in row)

    def grads(row):
        return tuple(tuple(r.differentiate(v).evaluate(pt_int)
                           for v in gb.internal_vars) for r in row)

    return (gb, (values(gb.gamma1), grads(gb.gamma1)),
            (values(gb.gamma2), grads(gb.gamma2)),
            tuple(values(row) for row in gb.beta_full),
            tuple(grads(row) for row in gb.beta_full))


def choose_pair_by_builds(problem: HypersurfaceProblem, point=None):
    """The fallback pair scan by a full gamma/beta build per candidate pair,
    symbolic without a point: the first pair, in index order, whose build
    succeeds."""
    two_n = problem.two_n
    for i1 in range(1, two_n + 1):
        for i2 in range(i1 + 1, two_n + 1):
            try:
                compute_gamma_beta(problem.with_pair((i1, i2)), point)
                return (i1, i2)
            except (SingularD, IdenticallySingularD):
                continue
    if point is None:
        raise IdenticallySingularD("D vanishes identically for every distinguished pair")
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
    ent = [[RationalFunction(Polynomial.const(vs, rng.randint(lo, hi)))
            for _ in range(2 * n)] for _ in range(2 * n)]
    return structure_from_entries(n, ent), vs


def random_polynomial_structure(rng, n, lo=-2, hi=2):
    vs = tuple(f"f{i}" for i in range(1, 2 * n + 1))

    def entry():
        p = Polynomial.const(vs, rng.randint(lo, hi))
        if rng.random() < 0.4:
            p = p + Polynomial.var(vs, vs[rng.randrange(2 * n)]).scale(rng.randint(-2, 2))
        return RationalFunction(p)

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
            dk = rho.differentiate(var)
            if dk.is_zero() or any(e[k] for e in dk.terms):
                continue  # var absent or nonlinear
            rest = {v: x for v, x in zip(rho.vars, pt) if v != var}
            num = rho.partial_evaluate(rest)  # c0 + slope*var
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
