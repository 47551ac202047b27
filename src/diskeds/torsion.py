"""Structure-equation coefficients, torsion and its absorbability.

The torsion coefficients c^k_{1,2} are the dx1^dx2 components of d(theta^k)
modulo the ideal, quadratic forms in the reduced jet; only their values at
one jet are needed.  There the full first jet is p1 = (p^1_1, p^2_1,
p^3..p^2n) (internal order), where p^k_1(x) = sum_j gamma^k_j(x) p^j and
the p^j are constants of the jet, and p2 = A p1.  With D_v e = grad(e) . v,

  c^k = D_{p2} p^k_1 - D_{p1} (A p1)_k     k = 1, 2
  c^k = - D_{p1} (A p1)_k                   k >= 3,
  D_{p1} (A p1)_k = (D_{p1} A_k) . p1 + A_{k,1} D_{p1} p^1_1 + A_{k,2} D_{p1} p^2_1.

These are the sums over the gamma/beta tables (beta_full: all 2n rows
beta_{k,j} = A_{k,1} gamma^1_j + A_{k,2} gamma^2_j + A_{k,j}),

  c^k = sum_j p^j (D_{p2} gamma^k_j - D_{p1} beta_{k,j})   (no gamma for k >= 3),

contracted with p before differentiating: as the p^j are constant,
sum_j p^j D gamma^k_j = D p^k_1 and sum_j p^j beta_{k,j} = (A p1)_k.  The
test suite fixes the table sums against an independent exterior-derivative
expansion and this reading against the table sums.  Each term is a
rational dot over the tangents along (p1, p2) of p^1_1, p^2_1 and the
structure entries.  p^k_1 is the gamma formula at one contracted
coordinate (``geometry.contracted_gammas``), so a jet takes two
first-jet quotients at any n and no beta over first jets: O(n^2) work
where the 2n quadratic-form matrices (a test oracle) cost O(n^3).

Torsion is absorbable when the two-row system D1 v = residual_1,
D2 v = residual_2 is solvable: for D0 = 0 both residuals must vanish;
otherwise, since D1 = rho_2 D0 and D2 = -rho_1 D0 exactly, the single
cross condition rho_1 * residual_1 + rho_2 * residual_2 = 0 decides.  Both
the solvability test and the closed form are evaluated and must agree.

The complex-case closed forms (first-order differential operators P^1_k,
P^2_k acting on gamma^1_{2j} and gamma^2_{2j}, the only gammas they read
and so the only ones differentiated; the B coefficient tables, each entry
one dot; the two quadratic forms, the dimension-6 discriminants and the
pseudo-ellipsoid product condition) are implemented against the same
exact substrate.  A form is
definite by the signs of its leading principal minors, all read off one
``linalg._echelon``: a row exchange or a missing pivot makes a minor 0;
otherwise the pivots are the eliminated rows' diagonal and the k-th
minor is the product of the first k of them.
"""
from __future__ import annotations

from collections import namedtuple
from fractions import Fraction

from .errors import CrossCheckMismatch, SchemaViolation, WrongDimension
from .exact import power, rat
from .geometry import (
    FirstJetPoint,
    HypersurfaceProblem,
    _tangent,
    _value,
    contracted_gammas,
    gamma_beta_along_jet,
    gamma_first_jets,
)
from .involutivity import compute_D_vectors
from .linalg import _echelon, dot, solve_particular


# ----------------------------------------------------------------------
# general structure equations


# Torsion forms at a jet: c_values holds the c^k_{1,2} at the jet (length
# 2n) and point_data the pointwise GammaBetaData at the base point.
StructureEquationData = namedtuple("StructureEquationData", "c_values point_data")


def _coefficient_tables(problem: HypersurfaceProblem,
                        jet: FirstJetPoint) -> StructureEquationData:
    """The torsion coefficients c^k at ``jet``, read as in the module
    docstring, with the pointwise GammaBetaData at its base point."""
    gb, fj, along = gamma_beta_along_jet(problem, jet)
    p, zero = jet.p_reduced, Fraction(0)
    p1 = (fj.p11, fj.p21) + p
    tangents = lambda row, d: [_tangent(x, d) for x in row]
    # D_{p1} p^k_1 and D_{p2} p^k_1 (k = 1, 2), then every D_{p1} (A p1)_k
    pk1 = contracted_gammas(along, p)
    dp1, dp2 = tangents(pk1, 0), tangents(pk1, 1)
    b = [dot((*tangents(along_row, 0), *row[:2]), (*p1, *dp1), zero)
         for row, along_row in zip(gb.alpha, along[1])]
    c_values = tuple([g - bk if bk else g for g, bk in zip(dp2, b)]
                     + [-bk if bk else bk for bk in b[2:]])
    return StructureEquationData(c_values, gb)


# the public name; the benchmark's tracer times the function as _coefficient_tables
structure_equation_coefficients = _coefficient_tables


# ----------------------------------------------------------------------
# absorbability


# case is "D0_zero" or "D0_nonzero"; witness_v is the solver's solution of
# D1 v = residual_1, D2 v = residual_2 (free variables zero), or None
TorsionVerdict = namedtuple("TorsionVerdict",
                            "case residual_1 residual_2 absorbable witness_v",
                            defaults=(None,))


def torsion_absorbable(sed: StructureEquationData) -> TorsionVerdict:
    """The absorbability verdict of the torsion coefficients ``sed`` at a jet."""
    gb = sed.point_data
    dv = compute_D_vectors(gb)
    c_rest = sed.c_values[2:]
    res1 = sed.c_values[0] - dot(gb.gamma1, c_rest, Fraction(0))
    res2 = sed.c_values[1] - dot(gb.gamma2, c_rest, Fraction(0))
    r1, r2 = gb.rho_grad[0], gb.rho_grad[1]
    if all(x == 0 for x in dv.D0):
        absorbable = res1 == 0 and res2 == 0
        return TorsionVerdict("D0_zero", res1, res2, absorbable)
    solution = solve_particular([list(dv.D1), list(dv.D2)], [res1, res2])
    absorbable = solution is not None
    if absorbable != (r1 * res1 + r2 * res2 == 0):
        raise CrossCheckMismatch(
            "absorbability solvability disagrees with the rho cross condition")
    return TorsionVerdict("D0_nonzero", res1, res2, absorbable,
                          tuple(solution) if absorbable else None)


# ----------------------------------------------------------------------
# complex case closed forms


# problem: the problem charted at the pair the tables are read in; B_lower,
# B_upper: (j, k) -> value, j,k = 2..n; c1, c2: symmetric quadratic-form
# matrices in p^3..p^{2n}, internal order
ComplexTorsionData = namedtuple("ComplexTorsionData", "problem B_lower B_upper c1 c2")


def complex_torsion(problem, gammas, targets, partial, zero) -> ComplexTorsionData:
    """B_{j,k} = P^2_k(gamma^1_{2j}) + P^1_k(gamma^2_{2j}),
    B^{j,k} = P^2_k(gamma^2_{2j}) - P^1_k(gamma^1_{2j}), for j,k = 2..n,
    and the two quadratic forms of the charted ``problem``, over any exact
    scalar with zero ``zero``.  The first-order operators are

      P^1_k = gamma^2_{2k} d_1 - gamma^1_{2k} d_2 + d_{2k-1},
      P^2_k = gamma^1_{2k} d_1 + gamma^2_{2k} d_2 + d_{2k},

    so each B is one dot over six derivatives.  ``gammas`` are the
    operators' coefficients (gamma^1_{2k}, gamma^2_{2k}), ``targets`` the
    entries (gamma^1_{2j}, gamma^2_{2j}) they differentiate, both at slot
    j - 2, and ``partial(target, i)`` a target's derivative along the
    0-based internal f-variable i."""
    n = problem.n
    one, minus_one = Fraction(1), Fraction(-1)
    B_lower, B_upper = {}, {}
    coefficients = [((g1, g2, one, g2, -g1, one), (g1, g2, one, -g2, g1, minus_one))
                    for g1, g2 in zip(*gammas)]
    for j, a, b in zip(range(2, n + 1), *targets):
        da, db = ([partial(t, i) for i in range(2 * n)] for t in (a, b))
        for k, (lower, upper) in enumerate(coefficients, 2):
            odd, even = 2 * k - 2, 2 * k - 1    # 0-based f_{2k-1}, f_{2k}
            B_lower[(j, k)] = dot((da[0], da[1], da[even], db[0], db[1], db[odd]),
                                  lower, zero)
            B_upper[(j, k)] = dot((db[0], db[1], db[even], da[0], da[1], da[odd]),
                                  upper, zero)
    c1, c2 = quadratics_from_B(n, B_lower, B_upper)
    return ComplexTorsionData(problem, B_lower, B_upper, c1, c2)


def complex_B_coefficients(problem: HypersurfaceProblem, f_point) -> ComplexTorsionData:
    """The complex closed forms (:func:`complex_torsion`) of ``problem``,
    which carries the standard structure, at ``f_point``: exact rationals
    read from the first jets of gamma^1_{2j} and gamma^2_{2j} along the
    internal coordinate axes, the directions the P operators take; no
    other gamma is formed.

    A declared pair is ignored: the problem is charted as the builders
    chart one with no pair.  Under the standard structure every pair
    before (2k-1, 2k) has D = 0 and D(2k-1, 2k) = -(rho_{2k-1}^2 +
    rho_{2k}^2), so the chart is the first complex coordinate z_k that
    rho's gradient does not annihilate.  Swapping coordinate blocks
    leaves the structure as it is, so the closed forms, written with the
    pair first, hold in that chart.
    """
    if problem.two_n < 4:
        raise WrongDimension(f"need an even number >= 4 of variables, got {problem.two_n}")
    if problem.structure.kind != "complex_standard":
        raise SchemaViolation("the complex closed forms need a complex_standard problem")
    # the 0-based internal columns of f_4, f_6, .., f_2n
    chart, *targets = gamma_first_jets(problem.with_pair(None), f_point,
                                       range(3, problem.two_n, 2))
    gammas = [tuple(map(_value, target)) for target in targets]
    return complex_torsion(chart, gammas, targets, _tangent, Fraction(0))


def quadratics_from_B(n: int, B_lower: dict, B_upper: dict):
    """The two torsion quadratic forms as symmetric matrices over the
    reduced jet variables p^3..p^{2n} (slot a <-> p^{a+3}).  Block (j, k),
    rows p^{2j-1}, p^{2j} and columns p^{2k-1}, p^{2k}, is

      c1 = 1/2 [[U, -L], [L, U]],     U = B^{j,k} + B^{k,j},  L = B_{j,k} - B_{k,j},
      c2 = 1/2 [[-S, -V], [V, -S]],   S = B_{j,k} + B_{k,j},  V = B^{j,k} - B^{k,j}."""
    half, minus_half = Fraction(1, 2), Fraction(-1, 2)
    # one dot per half-sum (s x + t y) / 2, s, t = +-1: y, a zero of the
    # tables' scalar, where x and y are both zero
    plus, minus, minus_both = (half, half), (half, minus_half), (minus_half, minus_half)
    halved = lambda x, y, signs: dot((x, y), signs, y)
    negated = lambda x: -x if x else x
    m = 2 * n - 2
    c1 = [[None] * m for _ in range(m)]
    c2 = [[None] * m for _ in range(m)]
    for j in range(2, n + 1):
        a, b = 2 * j - 4, 2 * j - 3     # p^{2j-1}, p^{2j}
        for k in range(2, n + 1):
            c, d = 2 * k - 4, 2 * k - 3
            low, low_t = B_lower[(j, k)], B_lower[(k, j)]
            up, up_t = B_upper[(j, k)], B_upper[(k, j)]
            U, V = halved(up, up_t, plus), halved(up, up_t, minus)
            L, minus_S = halved(low, low_t, minus), halved(low, low_t, minus_both)
            c1[a][c], c1[a][d], c1[b][c], c1[b][d] = U, negated(L), L, U
            c2[a][c], c2[a][d], c2[b][c], c2[b][d] = minus_S, negated(V), V, minus_S
    return tuple(map(tuple, c1)), tuple(map(tuple, c2))


def form_definiteness(matrix) -> str:
    """'positive_definite' | 'negative_definite' | 'not_definite' via
    exact leading principal minors, read from one elimination: all minors
    are positive exactly when every diagonal pivot is, and they alternate
    from negative exactly when every one is negative.  A definite
    symmetric form has a nonzero diagonal of one sign, so any other
    diagonal decides without the elimination."""
    diagonal = [row[k] for k, row in enumerate(matrix)]
    if not (all(d > 0 for d in diagonal) or all(d < 0 for d in diagonal)):
        return "not_definite"
    rows = [list(row) for row in matrix]
    pivots, swaps = _echelon(rows, len(rows))
    positive = {rows[k][k] > 0 for k in pivots}
    if swaps or len(pivots) < len(rows) or len(positive) > 1:
        return "not_definite"
    return "negative_definite" if positive == {False} else "positive_definite"


# ----------------------------------------------------------------------
# dimension 6


# problem: the chart of the B tables; verdict: necessary_condition_holds |
# necessary_condition_violated
Dim6Report = namedtuple("Dim6Report", "problem delta1 delta2 sign1 sign2 c1_definiteness "
                        "c2_definiteness verdict")


def dim6_definiteness(problem: HypersurfaceProblem, f_point) -> Dim6Report:
    """The dimension-6 discriminants of :func:`complex_B_coefficients`."""
    if problem.two_n != 6:
        raise WrongDimension("the dimension-6 test needs exactly 6 variables")
    data = complex_B_coefficients(problem, f_point)
    Bl, Bu = data.B_lower, data.B_upper
    delta1 = (4 * Bl[(2, 2)] * Bl[(3, 3)]
              - (Bl[(2, 3)] + Bl[(3, 2)]) ** 2
              - (Bu[(2, 3)] - Bu[(3, 2)]) ** 2)
    delta2 = (4 * Bu[(2, 2)] * Bu[(3, 3)]
              - (Bu[(2, 3)] + Bu[(3, 2)]) ** 2
              - (Bl[(2, 3)] - Bl[(3, 2)]) ** 2)
    d1 = form_definiteness(data.c1)
    d2 = form_definiteness(data.c2)
    holds = d1 == "not_definite" and d2 == "not_definite"
    # completed-square branch must agree with the minor test where it applies
    if Bu[(2, 2)] != 0 and (delta2 > 0) != (d1 != "not_definite"):
        raise CrossCheckMismatch("dim-6 discriminant disagrees with c1 definiteness")
    if Bl[(2, 2)] != 0 and (delta1 > 0) != (d2 != "not_definite"):
        raise CrossCheckMismatch("dim-6 discriminant disagrees with c2 definiteness")
    sign = lambda x: (x > 0) - (x < 0)
    verdict = "necessary_condition_holds" if holds else "necessary_condition_violated"
    return Dim6Report(data.problem, delta1, delta2, sign(delta1), sign(delta2), d1, d2,
                      verdict)


# ----------------------------------------------------------------------
# pseudo-ellipsoids


PseudoEllipsoidReport = namedtuple("PseudoEllipsoidReport",
                                   "v w L holds rho_value off_surface")


def pseudo_ellipsoid_check(alphas, ks, y_point) -> PseudoEllipsoidReport:
    """Single sign condition for the degenerate-pair branch of the
    six-dimensional diagonal examples; holds iff L <= 0."""
    alphas = tuple(rat(a) for a in alphas)
    ks = tuple(int(k) for k in ks)
    if len(alphas) != 6 or len(ks) != 6 or any(k < 1 for k in ks):
        raise WrongDimension("need 6 alphas and 6 positive integer exponents")
    y = tuple(rat(x) for x in y_point)
    if len(y) != 6:
        raise WrongDimension("need a 6-dimensional point")
    v = tuple(2 * alphas[i] * ks[i] * power(y[i], 2 * ks[i] - 1) for i in range(6))
    w = tuple(2 * ks[i] * (2 * ks[i] - 1) * alphas[i] * power(y[i], 2 * ks[i] - 2)
              for i in range(6))
    L = ((v[0] ** 2 + v[1] ** 2) * (w[2] + w[3]) * (w[4] + w[5])
         + (v[2] ** 2 + v[3] ** 2) * (w[0] + w[1]) * (w[4] + w[5])
         + (v[4] ** 2 + v[5] ** 2) * (w[0] + w[1]) * (w[2] + w[3]))
    rho_value = sum(alphas[i] * power(y[i], 2 * ks[i]) for i in range(6))
    return PseudoEllipsoidReport(v, w, L, L <= 0, rho_value, rho_value != 0)
