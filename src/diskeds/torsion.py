"""Structure-equation coefficients, torsion and its absorbability.

The torsion coefficients c^k_{1,2} are the dx1^dx2 components of d(theta^k)
modulo the ideal, quadratic forms in the reduced jet.  Writing beta_full
for all 2n rows (alpha_{i,1} gamma^1_j + alpha_{i,2} gamma^2_j + alpha_{i,j}),
the coefficient of p^j p^j' is

  k = 1, 2:   sum_m dgamma^k_j/df_m * beta_full[m][j']
              - ( dbeta_k,j/df_1 * gamma^1_j' + dbeta_k,j/df_2 * gamma^2_j'
                  + dbeta_k,j/df_j' )
  k >= 3:     - ( dbeta_k,j/df_1 * gamma^1_j' + dbeta_k,j/df_2 * gamma^2_j'
                  + dbeta_k,j/df_j' )

(the contracted first sum and the df_j' reading are fixed against an
independent exterior-derivative expansion in the test suite).  Torsion is
absorbable when the two-row system D1 v = residual_1, D2 v = residual_2
is solvable: for D0 = 0 both residuals must vanish; otherwise, since
D1 = rho_2 D0 and D2 = -rho_1 D0 exactly, the single cross condition
rho_1 * residual_1 + rho_2 * residual_2 = 0 decides.  Both the solvability
test and the closed form are evaluated and must agree.

The complex-case closed forms (first-order differential operators P^1_k,
P^2_k acting on the gammas, the B coefficient tables, the two quadratic
forms, the dimension-6 discriminants and the pseudo-ellipsoid product
condition) are implemented against the same exact substrate.
"""
from __future__ import annotations

from collections import namedtuple
from fractions import Fraction

from .errors import CrossCheckMismatch, SingularD, WrongDimension
from .exact import rat
from .expr import Polynomial
from .geometry import (
    FirstJetPoint,
    GammaBetaData,
    HypersurfaceProblem,
    complex_standard,
    compute_gamma_beta,
    first_jet_values,
    gamma_beta_first_jets,
)
from .involutivity import compute_D_vectors
from .linalg import det, dot, dot_plus, solve_particular


# ----------------------------------------------------------------------
# general structure equations


# Torsion forms at a jet: c_values holds the c^k_{1,2} at the jet (length
# 2n) and point_data the pointwise GammaBetaData at the base point.
StructureEquationData = namedtuple("StructureEquationData", "c_values point_data")


def _symmetrize(raw):
    """(raw + raw^T) / 2; an entry whose two halves are zero stays as it is."""
    half = Fraction(1, 2)

    def entry(x, y):
        s = x + y if x and y else x or y
        return s * half if s else s

    return tuple(tuple(entry(x, y) for x, y in zip(row, column))
                 for row, column in zip(raw, zip(*raw)))


def _coefficient_tables(problem: HypersurfaceProblem, point):
    """Values and f-gradients of gamma and beta_full at the point (user
    order), read from the exact first jets; also returns those jets."""
    gb = gamma_beta_first_jets(problem, point)
    values = lambda jets: tuple(x.value for x in jets)
    grads = lambda jets: tuple(x.grad for x in jets)
    return (gb, (values(gb.gamma1), grads(gb.gamma1)),
            (values(gb.gamma2), grads(gb.gamma2)),
            tuple(values(row) for row in gb.beta_full),
            tuple(grads(row) for row in gb.beta_full))


def _raw_torsion_matrices(gammas, gamma_grads, beta_full, beta_grads, zero):
    """The 2n unsymmetrized torsion matrices from gamma^1, gamma^2 and
    beta_full and their f-gradients (internal order), over any exact
    scalar; ``zero`` is that scalar's zero, the value of a contracted sum
    whose every term has a zero factor."""
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


def structure_equation_coefficients(problem: HypersurfaceProblem, jet: FirstJetPoint,
                                    tables=None) -> StructureEquationData:
    """``tables`` is _coefficient_tables(problem, jet.f) when the caller has
    them; they are built here otherwise."""
    if tables is None:
        tables = _coefficient_tables(problem, jet.f)
    gb, (g1v, g1d), (g2v, g2d), bv, bd = tables
    zero = Fraction(0)
    raw = _raw_torsion_matrices((g1v, g2v), (g1d, g2d), bv, bd, zero)
    p = tuple(Fraction(x) for x in jet.p_reduced)
    # c^k = p^T raw_k p
    c_values = tuple(dot(p, [dot(row, p, zero) for row in mat], zero) for mat in raw)
    return StructureEquationData(c_values, first_jet_values(gb))


# ----------------------------------------------------------------------
# absorbability


# case is "D0_zero" or "D0_nonzero"; witness_v is one solution of
# D0 v = residual with minimal support, or None
TorsionVerdict = namedtuple("TorsionVerdict",
                            "case residual_1 residual_2 absorbable witness_v",
                            defaults=(None,))


def torsion_absorbable(problem: HypersurfaceProblem, jet: FirstJetPoint,
                       sed: StructureEquationData = None) -> TorsionVerdict:
    """``sed`` is the caller's structure_equation_coefficients(problem,
    jet) when it has one already; it is built here otherwise."""
    if sed is None:
        sed = structure_equation_coefficients(problem, jet)
    gb = sed.point_data
    dv = compute_D_vectors(gb)
    m = problem.two_n - 2
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
    witness = None
    if absorbable:
        target = res1 / r2 if r2 != 0 else -res2 / r1
        v = [Fraction(0)] * m
        for k, x in enumerate(dv.D0):
            if x != 0:
                v[k] = target / x
                break
        witness = tuple(v)
    return TorsionVerdict("D0_nonzero", res1, res2, absorbable, witness)


# ----------------------------------------------------------------------
# complex case closed forms


# gamma1, gamma2: symbolic or evaluated, indices j = 3..2n; B_lower,
# B_upper: (j, k) -> value, j,k = 2..n; c1, c2: symmetric quadratic-form
# matrices in p^3..p^{2n}
ComplexTorsionData = namedtuple("ComplexTorsionData",
                                "n gamma1 gamma2 B_lower B_upper c1 c2")


def _complex_problem(rho: Polynomial) -> HypersurfaceProblem:
    two_n = len(rho.vars)
    if two_n % 2 or two_n < 4:
        raise WrongDimension(f"need an even number >= 4 of variables, got {two_n}")
    return HypersurfaceProblem(rho, complex_standard(two_n // 2, rho.vars), (1, 2))


def _p_operator(which, k, gamma1, gamma2, partial):
    """P^1_k / P^2_k applied to a target given by ``partial(i)``, its
    derivative along the 0-based f-variable i."""
    g1_2k = gamma1[2 * k - 3]   # index j=2k -> tuple slot 2k-3
    g2_2k = gamma2[2 * k - 3]
    if which == 1:
        return dot_plus((g2_2k, -g1_2k), (partial(0), partial(1)), partial(2 * k - 2))
    return dot_plus((g1_2k, g2_2k), (partial(0), partial(1)), partial(2 * k - 1))


def complex_B_coefficients(rho: Polynomial, f_point=None) -> ComplexTorsionData:
    """B_{j,k} = P^2_k(gamma^1_{2j}) + P^1_k(gamma^2_{2j}),
    B^{j,k} = P^2_k(gamma^2_{2j}) - P^1_k(gamma^1_{2j}), for j,k = 2..n.

    Without a point the gammas are symbolic and so is every entry; at a
    point the entries are exact rationals read from the gammas' first jets.
    """
    problem = _complex_problem(rho)
    n = problem.n
    if f_point is None:
        gb = compute_gamma_beta(problem)
        gamma1, gamma2 = gb.gamma1, gb.gamma2
        fvars = gb.internal_vars
        partials = lambda target: (lambda i: target.differentiate(fvars[i]))
    else:
        try:
            gb = gamma_beta_first_jets(problem, f_point)
        except SingularD:
            # D = -(rho_1^2 + rho_2^2) for the standard structure
            raise SingularD("rho_1^2 + rho_2^2 = 0 at the point") from None
        gamma1 = tuple(g.value for g in gb.gamma1)
        gamma2 = tuple(g.value for g in gb.gamma2)
        partials = lambda target: target.grad.__getitem__
    P = lambda which, k, target: _p_operator(which, k, gamma1, gamma2,
                                             partials(target))
    B_lower, B_upper = {}, {}
    for j in range(2, n + 1):
        g1_2j = gb.gamma1[2 * j - 3]
        g2_2j = gb.gamma2[2 * j - 3]
        for k in range(2, n + 1):
            B_lower[(j, k)] = P(2, k, g1_2j) + P(1, k, g2_2j)
            B_upper[(j, k)] = P(2, k, g2_2j) - P(1, k, g1_2j)
    c1, c2 = quadratics_from_B(n, B_lower, B_upper)
    return ComplexTorsionData(n, gamma1, gamma2, B_lower, B_upper, c1, c2)


def quadratics_from_B(n: int, B_lower: dict, B_upper: dict):
    """Assemble the two torsion quadratic forms as symmetric matrices over
    the reduced jet variables p^3..p^{2n} (slot a <-> p^{a+3})."""
    m = 2 * n - 2
    raw1 = [[None] * m for _ in range(m)]
    raw2 = [[None] * m for _ in range(m)]
    # each (j, k) fills its own 2x2 block of both matrices
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
    return _symmetrize(raw1), _symmetrize(raw2)


def form_definiteness(matrix) -> str:
    """'positive_definite' | 'negative_definite' | 'not_definite' via
    exact leading principal minors."""
    m = len(matrix)
    minors = [det([row[:k] for row in matrix[:k]]) for k in range(1, m + 1)]
    if all(x > 0 for x in minors):
        return "positive_definite"
    if all((x < 0 if k % 2 == 0 else x > 0) for k, x in enumerate(minors)):
        return "negative_definite"
    return "not_definite"


# ----------------------------------------------------------------------
# dimension 6


# verdict: necessary_condition_holds | necessary_condition_violated
Dim6Report = namedtuple("Dim6Report", "delta1 delta2 sign1 sign2 c1_definiteness "
                        "c2_definiteness verdict")


def dim6_definiteness(rho: Polynomial, f_point) -> Dim6Report:
    if len(rho.vars) != 6:
        raise WrongDimension("the dimension-6 test needs exactly 6 variables")
    data = complex_B_coefficients(rho, f_point)
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
    return Dim6Report(delta1, delta2, sign(delta1), sign(delta2), d1, d2, verdict)


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
    v = tuple(2 * alphas[i] * ks[i] * y[i] ** (2 * ks[i] - 1) for i in range(6))
    w = tuple(2 * ks[i] * (2 * ks[i] - 1) * alphas[i] * y[i] ** (2 * ks[i] - 2)
              for i in range(6))
    L = ((v[0] ** 2 + v[1] ** 2) * (w[2] + w[3]) * (w[4] + w[5])
         + (v[2] ** 2 + v[3] ** 2) * (w[0] + w[1]) * (w[4] + w[5])
         + (v[4] ** 2 + v[5] ** 2) * (w[0] + w[1]) * (w[2] + w[3]))
    rho_value = sum(alphas[i] * y[i] ** (2 * ks[i]) for i in range(6))
    return PseudoEllipsoidReport(v, w, L, L <= 0, rho_value, rho_value != 0)
