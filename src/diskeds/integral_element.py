"""Polar-space linear algebra for integral flags and Kahler-regularity.

A candidate tangent plane is spanned by two vectors with x-components
a^1, a^2 and reduced-jet components c^1, c^2; the line E_1 is generated by
alpha*e_1 + beta*e_2, optionally perturbed by (eps_x, eps_p).
With the abbreviations

    A_1 = alpha a^1_1 + beta a^2_1 + eps_1      (and A_2 likewise)
    C_i = alpha c^1_i + beta c^2_i + eps''_i    (i = 3..2n)

the map F sends (v_1, v_2, v_{p^3}..v_{p^{2n}}) to the bilinear evaluations

    X_2       = A_1 v_2 - A_2 v_1
    X_i       = C_i v_1 - A_1 v_{p^i}
    X_{2n-2+i}= C_i v_2 - A_2 v_{p^i},

the rows of R are the relations C_i X_2 + A_2 X_i - A_1 X_{2n-2+i} = 0
cutting out Im(F), and G collects the structure-equation evaluations of
d(theta^k), k = 2..2n, on the X coordinates.  On the hypersurface
sum_k rho_k theta^k = 0, so rho_1 d(theta^1) + rho_2 d(theta^2) is a
combination of the d(theta^j), j >= 3: where rho_1 != 0 the d(theta^2)
row completes them, but where rho_1 = 0 it is itself such a combination
and d(theta^1) takes its place (D != 0 gives rho_2 != 0 there).  The x-derivatives inside G
are resolved by the chain rule through the full first jet: df/dx_1 = p_1
and df/dx_2 = A p_1 (this is the only reading that makes the coefficients
well-defined at a point).  So G's X_2 column is the torsion coefficients
themselves, (c^2, -c^3, .., -c^{2n}), with c^1 first where rho_1 = 0.

Ker(g o f) is the polar space H(D') of the (perturbed) line, so the
stacked square system's determinant is nonzero exactly when the line
extends to no integral 2-plane.  A flag certifies a disk germ when its
plane E is an integral element with the independence form, H(E_1) = E
(one extension, dim 2), and that polar dimension survives the
deterministic epsilon samples -- sampled local constancy of the polar
rank, which is what Cartan-Kahler consumes.
"""
from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
import random

from .errors import CrossCheckMismatch, InadmissibleFlag
from .geometry import FirstJetPoint, HypersurfaceProblem
from .linalg import det, dot, dot_plus, mat_mul, nullity
from .torsion import structure_equation_coefficients, torsion_absorbable


def _zeros(k):
    return tuple(Fraction(0) for _ in range(k))


class FlagSpec(namedtuple("FlagSpec", "a1 a2 c1 c2 alpha beta eps_x eps_p",
                          defaults=(Fraction(1), Fraction(0), None, None))):
    __slots__ = ()

    def resolved(self, two_n):
        a1 = tuple(Fraction(x) for x in self.a1)
        a2 = tuple(Fraction(x) for x in self.a2)
        c1 = tuple(Fraction(x) for x in self.c1)
        c2 = tuple(Fraction(x) for x in self.c2)
        ex = tuple(Fraction(x) for x in (self.eps_x or (0, 0)))
        ep = tuple(Fraction(x) for x in (self.eps_p or _zeros(two_n - 2)))
        if len(a1) != 2 or len(a2) != 2 or len(c1) != two_n - 2 or len(c2) != two_n - 2:
            raise InadmissibleFlag("flag component lengths do not match the problem")
        if len(ex) != 2 or len(ep) != two_n - 2:
            raise InadmissibleFlag("perturbation lengths do not match the problem")
        if self.alpha == 0 and self.beta == 0:
            raise InadmissibleFlag("(alpha, beta) = (0, 0)")
        al, be = Fraction(self.alpha), Fraction(self.beta)
        A1 = dot_plus((al, be), (a1[0], a2[0]), ex[0])
        A2 = dot_plus((al, be), (a1[1], a2[1]), ex[1])
        C = tuple(dot_plus((al, be), pair, e) for pair, e in zip(zip(c1, c2), ep))
        if A1 == 0 and A2 == 0 and all(x == 0 for x in C):
            raise InadmissibleFlag("E_1 generator is zero")
        return A1, A2, C


# F: (4n-3) x 2n; G: (2n-1) x (4n-3); R: (2n-2) x (4n-3); square:
# (4n-3) x (4n-3), G stacked over R
PolarSystem = namedtuple("PolarSystem", "F G R square A1 A2 C x_degenerate")


# The rows of G at a jet (see build_polar_maps) and the TorsionVerdict
# there, both read from one set of coefficient tables.
DthetaRows = namedtuple("DthetaRows", "rows torsion")


def _dtheta_row_data(problem: HypersurfaceProblem, jet: FirstJetPoint) -> DthetaRows:
    """The rows of G at the jet, read from its torsion coefficients c^k
    and the pointwise gamma/beta values, with the jet's torsion verdict
    from the same coefficients."""
    sed = structure_equation_coefficients(problem, jet)
    gb, c = sed.point_data, sed.c_values
    # Y_1 = d(theta^k): c^k on X_2, -gamma^k_i on X_i, -beta_{k,i} on
    # X_{2n-2+i}; k = 2, or k = 1 where rho_1 = 0 (see build_polar_maps)
    k = 0 if gb.rho_grad[0] == 0 else 1
    gamma_k = (gb.gamma1, gb.gamma2)[k]
    rows = [(c[k], tuple(-x for x in gamma_k), tuple(-x for x in gb.beta_full[k]))]
    # Y_j = -d(theta^j), j = 3..2n: -c^j on X_2, +1 on X_j, +beta_{j,i} on
    # X_{2n-2+i}
    m = problem.two_n - 2
    for j in range(2, problem.two_n):
        unit = tuple(Fraction(1) if i == j - 2 else Fraction(0) for i in range(m))
        rows.append((-c[j], unit, gb.beta_full[j]))
    return DthetaRows(rows, torsion_absorbable(problem, jet, sed))


def build_polar_maps(problem: HypersurfaceProblem, jet: FirstJetPoint,
                     flag: FlagSpec, rows=None) -> PolarSystem:
    """``rows`` is _dtheta_row_data(problem, jet).rows when the caller has
    them; they are built here otherwise."""
    two_n = problem.two_n
    m = two_n - 2
    A1, A2, C = flag.resolved(two_n)
    if rows is None:
        rows = _dtheta_row_data(problem, jet).rows
    x_degenerate = A1 == 0 and A2 == 0
    nx = 4 * problem.n - 3

    F = []
    row = [Fraction(0)] * two_n
    row[0], row[1] = -A2, A1
    F.append(tuple(row))
    for i in range(m):
        row = [Fraction(0)] * two_n
        row[0] = C[i]
        row[2 + i] = -A1
        F.append(tuple(row))
    for i in range(m):
        row = [Fraction(0)] * two_n
        row[1] = C[i]
        row[2 + i] = -A2
        F.append(tuple(row))
    F = tuple(F)

    R = []
    for i in range(m):
        row = [Fraction(0)] * nx
        row[0] = C[i]
        row[1 + i] = A2
        row[1 + m + i] = -A1
        R.append(tuple(row))
    R = tuple(R)

    G = []
    for x2, xi, xlast in rows:
        row = [Fraction(0)] * nx
        row[0] = x2
        for i in range(m):
            row[1 + i] = xi[i]
            row[1 + m + i] = xlast[i]
        G.append(tuple(row))
    G = tuple(G)

    square = G + R
    return PolarSystem(F, G, R, square, A1, A2, C, x_degenerate)


# verdict: kahler_regular | not_an_integral_element |
# degenerate_independence | inconclusive_for_this_flag |
# inconclusive_degenerate_chart; eps_samples: ((label, det_nonzero,
# dim_ker_gf), ...)
KahlerVerdict = namedtuple("KahlerVerdict", "determinant regular verdict dim_ker_gf "
                           "eps_samples is_integral independence",
                           defaults=(True, True))


def _pair_X(flag: FlagSpec):
    """X-coordinates of the plane spanned by the two flag generators."""
    a1 = tuple(Fraction(x) for x in flag.a1)
    a2 = tuple(Fraction(x) for x in flag.a2)
    c1 = tuple(Fraction(x) for x in flag.c1)
    c2 = tuple(Fraction(x) for x in flag.c2)
    zero = Fraction(0)
    # X_2 = a^1_1 a^2_2 - a^1_2 a^2_1, then c^1_j a^2_k - c^2_j a^1_k, k = 1, 2
    X = [dot(a1, (a2[1], -a2[0]), zero)]
    for k in range(2):
        weights = (a2[k], -a1[k])
        X += [dot(c, weights, zero) for c in zip(c1, c2)]
    return X


def _is_integral_plane(ps: PolarSystem, flag: FlagSpec):
    """E annihilates every d(theta^k): the 2-plane is an integral element."""
    X = _pair_X(flag)
    return all(dot(row, X, Fraction(0)) == 0 for row in ps.G)


_EPS_SAMPLES = (
    ("eps_x", (Fraction(1, 7), Fraction(-1, 9)), None),
    ("eps_p", None, "unit0/11"),
    ("eps_both", (Fraction(1, 13), Fraction(1, 17)), "alt/19"),
)


def _sample_eps_p(two_n, pattern):
    m = two_n - 2
    if pattern == "unit0/11":
        return tuple(Fraction(1, 11) if i == 0 else Fraction(0) for i in range(m))
    return tuple(Fraction(1 if i % 2 == 0 else -1, 19) for i in range(m))


def kahler_regularity(problem: HypersurfaceProblem, jet: FirstJetPoint,
                      flag: FlagSpec, dtheta: DthetaRows = None) -> KahlerVerdict:
    """Flag test for the sufficiency theorem.

    The certificate requires the spanned plane E to be an integral element
    carrying the independence form, the polar space of E_1 to be exactly E
    (dim Ker(g o f) = 2, one extension direction), and that dimension to
    persist at the deterministic epsilon perturbations (sampled local
    constancy of the polar rank).  The Cramer determinant of the stacked
    system is reported as well; note det != 0 says the perturbed line
    extends to *no* integral plane (dim H(D') = 1), so on an integral flag
    itself the determinant always vanishes -- E lies in the polar space.
    The d(theta) rows do not depend on the flag: they are built once
    (or taken from ``dtheta``) and shared with the epsilon samples.

    An integral element exists over a jet only where its torsion is
    absorbable, so a certificate at a jet whose torsion (read from the
    same coefficient tables) is not absorbable raises CrossCheckMismatch.
    """
    two_n = problem.two_n
    if dtheta is None:
        flag.resolved(two_n)  # an inadmissible flag is reported before a singular jet
        dtheta = _dtheta_row_data(problem, jet)
    rows = dtheta.rows
    ps = build_polar_maps(problem, jet, flag, rows)
    d = det([list(r) for r in ps.square])
    gf = mat_mul([list(r) for r in ps.G], [list(r) for r in ps.F])
    dim_ker = nullity(gf, two_n)
    integral = _is_integral_plane(ps, flag)
    independence = _pair_X(flag)[0] != 0
    samples = []
    for label, ex, pat in _EPS_SAMPLES:
        eflag = FlagSpec(flag.a1, flag.a2, flag.c1, flag.c2, flag.alpha, flag.beta,
                         eps_x=ex, eps_p=_sample_eps_p(two_n, pat) if pat else None)
        try:
            eps_ps = build_polar_maps(problem, jet, eflag, rows)
        except InadmissibleFlag:
            continue
        ed = det([list(r) for r in eps_ps.square])
        egf = mat_mul([list(r) for r in eps_ps.G], [list(r) for r in eps_ps.F])
        samples.append((label, ed != 0, nullity(egf, two_n)))
    if ps.x_degenerate:
        verdict = "inconclusive_degenerate_chart"
    elif not integral:
        verdict = "not_an_integral_element"
    elif not independence:
        verdict = "degenerate_independence"
    elif dim_ker == 2 and all(dim == 2 for _, _, dim in samples):
        verdict = "kahler_regular"
    else:
        verdict = "inconclusive_for_this_flag"
    if verdict == "kahler_regular" and not dtheta.torsion.absorbable:
        raise CrossCheckMismatch("flag certified at a jet whose torsion is not absorbable")
    return KahlerVerdict(d, verdict == "kahler_regular", verdict, dim_ker,
                         tuple(samples), integral, independence)


SearchResult = namedtuple("SearchResult", "flag verdict candidate_index attempted")


def integral_flag_from_c1(dtheta: DthetaRows, c1) -> FlagSpec:
    """Integral-element flag with x-parts e_1, e_2 and prescribed c^1, at
    the jet whose _dtheta_row_data is ``dtheta``; None when there is none.

    An integral element exists over a jet only where the jet's torsion is
    absorbable, so the torsion verdict is read first.  Then the rows
    d(theta^j) = 0 (j >= 3) determine c^2 uniquely and the first row,
    d(theta^2) or, where rho_1 = 0, d(theta^1), is a consistency
    condition.
    """
    if not dtheta.torsion.absorbable:
        return None
    rows = dtheta.rows
    c1 = tuple(Fraction(x) for x in c1)
    # rows[1:]: X_2 coeff q_j, own X_j coeff 1, X_{2n-2+i} coeffs beta_{j,i}
    c2 = tuple(dot_plus(betarow, c1, q) for q, _, betarow in rows[1:])
    flag = FlagSpec((1, 0), (0, 1), c1, c2)
    x2, xi, xlast = rows[0]
    if dot((x2,) + xi + xlast, _pair_X(flag), Fraction(0)) != 0:
        return None
    return flag


def _candidate_c1(two_n, trials, seed):
    m = two_n - 2
    yield _zeros(m)
    for k in range(m):
        yield tuple(Fraction(1) if i == k else Fraction(0) for i in range(m))
    rng = random.Random(seed)
    produced = m + 1
    while produced < trials:
        yield tuple(Fraction(rng.randint(-6, 6), rng.randint(1, 4))
                    for _ in range(m))
        produced += 1


def ordinary_element_search(problem: HypersurfaceProblem, jet: FirstJetPoint,
                            trials: int = 25, seed: int = 0):
    """First Kahler-regular integral flag (coordinate c^1 candidates first,
    then seeded rationals); None result carries the attempt count.  The
    d(theta) rows depend on the jet only, so every candidate shares them."""
    if trials < 1:
        raise InadmissibleFlag("trials must be >= 1")
    dtheta = _dtheta_row_data(problem, jet)
    attempted = 0
    for index, c1 in enumerate(_candidate_c1(problem.two_n, trials, seed)):
        if attempted >= trials:
            break
        attempted += 1
        flag = integral_flag_from_c1(dtheta, c1)
        if flag is None:
            continue
        try:
            verdict = kahler_regularity(problem, jet, flag, dtheta)
        except InadmissibleFlag:
            continue
        if verdict.regular:
            return SearchResult(flag, verdict, index, attempted)
    return SearchResult(None, None, -1, attempted)
