"""Polar spaces of integral flags and Kahler-regularity.

A candidate tangent plane E is spanned by two vectors with x-components
a^1, a^2 and reduced-jet components c^1, c^2; the line E_1 is generated by
alpha*e_1 + beta*e_2, so it is the line l = (A_1, A_2, C) with

    A_1 = alpha a^1_1 + beta a^2_1      (and A_2 likewise)
    C_i = alpha c^1_i + beta c^2_i      (i = 3..2n).

A vector v = (v_1, v_2, v_{p^3}..v_{p^{2n}}) spans a plane with l whose
X coordinates are X_2 = A_1 v_2 - A_2 v_1, X_i = C_i v_1 - A_1 v_{p^i}
and X_{2n-2+i} = C_i v_2 - A_2 v_{p^i}.  The d(theta^k), k = 2..2n,
evaluate on the X coordinates as the rows (x2, xi, xlast) of
_dtheta_row_data.  On the hypersurface sum_k rho_k theta^k = 0, so
rho_1 d(theta^1) + rho_2 d(theta^2) is a combination of the d(theta^j),
j >= 3: where rho_1 != 0 the d(theta^2) row completes them, but where
rho_1 = 0 it is itself such a combination and d(theta^1) takes its place
(D != 0 gives rho_2 != 0 there).  The x-derivatives inside the rows are
resolved by the chain rule through the full first jet: df/dx_1 = p_1 and
df/dx_2 = A p_1 (the only reading that makes the coefficients
well-defined at a point).  So the x2 entries are the torsion coefficients
themselves, (c^2, -c^3, .., -c^{2n}), with c^1 first where rho_1 = 0.

The polar space H(l) is the kernel of the (2n-1) x 2n polar matrix P(l),
whose row for (x2, xi, xlast) is

    (-A_2 x2 + C.xi,  A_1 x2 + C.xlast,  -A_1 xi_i - A_2 xlast_i),

so P is linear in l and l itself lies in its kernel.  The reported Cramer
determinant is that of the square system stacking the d(theta) rows over
the 2n-2 relations C_i X_2 + A_2 X_i - A_1 X_{2n-2+i} = 0 that cut out the
X coordinates of the planes through l.  Where A_1 != 0, the column
operations X_i += (A_2/A_1) X_{2n-2+i} and X_2 += (C_i/A_1) X_{2n-2+i}
reduce the relations to -A_1 on the X_{2n-2+i} columns and turn the
X_2 and X_i columns of the d(theta) rows into P's v_2 and -v_{p^i}
columns divided by A_1; as 2n-2 is even, the determinant is
det(P without its v_1 column) / A_1.  Where A_1 = 0 != A_2, clearing X_2
with the X_i columns gives -det(P without its v_2 column) / A_2 the same
way, and where A_1 = A_2 = 0 every relation is a multiple of X_2, so the
determinant is 0.  It is nonzero exactly when the line extends to no
integral plane (dim H(l) = 1): l lies in ker P with v_1 entry A_1 != 0
(v_2 entry A_2 where A_1 = 0), so P without that column is singular
exactly when the nullity is at least 2, and where A_1 = A_2 = 0 the v_p
columns of P vanish, so the nullity is at least 2n-2 >= 2.  One forward
elimination of P with that column moved last thus gives both.

A flag certifies a disk germ when E is an integral element with the
independence form, H(E_1) = E (one extension, dim 2), and that polar
dimension survives three deterministic perturbations of the line --
sampled local constancy of the polar rank, which is what Cartan-Kahler
consumes.
"""
from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from itertools import islice
import random

from .errors import CrossCheckMismatch, InadmissibleFlag
from .geometry import FirstJetPoint, HypersurfaceProblem, _fractions
from .linalg import _echelon, dot, dot_plus
from .torsion import structure_equation_coefficients, torsion_absorbable


class FlagSpec(namedtuple("FlagSpec", "a1 a2 c1 c2 alpha beta")):
    """The flag's generators a^1, a^2, c^1, c^2 and the weights (alpha,
    beta) of E_1, as Fractions."""

    __slots__ = ()

    def __new__(cls, a1, a2, c1, c2, alpha=1, beta=0):
        return super().__new__(cls, *map(_fractions, (a1, a2, c1, c2)),
                               *_fractions((alpha, beta)))

    def resolved(self, two_n):
        """The line E_1 as (A_1, A_2, C)."""
        a1, a2, c1, c2 = self[:4]
        if len(a1) != 2 or len(a2) != 2 or len(c1) != two_n - 2 or len(c2) != two_n - 2:
            raise InadmissibleFlag("flag component lengths do not match the problem")
        if self.alpha == 0 and self.beta == 0:
            raise InadmissibleFlag("(alpha, beta) = (0, 0)")
        weights = (self.alpha, self.beta)
        zero = Fraction(0)
        A1 = dot(weights, (a1[0], a2[0]), zero)
        A2 = dot(weights, (a1[1], a2[1]), zero)
        C = tuple(dot(weights, pair, zero) for pair in zip(c1, c2))
        if A1 == 0 and A2 == 0 and all(x == 0 for x in C):
            raise InadmissibleFlag("E_1 generator is zero")
        return A1, A2, C


# The d(theta) rows (x2, xi, xlast) at a jet and the TorsionVerdict there,
# both read from one set of coefficient tables.
DthetaRows = namedtuple("DthetaRows", "rows torsion")


def _dtheta_row_data(problem: HypersurfaceProblem, jet: FirstJetPoint) -> DthetaRows:
    """The d(theta) rows at the jet on the X coordinates, read from its
    torsion coefficients c^k and the pointwise gamma/beta values, with the
    jet's torsion verdict from the same coefficients."""
    sed = structure_equation_coefficients(problem, jet)
    gb, c = sed.point_data, sed.c_values
    # Y_1 = d(theta^k): c^k on X_2, -gamma^k_i on X_i, -beta_{k,i} on
    # X_{2n-2+i}; k = 2, or k = 1 where rho_1 = 0 (see the module docstring)
    k = 0 if gb.rho_grad[0] == 0 else 1
    gamma_k = (gb.gamma1, gb.gamma2)[k]
    rows = [(c[k], tuple(-x for x in gamma_k), tuple(-x for x in gb.beta_full[k]))]
    # Y_j = -d(theta^j), j = 3..2n: -c^j on X_2, +1 on X_j, +beta_{j,i} on
    # X_{2n-2+i}
    m = problem.two_n - 2
    for j in range(2, problem.two_n):
        unit = tuple(Fraction(1) if i == j - 2 else Fraction(0) for i in range(m))
        rows.append((-c[j], unit, gb.beta_full[j]))
    return DthetaRows(rows, torsion_absorbable(sed))


def polar_matrix(rows, A1, A2, C):
    """P(l) on (v_1, v_2, v_{p^3}..v_{p^{2n}}), one row per d(theta) row
    (x2, xi, xlast); its kernel is the polar space of l = (A_1, A_2, C)."""
    zero = Fraction(0)
    return [(dot_plus(C, xi, -(A2 * x2)), dot_plus(C, xlast, A1 * x2),
             *(-dot((A1, A2), pair, zero) for pair in zip(xi, xlast)))
            for x2, xi, xlast in rows]


def polar_nullity_and_determinant(P, A1, A2):
    """(dim H(l), the Cramer determinant of l) for l = (A_1, A_2, C) and
    P = polar_matrix(.., l), both from one forward elimination of P with
    the column the determinant leaves out, v_1 or where A_1 = 0 v_2, moved
    last (see the module docstring)."""
    k = 0 if A1 else 1
    rows = [[*row[:k], *row[k + 1:], row[k]] for row in P]
    pivots, swaps = _echelon(rows, len(P[0]))
    nullity = len(P[0]) - len(pivots)
    if nullity != 1:
        return nullity, Fraction(0)
    # the first 2n-1 columns are the pivot columns: the square is upper
    # triangular, and the v_2 reading carries a sign of its own
    minor = rows[0][0]
    for r in range(1, len(rows)):
        minor = minor * rows[r][r]
    return nullity, (-minor if (swaps + k) % 2 else minor) / (A2 if k else A1)


# verdict: kahler_regular | not_an_integral_element |
# degenerate_independence | inconclusive_for_this_flag |
# inconclusive_degenerate_chart; eps_samples: ((label, nullity == 1,
# nullity), ...), nullity == 1 being exactly a nonzero Cramer determinant
KahlerVerdict = namedtuple("KahlerVerdict", "determinant regular verdict dim_ker_gf "
                           "eps_samples is_integral independence",
                           defaults=(True, True))


def _eps_lines(A1, A2, C):
    """The labelled deterministic perturbations of the line (A_1, A_2, C)."""
    yield "eps_x", A1 + Fraction(1, 7), A2 - Fraction(1, 9), C
    yield "eps_p", A1, A2, (C[0] + Fraction(1, 11),) + C[1:]
    yield "eps_both", A1 + Fraction(1, 13), A2 + Fraction(1, 17), tuple(
        c + Fraction(1 if i % 2 == 0 else -1, 19) for i, c in enumerate(C))


def kahler_regularity(problem: HypersurfaceProblem, jet: FirstJetPoint,
                      flag: FlagSpec, dtheta: DthetaRows = None) -> KahlerVerdict:
    """Flag test for the sufficiency theorem.

    The certificate requires the spanned plane E to be an integral element
    carrying the independence form, the polar space of E_1 to be exactly E
    (dim Ker P = 2, one extension direction), and that dimension to
    persist at the deterministic perturbations of the line (sampled local
    constancy of the polar rank).  The Cramer determinant is reported as
    well; det != 0 says the line extends to *no* integral plane
    (dim H = 1), so on an integral flag itself the determinant always
    vanishes -- E lies in the polar space.  The d(theta) rows do not
    depend on the flag: they are built once (or taken from ``dtheta``)
    and shared with the perturbed lines.  Each of the four lines is read
    by one elimination of its polar matrix.

    An integral element exists over a jet only where its torsion is
    absorbable, so a certificate at a jet whose torsion (read from the
    same coefficient tables) is not absorbable raises CrossCheckMismatch.
    """
    # an inadmissible flag is reported before a singular jet
    A1, A2, C = flag.resolved(problem.two_n)
    if dtheta is None:
        dtheta = _dtheta_row_data(problem, jet)
    rows = dtheta.rows
    P = polar_matrix(rows, A1, A2, C)
    dim_ker, determinant = polar_nullity_and_determinant(P, A1, A2)
    # E is spanned by E_1 and the second generator (the first where
    # alpha = 0), so the d(theta) rows vanish on E exactly where P(E_1)
    # annihilates that generator
    a1, a2, c1, c2 = flag[:4]
    w = (*a2, *c2) if flag.alpha else (*a1, *c1)
    integral = all(dot(row, w, Fraction(0)) == 0 for row in P)
    independence = a1[0] * a2[1] != a1[1] * a2[0]
    samples = []
    for label, eA1, eA2, eC in _eps_lines(A1, A2, C):
        if eA1 == 0 and eA2 == 0 and all(x == 0 for x in eC):
            continue
        dim, _ = polar_nullity_and_determinant(polar_matrix(rows, eA1, eA2, eC), eA1, eA2)
        samples.append((label, dim == 1, dim))
    if A1 == 0 and A2 == 0:
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
    return KahlerVerdict(determinant, verdict == "kahler_regular",
                         verdict, dim_ker, tuple(samples), integral, independence)


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
    # rows[1:]: X_2 coeff q_j, own X_j coeff 1, X_{2n-2+i} coeffs beta_{j,i}
    c2 = tuple(dot_plus(betarow, c1, q) for q, _, betarow in rows[1:])
    flag = FlagSpec((1, 0), (0, 1), c1, c2)
    # the first row vanishes on E where P(E_1) annihilates E's second generator
    row, = polar_matrix(rows[:1], 1, 0, c1)
    return flag if dot(row, (0, 1, *c2), Fraction(0)) == 0 else None


def _candidate_c1(two_n):
    """Zero, the unit vectors, then fixed-seed rationals without end."""
    m = two_n - 2
    yield (Fraction(0),) * m
    for k in range(m):
        yield tuple(Fraction(1) if i == k else Fraction(0) for i in range(m))
    rng = random.Random(0)
    while True:
        yield tuple(Fraction(rng.randint(-6, 6), rng.randint(1, 4))
                    for _ in range(m))


def ordinary_element_search(problem: HypersurfaceProblem, jet: FirstJetPoint,
                            trials: int = 25):
    """First Kahler-regular integral flag (coordinate c^1 candidates first,
    then fixed-seed rationals); None result carries the attempt count.  The
    d(theta) rows depend on the jet only, so every candidate shares them.
    Where the jet's torsion is not absorbable no candidate is integral, so
    none is built and all ``trials`` count as attempted."""
    if trials < 1:
        raise InadmissibleFlag("trials must be >= 1")
    dtheta = _dtheta_row_data(problem, jet)
    if not dtheta.torsion.absorbable:
        return SearchResult(None, None, -1, trials)
    for index, c1 in enumerate(islice(_candidate_c1(problem.two_n), trials)):
        flag = integral_flag_from_c1(dtheta, c1)
        if flag is None:
            continue
        # a candidate flag has A_1 = 1, so it is admissible
        verdict = kahler_regularity(problem, jet, flag, dtheta)
        if verdict.regular:
            return SearchResult(flag, verdict, index, index + 1)
    return SearchResult(None, None, -1, trials)
