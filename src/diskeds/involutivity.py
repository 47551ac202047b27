"""Tableau obstruction rows, prolongation dimensions, involutivity order.

The first prolongation of the tableau is the kernel of a single obstruction
row: both defining rows gamma^2 beta - beta_2 and gamma^1 beta - beta_1 are
rho-multiples of one vector D0 with the closed form

    D0_i = (-1/D^2) { rho_1 [mu_i mu2_2 - mu_2 mu2_i]
                    + rho_2 [mu_1 mu2_i - mu_i mu2_1]
                    + rho_i [mu_2 mu2_1 - mu_1 mu2_2] },

so dim A^(q) is the nullity of the stacked Krylov rows D0 beta^k,
k = 0..q-1, and A^(q) is involutive once q reaches the rank of the full
Krylov family (the Cartan-Kuranishi order here).  The closed form is
cross-checked against the definitional rows on every call; a mismatch is
an implementation bug, never a user error.

Sign caution: with D0 as above, expanding the definitional rows exactly
gives gamma^1 beta - beta_1 = +rho_2 D0 but gamma^2 beta - beta_2 =
-rho_1 D0 (the mu-bracket mu_1 gamma^1 + mu_2 gamma^2 + mu vanishes by
the defining system, and collecting the mu2-terms fixes the signs).  Both
rows stay proportional to D0, which is all the prolongation theory uses.
"""
from __future__ import annotations

from collections import namedtuple

from .errors import CrossCheckMismatch
from .geometry import GammaBetaData
from .linalg import dot, dot_plus, mat_rank, row_times_matrix


# D1 = +rho_2 * D0 == gamma^1 beta - beta_1
# D2 = -rho_1 * D0 == gamma^2 beta - beta_2
DVectors = namedtuple("DVectors", "D0 D1 D2")


def obstruction_bracket(gb: GammaBetaData):
    """The unnormalized bracket -D^2 * D0_i (scales by beta^3 under
    alpha*I + beta*A substitutions, unlike the normalized rows)."""
    zero = 0 * gb.D
    r1, r2 = gb.rho_grad[0], gb.rho_grad[1]
    m1, m2 = gb.mu[0], gb.mu[1]
    # mu2 = rho_grad alpha^2, formed as mu alpha: (2n)^2 products, not (2n)^3
    mu2 = row_times_matrix(gb.mu, gb.alpha, zero)
    s1, s2 = mu2[0], mu2[1]
    # the 2x2 minors of (mu, mu2): columns 1, 2 once, column j against each
    minus_s1 = -s1
    m12 = dot((m2, m1), (s1, -s2), zero)
    out = []
    for rj, mj, sj in zip(gb.rho_grad[2:], gb.mu[2:], mu2[2:]):
        out.append(dot((r1, r2, rj), (dot((mj, m2), (s2, -sj), zero),
                                      dot((m1, mj), (sj, minus_s1), zero), m12), zero))
    return tuple(out)


def compute_D_vectors(gb: GammaBetaData) -> DVectors:
    bracket = obstruction_bracket(gb)
    D2sq = gb.D * gb.D
    D0 = tuple(-b / D2sq if b else b for b in bracket)
    r1, r2 = gb.rho_grad[0], gb.rho_grad[1]
    if r1 == 0 and r2 == 0:
        # D = rho_1 mu_2 - rho_2 mu_1 != 0 forces a nonzero rho-pair, which
        # is what lets the two kernel rows collapse onto the single D0 row
        raise CrossCheckMismatch("rho_1 = rho_2 = 0 at a point with D != 0")
    D1 = tuple(r2 * x if x else x for x in D0)
    D2 = tuple(-r1 * x if x else x for x in D0)
    _cross_check_exact(gb, D1, D2)
    return DVectors(D0, D1, D2)


def _cross_check_exact(gb, D1, D2):
    """Definitional rows gamma^k beta - beta_k, entrywise exact."""
    beta_columns = tuple(zip(*gb.beta))
    for row, gamma, want in ((D2, gb.gamma2, gb.beta2), (D1, gb.gamma1, gb.beta1)):
        for i, column in enumerate(beta_columns):
            if dot_plus(gamma, column, -want[i]) != row[i]:
                raise CrossCheckMismatch(
                    "closed-form obstruction row disagrees with gamma*beta - beta_k")


# dims: dim A^(q) for q = 1..Q
TableauReport = namedtuple("TableauReport",
                           "dim_A dims q0 involutive_from involutive_at_0")


def tableau_report(gb: GammaBetaData, dv: DVectors, Q=None) -> TableauReport:
    """dim A^(q) for q = 1..Q plus the involutivity order, from the
    caller's gamma/beta data and its D vectors.

    Once a Krylov row D0 beta^d lies in the span of the earlier rows, so
    does every later one; hence the first q rows have rank min(q, d) with
    d the rank of the first m = 2n-2 rows, and one elimination gives
    every dim A^(q) = m - min(q, d) and q0 = d.  A zero row times beta is
    zero, so the rows stop at the first zero one (D0 = 0 forms none).
    """
    m = gb.two_n - 2
    if Q is None:
        Q = m
    rows, zero = [dv.D0], 0 * gb.D
    while len(rows) < m and any(rows[-1]):
        rows.append(row_times_matrix(rows[-1], gb.beta, zero))
    d = mat_rank(rows)
    dims = [m - min(q, d) for q in range(1, Q + 1)]
    at0 = all(x == 0 for x in dv.D0)
    return TableauReport(m, tuple(dims), d, d, at0)
