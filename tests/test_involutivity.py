"""Obstruction rows, prolongation dimensions, involutivity order."""
import json
import random
import sys
from fractions import Fraction
from types import SimpleNamespace

from hypothesis import given, settings, strategies as st

from diskeds.errors import SingularD
from diskeds.expr import Polynomial, parse_expression
from diskeds.geometry import (
    HypersurfaceProblem,
    complex_standard,
    compute_gamma_beta,
    structure_from_entries,
)
from diskeds.involutivity import (
    DVectors,
    compute_D_vectors,
    obstruction_bracket,
    tableau_report,
)
from diskeds import cli, involutivity, linalg
from diskeds.linalg import mat_rank, row_times_matrix
from oracles import (
    var,
    brute_force_dim_A1,
    in_row_span,
    nullity,
    on_chart_point,
    random_constant_structure,
    random_polynomial,
    symbolic_gamma_beta,
)


def test_complex_case_D0_vanishes():
    rng = random.Random(10)
    for n in (2, 3):
        vs = tuple(f"f{i}" for i in range(1, 2 * n + 1))
        for _ in range(6):
            rho = random_polynomial(rng, vs, 4, 6)
            prob = HypersurfaceProblem(rho, complex_standard(n, vs), (1, 2))
            try:
                pt = on_chart_point(rng, prob)
            except AssertionError:
                continue
            dv = compute_D_vectors(compute_gamma_beta(prob, pt))
            assert all(x == 0 for x in dv.D0)


def _scaled_structure(rng, n, base, alpha_poly, beta_poly):
    zero = Polynomial.zero(alpha_poly.vars)
    ent = [[(alpha_poly if i == j else zero) + beta_poly * base.numerators[i][j]
            for j in range(2 * n)] for i in range(2 * n)]
    return structure_from_entries(n, ent)


def _lambda_structure(rng, n, vs):
    """Block matrix with A^2 = g*h * I for polynomial g, h."""
    g = random_polynomial(rng, vs, 1, 2) + 1
    h = random_polynomial(rng, vs, 1, 2) + 1
    zero = Polynomial.zero(vs)
    rows = [[zero] * (2 * n) for _ in range(2 * n)]
    for i in range(n):
        rows[2 * i][2 * i + 1] = g
        rows[2 * i + 1][2 * i] = h
    return structure_from_entries(n, rows)


def test_scaling_law_lambda_structure_gives_zero():
    # A^2 = lambda(f) I  =>  the obstruction of alpha I + beta A vanishes
    rng = random.Random(11)
    for _ in range(6):
        n = rng.choice((2, 3))
        vs = tuple(f"f{i}" for i in range(1, 2 * n + 1))
        A = _lambda_structure(rng, n, vs)
        alpha = random_polynomial(rng, vs, 1, 2)
        beta = random_polynomial(rng, vs, 1, 2) + 1
        S = _scaled_structure(rng, n, A, alpha, beta)
        rho = random_polynomial(rng, vs, 3, 5)
        prob = HypersurfaceProblem(rho, S, (1, 2))
        try:
            pt = on_chart_point(rng, prob)
        except AssertionError:
            continue
        dv = compute_D_vectors(compute_gamma_beta(prob, pt))
        assert all(x == 0 for x in dv.D0)


def test_scaling_law_general_structure():
    # For arbitrary A: the unnormalized bracket scales by beta^3, the
    # normalized rows by beta (D itself scales by beta).
    rng = random.Random(12)
    for _ in range(4):
        n = 2
        A, vs = random_constant_structure(rng, n)
        alpha = random_polynomial(rng, vs, 1, 2)
        beta = random_polynomial(rng, vs, 1, 2) + 2
        S = _scaled_structure(rng, n, A, alpha, beta)
        rho = random_polynomial(rng, vs, 3, 5)
        probA = HypersurfaceProblem(rho, A, (1, 2))
        probS = HypersurfaceProblem(rho, S, (1, 2))
        try:
            pt = on_chart_point(rng, probA)
        except AssertionError:
            continue
        bval = beta.evaluate(pt)
        if bval == 0 or compute_gamma_beta(probS, pt).D == 0:
            continue
        gA = compute_gamma_beta(probA, pt)
        gS = compute_gamma_beta(probS, pt)
        brA = obstruction_bracket(gA)
        brS = obstruction_bracket(gS)
        assert all(bval ** 3 * x == y for x, y in zip(brA, brS))
        d0A = compute_D_vectors(gA).D0
        d0S = compute_D_vectors(gS).D0
        assert all(bval * x == y for x, y in zip(d0A, d0S))


def test_closed_form_vs_definition_with_rho_scaling():
    # gamma^1 beta - beta_1 = +rho_2 D0 and gamma^2 beta - beta_2 = -rho_1 D0
    rng = random.Random(13)
    done = 0
    while done < 10:
        n = rng.choice((2, 3))
        A, vs = random_constant_structure(rng, n)
        rho = random_polynomial(rng, vs, 3, 6)
        prob = HypersurfaceProblem(rho, A, (1, 2))
        try:
            pt = on_chart_point(rng, prob)
        except AssertionError:
            continue
        gb = compute_gamma_beta(prob, pt)
        dv = compute_D_vectors(gb)  # raises CrossCheckMismatch on failure
        m = 2 * n - 2
        d1 = [sum(gb.gamma1[j] * gb.beta[j][i] for j in range(m)) - gb.beta1[i]
              for i in range(m)]
        d2 = [sum(gb.gamma2[j] * gb.beta[j][i] for j in range(m)) - gb.beta2[i]
              for i in range(m)]
        assert tuple(d1) == tuple(gb.rho_grad[1] * x for x in dv.D0)
        assert tuple(d2) == tuple(-gb.rho_grad[0] * x for x in dv.D0)
        done += 1


def test_n2_generic_dims_and_brute_force_oracle():
    rng = random.Random(14)
    vs = tuple(f"f{i}" for i in range(1, 5))
    rho = parse_expression("f1 + f2^2 + f3*f4", vs)
    checked = 0
    while checked < 4:
        A, _ = random_constant_structure(rng, 2)
        prob = HypersurfaceProblem(rho, A, (1, 2))
        try:
            gb = compute_gamma_beta(prob, (1, 1, 1, 1))
        except SingularD:
            continue
        dv = compute_D_vectors(gb)
        if all(x == 0 for x in dv.D0):
            continue
        rep = tableau_report(gb, dv)
        assert rep.dim_A == 2
        assert rep.dims[0] == 1          # one independent obstruction row
        assert rep.dims[0] == brute_force_dim_A1(gb)
        assert not rep.involutive_at_0
        assert rep.involutive_from == rep.q0
        assert rep.q0 <= 2 * 2 - 2
        checked += 1


def test_complex_case_report():
    vs = tuple(f"f{i}" for i in range(1, 7))
    rho = parse_expression("f5 + f1^2 + f2^2 - f3^2 - f4^2", vs)
    prob = HypersurfaceProblem(rho, complex_standard(3, vs), (1, 2))
    pt = (1, 0, 1, 0, 0, 0)
    gb = compute_gamma_beta(prob, pt)
    rep = tableau_report(gb, compute_D_vectors(gb))
    assert rep.dims == (4, 4, 4, 4)
    assert rep.involutive_at_0 and rep.q0 == 0 and rep.involutive_from == 0
    assert brute_force_dim_A1(gb) == 4


def test_dims_non_increasing_and_stabilize():
    rng = random.Random(15)
    done = 0
    while done < 6:
        n = rng.choice((2, 3))
        A, vs = random_constant_structure(rng, n)
        rho = random_polynomial(rng, vs, 3, 6)
        prob = HypersurfaceProblem(rho, A, (1, 2))
        try:
            pt = on_chart_point(rng, prob)
        except AssertionError:
            continue
        gb = compute_gamma_beta(prob, pt)
        rep = tableau_report(gb, compute_D_vectors(gb), Q=2 * n + 2)
        dims = rep.dims
        assert all(a >= b for a, b in zip(dims, dims[1:]))
        for q in range(1, len(dims)):
            if dims[q] == dims[q - 1]:
                assert all(d == dims[q] for d in dims[q:])
                break
        # involutivity order bounds
        assert rep.q0 <= 2 * n - 2
        assert rep.involutive_from == rep.q0
        done += 1


def test_rank_stabilization_long_krylov():
    rng = random.Random(16)
    done = 0
    while done < 4:
        n = 3
        A, vs = random_constant_structure(rng, n)
        rho = random_polynomial(rng, vs, 3, 6)
        prob = HypersurfaceProblem(rho, A, (1, 2))
        try:
            pt = on_chart_point(rng, prob)
        except AssertionError:
            continue
        gb = compute_gamma_beta(prob, pt)
        dv = compute_D_vectors(gb)
        rows = [list(dv.D0)]
        for _ in range(4 * n):
            rows.append(row_times_matrix(rows[-1], gb.beta, Fraction(0)))
        assert mat_rank(rows[:2 * n - 2]) == mat_rank(rows)
        done += 1


def test_rho12_cannot_both_vanish_with_D_nonzero():
    # D = rho_1 mu_2 - rho_2 mu_1 vanishes when rho_1 = rho_2 = 0
    rng = random.Random(18)
    for _ in range(10):
        A, vs = random_constant_structure(rng, 2)
        rho = random_polynomial(rng, vs, 3, 6)
        prob = HypersurfaceProblem(rho, A, (1, 2))
        try:
            pt = on_chart_point(rng, prob)
        except AssertionError:
            continue
        gb = compute_gamma_beta(prob, pt)
        assert gb.rho_grad[0] != 0 or gb.rho_grad[1] != 0


def test_involutive_from_matches_span_condition():
    # the reported order is the first q with D0 beta^{q-1} in the span of
    # the lower Krylov rows
    rng = random.Random(19)
    done = 0
    while done < 5:
        n = rng.choice((2, 3))
        A, vs = random_constant_structure(rng, n)
        rho = random_polynomial(rng, vs, 3, 6)
        prob = HypersurfaceProblem(rho, A, (1, 2))
        try:
            pt = on_chart_point(rng, prob)
        except AssertionError:
            continue
        gb = compute_gamma_beta(prob, pt)
        dv = compute_D_vectors(gb)
        rep = tableau_report(gb, dv)
        rows = [list(dv.D0)]
        for _ in range(2 * n):
            rows.append(row_times_matrix(rows[-1], gb.beta, Fraction(0)))
        m = 2 * n - 2
        first = None
        for q in range(0, 2 * n):
            if in_row_span(rows[:q], rows[q], m):
                first = q
                break
        assert rep.involutive_from == first
        done += 1


def test_tableau_report_is_one_elimination(monkeypatch):
    # every dim A^(q) and q0 come from one rank elimination of the first
    # 2n-2 Krylov rows; the per-prefix nullities are the reference
    rng = random.Random(24)
    eliminations = []
    echelon = linalg._echelon

    def counting(rows, ncols):
        eliminations.append(len(rows))
        return echelon(rows, ncols)

    done = 0
    while done < 6:
        n = rng.choice((2, 3))
        A, vs = random_constant_structure(rng, n, -1, 1)
        rho = random_polynomial(rng, vs, 3, 6)
        prob = HypersurfaceProblem(rho, A, (1, 2))
        try:
            pt = on_chart_point(rng, prob)
        except AssertionError:
            continue
        gb = compute_gamma_beta(prob, pt)
        dv = compute_D_vectors(gb)
        eliminations.clear()
        monkeypatch.setattr(linalg, "_echelon", counting)
        rep = tableau_report(gb, dv, Q=2 * n + 2)
        monkeypatch.setattr(linalg, "_echelon", echelon)
        assert eliminations == [2 * n - 2]
        rows = [list(dv.D0)]
        for _ in range(2 * n + 1):
            rows.append(row_times_matrix(rows[-1], gb.beta, Fraction(0)))
        m = 2 * n - 2
        assert rep.dims == tuple(nullity(rows[:q], m) for q in range(1, 2 * n + 3))
        assert rep.q0 == rep.involutive_from == m - rep.dims[-1]
        done += 1


def test_almost_complex_reduction_vanishes_symbolically():
    # the reduction matrix b(aI - A)/(1 + a^2) with A^2 = -I kills the
    # obstruction identically, not just at sampled points: the bracket is
    # the zero rational function, so D0 = -bracket / D^2 is too
    from diskeds.geometry import make_structure_from_pair
    vs = tuple(f"f{i}" for i in range(1, 5))
    zero = Polynomial.zero(vs)
    one = Polynomial.const(vs, 1)
    A = [[zero] * 4 for _ in range(4)]
    for i in range(2):
        A[2 * i][2 * i + 1] = -one
        A[2 * i + 1][2 * i] = one
    a = var(vs, "f1")
    b = var(vs, "f2") + 1
    S = make_structure_from_pair(a, b, A, 2)
    assert S.warnings == ()
    rho = parse_expression("f3 + f1*f2 + f4^2", vs)
    prob = HypersurfaceProblem(rho, S, (1, 2))
    gb = symbolic_gamma_beta(prob)
    assert all(x.is_zero() for x in obstruction_bracket(gb))


@given(st.integers(0, 2 ** 32))
@settings(derandomize=True, database=None, max_examples=80, deadline=None)
def test_krylov_rank_when_a_row_vanishes_early(seed):
    # the rows stop at the first zero row, and d is still the rank of all
    # 2n-2 rows D0 beta^k; a nilpotent beta sends a nonzero D0 to a zero
    # row before k = 2n-2 on some draws (test_tableau_report_is_one_elimination
    # covers gamma/beta data from problems, where no row vanishes early)
    rng = random.Random(seed)
    n = rng.randint(2, 5)
    m = 2 * n - 2
    entry = lambda: (Fraction(rng.randint(-2, 2), rng.randint(1, 3))
                     if rng.random() < 0.6 else Fraction(0))
    nilpotent = rng.random() < 0.5
    beta = [[entry() if j > i or not nilpotent else Fraction(0) for j in range(m)]
            for i in range(m)]
    gb = SimpleNamespace(two_n=2 * n, D=Fraction(1), beta=beta)
    D0 = tuple(entry() for _ in range(m))
    rows = [D0]
    while len(rows) < m:
        rows.append(row_times_matrix(rows[-1], beta, Fraction(0)))
    d = mat_rank(rows)
    rep = tableau_report(gb, DVectors(D0, (), ()), Q=2 * n)
    assert rep.q0 == d and rep.dims == tuple(m - min(q, d) for q in range(1, 2 * n + 1))
    assert rep.involutive_at_0 == (not any(D0))


def test_zero_D0_forms_no_krylov_row(monkeypatch, capsys):
    # D0 = 0 on the hyperquadric, so tableau_report multiplies no row by beta
    krylov, real = [], involutivity.row_times_matrix

    def counting(row, matrix, zero):
        if sys._getframe(1).f_code is tableau_report.__code__:
            krylov.append(row)
        return real(row, matrix, zero)

    monkeypatch.setattr(involutivity, "row_times_matrix", counting)
    assert cli.main(["involutivity", "hyperquadric"]) == 0
    results = json.loads(capsys.readouterr().out)["results"]
    assert results["D0_zero"] is True and results["dims"] == [4, 4, 4, 4]
    assert krylov == []
