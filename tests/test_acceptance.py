"""Acceptance criteria, one test per criterion, exact equality throughout.

Each test prints a single PASS line on success; a failure surfaces as an
ordinary pytest failure.  Randomized families use fixed seeds so runs are
reproducible.
"""
import json
import random
import subprocess
import sys
from fractions import Fraction

from diskeds.errors import SingularD
from diskeds.expr import Polynomial, parse_expression, print_polynomial
from diskeds.geometry import (
    HypersurfaceProblem,
    complex_standard,
    compute_gamma_beta,
    structure_from_entries,
)
from diskeds.involutivity import compute_D_vectors, tableau_report
from diskeds.integral_element import FlagSpec, _dtheta_row_data
from diskeds.jets import involution_loop, linearize, prolong_constraints
from diskeds.linalg import mat_rank
from diskeds.reports import build_problem, load_problem
from diskeds.torsion import (
    complex_B_coefficients,
    pseudo_ellipsoid_check,
    quadratics_from_B,
)
from oracles import (
    var,
    curve_probe,
    dim6_completed_square,
    evaluate_form,
    explicit_polar_maps,
    levi_form,
    mat_mul,
    nullity,
    on_chart_point,
    perturbed_polar_nullity,
    random_constant_structure,
    random_polynomial,
    structure_coefficient_forms,
    torsion_form_matrices,
    used_variables,
    var_jet_order,
)

V6 = tuple(f"f{i}" for i in range(1, 7))


def _ok(num, text):
    print(f"ACCEPTANCE {num}: PASS - {text}")


def test_criterion_1_complex_structure_vanishing():
    rng = random.Random(101)
    checked = 0
    while checked < 50:
        n = rng.choice((2, 3))
        vs = tuple(f"f{i}" for i in range(1, 2 * n + 1))
        rho = random_polynomial(rng, vs, 4, 7)
        prob = HypersurfaceProblem(rho, complex_standard(n, vs), (1, 2))
        try:
            pt = on_chart_point(rng, prob, tries=40)
        except AssertionError:
            continue
        dv = compute_D_vectors(compute_gamma_beta(prob, pt))
        assert all(x == 0 for x in dv.D0)
        checked += 1
    _ok(1, "D0 = 0 exactly for 50 random complex-structure problems")


def test_criterion_2_scaling_law():
    rng = random.Random(102)
    checked = 0
    while checked < 20:
        n = rng.choice((2, 3))
        vs = tuple(f"f{i}" for i in range(1, 2 * n + 1))
        g = random_polynomial(rng, vs, 1, 2) + rng.randint(1, 3)
        h = random_polynomial(rng, vs, 1, 2) + rng.randint(1, 3)
        zero = Polynomial.zero(vs)
        rows = [[zero] * (2 * n) for _ in range(2 * n)]
        for i in range(n):
            rows[2 * i][2 * i + 1] = g
            rows[2 * i + 1][2 * i] = h
        A = structure_from_entries(n, rows)  # A^2 = g*h*I
        alpha = random_polynomial(rng, vs, 1, 2)
        beta = random_polynomial(rng, vs, 1, 2) + 1
        S = structure_from_entries(n, [
            [(alpha if i == j else zero) + beta * A.numerators[i][j]
             for j in range(2 * n)] for i in range(2 * n)])
        rho = random_polynomial(rng, vs, 3, 6)
        prob = HypersurfaceProblem(rho, S, (1, 2))
        try:
            pt = on_chart_point(rng, prob, tries=40)
        except AssertionError:
            continue
        dv = compute_D_vectors(compute_gamma_beta(prob, pt))
        assert all(x == 0 for x in dv.D0)
        checked += 1
    _ok(2, "D_k(alpha I + beta A) = 0 exactly for 20 A with A^2 = lambda I")


def _ten_random_problems(seed):
    rng = random.Random(seed)
    out = []
    while len(out) < 10:
        n = rng.choice((2, 3))
        A, vs = random_constant_structure(rng, n)
        rho = random_polynomial(rng, vs, 3, 6)
        prob = HypersurfaceProblem(rho, A, (1, 2))
        try:
            compute_gamma_beta(prob, tuple(Fraction(1) for _ in vs))
        except SingularD:
            continue
        out.append((prob, rng))
    return out, rng


def test_criterion_3_closed_form_vs_definition():
    problems, rng = _ten_random_problems(103)
    points = 0
    while points < 100:
        prob, _ = problems[points % 10]
        try:
            pt = on_chart_point(rng, prob, tries=40)
        except AssertionError:
            continue
        gb = compute_gamma_beta(prob, pt)
        dv = compute_D_vectors(gb)   # internal exact cross-check runs here
        m = prob.two_n - 2
        d1 = [sum(gb.gamma1[j] * gb.beta[j][i] for j in range(m)) - gb.beta1[i]
              for i in range(m)]
        d2 = [sum(gb.gamma2[j] * gb.beta[j][i] for j in range(m)) - gb.beta2[i]
              for i in range(m)]
        assert tuple(d1) == tuple(gb.rho_grad[1] * x for x in dv.D0)
        assert tuple(d2) == tuple(-gb.rho_grad[0] * x for x in dv.D0)
        points += 1
    _ok(3, "closed-form D0 matches gamma*beta - beta_k rows (rho-scaled, "
           "with gamma^2 row carrying -rho_1) at 100 points / 10 problems")


def test_criterion_4_involutivity_equivalence():
    problems, rng = _ten_random_problems(104)
    sampled = 0
    while sampled < 30:
        prob, _ = problems[sampled % 10]
        try:
            pt = on_chart_point(rng, prob, tries=40)
        except AssertionError:
            continue
        gb = compute_gamma_beta(prob, pt)
        dv = compute_D_vectors(gb)
        rep = tableau_report(gb, dv, Q=2 * prob.n)
        m = prob.two_n - 2
        assert (all(x == 0 for x in dv.D0)) == (rep.dims[0] == m)
        assert rep.involutive_at_0 == (rep.dims[0] == m)
        dims = rep.dims
        assert all(a >= b for a, b in zip(dims, dims[1:]))
        for q in range(1, len(dims)):
            if dims[q] == dims[q - 1]:
                assert all(d == dims[q] for d in dims[q:])
                break
        sampled += 1
    _ok(4, "D0 = 0 iff dim A^(1) = 2n-2; dims non-increasing, stabilize "
           "at first repeat (30 sampled points)")


def test_criterion_5_complex_torsion_structure():
    rng = random.Random(105)
    done = 0
    while done < 3:
        n = rng.choice((2, 3))
        vs = tuple(f"f{i}" for i in range(1, 2 * n + 1))
        rho = random_polynomial(rng, vs, 3, 5)
        prob = HypersurfaceProblem(rho, complex_standard(n, vs), (1, 2))
        try:
            gb, raw = structure_coefficient_forms(prob)
        except SingularD:
            continue
        for k in range(2, 2 * n):
            assert all(r.is_zero() for row in raw[k] for r in row)
        try:
            pt = on_chart_point(rng, prob, tries=40)
        except AssertionError:
            continue
        forms = torsion_form_matrices(prob, pt)
        data = complex_B_coefficients(prob, pt)
        for _ in range(50):
            p = tuple(Fraction(rng.randint(-5, 5)) for _ in range(2 * n - 2))
            assert evaluate_form(forms[0], p) == evaluate_form(data.c1, p)
            assert evaluate_form(forms[1], p) == evaluate_form(data.c2, p)
        done += 1
    _ok(5, "c^j = 0 (j >= 3) exactly and the coefficient-table torsion forms equal the "
           "closed-form quadratics at 50 jets x 3 problems")


def test_criterion_6_dim6_completed_square():
    rng = random.Random(106)
    P4 = ("p3", "p4", "p5", "p6")
    p = [var(P4, v) for v in P4]
    done = 0
    while done < 20:
        B = {}
        for j in (2, 3):
            for k in (2, 3):
                B[("lower", j, k)] = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
                B[("upper", j, k)] = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
        if B[("lower", 2, 2)] == 0 or B[("upper", 2, 2)] == 0:
            continue
        c1_sq, c2_sq = dim6_completed_square(B)
        m1, m2 = quadratics_from_B(
            3, {(j, k): B[("lower", j, k)] for j in (2, 3) for k in (2, 3)},
            {(j, k): B[("upper", j, k)] for j in (2, 3) for k in (2, 3)})
        bil1 = sum(p[a] * p[b] * m1[a][b] for a in range(4) for b in range(4))
        bil2 = sum(p[a] * p[b] * m2[a][b] for a in range(4) for b in range(4))
        assert c1_sq == bil1 and c2_sq == bil2
        done += 1
    _ok(6, "completed-square torsion forms reproduce the bilinear "
           "expansion at 20 random B assignments")


def test_criterion_7_pseudo_ellipsoid_fixtures():
    r1 = pseudo_ellipsoid_check([1] * 6, [1] * 6, [1] * 6)
    assert r1.L == 384 and not r1.holds
    r2 = pseudo_ellipsoid_check([1, 1, -1, -1, 1, 1], [1] * 6,
                                [1, 0, 1, 0, 0, 0])
    assert r2.L == 0 and r2.holds and not r2.off_surface
    rng = random.Random(107)
    literal = strengthened = 0
    while literal < 25 or strengthened < 25:
        alphas = [rng.randint(1, 4) for _ in range(6)]
        ks = [rng.randint(1, 2) for _ in range(6)]
        y = [Fraction(rng.randint(-3, 3)) for _ in range(6)]
        rep = pseudo_ellipsoid_check(alphas, ks, y)
        assert rep.L >= 0  # positive alphas make every w nonnegative
        if all(k == 1 for k in ks) and any(v != 0 for v in rep.v):
            # exponent-one case: the literal criterion holds as stated
            assert rep.L > 0
            literal += 1
        pairs_alive = all(rep.v[2 * j] != 0 or rep.v[2 * j + 1] != 0
                          for j in range(3))
        if pairs_alive:
            # higher exponents: zero coordinates kill their w, so the
            # positivity needs every coordinate pair to carry velocity
            assert rep.L > 0
            strengthened += 1
    _ok(7, "L fixtures: 384 violated, mixed-sign 0 holds; all-positive "
           "alphas give L > 0 at sampled points (literal form for unit "
           "exponents, pairwise-nonzero form in general)")


def test_criterion_8_polar_structural_facts():
    rho = parse_expression("2*f5 + f1^2 + f2^2 - f3^2 - f4^2", V6)
    prob = HypersurfaceProblem(rho, complex_standard(3, V6), (1, 2))
    jet = prob.make_jet((1, 0, 1, 0, 0, 0), (1, 0, 0, 0))
    rng = random.Random(108)
    for _ in range(20):
        c1 = tuple(Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(4))
        c2 = tuple(Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(4))
        flag = FlagSpec((1, 0), (0, 1), c1, c2, Fraction(1),
                        Fraction(rng.randint(0, 2)))
        A1, A2, C = flag.resolved(6)
        F, _, R, _ = explicit_polar_maps(_dtheta_row_data(prob, jet).rows, A1, A2, C)
        assert mat_rank(F) == 5 and nullity(F, 6) == 1
        RF = mat_mul(R, F)
        assert all(x == 0 for row in RF for x in row)
        et = [Fraction(0)] * 6
        et[rng.randrange(6)] = Fraction(1, rng.randint(2, 7))
        eflag = FlagSpec((1, 0), (0, 1), c1, c2)
        assert perturbed_polar_nullity(prob, jet, eflag, tuple(et)) == 1
    _ok(8, "rank F = 2n-1, dim Ker F = 1, R F = 0, and the perturbed "
           "polar system has solution dimension 1 with theta "
           "perturbations (20 flags)")


def test_criterion_9_builtin_regressions():
    lp = build_problem(load_problem("hyperquadric"), "hyperquadric")
    system, probes = lp.strata["nonzero_velocity"]
    chain = involution_loop(system, probes["Q0"], max_rounds=3)
    assert chain.dims == (3, 2, 2)
    assert chain.verdict == "involutive"
    assert all(r.torsion_free for r in chain.reports)

    lp = build_problem(load_problem("cusp"), "cusp")
    system, probes = lp.strata["generic"]
    gen = involution_loop(system, probes["P_generic"], max_rounds=3)
    assert gen.dims == (1, 1) and gen.verdict == "involutive"
    assert gen.reports[0].torsion_free
    org = involution_loop(system, probes["P_origin"], max_rounds=3)
    assert org.dims[0] == 2
    # the dimension jump is flagged when probes are cross-compared
    from diskeds.cli import cmd_jets
    import argparse
    opts = argparse.Namespace(stratum="generic", probe=None, rounds=3)
    res = cmd_jets(lp, opts)
    assert any("not locally constant" in w
               for w in res["probes"]["P_origin"]["warnings"])

    system, probes = lp.strata["vertex"]
    t7 = involution_loop(system, probes["R0"], max_rounds=3)
    assert t7.verdict == "involutive"
    final = t7.reports[-1].next.system
    low = sorted(print_polynomial(p) for p in final.equalities
                 if all(var_jet_order(v) <= 1 for v in used_variables(p)))
    assert low == ["w1", "w2", "w3", "wb1", "wb2", "wb3",
                   "z1", "z2", "z3 + zb3", "zb1", "zb2"]
    _ok(9, "hyperquadric chain (3,2,2) involutive; cusp dims 1 / 2 with "
           "locality warning; the vertex stratum collapses to the six equations")


def test_criterion_10_flat_sanity():
    J = complex_standard(3, V6)
    flat = parse_expression("f5", V6)
    # Levi form is a quadratic form in p; checking the 6 basis vectors and
    # all 15 pairwise sums determines it completely (polarization)
    basis = [tuple(Fraction(1 if i == j else 0) for j in range(6))
             for i in range(6)]
    vectors = list(basis)
    for i in range(6):
        for j in range(i + 1, 6):
            vectors.append(tuple(a + b for a, b in zip(basis[i], basis[j])))
    for p in vectors:
        value, warnings = levi_form(flat, J, (0,) * 6, p)
        assert value == 0 and warnings == ()
    lp = build_problem(load_problem("flat"), "flat")
    system, probes = lp.strata["base"]
    chain = involution_loop(system, probes["Q0"])
    assert chain.verdict == "involutive" and chain.rounds == 1
    S = system
    for _ in range(3):
        S = prolong_constraints(S)
    t = var(("t",), "t")
    comps = [t, Polynomial.zero(("t",)), Polynomial.zero(("t",))]
    for t0 in (Fraction(0), Fraction(1, 3)):
        assert linearize(S, curve_probe(3, S.order, comps, t0)).satisfied(
            strict=False)
    _ok(10, "flat model: Levi form identically zero (polarization basis), "
            "involutive at round 1, the disk t -> (t,0,0) satisfies all "
            "constraints through order 3")


def test_criterion_11_deterministic_reports():
    def run(*args):
        proc = subprocess.run([sys.executable, "-m", "diskeds.cli", *args],
                              capture_output=True)
        assert proc.returncode == 0, proc.stderr
        return proc.stdout

    a1 = run("jets", "hyperquadric", "--stratum", "nonzero_velocity")
    a2 = run("jets", "hyperquadric", "--stratum", "nonzero_velocity")
    assert a1 == a2
    b1 = run("integral-element", "hyperquadric", "--jet", "J1", "--format", "text")
    b2 = run("integral-element", "hyperquadric", "--jet", "J1", "--format", "text")
    assert b1 == b2
    json.loads(a1)  # json output parses
    _ok(11, "byte-identical reports across repeated runs with fixed seed")
