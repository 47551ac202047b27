"""Torsion coefficients, absorbability, complex closed forms, examples."""
import json
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from diskeds import exact, geometry
from diskeds.errors import SingularD, WrongDimension
from diskeds.expr import Polynomial, parse_expression
from diskeds.geometry import (
    HypersurfaceProblem,
    _value,
    complex_standard,
    compute_gamma_beta,
    structure_from_entries,
)
from diskeds.involutivity import compute_D_vectors
from diskeds.reports import build_problem
from diskeds.torsion import (
    complex_B_coefficients,
    dim6_definiteness,
    form_definiteness,
    pseudo_ellipsoid_check,
    quadratics_from_B,
    structure_equation_coefficients,
    torsion_absorbable,
)
from oracles import (
    RationalFunction,
    var,
    choose_pair_by_builds,
    coefficient_tables_full,
    complex_problem,
    coefficient_tables_symbolic,
    definiteness_by_minors,
    differentiate,
    dim6_completed_square,
    dtheta_torsion_oracle,
    dtheta_x2_column_full,
    evaluate_form,
    extend_to,
    on_chart_point,
    on_surface_point,
    permute_polynomial,
    pseudo_ellipsoid_rho,
    quadratics_by_symmetrizing,
    random_constant_structure,
    random_polynomial,
    random_polynomial_structure,
    structure_coefficient_forms,
    symbolic_complex_B,
    symbolic_gamma_beta,
    torsion_values_along_tables,
    torsion_values_from_matrices,
)

V6 = tuple(f"f{i}" for i in range(1, 7))
HYPERQUADRIC2 = parse_expression("2*f5 + f1^2 + f2^2 - f3^2 - f4^2", V6)


def _oracle_matches_pipeline(problem):
    joint, pvar, cs, a_table = dtheta_torsion_oracle(problem)
    gb, raw = structure_coefficient_forms(problem)
    m = problem.two_n - 2
    nf = len(joint) - m
    # the coefficient table: -gamma^k_j / -delta on dx1, -beta_{k,j} on dx2
    for k in range(problem.two_n):
        for j in range(m):
            dx1, dx2 = a_table[k][j]
            if k == 0:
                assert dx1 == -extend_to(gb.gamma1[j], joint)
            elif k == 1:
                assert dx1 == -extend_to(gb.gamma2[j], joint)
            else:
                assert dx1 == (-1 if k - 2 == j else 0)
            assert dx2 == -extend_to(gb.beta_full[k][j], joint)
    for k in range(problem.two_n):
        # split the oracle numerator by its p-exponent pattern
        coeffs = {}
        for exps, c in cs[k].num.terms.items():
            fpart, ppart = exps[:nf], exps[nf:]
            assert sum(ppart) in (0, 2)
            idx = tuple(sorted(i for i, e in enumerate(ppart) for _ in range(e)))
            key = exps[:nf] + (0,) * m
            coeffs.setdefault(idx, {})[key] = c
        for j in range(m):
            for jp in range(j, m):
                num = Polynomial(joint, coeffs.get(tuple(sorted((j, jp))), {}))
                lhs = RationalFunction(num, cs[k].den)
                rhs = extend_to(raw[k][j][jp], joint)
                if j != jp:
                    rhs = rhs + extend_to(raw[k][jp][j], joint)
                assert lhs == rhs, \
                    f"c^{k+1} p{j+3}p{jp+3} disagrees with the oracle"


def test_coefficient_pipeline_vs_dtheta_oracle_n2():
    rng = random.Random(20)
    vs = tuple(f"f{i}" for i in range(1, 5))
    rho = parse_expression("f1 + f2^2 + f3*f4 - f3", vs)
    done = 0
    while done < 1:
        A, _ = random_polynomial_structure(rng, 2)
        prob = HypersurfaceProblem(rho, A, (1, 2))
        try:
            symbolic_gamma_beta(prob)
        except SingularD:
            continue
        _oracle_matches_pipeline(prob)
        done += 1


def test_coefficient_pipeline_vs_dtheta_oracle_n3():
    rng = random.Random(21)
    A, vs = random_constant_structure(rng, 3)
    rho = parse_expression("f1 + f2^2 + f3*f5", vs)
    prob = HypersurfaceProblem(rho, A, (1, 2))
    _oracle_matches_pipeline(prob)


def _n3_pair_case(**structure):
    """The golden n3_pair document's problem, with ``structure`` replacing
    fields of its pair structure, and its jet J0 as (problem, point, p)."""
    doc = json.loads((Path(__file__).resolve().parent / "golden" / "docs"
                      / "n3_pair.json").read_text())
    doc["structure"].update(structure)
    loaded = build_problem(doc)
    jet = loaded.jets["J0"]
    return loaded.problem, jet.f, list(jet.p_reduced)


def _first_jet_cases(rng, n):
    """(problem, point) pairs: constant and degree-1 polynomial structures
    at pair (1, 2), plus one that names no pair, which the builders chart."""
    cases = []
    for make in (random_constant_structure, random_polynomial_structure) * 2:
        A, vs = make(rng, n)
        prob = HypersurfaceProblem(random_polynomial(rng, vs, 3, 6), A, (1, 2))
        try:
            cases.append((prob, on_chart_point(rng, prob)))
        except AssertionError:
            continue
    # rho free of f1, f2 makes D vanish identically at the pair (1, 2)
    A, vs = random_polynomial_structure(rng, n)
    rho = extend_to(random_polynomial(rng, vs[2:], 3, 6), vs) + var(vs, vs[-1])
    pt = tuple(Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in vs)
    prob = HypersurfaceProblem(rho, A, None)
    assert choose_pair_by_builds(prob, pt) != (1, 2)
    cases.append((prob, pt))
    return cases


@pytest.mark.parametrize("n", [2, 3])
def test_first_jet_tables_equal_symbolic_reference(n):
    rng = random.Random(70 + n)
    cases = _first_jet_cases(rng, n)
    assert len(cases) >= 4
    if n == 3:
        # the jet / constant and constant / jet quotients of the examples below
        cases += [case[:2] for case in (_n3_pair_case(a="1/2"), _n3_pair_case(b="3"))]
    for prob, pt in cases:
        got = coefficient_tables_full(prob, pt)
        charted = got[0].problem
        if prob.pair is None:
            # the full first jets, the pointwise build and the build along a
            # jet chart where the per-pair build oracle does
            jet = prob.make_jet(pt, (1,) * (prob.two_n - 2), allow_off_surface=True)
            assert {charted, compute_gamma_beta(prob, pt).problem,
                    structure_equation_coefficients(prob, jet).point_data.problem} == \
                {prob.with_pair(choose_pair_by_builds(prob, pt))}
        want = coefficient_tables_symbolic(charted, pt)
        assert got[1:] == want[1:]
        pt_int = tuple(Fraction(pt[i]) for i in charted.internal_order())
        assert list(map(_value, got[0].rho_grad)) == \
            [r.evaluate(pt_int) for r in want[0].rho_grad]


@st.composite
def torsion_jets(draw):
    """A problem, a chart point (D != 0) and a reduced jet, zero entries
    included: constant and degree-1 matrix structures at n = 2, 3 and the
    standard structure at n = 4, 5."""
    n, make = draw(st.sampled_from([
        (2, random_constant_structure), (3, random_constant_structure),
        (2, random_polynomial_structure), (3, random_polynomial_structure),
        (4, None), (5, None)]))
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    if make is None:
        vs = tuple(f"f{i}" for i in range(1, 2 * n + 1))
        A = complex_standard(n, vs)
    else:
        A, vs = make(rng, n)
    rho = random_polynomial(rng, vs, 3, 6) + var(vs, vs[0])
    prob = HypersurfaceProblem(rho, A, (1, 2))
    try:
        pt = on_chart_point(rng, prob, tries=20)
    except AssertionError:
        pt = None
    p = draw(st.lists(st.sampled_from((0, 0, 1, -1, 2, Fraction(-1, 3))),
                      min_size=2 * n - 2, max_size=2 * n - 2))
    return prob, pt, p


@given(torsion_jets())
@example((HypersurfaceProblem(HYPERQUADRIC2, complex_standard(3, V6), (1, 2)),
          (1, 0, 1, 0, 0, 0), [0, 0, 0, 0]))
# a constant a makes 12 jet / constant quotients, a constant b (a = f1/2)
# 6 constant / jet quotients; no golden report divides either way
@example(_n3_pair_case(a="1/2"))
@example(_n3_pair_case(b="3"))
# rho_1 = 0: G's first row is d(theta^1)
@example((HypersurfaceProblem(HYPERQUADRIC2, complex_standard(3, V6), (1, 2)),
          (0, 1, 1, 0, 0, 0), [1, 2, 0, 1]))
@settings(max_examples=40, deadline=None)
def test_directional_torsion_equals_the_quadratic_forms(case):
    # c^k read along p1 and p2 is p^T raw_k p of the full-gradient matrices,
    # and G's X_2 column is (c^2, -c^3, .., -c^{2n}), c^1 first where
    # rho_1 = 0
    from diskeds.integral_element import _dtheta_row_data
    prob, pt, p = case
    if pt is None:
        return
    jet = prob.make_jet(pt, p, allow_off_surface=True)
    c = structure_equation_coefficients(prob, jet).c_values
    # the reference differentiates the symbolic gamma/beta, so no first jet
    # of the pipeline enters what c is checked against
    tables = coefficient_tables_symbolic(prob, jet.f)
    assert c == torsion_values_from_matrices(jet, tables)
    assert all(isinstance(x, Fraction) for x in c)
    rows = _dtheta_row_data(prob, jet).rows
    assert [x2 for x2, _, _ in rows] == dtheta_x2_column_full(prob, jet, tables)


@st.composite
def contraction_cases(draw):
    """A problem under a constant or degree-1 matrix structure at n = 2..5,
    naming the pair (1, 2) or none, a point and a reduced jet, zero entries
    included; where asked, rho is (f1 - a)^2 plus terms free of f1 and the
    point has f1 = a, so rho_1 = 0 there."""
    n = draw(st.integers(2, 5))
    make = draw(st.sampled_from([random_constant_structure, random_polynomial_structure]))
    pair = draw(st.sampled_from([(1, 2), None]))
    rho_1_zero = draw(st.booleans())
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    A, vs = make(rng, n)
    pt = tuple(Fraction(rng.randint(-3, 3)) for _ in vs)
    if rho_1_zero:
        shift = var(vs, vs[0]) - Polynomial.const(vs, pt[0])
        rho = extend_to(random_polynomial(rng, vs[1:], 3, 6), vs) + shift * shift
    else:
        rho = random_polynomial(rng, vs, 3, 6) + var(vs, vs[0])
    rho = rho + var(vs, vs[-1])
    p = draw(st.lists(st.sampled_from((0, 0, 1, -1, 2, Fraction(-1, 3))),
                      min_size=2 * n - 2, max_size=2 * n - 2))
    return HypersurfaceProblem(rho, A, pair), pt, p, rho_1_zero


@given(contraction_cases())
@settings(max_examples=60, deadline=None, derandomize=True)
def test_contracted_torsion_equals_the_table_sums(case):
    # c^k read as D_{p2} p^k_1 - D_{p1} (A p1)_k equals the sums over the
    # gamma and beta_full tables along p1 and p2
    prob, pt, p, rho_1_zero = case
    jet = prob.make_jet(pt, p, allow_off_surface=True)
    try:
        sed = structure_equation_coefficients(prob, jet)
    except SingularD:
        return
    if rho_1_zero and sed.point_data.problem.pair[0] == 1:
        assert sed.point_data.rho_grad[0] == 0
    assert sed.c_values == torsion_values_along_tables(prob, jet)
    assert all(type(x) is Fraction for x in sed.c_values)


def _sweep_problem(rng, n):
    """rho = 2 f_{2n-1} + sum_{i<n} s_i (f_{2i-1}^2 + f_{2i}^2), s_i = +-1,
    under the standard structure, a point on it whose coordinates other
    than f_{2n-1} are nonzero, and a reduced jet with nonzero entries."""
    vs = tuple(f"f{i}" for i in range(1, 2 * n + 1))
    squares = " + ".join(f"{rng.choice((1, -1))}*(f{2 * i - 1}^2 + f{2 * i}^2)"
                         for i in range(1, n))
    rho = parse_expression(f"2*f{2 * n - 1} + {squares}", vs)
    pt = [Fraction(rng.choice((-2, -1, 1, 2))) for _ in vs]
    pt[2 * n - 2] = Fraction(0)
    pt[2 * n - 2] = -rho.evaluate(pt) / 2
    p = tuple(Fraction(rng.choice((-3, -2, -1, 1, 2, 3))) for _ in range(2 * n - 2))
    return HypersurfaceProblem(rho, complex_standard(n, vs), (1, 2)), tuple(pt), p


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_torsion_and_the_complex_forms_form_only_the_quotients_they_read(n, monkeypatch):
    # torsion contracts with p before dividing: p^1_1 and p^2_1 are two
    # first-jet quotients at any n, where one per gamma made 4n - 4; the
    # complex forms divide for gamma^1_{2j} and gamma^2_{2j} alone and read
    # mu at the pair and the columns f_4, f_6, .., f_2n
    prob, pt, p = _sweep_problem(random.Random(440 + n), n)
    jet = prob.make_jet(pt, p)
    quotients = []
    real_quotient, real_chart = exact._quotient, geometry._chart_order
    monkeypatch.setattr(exact, "_quotient",
                        lambda *args: quotients.append(None) or real_quotient(*args))
    sed = structure_equation_coefficients(prob, jet)
    assert len(quotients) == 2
    assert sed.c_values == torsion_values_along_tables(prob, jet)

    reads = set()

    class Row(tuple):
        """A structure row that records the columns read from it by index."""

        def __getitem__(self, i):
            reads.add(i)
            return super().__getitem__(i)

    def recording_chart(*args):
        chart, (grad, alpha, zero) = real_chart(*args)
        return chart, (grad, tuple(map(Row, alpha)), zero)

    monkeypatch.setattr(geometry, "_chart_order", recording_chart)
    quotients.clear()
    data = complex_B_coefficients(prob, pt)
    assert len(quotients) == 2 * (n - 1)
    assert reads == {0, 1, *range(3, 2 * n, 2)} and len(reads) == n + 1
    assert (sed.c_values[0], sed.c_values[1]) == \
        (evaluate_form(data.c1, p), evaluate_form(data.c2, p))


def _symmetric(entries, m):
    it = iter(entries)
    rows = [[None] * m for _ in range(m)]
    for a in range(m):
        for b in range(a, m):
            rows[a][b] = rows[b][a] = next(it)
    return rows


@st.composite
def symmetric_matrices(draw):
    m = draw(st.integers(1, 5))
    values = st.sampled_from((0, 0, 1, -1, 2, -2, Fraction(1, 2), Fraction(-3, 2)))
    entries = draw(st.lists(values, min_size=m * (m + 1) // 2,
                            max_size=m * (m + 1) // 2))
    return _symmetric([Fraction(x) for x in entries], m)


@given(symmetric_matrices())
# leading minors 0 then nonzero: (0, -1); (1, 0, -1); (1, 0, 0)
@example([[Fraction(0), Fraction(1)], [Fraction(1), Fraction(0)]])
@example(_symmetric([Fraction(x) for x in (1, 1, 1, 1, 2, 1)], 3))
@example(_symmetric([Fraction(x) for x in (1, 1, 0, 1, 0, 1)], 3))
# definite both ways
@example(_symmetric([Fraction(x) for x in (2, 1, 0, 2, 1, 2)], 3))
@example(_symmetric([Fraction(x) for x in (-2, 1, 0, -2, 1, -2)], 3))
# rank-deficient without a row exchange; a skipped first column; 2x2
# negative definite
@example(_symmetric([Fraction(x) for x in (1, 1, 1)], 2))
@example(_symmetric([Fraction(x) for x in (0, 0, 1)], 2))
@example(_symmetric([Fraction(x) for x in (-2, 1, -1)], 2))
@settings(max_examples=300, deadline=None)
def test_one_elimination_definiteness_equals_per_minor_determinants(matrix):
    assert form_definiteness(matrix) == definiteness_by_minors(matrix)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_pointwise_complex_B_equals_symbolic_at_the_point(n):
    rng = random.Random(80 + n)
    vs = tuple(f"f{i}" for i in range(1, 2 * n + 1))
    checked = 0
    while checked < 2:
        rho = random_polynomial(rng, vs, 3, 5) + var(vs, vs[0])
        pt = tuple(Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in vs)
        symbolic = symbolic_complex_B(rho)
        try:
            pointwise = complex_B_coefficients(complex_problem(rho), pt)
        except SingularD:
            continue
        for key in symbolic.B_lower:
            assert pointwise.B_lower[key] == symbolic.B_lower[key].evaluate(pt)
            assert pointwise.B_upper[key] == symbolic.B_upper[key].evaluate(pt)
        for got, want in ((pointwise.c1, symbolic.c1), (pointwise.c2, symbolic.c2)):
            assert [list(r) for r in got] == [[e.evaluate(pt) for e in r] for r in want]
        checked += 1


def test_constant_structure_linear_rho_zero_torsion():
    rng = random.Random(23)
    A, vs = random_constant_structure(rng, 2)
    rho = parse_expression("f1 + 2*f2 - f3 + 5*f4", vs)
    prob = HypersurfaceProblem(rho, A, (1, 2))
    pt = on_surface_point(rng, prob)
    jet = prob.make_jet(pt, (3, -2))
    sed = structure_equation_coefficients(prob, jet)
    assert all(v == 0 for v in sed.c_values)
    verdict = torsion_absorbable(sed)
    assert verdict.absorbable
    assert verdict.residual_1 == 0 and verdict.residual_2 == 0


def test_complex_case_cj_vanish_symbolically():
    rng = random.Random(24)
    for n in (2, 3):
        vs = tuple(f"f{i}" for i in range(1, 2 * n + 1))
        rho = random_polynomial(rng, vs, 3, 6)
        prob = HypersurfaceProblem(rho, complex_standard(n, vs), (1, 2))
        try:
            gb, raw = structure_coefficient_forms(prob)
        except SingularD:
            continue
        for k in range(2, 2 * n):
            assert all(r.is_zero() for row in raw[k] for r in row)


def test_complex_verdict_reduces_to_c1_c2():
    # in the complex case absorbability is exactly c^1 = c^2 = 0
    prob = HypersurfaceProblem(HYPERQUADRIC2, complex_standard(3, V6), (1, 2))
    pt = (1, 0, 1, 0, 0, 0)
    for pr, expected in [((1, 0, 0, 0), True), ((0, 1, -1, 2), False)]:
        jet = prob.make_jet(pt, pr)
        sed = structure_equation_coefficients(prob, jet)
        verdict = torsion_absorbable(sed)
        assert verdict.case == "D0_zero"
        assert verdict.absorbable == expected
        assert verdict.absorbable == (sed.c_values[0] == 0 and sed.c_values[1] == 0)


def _flattened(rho, pt, blocks):
    """rho less its value and its first-order terms along the first
    ``blocks`` complex coordinates at ``pt``: rho = 0 there, and so are
    rho_1, .., rho_{2 blocks}."""
    grad = rho.derivatives_at(pt)[0]
    vs = rho.vars
    linear = sum((var(vs, vs[i]).scale(grad[i]) - grad[i] * pt[i]
                  for i in range(2 * blocks)), Polynomial.const(vs, rho.evaluate(pt)))
    return rho - linear


def test_closed_form_quadratics_equal_pipeline_at_random_jets():
    # at points where rho_1 = rho_2 = 0 too: the closed forms chart at the
    # first z_k = (f_{2k-1}, f_{2k}) that rho's gradient does not annihilate,
    # whatever pair is declared, and equal there both the torsion pipeline
    # and the (1, 2) closed forms of rho with its blocks swapped
    rng = random.Random(25)
    cases = []
    for n in (2, 3):
        vs = tuple(f"f{i}" for i in range(1, 2 * n + 1))
        rho = random_polynomial(rng, vs, 3, 6)
        prob = HypersurfaceProblem(rho, complex_standard(n, vs), (1, 2))
        try:
            cases.append((prob, on_surface_point(rng, prob)))
        except AssertionError:
            pass
        for blocks in range(1, n):
            pt = tuple(Fraction(rng.randint(-2, 2)) for _ in vs)
            flattened = HypersurfaceProblem(_flattened(rho, pt, blocks), prob.structure, (1, 2))
            cases.append((flattened, pt))
    charts = set()
    for prob, pt in cases:
        data = complex_B_coefficients(prob, pt)
        grad = prob.rho.derivatives_at(pt)[0]
        k = next(k for k in range(1, prob.n + 1) if grad[2 * k - 2] or grad[2 * k - 1])
        chart = data.problem
        assert chart.pair == (2 * k - 1, 2 * k)
        charts.add(chart.pair)
        for _ in range(10):
            pr = tuple(Fraction(rng.randint(-4, 4)) for _ in range(2 * prob.n - 2))
            sed = structure_equation_coefficients(chart, chart.make_jet(pt, pr))
            assert sed.point_data.problem.pair == chart.pair
            assert sed.c_values[0] == evaluate_form(data.c1, pr)
            assert sed.c_values[1] == evaluate_form(data.c2, pr)
        order = chart.internal_order()
        swapped = symbolic_complex_B(permute_polynomial(prob.rho, order))
        at = lambda f: f.evaluate(tuple(pt[i] for i in order))
        assert data.B_lower == {key: at(f) for key, f in swapped.B_lower.items()}
        assert data.B_upper == {key: at(f) for key, f in swapped.B_upper.items()}
    assert charts == {(1, 2), (3, 4), (5, 6)}


def test_absorbable_witness_solves_the_one_line_system():
    rng = random.Random(26)
    cases = []
    while len(cases) < 3:
        A, vs = random_constant_structure(rng, 2)
        rho = random_polynomial(rng, vs, 3, 6)
        prob = HypersurfaceProblem(rho, A, (1, 2))
        try:
            pt = on_surface_point(rng, prob)
        except AssertionError:
            continue
        jet = prob.make_jet(pt, tuple(Fraction(rng.randint(-3, 3)) for _ in range(2)))
        try:
            verdict = torsion_absorbable(structure_equation_coefficients(prob, jet))
        except SingularD:
            continue
        if verdict.case != "D0_nonzero" or not verdict.absorbable:
            continue
        cases.append((prob, pt, verdict))
    # rho_2 = 0 at the origin, so D1 = rho_2 D0 = 0 and the solver reaches
    # D0's first nonzero column by a row exchange
    entries = [[0, -1, 0, 1], [1, -1, 1, 0], [-1, -1, -1, 0], [-1, -1, 1, -1]]
    A = structure_from_entries(2, [[Polynomial.const(vs, x) for x in row] for row in entries])
    prob = HypersurfaceProblem(parse_expression("f1 + f3^2 + f1*f4", vs), A, (1, 2))
    pt = (0, 0, 0, 0)
    jet = prob.make_jet(pt, (1, 0))
    verdict = torsion_absorbable(structure_equation_coefficients(prob, jet))
    assert compute_gamma_beta(prob, pt).rho_grad[1] == 0
    assert verdict.case == "D0_nonzero" and verdict.absorbable and any(verdict.witness_v)
    cases.append((prob, pt, verdict))
    for prob, pt, verdict in cases:
        dv = compute_D_vectors(compute_gamma_beta(prob, pt))
        lhs1 = sum(a * b for a, b in zip(dv.D1, verdict.witness_v))
        lhs2 = sum(a * b for a, b in zip(dv.D2, verdict.witness_v))
        assert lhs1 == verdict.residual_1
        assert lhs2 == verdict.residual_2
        # free variables zero: only D0's first nonzero column is nonzero
        k = next(k for k, x in enumerate(dv.D0) if x != 0)
        assert all(x == 0 for i, x in enumerate(verdict.witness_v) if i != k)


def test_pseudo_ellipsoid_closed_forms_symbolic():
    # the diagonal-example closed forms, as exact rational-function identities
    for alphas, ks in [((1, 1, 1, 1, 1, 1), (1, 1, 1, 1, 1, 1)),
                       ((1, 2, -1, 3, 1, -2), (1, 2, 1, 1, 2, 1))]:
        rho = pseudo_ellipsoid_rho(alphas, ks)
        data = symbolic_complex_B(rho)
        ys = rho.vars
        v = [RationalFunction(differentiate(rho, y)) for y in ys]
        w = [RationalFunction(differentiate(differentiate(rho, y), y)) for y in ys]
        D = -(v[0] * v[0] + v[1] * v[1])
        D2 = D * D
        w12, w34, w56 = w[0] + w[1], w[2] + w[3], w[4] + w[5]
        assert data.B_lower[(2, 3)] == \
            (v[1] * (v[2] * v[5] - v[3] * v[4])
             - v[0] * (v[2] * v[4] + v[3] * v[5])) * w12 / D2
        assert data.B_lower[(3, 2)] == \
            (-v[0] * (v[2] * v[4] + v[3] * v[5])
             - v[1] * (v[2] * v[5] - v[3] * v[4])) * w12 / D2
        assert data.B_upper[(2, 3)] == \
            (-v[0] * (v[2] * v[5] - v[3] * v[4])
             - v[1] * (v[2] * v[4] + v[3] * v[5])) * w12 / D2
        assert data.B_upper[(3, 2)] == \
            (v[0] * (v[2] * v[5] - v[3] * v[4])
             - v[1] * (v[2] * v[4] + v[3] * v[5])) * w12 / D2
        assert data.B_lower[(2, 2)] == \
            -v[0] * ((v[2] ** 2 + v[3] ** 2) * w12 + (v[0] ** 2 + v[1] ** 2) * w34) / D2
        assert data.B_lower[(3, 3)] == \
            -v[0] * ((v[4] ** 2 + v[5] ** 2) * w12 + (v[0] ** 2 + v[1] ** 2) * w56) / D2
        assert data.B_upper[(2, 2)] == \
            -v[1] * ((v[2] ** 2 + v[3] ** 2) * w12 + (v[0] ** 2 + v[1] ** 2) * w34) / D2
        assert data.B_upper[(3, 3)] == \
            -v[1] * ((v[4] ** 2 + v[5] ** 2) * w12 + (v[0] ** 2 + v[1] ** 2) * w56) / D2


def test_pseudo_ellipsoid_flat_linear_all_B_zero():
    # linear rho (with a nonsingular 1,2-chart: rho_1^2 + rho_2^2 != 0)
    # has constant gammas, so every B vanishes
    rho = parse_expression("f1 + f5", V6)
    data = symbolic_complex_B(rho)
    assert all(v.is_zero() for v in data.B_lower.values())
    assert all(v.is_zero() for v in data.B_upper.values())


def test_pseudo_ellipsoid_fixtures():
    r1 = pseudo_ellipsoid_check([1] * 6, [1] * 6, [1] * 6)
    assert r1.L == 384 and not r1.holds
    r2 = pseudo_ellipsoid_check([1, 1, -1, -1, 1, 1], [1] * 6, [1, 0, 1, 0, 0, 0])
    assert r2.L == 0 and r2.holds and not r2.off_surface
    r3 = pseudo_ellipsoid_check([1] * 6, [2] * 6, [0] * 6)
    assert r3.L == 0 and r3.holds
    # all-positive alphas: L > 0 wherever some v_i != 0
    rng = random.Random(27)
    for _ in range(20):
        y = [Fraction(rng.randint(-3, 3)) for _ in range(6)]
        rep = pseudo_ellipsoid_check([1, 2, 3, 1, 2, 3], [1, 2, 1, 2, 1, 1], y)
        if any(v != 0 for v in rep.v):
            assert rep.L > 0


def test_pseudo_ellipsoid_inequality_lines_are_multiples_of_L():
    # Delta_1 * D^4 = 4 v1^2 (v1^2+v2^2) L and Delta_2 * D^4 with v2^2
    rng = random.Random(28)
    for _ in range(10):
        alphas = [rng.choice([-2, -1, 1, 2, 3]) for _ in range(6)]
        ks = [rng.randint(1, 2) for _ in range(6)]
        y = [Fraction(rng.randint(-2, 2)) for _ in range(6)]
        rep = pseudo_ellipsoid_check(alphas, ks, y)
        v = rep.v
        D = -(v[0] ** 2 + v[1] ** 2)
        if D == 0:
            continue
        rho = pseudo_ellipsoid_rho(alphas, ks)
        data = complex_B_coefficients(complex_problem(rho), y)
        Bl, Bu = data.B_lower, data.B_upper
        delta1 = (4 * Bl[(2, 2)] * Bl[(3, 3)] - (Bl[(2, 3)] + Bl[(3, 2)]) ** 2
                  - (Bu[(2, 3)] - Bu[(3, 2)]) ** 2)
        delta2 = (4 * Bu[(2, 2)] * Bu[(3, 3)] - (Bu[(2, 3)] + Bu[(3, 2)]) ** 2
                  - (Bl[(2, 3)] - Bl[(3, 2)]) ** 2)
        assert delta1 * D ** 4 == 4 * v[0] ** 2 * (v[0] ** 2 + v[1] ** 2) * rep.L
        assert delta2 * D ** 4 == 4 * v[1] ** 2 * (v[0] ** 2 + v[1] ** 2) * rep.L


def test_dim6_completed_square_reproduces_bilinear_form():
    rng = random.Random(29)
    P4 = ("p3", "p4", "p5", "p6")
    for _ in range(20):
        B = {}
        for j in (2, 3):
            for k in (2, 3):
                B[("lower", j, k)] = Fraction(rng.randint(-6, 6), rng.randint(1, 3))
                B[("upper", j, k)] = Fraction(rng.randint(-6, 6), rng.randint(1, 3))
        if B[("lower", 2, 2)] == 0 or B[("upper", 2, 2)] == 0:
            continue
        c1_sq, c2_sq = dim6_completed_square(B)
        Bl = {(j, k): B[("lower", j, k)] for j in (2, 3) for k in (2, 3)}
        Bu = {(j, k): B[("upper", j, k)] for j in (2, 3) for k in (2, 3)}
        m1, m2 = quadratics_from_B(3, Bl, Bu)
        p = [var(P4, v) for v in P4]
        bil1 = sum(p[a] * p[b] * m1[a][b] for a in range(4) for b in range(4))
        bil2 = sum(p[a] * p[b] * m2[a][b] for a in range(4) for b in range(4))
        assert c1_sq == bil1
        assert c2_sq == bil2


def test_dim6_fixtures():
    # ball-like: strictly plurisubharmonic, definite forms, violated
    ball = complex_problem(parse_expression("2*f5 + f1^2 + f2^2 + f3^2 + f4^2", V6))
    bp = (1, 0, 0, 0, 0, 0)  # chart needs rho_1^2 + rho_2^2 != 0
    rep = dim6_definiteness(ball, bp)
    assert rep.verdict == "necessary_condition_violated"
    assert form_definiteness(complex_B_coefficients(ball, bp).c2) != "not_definite"
    # hyperquadric signature (1,1): both discriminants <= 0, holds
    rep2 = dim6_definiteness(complex_problem(HYPERQUADRIC2), (1, 0, 1, 0, 0, 0))
    assert rep2.verdict == "necessary_condition_holds"
    assert rep2.delta1 <= 0 and rep2.delta2 <= 0
    # flat: all B zero, degenerate, holds
    rep3 = dim6_definiteness(complex_problem(parse_expression("f1 + f5", V6)),
                             (0, 0, 0, 0, 0, 0))
    assert rep3.delta1 == 0 and rep3.delta2 == 0
    assert rep3.verdict == "necessary_condition_holds"
    with pytest.raises(WrongDimension):
        dim6_definiteness(complex_problem(parse_expression("f1", ("f1", "f2", "f3", "f4"))),
                          (0, 0, 0, 0))


def test_points_only_conclusion_for_definite_forms():
    ball = complex_problem(parse_expression("2*f5 + f1^2 + f2^2 + f3^2 + f4^2", V6))
    data = complex_B_coefficients(ball, (1, 0, 0, 0, 0, 0))
    assert form_definiteness(data.c2) != "not_definite"
    # a definite form annihilates only the zero jet
    rng = random.Random(30)
    for _ in range(20):
        pr = tuple(Fraction(rng.randint(-3, 3)) for _ in range(4))
        if any(pr):
            assert evaluate_form(data.c2, pr) != 0


def _same_forms(forms, reference):
    """Equal entries of equal types in both forms."""
    types = lambda fs: [[[type(x) for x in row] for row in f] for f in fs]
    return forms == reference and types(forms) == types(reference)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_one_pass_forms_match_the_symmetrized_assembly(n):
    # B tables with many exact zeros, so that every entry meets each of
    # its halves zero, nonzero and cancelling
    rng = random.Random(90 + n)
    pool = [Fraction(0)] * 6 + [Fraction(1), Fraction(-1), Fraction(3, 2)]
    keys = [(j, k) for j in range(2, n + 1) for k in range(2, n + 1)]
    for _ in range(25):
        B_lower = {key: rng.choice(pool) for key in keys}
        B_upper = {key: rng.choice(pool) for key in keys}
        assert _same_forms(quadratics_from_B(n, B_lower, B_upper),
                           quadratics_by_symmetrizing(n, B_lower, B_upper))


@pytest.mark.parametrize("alphas, ks", [((1, 1, 1, 1, 1, 1), (1, 1, 1, 1, 1, 1)),
                                        ((1, 2, -1, 3, 1, -2), (1, 2, 1, 1, 2, 1))])
def test_one_pass_forms_match_the_symmetrized_assembly_symbolically(alphas, ks):
    # the same assembly over the oracles' rational functions
    data = symbolic_complex_B(pseudo_ellipsoid_rho(alphas, ks))
    reference = quadratics_by_symmetrizing(3, data.B_lower, data.B_upper)
    assert _same_forms((data.c1, data.c2), reference)
    types = {type(x) for form in reference for row in form for x in row}
    assert types == {RationalFunction}


def test_complex_torsion_quadratics_entry_point():
    pt = (1, 0, 1, 0, 0, 0)
    data = complex_B_coefficients(complex_problem(HYPERQUADRIC2), pt)
    assert (data.c1, data.c2) == quadratics_from_B(3, data.B_lower, data.B_upper)
    for c in (data.c1, data.c2):
        assert all(c[a][b] == c[b][a] for a in range(4) for b in range(4))
