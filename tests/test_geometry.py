"""Problem setup, gamma/beta elimination, jet completion, relabeling."""
import json
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from diskeds.errors import DimensionMismatch, SchemaViolation, SingularD, ZeroB
from diskeds.expr import Polynomial, parse_expression, print_polynomial
from diskeds.geometry import (
    HypersurfaceProblem,
    _inputs,
    _squares_to_minus_identity,
    _tangent,
    _value,
    complex_standard,
    compute_gamma_beta,
    default_coordinates,
    full_jet,
    gamma_beta_first_jets,
    make_structure_from_pair,
    structure_from_entries,
)
from diskeds.integral_element import FlagSpec
from diskeds.linalg import row_times_matrix
from diskeds.reports import build_problem, load_problem
from diskeds.torsion import structure_equation_coefficients
from oracles import (
    RationalFunction,
    choose_pair_by_builds,
    differentiate,
    extend_to,
    first_jet_values,
    internal_vars,
    on_chart_point,
    permute_polynomial,
    random_constant_structure,
    random_polynomial,
    random_polynomial_structure,
    solve_A6_direct,
    squares_to_minus_identity_by_products,
    structure_entries,
    symbolic_gamma_beta,
    var,
)

V6 = tuple(f"f{i}" for i in range(1, 7))
HYPERQUADRIC = parse_expression("f5 + f1^2 + f2^2 - f3^2 - f4^2", V6)


def block_J(variables, n):
    zero = Polynomial.zero(variables)
    one = Polynomial.const(variables, 1)
    rows = [[zero] * (2 * n) for _ in range(2 * n)]
    for i in range(n):
        rows[2 * i][2 * i + 1] = -one
        rows[2 * i + 1][2 * i] = one
    return rows


def test_from_pair_reproduces_complex_standard():
    # a = 0, b = -1, A = block J: the reduction matrix equals A itself
    a = Polynomial.zero(V6)
    b = Polynomial.const(V6, -1)
    A = block_J(V6, 3)
    s = make_structure_from_pair(a, b, A, 3)
    assert s.kind == "from_pair"
    assert s.warnings == ()
    assert structure_entries(s) == structure_entries(complex_standard(3, V6))


def test_from_pair_factorization_identity():
    # (aI + A)(aI - A) = (1 + a^2) I exactly when A^2 = -I
    a = parse_expression("f1", V6)
    A = block_J(V6, 3)
    one = Polynomial.const(V6, 1)
    zero = Polynomial.zero(V6)
    for i in range(6):
        for j in range(6):
            lhs = sum((
                (a * (1 if i == k else 0) + A[i][k])
                * (a * (1 if k == j else 0) - A[k][j])
                for k in range(6)), zero)
            assert lhs == ((one + a * a) if i == j else zero)


def test_from_pair_zero_b():
    with pytest.raises(ZeroB):
        make_structure_from_pair(Polynomial.zero(V6), Polynomial.zero(V6),
                                 block_J(V6, 3), 3)


def test_from_pair_not_almost_complex_is_warning():
    A = block_J(V6, 3)
    A[0][1] = Polynomial.const(V6, -2)  # break A^2 = -I
    s = make_structure_from_pair(Polynomial.zero(V6), Polynomial.const(V6, -1), A, 3)
    assert "NotAlmostComplex" in s.warnings


def test_hyperquadric_gamma_fixture():
    prob = HypersurfaceProblem(HYPERQUADRIC, complex_standard(3, V6), (1, 2))
    gb = compute_gamma_beta(prob, (1, 0, 1, 0, 0, 0))
    assert gb.rho_grad == (2, 0, -2, 0, 1, 0)
    assert gb.D == -4
    assert gb.gamma1 == (1, 0, Fraction(-1, 2), 0)
    assert gb.gamma2 == (0, 1, 0, Fraction(-1, 2))
    gb.self_check()


def test_identity_structure_is_singular():
    vs = tuple(f"f{i}" for i in range(1, 5))
    one = Polynomial.const(vs, 1)
    zero = Polynomial.zero(vs)
    ident = structure_from_entries(2, [[one if i == j else zero
                                        for j in range(4)] for i in range(4)])
    rho = parse_expression("f1 + f2 + f3 + f4", vs)
    prob = HypersurfaceProblem(rho, ident, (1, 2))
    for build in (compute_gamma_beta, gamma_beta_first_jets):
        with pytest.raises(SingularD) as got:
            build(prob, (1, 1, 1, -3))
        assert str(got.value) == "D = 0 at this point; try another distinguished pair"
    with pytest.raises(SingularD):
        symbolic_gamma_beta(prob)


def test_constant_data_gives_constant_gamma_beta():
    vs = tuple(f"f{i}" for i in range(1, 5))
    rng = random.Random(1)
    A, _ = random_constant_structure(rng, 2)
    rho = parse_expression("f1 + 2*f2 - f3 + 5*f4", vs)
    prob = HypersurfaceProblem(rho, A, (1, 2))
    gb = symbolic_gamma_beta(prob)
    for r in list(gb.gamma1) + list(gb.gamma2):
        assert r.num.degree() == 0 and r.den.degree() == 0


def test_full_jet_examples():
    prob = HypersurfaceProblem(HYPERQUADRIC, complex_standard(3, V6), (1, 2))
    jet0 = prob.make_jet((1, 0, 1, 0, 0, 0), (0, 0, 0, 0))
    fj0 = full_jet(jet0, compute_gamma_beta(prob, jet0.f))
    assert fj0.p11 == 0 and fj0.p21 == 0
    assert all(x == 0 for x in fj0.p2)

    rng = random.Random(2)
    for _ in range(10):
        pr = tuple(Fraction(rng.randint(-4, 4)) for _ in range(4))
        jet = prob.make_jet((1, 0, 1, 0, 0, 0), pr)
        fj = full_jet(jet, compute_gamma_beta(prob, jet.f))
        # oracle: direct solve of the 2x2 elimination system
        p11, p21 = solve_A6_direct(prob, jet.f, pr)
        assert (fj.p11, fj.p21) == (p11, p21)
        grad = [differentiate(HYPERQUADRIC, v).evaluate(jet.f) for v in V6]
        assert sum(g * p for g, p in zip(grad, fj.p1)) == 0
        assert sum(g * p for g, p in zip(grad, fj.p2)) == 0


def test_make_jet_surface_enforcement():
    prob = HypersurfaceProblem(HYPERQUADRIC, complex_standard(3, V6), (1, 2))
    with pytest.raises(DimensionMismatch):
        prob.make_jet((1, 1, 1, 0, 0, 0), (0, 0, 0, 0))
    jet = prob.make_jet((1, 1, 1, 0, 0, 0), (0, 0, 0, 0), allow_off_surface=True)
    assert prob.rho.evaluate(jet.f) != 0


@pytest.mark.parametrize("value", [0.5, 1.0, "0.5"])
def test_the_library_refuses_floats_and_decimal_strings(value):
    # exact.rat reads every coordinate and flag weight, as at load: 0.1 is
    # never taken as the binary fraction a float holds
    prob = HypersurfaceProblem(HYPERQUADRIC, complex_standard(3, V6), (1, 2))
    with pytest.raises(SchemaViolation, match="not an exact rational"):
        prob.make_jet((1, 0, 1, 0, 0, 0), (value, 0, 0, 0))
    with pytest.raises(SchemaViolation, match="not an exact rational"):
        prob.make_jet((value, 0, 1, 0, 0, 0), (0, 0, 0, 0), allow_off_surface=True)
    with pytest.raises(SchemaViolation, match="not an exact rational"):
        FlagSpec((value, 0), (0, 1), (0,) * 4, (0,) * 4)
    with pytest.raises(SchemaViolation, match="not an exact rational"):
        FlagSpec((1, 0), (0, 1), (0,) * 4, (0,) * 4, beta=value)


def test_resubstitution_invariants_random():
    rng = random.Random(3)
    for n in (2, 3):
        for _ in range(5):
            A, vs = random_constant_structure(rng, n)
            rho = random_polynomial(rng, vs, 3, 6)
            prob = HypersurfaceProblem(rho, A, (1, 2))
            try:
                pt = on_chart_point(rng, prob)
            except AssertionError:
                continue
            compute_gamma_beta(prob, pt).self_check()


def test_complex_case_gamma_beta_tables():
    # gamma^1_{2j-1} = gamma^2_{2j}, gamma^1_{2j} = -gamma^2_{2j-1},
    # with D = -(rho_1^2 + rho_2^2), plus the beta table of the complex case
    rng = random.Random(4)
    for _ in range(5):
        rho = random_polynomial(rng, V6, 3, 7)
        prob = HypersurfaceProblem(rho, complex_standard(3, V6), (1, 2))
        try:
            pt = on_chart_point(rng, prob)
        except AssertionError:
            continue
        gb = compute_gamma_beta(prob, pt)
        r = gb.rho_grad
        assert gb.D == -(r[0] ** 2 + r[1] ** 2)
        for j in (2, 3):  # complex index, f-slots 2j-1, 2j
            g1_odd = gb.gamma1[2 * j - 4]
            g1_even = gb.gamma1[2 * j - 3]
            g2_odd = gb.gamma2[2 * j - 4]
            g2_even = gb.gamma2[2 * j - 3]
            assert g1_odd == (r[0] * r[2 * j - 2] + r[1] * r[2 * j - 1]) / gb.D
            assert g1_odd == g2_even
            assert g1_even == -g2_odd
        for jj in range(4):
            assert gb.beta1[jj] == -gb.gamma2[jj]
            assert gb.beta2[jj] == gb.gamma1[jj]
        for i in range(2, 6):
            for jj in range(4):
                expect = 0
                if i % 2 == 0 and jj == i - 1:
                    expect = -1  # row 2i-1 has -1 at column 2i
                if i % 2 == 1 and jj == i - 3:
                    expect = 1   # row 2i has +1 at column 2i-1
                assert gb.beta_full[i][jj] == expect


def test_relabeling_coherence():
    # permuting coordinates and the distinguished pair permutes reports
    rng = random.Random(5)
    A, vs = random_constant_structure(rng, 2)
    rho = random_polynomial(rng, vs, 3, 6)
    prob = HypersurfaceProblem(rho, A, (1, 2))
    pt = on_chart_point(rng, prob)

    perm = [2, 0, 3, 1]  # new position i holds old coordinate perm[i]
    rho_p = permute_polynomial(rho, perm)
    A_p = structure_from_entries(2, [[
        permute_polynomial(prob.structure.numerators[j][i], perm)
        for i in perm] for j in perm])
    new_pos = {old: new for new, old in enumerate(perm)}
    prob_p = HypersurfaceProblem(rho_p, A_p,
                                 (new_pos[0] + 1, new_pos[1] + 1))
    pt_p = tuple(pt[i] for i in perm)
    gb = compute_gamma_beta(prob, pt)
    gb_p = compute_gamma_beta(prob_p, pt_p)
    assert gb.D == gb_p.D
    assert gb.gamma1 == gb_p.gamma1 and gb.gamma2 == gb_p.gamma2
    assert gb.beta_full == gb_p.beta_full
    # sigma maps back to the coordinates' new names
    assert internal_vars(prob_p) == internal_vars(prob)


def test_symbolic_pointwise_agreement():
    rng = random.Random(6)
    A, vs = random_constant_structure(rng, 2)
    rho = random_polynomial(rng, vs, 3, 6)
    prob = HypersurfaceProblem(rho, A, (1, 2))
    sym = symbolic_gamma_beta(prob)
    for _ in range(5):
        pt = on_chart_point(rng, prob)
        pw = compute_gamma_beta(prob, pt)
        order = prob.internal_order()
        pint = tuple(pt[i] for i in order)
        for a, b in zip(sym.gamma1, pw.gamma1):
            assert a.evaluate(pint) == b
        for a, b in zip(sym.gamma2, pw.gamma2):
            assert a.evaluate(pint) == b
        assert sym.D.evaluate(pint) == pw.D


def test_builders_scan_pairs_in_order():
    # hyperquadric at a point where the (1,2) chart is singular
    prob = HypersurfaceProblem(HYPERQUADRIC, complex_standard(3, V6), (1, 2))
    pt = (0, 0, 1, 0, 1, 0)  # rho = 0, rho_1 = rho_2 = 0 here
    assert HYPERQUADRIC.evaluate(pt) == 0
    with pytest.raises(SingularD):
        compute_gamma_beta(prob, pt)
    assert _scan_every_way(prob, pt) == (3, 4)
    gb = compute_gamma_beta(prob.with_pair(None), pt)
    gb.self_check()
    assert gb.problem.sigma() == (3, 4, 1, 2, 5, 6)


# the problem each builder charts ``prob`` at, at ``pt``: pointwise, and
# in first-jet mode along a jet there
CHARTED_BY = (
    lambda prob, pt: compute_gamma_beta(prob, pt).problem,
    lambda prob, pt: structure_equation_coefficients(prob, prob.make_jet(
        pt, (1,) * (prob.two_n - 2), allow_off_surface=True)).point_data.problem,
)


def _scan_every_way(prob, pt):
    """The per-pair build oracle and both builders' charts of ``prob``
    with no pair: same pair, or the same SingularD message."""
    prob = prob.with_pair(None)
    try:
        want = choose_pair_by_builds(prob, pt)
    except SingularD as exc:
        for charted in CHARTED_BY:
            with pytest.raises(SingularD) as got:
                charted(prob, pt)
            assert str(got.value) == str(exc)
        return None
    assert [charted(prob, pt).pair for charted in CHARTED_BY] == [want] * len(CHARTED_BY)
    return want


def _identical_scan_both_ways(prob, pt):
    """The symbolic per-pair builds' scan of ``prob`` (the first pair where
    D does not vanish identically) against the builders' scan at ``pt``:
    no point charts at an earlier pair, where D = 0 identically, and a
    point where that pair's D is nonzero charts at it."""
    got = _scan_every_way(prob, pt)
    try:
        want = choose_pair_by_builds(prob.with_pair(None))
    except SingularD:
        assert got is None
        return None
    assert got is None or got >= want
    charted = prob.with_pair(want)
    if symbolic_gamma_beta(charted).D.evaluate(tuple(Fraction(pt[i])
                                                     for i in charted.internal_order())):
        assert got == want
    return want


@pytest.mark.parametrize("make", [random_constant_structure, random_polynomial_structure])
@pytest.mark.parametrize("n", [2, 3])
def test_one_pass_pair_scan_equals_per_pair_builds(make, n):
    # rho_1 = rho_2 = 0 at the point makes D vanish there for the pair
    # (1, 2); zeroing alpha's first two columns too (mu_1 = mu_2 = 0)
    # makes it vanish for every pair that holds 1 or 2
    rng = random.Random(40 + 10 * n + (make is random_polynomial_structure))
    found = []
    for case in range(8):
        A, vs = make(rng, n)
        if case % 2:
            zero = Polynomial.zero(vs)
            A = structure_from_entries(n, [[zero if i < 2 else e for i, e in enumerate(row)]
                                           for row in A.numerators])
        rho = (extend_to(random_polynomial(rng, vs[2:], 3, 6), vs)
               + parse_expression("f1^2 - f2^2", vs))
        pt = (0, 0) + tuple(Fraction(rng.randint(-3, 3), rng.randint(1, 2))
                            for _ in vs[2:])
        prob = HypersurfaceProblem(rho, A, (1, 2))
        with pytest.raises(SingularD):
            compute_gamma_beta(prob, pt)
        found.append(_scan_every_way(prob, pt))
    pairs = [p for p in found if p is not None]
    assert pairs and any(p[0] >= 3 for p in pairs)


def test_one_pass_pair_scan_on_flat_and_when_no_pair_works():
    lp = build_problem(load_problem("flat"), "flat")
    point = lp.points["P0"]
    assert lp.problem.pair is None
    assert _scan_every_way(lp.problem, point) == (5, 6)
    # alpha = 2 I: mu = 2 rho_grad, so D = 0 for every pair at every point
    vs = tuple(f"f{i}" for i in range(1, 5))
    two = Polynomial.const(vs, 2)
    zero = Polynomial.zero(vs)
    scalar = structure_from_entries(2, [[two if i == j else zero for j in range(4)]
                                        for i in range(4)])
    prob = HypersurfaceProblem(parse_expression("f1 + f2^2 - f3 + f4", vs), scalar, (1, 2))
    assert _scan_every_way(prob, (1, 1, 1, -1)) is None


@pytest.mark.parametrize("make", [random_constant_structure, random_polynomial_structure])
def test_symbolic_pair_scan_equals_per_pair_builds(make):
    # rho free of f1, f2 makes D vanish identically for (1, 2); zeroing
    # alpha's first two columns too makes it vanish for every pair that
    # holds 1 or 2, and alpha = 2 I for every pair
    rng = random.Random(70 + (make is random_polynomial_structure))
    for case in range(6):
        A, vs = make(rng, 2)
        zero = Polynomial.zero(vs)
        if case % 3 == 1:
            A = structure_from_entries(2, [[zero if i < 2 else e for i, e in enumerate(row)]
                                           for row in A.numerators])
        if case % 3 == 2:
            two = Polynomial.const(vs, 2)
            A = structure_from_entries(2, [[two if i == j else zero for j in range(4)]
                                           for i in range(4)])
        rho = extend_to(random_polynomial(rng, vs[2:], 3, 6), vs) + parse_expression("f3", vs)
        prob = HypersurfaceProblem(rho, A, (1, 2))
        pt = tuple(Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in vs)
        assert _identical_scan_both_ways(prob, pt) != (1, 2)


def _rho_grad_alpha_squared(grad, alpha, zero):
    m = len(grad)
    alpha2 = [[sum((alpha[j][k] * alpha[k][i] for k in range(m)), zero)
               for i in range(m)] for j in range(m)]
    return tuple(sum((grad[j] * alpha2[j][i] for j in range(m)), zero)
                 for i in range(m))


def test_mu2_is_rho_grad_times_alpha_squared():
    rng = random.Random(12)
    for make in (random_constant_structure, random_polynomial_structure):
        A, vs = make(rng, 2)
        prob = HypersurfaceProblem(random_polynomial(rng, vs, 3, 6), A, (1, 2))
        pt = on_chart_point(rng, prob)
        sym = symbolic_gamma_beta(prob)
        zero = RationalFunction.from_const(internal_vars(prob), 0)
        # mu2 is formed as mu alpha
        assert row_times_matrix(sym.mu, sym.alpha, zero) == \
            _rho_grad_alpha_squared(sym.rho_grad, sym.alpha, zero)
        pw = compute_gamma_beta(prob, pt)
        assert row_times_matrix(pw.mu, pw.alpha, Fraction(0)) == \
            _rho_grad_alpha_squared(pw.rho_grad, pw.alpha, Fraction(0))


@pytest.mark.parametrize("n", [2, 3])
def test_first_jet_values_equal_the_pointwise_build(n):
    rng = random.Random(90 + n)
    for make in (random_constant_structure, random_polynomial_structure) * 2:
        A, vs = make(rng, n)
        prob = HypersurfaceProblem(random_polynomial(rng, vs, 3, 6), A, (1, 2))
        prob = prob.with_pair((1 + rng.randrange(2), 3 + rng.randrange(2 * n - 2)))
        pt = on_chart_point(rng, prob)
        jets, pointwise = gamma_beta_first_jets(prob, pt), compute_gamma_beta(prob, pt)
        assert first_jet_values(jets) == pointwise
        # beta_full is no field of the record, so equality leaves it out
        assert tuple(tuple(map(_value, row)) for row in jets.beta_full) == \
            pointwise.beta_full


# ----------------------------------------------------------------------
# the structure format (numerators over one denominator) against the
# RationalFunction oracle

DOCS = Path(__file__).resolve().parent / "golden" / "docs"


@st.composite
def structure_documents(draw):
    """A problem document under a complex_standard, matrix or pair
    structure at n = 2, 3, with no distinguished pair.  D vanishes
    identically at (1, 2) when rho has no f1, f2 terms; a pair structure's
    A is J or a random constant matrix, and its denominator 1 + a^2 is a
    constant when a is."""
    n = draw(st.sampled_from([2, 3]))
    kind = draw(st.sampled_from(["complex_standard", "matrix", "pair"]))
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    vs = tuple(f"f{i}" for i in range(1, 2 * n + 1))
    if draw(st.booleans()):
        rho = random_polynomial(rng, vs, 3, 5)
    else:
        rho = extend_to(random_polynomial(rng, vs[2:], 3, 5), vs)
    rho = rho + var(vs, vs[-1])
    text = print_polynomial
    structure = {"kind": kind}
    if kind == "matrix":
        A, _ = random_polynomial_structure(rng, n)
        structure["entries"] = [[text(e) for e in row] for row in A.numerators]
    elif kind == "pair":
        constant_a = draw(st.booleans())
        a = random_polynomial(rng, vs, 0 if constant_a else 1, 2)
        b = random_polynomial(rng, vs, 1, 2) + rng.choice((1, -2))
        if b.is_zero():
            b = b + 1
        J = complex_standard(n, vs).numerators
        A = J if draw(st.booleans()) else random_constant_structure(rng, n)[0].numerators
        structure.update(a=text(a), b=text(b), A=[[text(e) for e in row] for row in A])
    return {"dimension_2n": 2 * n, "rho": text(rho), "structure": structure,
            "points": {f"P{k}": [str(Fraction(rng.randint(-3, 3), rng.randint(1, 2)))
                                 for _ in vs] for k in range(2)}}


@given(structure_documents())
@example(load_problem("flat"))
@example(json.loads((DOCS / "n3_matrix.json").read_text()))
@example(json.loads((DOCS / "n3_pair.json").read_text()))
@settings(derandomize=True, database=None, max_examples=40, deadline=None)
def test_structure_format_agrees_with_the_rational_function_oracle(doc):
    prob = build_problem(doc).problem
    two_n = prob.two_n
    _identical_scan_both_ways(prob, tuple(map(Fraction, next(iter(doc["points"].values())))))
    # each input at a point, entry by entry: values, then first jets
    entries = structure_entries(prob.structure)
    rho_grad = [differentiate(prob.rho, v) for v in prob.rho.vars]
    jet_view = lambda x: (_value(x), tuple(_tangent(x, i) for i in range(two_n)))
    for point in doc["points"].values():
        pt = tuple(map(Fraction, point))
        grad, alpha, _ = _inputs(prob, pt)
        assert grad == tuple(g.evaluate(pt) for g in rho_grad)
        assert alpha == tuple(tuple(e.evaluate(pt) for e in row) for row in entries)
        grad, alpha, _ = _inputs(prob, pt, jets=True)
        assert list(map(jet_view, grad)) == \
            [(j.value, j.grad) for j in (g.first_jet(pt) for g in rho_grad)]
        assert [list(map(jet_view, row)) for row in alpha] == \
            [[(j.value, j.grad) for j in (e.first_jet(pt) for e in row)] for row in entries]


def _forbid_products_after_loading(monkeypatch):
    """Make every Polynomial product raise once the CLI has built its
    problem: the analysis reads the point and forms no polynomial."""
    from diskeds import cli

    def forbidden(*args):
        raise AssertionError("a polynomial product after loading")

    def build_then_forbid(*args, **kwargs):
        lp = build_problem(*args, **kwargs)
        monkeypatch.setattr(Polynomial, "__mul__", forbidden)
        monkeypatch.setattr(Polynomial, "__rmul__", forbidden)
        return lp

    monkeypatch.setattr(cli, "build_problem", build_then_forbid)
    return cli


# D = 0 at the origin only: rho_1 = rho_2 = 0 there, and the full products
# rho_a M_b and rho_b M_a over (f1 + f2 + f4)^59 took seconds
SINGULAR_AT_THE_ORIGIN = {
    "dimension_2n": 4, "rho": "f3 - (f1+f2+f4)^60", "distinguished_pair": [1, 2],
    "points": {"O": ["0", "0", "0", "0"]},
    "jets": {"J": {"point": "O", "p_reduced": ["1", "0"]}}}


@pytest.mark.parametrize("command", ["torsion", "integral-element", "involutivity"])
def test_a_witness_decides_a_D_that_vanishes_at_the_point_only(command, tmp_path,
                                                              capsys, monkeypatch):
    # D's value at the point decides, so no polynomial is multiplied and
    # the exit is SingularD
    cli = _forbid_products_after_loading(monkeypatch)
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(SINGULAR_AT_THE_ORIGIN))
    assert cli.main([command, str(path)]) == 2
    assert capsys.readouterr().err == (
        "SingularD: D = 0 at this point; try another distinguished pair\n")


# D = 0 identically at the pair (1, 2): N_11 = N_22 = (1+f1+f2+f4)^20 and the
# standard block on f3, f4 give q D = 0.  Telling that apart from D = 0 at
# the point took the products rho_a M_b and rho_b M_a, about 100 s
IDENTICALLY_SINGULAR = {
    "dimension_2n": 4, "rho": "f3 - (f1+f2+f4)^60", "distinguished_pair": [1, 2],
    "structure": {"kind": "matrix", "entries": [
        ["(1+f1+f2+f4)^20", "0", "0", "0"], ["0", "(1+f1+f2+f4)^20", "0", "0"],
        ["0", "0", "0", "-1"], ["0", "0", "1", "0"]]},
    "points": {"O": ["0", "0", "0", "0"]},
    "jets": {"J": {"point": "O", "p_reduced": ["1", "0"]}}}


@pytest.mark.parametrize("command", ["torsion", "integral-element"])
def test_a_D_that_vanishes_identically_exits_2_without_a_product(command, tmp_path,
                                                                capsys, monkeypatch):
    cli = _forbid_products_after_loading(monkeypatch)
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(IDENTICALLY_SINGULAR))
    assert cli.main([command, str(path)]) == 2
    assert capsys.readouterr().err == (
        "SingularD: D = 0 at this point; try another distinguished pair\n")


@st.composite
def candidate_almost_complex(draw):
    """A = P J0 P^-1 at n = 2, 3, with J0 the standard block and P = I + N
    unipotent (N strictly upper, sparse entries of degree <= 1, so P^-1 =
    sum_k (-N)^k is polynomial): A^2 = -I identically.  Then at most one
    entry is perturbed: by a constant, by c f_i, or by c f_i f_j (i != j),
    which is 0 at every witness, so only the products decide."""
    n = draw(st.sampled_from((2, 3)))
    m, vs = 2 * n, default_coordinates(2 * n)
    zero, one = Polynomial.zero(vs), Polynomial.const(vs, 1)
    coefficient = st.integers(-2, 2)

    def linear():
        if draw(st.booleans()):
            return zero
        return (Polynomial.const(vs, draw(coefficient))
                + var(vs, vs[draw(st.integers(0, m - 1))]).scale(draw(coefficient)))

    N = [[linear() if i > j else zero for i in range(m)] for j in range(m)]
    identity = [[one if i == j else zero for i in range(m)] for j in range(m)]
    times = lambda X, Y: [list(row_times_matrix(row, Y, zero)) for row in X]
    P = [[a + b for a, b in zip(r, s)] for r, s in zip(identity, N)]
    P_inverse, power = identity, identity
    minus_N = [[-x for x in row] for row in N]
    for _ in range(m - 1):
        power = times(power, minus_N)
        P_inverse = [[a + b for a, b in zip(r, s)] for r, s in zip(P_inverse, power)]
    A = times(times(P, block_J(vs, n)), P_inverse)
    kind = draw(st.sampled_from(("none", "constant", "linear", "vanishing")))
    j, i = draw(st.integers(0, m - 1)), draw(st.integers(0, m - 1))
    c = draw(st.integers(1, 2))
    a, b = draw(st.lists(st.integers(0, m - 1), min_size=2, max_size=2, unique=True))
    A[j][i] = A[j][i] + {"none": zero, "constant": Polynomial.const(vs, c),
                         "linear": var(vs, vs[a]).scale(c),
                         "vanishing": (var(vs, vs[a]) * var(vs, vs[b])).scale(c)}[kind]
    return A


@given(candidate_almost_complex())
@example(block_J(V6, 3))
@example([[x + (parse_expression("f1*f2", V6) if (j, i) == (0, 1) else 0)
           for i, x in enumerate(row)] for j, row in enumerate(block_J(V6, 3))])
@settings(derandomize=True, database=None, max_examples=40, deadline=None)
def test_the_A_squared_witness_decision_matches_the_full_products(A):
    # A(w)^2 read at the origin's witnesses decides A^2 != -I as the full
    # products do, and the NotAlmostComplex warning follows the products
    vs, n = A[0][0].vars, len(A) // 2
    expected = squares_to_minus_identity_by_products(A)
    assert _squares_to_minus_identity(A) == expected
    structure = make_structure_from_pair(Polynomial.zero(vs), Polynomial.const(vs, 1), A, n)
    assert structure.warnings == (() if expected else ("NotAlmostComplex",))


# a 442-byte pair document whose 16 A entries are all (1+f1+f2+f4)^20: the
# first entry of A^2 alone took four products of A entries and seconds
FAR_FROM_ALMOST_COMPLEX = {
    "dimension_2n": 4, "rho": "f3",
    "structure": {"kind": "pair", "a": "0", "b": "1",
                  "A": [["(1+f1+f2+f4)^20"] * 4 for _ in range(4)]},
    "points": {"P0": ["0", "0", "0", "0"]}}


def test_a_witness_decides_A_squared_without_a_product(tmp_path, capsys, monkeypatch):
    # the witness e_1 gives A(e_1)^2 != -I, so no two non-constant
    # polynomials are multiplied and the warning stands; the constant b = 1
    # scales the pair structure, so no constant multiplies a non-constant
    # polynomial either
    from diskeds import cli
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(FAR_FROM_ALMOST_COMPLEX))
    assert path.stat().st_size == 442
    products, by_constant, multiply = [], [], Polynomial.__mul__

    def counting(p, q):
        if isinstance(q, Polynomial):
            if p.degree() and q.degree():
                products.append((p, q))
            elif p.degree() or q.degree():
                by_constant.append((p, q))
        return multiply(p, q)

    monkeypatch.setattr(Polynomial, "__mul__", counting)
    monkeypatch.setattr(Polynomial, "__rmul__", counting)
    assert cli.main(["involutivity", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["warnings"] == ["NotAlmostComplex"]
    assert products == []
    assert by_constant == []


@pytest.mark.parametrize("scale, warnings", [(1, []), (2, ["NotAlmostComplex"])])
def test_a_constant_A_is_read_at_one_unit_vector(scale, warnings, tmp_path, capsys,
                                                  monkeypatch):
    # a constant A is its value at e_1, so A^2 = -I is decided there: its
    # 2n nonzero entries evaluated, where reading every entry took (2n)^2
    # and reading it at every unit vector 2n (2n)^2, and no product of A's
    # entries
    from diskeds import cli
    two_n = 20
    A = [["0"] * two_n for _ in range(two_n)]
    for i in range(0, two_n, 2):
        A[i][i + 1], A[i + 1][i] = str(-scale), str(scale)
    path = tmp_path / "doc.json"
    path.write_text(json.dumps({
        "dimension_2n": two_n, "rho": f"f{two_n} + f1^2",
        "structure": {"kind": "pair", "a": "0", "b": "1", "A": A},
        "points": {"P0": ["0"] * two_n}}))
    evaluations, products, evaluate = [], [], Polynomial.evaluate
    multiply = Polynomial.__mul__

    def counting(p, w):
        evaluations.append(w)
        return evaluate(p, w)

    def counting_products(p, q):
        products.append((p, q))
        return multiply(p, q)

    monkeypatch.setattr(Polynomial, "evaluate", counting)
    monkeypatch.setattr(Polynomial, "__mul__", counting_products)
    loaded = build_problem(load_problem(str(path)))
    assert len(evaluations) == two_n
    assert len(products) == 1   # the structure's denominator a * a + 1
    assert list(loaded.structure_warnings) == warnings
    assert cli.main(["involutivity", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["warnings"] == warnings


def test_a_non_constant_A_at_the_dimension_bound_is_squared_over_its_nonzero_entries(
        tmp_path, capsys, monkeypatch):
    # 2 x 2 blocks [[f3, 1 + f3^2], [-1, -f3]] square to -I with A not
    # constant, so every unit vector passes and the polynomial square is
    # formed: each of the 2n unit vectors evaluates the 4n nonzero entries,
    # and each row of the square takes 4 products, where the dense square
    # evaluated 2n (2n)^2 entries and formed (2n)^3 products
    from diskeds import cli
    two_n = 120
    A = [["0"] * two_n for _ in range(two_n)]
    for i in range(0, two_n, 2):
        A[i][i], A[i][i + 1], A[i + 1][i], A[i + 1][i + 1] = "f3", "1 + f3^2", "-1", "-f3"
    path = tmp_path / "doc.json"
    path.write_text(json.dumps({
        "dimension_2n": two_n, "rho": f"f{two_n} + f1^2",
        "structure": {"kind": "pair", "a": "0", "b": "1", "A": A},
        "points": {"P0": ["0"] * two_n}}))
    evaluations, products = [], []
    evaluate, multiply = Polynomial.evaluate, Polynomial.__mul__

    def counting(p, w):
        evaluations.append(w)
        return evaluate(p, w)

    def counting_products(p, q):
        products.append((p, q))
        return multiply(p, q)

    monkeypatch.setattr(Polynomial, "evaluate", counting)
    monkeypatch.setattr(Polynomial, "__mul__", counting_products)
    loaded = build_problem(load_problem(str(path)))
    assert len(evaluations) == two_n * 2 * two_n
    # 4 per row of the square, and the structure's denominator a * a + 1
    assert len(products) == 4 * two_n + 1
    assert list(loaded.structure_warnings) == []
    assert cli.main(["involutivity", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["warnings"] == []
