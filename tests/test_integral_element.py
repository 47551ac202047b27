"""Polar maps, flag certificates, search, perturbed polar system."""
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from diskeds.errors import CrossCheckMismatch, InadmissibleFlag, SingularD
from diskeds.expr import parse_expression
from diskeds.geometry import (HypersurfaceProblem, complex_standard, compute_gamma_beta,
                              full_jet)
from diskeds.integral_element import (
    FlagSpec,
    _dtheta_row_data,
    _eps_lines,
    integral_flag_from_c1,
    kahler_regularity,
    ordinary_element_search,
    polar_matrix,
    polar_nullity_and_determinant,
)
from diskeds.linalg import dot, mat_rank
from diskeds.torsion import structure_equation_coefficients, torsion_absorbable
from oracles import (
    cramer_determinant,
    det,
    explicit_polar_maps,
    levi_form,
    mat_mul,
    nullity,
    nullspace,
    on_surface_point,
    pair_X,
    perturbed_polar_nullity,
    random_constant_structure,
    random_polynomial,
)

V6 = tuple(f"f{i}" for i in range(1, 7))
HYPERQUADRIC2 = parse_expression("2*f5 + f1^2 + f2^2 - f3^2 - f4^2", V6)


def _hyperquadric_jet():
    prob = HypersurfaceProblem(HYPERQUADRIC2, complex_standard(3, V6), (1, 2))
    return prob, prob.make_jet((1, 0, 1, 0, 0, 0), (1, 0, 0, 0))


def _generic_point(rng, n):
    """A seeded constant structure with a random cubic rho and a point on
    it where D != 0."""
    while True:
        A, vs = random_constant_structure(rng, n)
        rho = random_polynomial(rng, vs, 3, 6)
        prob = HypersurfaceProblem(rho, A, (1, 2))
        try:
            return prob, on_surface_point(rng, prob)
        except AssertionError:
            continue


def _generic_problem(seed):
    rng = random.Random(seed)
    prob, pt = _generic_point(rng, 2)
    return prob, prob.make_jet(pt, (1, 2)), rng


def _explicit_maps(prob, jet, flag):
    A1, A2, C = flag.resolved(prob.two_n)
    return explicit_polar_maps(_dtheta_row_data(prob, jet).rows, A1, A2, C)


def test_degenerate_flag_rejected():
    prob, jet = _hyperquadric_jet()
    with pytest.raises(InadmissibleFlag):
        kahler_regularity(prob, jet, FlagSpec((1, 0), (0, 1), (0,) * 4, (0,) * 4,
                                              alpha=0, beta=0))
    with pytest.raises(InadmissibleFlag):
        kahler_regularity(prob, jet, FlagSpec((0, 0), (0, 0), (0,) * 4, (0,) * 4))
    with pytest.raises(InadmissibleFlag):
        kahler_regularity(prob, jet, FlagSpec((1, 0), (0, 1), (0,) * 3, (0,) * 4))
    with pytest.raises(InadmissibleFlag):
        ordinary_element_search(prob, jet, trials=0)


def test_structural_facts_random_flags():
    prob, jet = _hyperquadric_jet()
    rng = random.Random(40)
    for _ in range(20):
        c1 = tuple(Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(4))
        c2 = tuple(Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(4))
        flag = FlagSpec((1, 0), (0, 1), c1, c2, Fraction(1),
                        Fraction(rng.randint(0, 2)))
        F, _, R, _ = _explicit_maps(prob, jet, flag)
        assert mat_rank(F) == 5          # 2n - 1
        assert nullity(F, 6) == 1        # dim Ker f = 1
        RF = mat_mul(R, F)
        assert all(x == 0 for row in RF for x in row)
        # the kernel is spanned by the E_1 generator itself
        ker = nullspace(F, 6)
        A1, A2, C = flag.resolved(6)
        gen = [A1, A2, *C]
        scale = None
        for a, b in zip(ker[0], gen):
            if b != 0:
                scale = a / b
                break
        assert all(a == scale * b for a, b in zip(ker[0], gen))


def test_polar_dimension_one_with_theta_perturbation():
    prob, jet = _hyperquadric_jet()
    rng = random.Random(41)
    for _ in range(8):
        c1 = tuple(Fraction(rng.randint(-4, 4)) for _ in range(4))
        c2 = tuple(Fraction(rng.randint(-4, 4)) for _ in range(4))
        et = [Fraction(0)] * 6
        et[rng.randrange(6)] = Fraction(1, rng.randint(2, 9))
        flag = FlagSpec((1, 0), (0, 1), c1, c2)
        assert perturbed_polar_nullity(prob, jet, flag, tuple(et)) == 1


def test_generic_structure_certificates_annihilate_every_dtheta():
    # generic constant structures (D0 != 0) on a fixed set of seeded
    # problems and jets, zero velocity included.  Once G takes d(theta^1)
    # where rho_1 = 0, the search certifies none of them (the d(theta^2)
    # row alone let non-integral planes through there); every certificate
    # it does find must be an epsilon-stable integral element that also
    # annihilates d(theta^1)
    rng = random.Random(42)
    searches = 0
    for _ in range(12):
        A, vs = random_constant_structure(rng, 2)
        rho = random_polynomial(rng, vs, 3, 6)
        prob = HypersurfaceProblem(rho, A, (1, 2))
        try:
            pt = on_surface_point(rng, prob)
        except AssertionError:
            continue
        for pr in [(1, 2), (2, -1), (0, 0)]:
            try:
                jet = prob.make_jet(pt, pr)
                if not torsion_absorbable(structure_equation_coefficients(
                        prob, jet)).absorbable:
                    continue
            except SingularD:
                break
            searches += 1
            result = ordinary_element_search(prob, jet, trials=20)
            if result.flag is None:
                continue
            v = result.verdict
            assert v.verdict == "kahler_regular"
            assert v.is_integral and v.independence
            assert v.dim_ker_gf == 2
            assert all(dim == 2 for _, _, dim in v.eps_samples)
            # E lies inside the polar space of E_1, so the Cramer
            # determinant vanishes on the certified flag itself
            assert v.determinant == 0
            # d(theta^1) = (c^1, -gamma^1, -beta_1) on the X coordinates
            sed = structure_equation_coefficients(prob, jet)
            gb = sed.point_data
            row = ((sed.c_values[0],) + tuple(-x for x in gb.gamma1)
                   + tuple(-x for x in gb.beta1))
            assert sum(a * b for a, b in zip(row, pair_X(result.flag))) == 0
    assert searches >= 20


def test_verdict_scaling_invariance():
    # rescaling the E_1 generator rescales det but not its nonzeroness
    prob, jet, rng = _generic_problem(43)
    flag = FlagSpec((1, 0), (0, 1), (1, 0), (0, 1))
    v1 = kahler_regularity(prob, jet, flag)
    flag2 = FlagSpec((1, 0), (0, 1), (1, 0), (0, 1), alpha=Fraction(3),
                     beta=Fraction(0))
    v2 = kahler_regularity(prob, jet, flag2)
    assert (v1.determinant != 0) == (v2.determinant != 0)
    assert v1.verdict == v2.verdict


def test_hyperquadric_stratum_jet_certified():
    # the canonical flag on the stratum jet is integral with epsilon-stable
    # polar dimension 2: a disk germ is certified, consistent with the
    # jet-prolongation route
    prob, jet = _hyperquadric_jet()
    result = ordinary_element_search(prob, jet, trials=10)
    assert result.flag is not None
    assert result.candidate_index == 0  # within the coordinate prefix
    v = result.verdict
    assert v.verdict == "kahler_regular" and v.dim_ker_gf == 2
    assert v.determinant == 0
    assert all(dim == 2 for _, _, dim in v.eps_samples)


def test_non_integral_flags_are_rejected():
    # at a torsion-carrying jet, arbitrary coordinate flags fail the
    # integral-element hypothesis and certify nothing
    prob = HypersurfaceProblem(HYPERQUADRIC2, complex_standard(3, V6), (1, 2))
    jet = prob.make_jet((1, 0, 1, 0, 0, 0), (0, 1, -1, 2))  # c-values != 0
    v = kahler_regularity(prob, jet,
                          FlagSpec((1, 0), (0, 1), (0,) * 4, (0,) * 4))
    assert not v.is_integral
    assert v.verdict == "not_an_integral_element"
    assert not v.regular


def test_ball_like_never_contradicts_points_only():
    # strictly plurisubharmonic: torsion already says points only; the
    # flag verdicts must stay inconclusive rather than claim a disk
    ball = parse_expression("2*f5 + f1^2 + f2^2 + f3^2 + f4^2", V6)
    prob = HypersurfaceProblem(ball, complex_standard(3, V6), (1, 2))
    jet = prob.make_jet((1, 0, 0, 0, Fraction(-1, 2), 0), (1, 1, 0, 0))
    result = ordinary_element_search(prob, jet, trials=10)
    assert result.flag is None


def test_zero_jet_block_pattern():
    # constant gammas/betas and zero jet: the X_2 column of G vanishes
    vs = V6
    lin = parse_expression("f5 + f1 - f3", vs)
    prob = HypersurfaceProblem(lin, complex_standard(3, vs), (1, 2))
    jet = prob.make_jet((0, 0, 0, 0, 0, 0), (0, 0, 0, 0))
    maps = _explicit_maps(prob, jet, FlagSpec((1, 0), (0, 1), (0,) * 4, (0,) * 4))
    assert all(row[0] == 0 for row in maps.G)
    # cofactor expansion along the X_2 column passes only through R rows
    square = maps.square
    n = len(square)
    full = det(square)
    expansion = Fraction(0)
    for r in range(n):
        if square[r][0] == 0:
            continue
        assert r >= len(maps.G)  # an R row
        minor = [row[1:] for i, row in enumerate(square) if i != r]
        expansion += (-1) ** r * square[r][0] * det(minor)
    assert expansion == full


def test_search_is_deterministic():
    prob, jet, _ = _generic_problem(45)
    r1 = ordinary_element_search(prob, jet, trials=15)
    r2 = ordinary_element_search(prob, jet, trials=15)
    assert r1.candidate_index == r2.candidate_index
    assert (r1.flag is None) == (r2.flag is None)
    if r1.flag is not None:
        assert r1.flag == r2.flag
        assert r1.verdict.determinant == r2.verdict.determinant


def test_x_degenerate_flag_reported():
    prob, jet = _hyperquadric_jet()
    flag = FlagSpec((0, 0), (0, 0), (1, 0, 0, 0), (0, 1, 0, 0))
    A1, A2, C = flag.resolved(6)
    assert A1 == A2 == 0 and C == (1, 0, 0, 0)
    v = kahler_regularity(prob, jet, flag)
    assert v.verdict == "inconclusive_degenerate_chart"
    # every relation is a multiple of X_2, so the stacked square is singular
    assert v.determinant == 0 == det(_explicit_maps(prob, jet, flag).square)


def test_search_builds_dtheta_rows_once_per_call(monkeypatch):
    import diskeds.integral_element as ie
    real = ie._dtheta_row_data
    builds = []

    def counting(problem, jet):
        builds.append(jet)
        return real(problem, jet)

    monkeypatch.setattr(ie, "_dtheta_row_data", counting)
    prob, jet = _hyperquadric_jet()
    found = ordinary_element_search(prob, jet)
    assert found.flag is not None
    assert len(builds) == 1
    # c^1, c^2 != 0 here: no candidate passes the consistency row
    blocked = prob.make_jet((1, 0, 1, 0, 0, 0), (0, 1, -1, 2))
    missed = ordinary_element_search(prob, blocked, trials=6)
    assert missed.flag is None and missed.attempted == 6
    assert len(builds) == 2


def _hyperquadric_type(n, signs):
    """rho = 2 f_{2n-1} + sum_i s_i (f_{2i-1}^2 + f_{2i}^2), s_1 = 1."""
    vs = tuple(f"f{i}" for i in range(1, 2 * n + 1))
    squares = " ".join(f"{'+' if s > 0 else '-'} f{2 * i + 1}^2 {'+' if s > 0 else '-'} "
                       f"f{2 * i + 2}^2" for i, s in enumerate((1,) + signs))
    rho = parse_expression(f"2*f{2 * n - 1} {squares}", vs)
    return HypersurfaceProblem(rho, complex_standard(n, vs), (1, 2))


@st.composite
def rho1_zero_jets(draw):
    """A hyperquadric-type problem, n = 2 or 3, and a random jet at a base
    point with f1 = 0 (so rho_1 = 0) and f2 != 0 (so D != 0)."""
    n = draw(st.sampled_from((2, 3)))
    signs = tuple(draw(st.sampled_from((1, -1))) for _ in range(n - 2))
    prob = _hyperquadric_type(n, signs)
    small = st.integers(-3, 3)
    f = [0, draw(small.filter(bool))] + [draw(small) for _ in range(2 * n - 2)]
    f[2 * n - 2] = 0
    f[2 * n - 2] = -prob.rho.evaluate(f) / 2
    return prob, prob.make_jet(f, tuple(draw(small) for _ in range(2 * n - 2)))


@given(rho1_zero_jets())
@example((_hyperquadric_type(3, (-1,)),
          _hyperquadric_type(3, (-1,)).make_jet((0, 1, 1, 0, 0, 0), (1, 0, 0, 0))))
@example((_hyperquadric_type(3, (-1,)),
          _hyperquadric_type(3, (-1,)).make_jet((0, 1, 0, 0, Fraction(-1, 2), 0), (0,) * 4)))
@settings(max_examples=40, deadline=None)
def test_flag_certificate_implies_absorbable_torsion_where_rho1_vanishes(case):
    # the d(theta^2) consistency row alone is vacuous where rho_1 = 0
    prob, jet = case
    verdict = torsion_absorbable(structure_equation_coefficients(prob, jet))
    result = ordinary_element_search(prob, jet)
    if result.flag is not None:
        assert verdict.absorbable
    if prob.n == 3:
        p1 = full_jet(jet, compute_gamma_beta(prob, jet.f)).p1
        levi, _ = levi_form(prob.rho, prob.structure, jet.f, p1)
        assert verdict.absorbable == (levi == 0)


def test_certificate_at_a_non_absorbable_jet_is_a_cross_check_failure(monkeypatch):
    import diskeds.integral_element as ie
    prob, jet = _hyperquadric_jet()
    real = ie._dtheta_row_data

    def not_absorbable(problem, jet):
        dtheta = real(problem, jet)
        return dtheta._replace(torsion=dtheta.torsion._replace(absorbable=False))

    monkeypatch.setattr(ie, "_dtheta_row_data", not_absorbable)
    flag = ordinary_element_search(prob, jet).flag
    assert flag is None
    with pytest.raises(CrossCheckMismatch):
        kahler_regularity(prob, jet, FlagSpec((1, 0), (0, 1), (0,) * 4, (0,) * 4))


def test_flag_where_rho1_vanishes_is_checked_against_dtheta1(tmp_path, capsys):
    # c = (6, 0, ..): only d(theta^1) sees the torsion here, so the flag is
    # not an integral element; with d(theta^2) as G's first row it was
    # certified, and the torsion cross-check made the run exit 3
    import json
    from diskeds import cli
    doc = {"dimension_2n": 6, "rho": "2*f5 + f1^2 + f2^2 - f3^2 - f4^2",
           "structure": {"kind": "complex_standard"}, "distinguished_pair": [1, 2],
           "points": {"P0": ["0", "1", "1", "0", "0", "0"]},
           "jets": {"J0": {"point": "P0", "p_reduced": ["1", "2", "0", "1"]}},
           "flags": {"F": {"a1": ["1", "0"], "a2": ["0", "1"],
                           "c1": ["0", "0", "0", "0"], "c2": ["0", "0", "0", "0"]}}}
    path = tmp_path / "rho1_zero.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["torsion", str(path)]) == 0
    torsion = json.loads(capsys.readouterr().out)["results"]
    assert torsion["c_values"] == ["6", "0", "0", "0", "0", "0"]
    assert torsion["absorbable"] is False
    assert cli.main(["integral-element", str(path), "--flag", "F"]) == 0
    out = capsys.readouterr()
    assert out.err == ""
    assert json.loads(out.out)["results"]["verdict"] == "not_an_integral_element"


@st.composite
def polar_cases(draw):
    """A problem at n = 2..5 (hyperquadric type, or at n = 2, 3 a seeded
    constant structure with a random cubic rho), a jet on it and a flag
    with any (alpha, beta) whose small x-parts often make A_1, or A_1 and
    A_2, vanish."""
    n = draw(st.integers(2, 5))
    small = st.integers(-2, 2)
    if n <= 3 and draw(st.booleans()):
        prob, f = _generic_point(random.Random(draw(st.integers(0, 10 ** 6))), n)
    else:
        prob = _hyperquadric_type(n, tuple(draw(st.sampled_from((1, -1)))
                                           for _ in range(n - 2)))
        f = [draw(small), draw(small.filter(bool))] + [draw(small) for _ in range(2 * n - 2)]
        f[2 * n - 2] = 0
        f[2 * n - 2] = -prob.rho.evaluate(f) / 2
    m = 2 * n - 2
    # zero velocity carries no torsion, so integral planes exist there
    velocity = st.just((0,) * m) | st.tuples(*(small,) * m)
    jet = prob.make_jet(f, draw(velocity))
    ratio = st.fractions(min_value=-3, max_value=3, max_denominator=3)
    unit = st.integers(-1, 1)
    a1, a2 = (tuple(draw(unit) for _ in range(2)) for _ in range(2))
    c1, c2 = (tuple(draw(ratio) for _ in range(m)) for _ in range(2))
    alpha, beta = draw(st.tuples(small, small).filter(any))
    if draw(st.booleans()):
        # the integral plane over e_1, e_2 with this c^1, where there is one
        found = integral_flag_from_c1(_dtheta_row_data(prob, jet), c1)
        if found is not None:
            a1, a2, c1, c2 = found[:4]
    return prob, jet, FlagSpec(a1, a2, c1, c2, alpha, beta)


def _explicit_verdict_facts(rows, A1, A2, C, two_n):
    """(determinant, dim_ker_gf, eps_samples) from the explicit maps, with
    the perturbations added to the line."""
    def facts(A1, A2, C):
        maps = explicit_polar_maps(rows, A1, A2, C)
        return det(maps.square), nullity(mat_mul(maps.G, maps.F), two_n)

    m = len(C)
    alt = tuple(Fraction(1 if i % 2 == 0 else -1, 19) for i in range(m))
    unit = (Fraction(1, 11),) + (Fraction(0),) * (m - 1)
    samples = []
    for label, ex, ep in (("eps_x", (Fraction(1, 7), Fraction(-1, 9)), (0,) * m),
                          ("eps_p", (0, 0), unit),
                          ("eps_both", (Fraction(1, 13), Fraction(1, 17)), alt)):
        line = (A1 + ex[0], A2 + ex[1], tuple(c + e for c, e in zip(C, ep)))
        if any(line[:2]) or any(line[2]):
            ed, edim = facts(*line)
            samples.append((label, ed != 0, edim))
    return (*facts(A1, A2, C), tuple(samples))


HQ3 = _hyperquadric_type(3, (-1,))
HQ3_J0 = HQ3.make_jet((1, 0, 1, 0, 0, 0), (1, 0, 0, 0))


@given(polar_cases())
@example((HQ3, HQ3.make_jet((1, 0, 1, 0, 0, 0), (1, 2, 0, -1)),
          FlagSpec((1, 0), (0, 1), (1, 2, 0, 0), (0, 0, 1, -1), 0, 1)))  # A_1 = 0 != A_2
@example((HQ3, HQ3_J0, FlagSpec((1, 1), (1, 1), (1, 0, 0, 0), (0, 1, 0, 0),
                                1, -1)))                                  # A_1 = A_2 = 0
@example((HQ3, HQ3_J0, FlagSpec((1, 0), (0, 1), (0,) * 4, (0,) * 4,
                                0, 1)))                                   # certified, A_1 = 0
@settings(derandomize=True, database=None, max_examples=80, deadline=None)
def test_closed_form_polar_matrix_and_determinant_match_the_explicit_maps(case):
    prob, jet, flag = case
    two_n = prob.two_n
    try:
        A1, A2, C = flag.resolved(two_n)
    except InadmissibleFlag:
        return
    rows = _dtheta_row_data(prob, jet).rows
    maps = explicit_polar_maps(rows, A1, A2, C)
    P = polar_matrix(rows, A1, A2, C)
    GF = mat_mul(maps.G, maps.F)
    assert [list(row) for row in P] == GF
    assert cramer_determinant(P, A1, A2) == det(maps.square)
    assert nullity(P, two_n) == nullity(GF, two_n)
    assert polar_nullity_and_determinant(P, A1, A2) == (
        nullity(GF, two_n), det(maps.square))
    v = kahler_regularity(prob, jet, flag)
    assert (v.determinant, v.dim_ker_gf, v.eps_samples) == \
        _explicit_verdict_facts(rows, A1, A2, C, two_n)
    # integrality read off P(E_1) against the d(theta) rows on E's X coordinates
    X = pair_X(flag)
    assert v.is_integral == all(dot(row, X, 0) == 0 for row in maps.G)
    assert v.independence == (X[0] != 0)


@given(polar_cases(), st.data())
@example((HQ3, HQ3_J0, FlagSpec((1, 0), (0, 1), (0,) * 4, (0,) * 4,
                                Fraction(-1, 7), 1)), None)  # eps_x has A_1 = 0
@example((HQ3, HQ3.make_jet((1, 0, 1, 0, 0, 0), (1, 2, 0, -1)),
          FlagSpec((1, 0), (0, 1), (1, 2, 0, 0), (0, 0, 1, -1), 1, 1)), None)
@settings(derandomize=True, database=None, max_examples=60, deadline=None)
def test_one_elimination_reads_the_nullity_and_the_cramer_determinant(case, data):
    # the one-elimination reading against the oracles' separate nullity and
    # determinant, on the flag's line, its three perturbations (eps_x makes
    # A_1 = 0 where A_1 = -1/7) and the same line moved onto A_1 = 0 != A_2
    # and A_1 = A_2 = 0
    prob, jet, flag = case
    two_n = prob.two_n
    try:
        A1, A2, C = flag.resolved(two_n)
    except InadmissibleFlag:
        return
    if data is not None:
        A1 = data.draw(st.sampled_from((A1, Fraction(0), -Fraction(1, 7))))
    rows = _dtheta_row_data(prob, jet).rows
    zero = Fraction(0)
    lines = [(A1, A2, C), (zero, A2 or Fraction(1), C), (zero, zero, C),
             *(line[1:] for line in _eps_lines(A1, A2, C))]
    for A1, A2, C in lines:
        if not (A1 or A2 or any(C)):
            continue
        P = polar_matrix(rows, A1, A2, C)
        dim, determinant = polar_nullity_and_determinant(P, A1, A2)
        assert (dim, determinant) == (nullity(P, two_n), cramer_determinant(P, A1, A2))
        assert (determinant != 0) == (dim == 1)


def test_kahler_regularity_eliminates_each_line_once(monkeypatch):
    # the flag's line and its three perturbations: one elimination each,
    # and no other elimination routine of linalg runs
    import diskeds.integral_element as ie
    from diskeds import linalg
    prob, jet = _hyperquadric_jet()
    dtheta = _dtheta_row_data(prob, jet)
    calls = []
    for name, value in list(vars(ie).items()):
        if getattr(value, "__module__", None) == linalg.__name__ and name not in (
                "dot", "dot_plus"):
            monkeypatch.setattr(ie, name, lambda *args, _f=value, _name=name:
                                calls.append(_name) or _f(*args))
    for flag in (FlagSpec((1, 0), (0, 1), (0,) * 4, (0,) * 4),
                 FlagSpec((1, 0), (0, 1), (1, 2, 0, 0), (0, 0, 1, -1), 0, 1)):
        calls.clear()
        kahler_regularity(prob, jet, flag, dtheta)
        assert calls == ["_echelon"] * 4


@pytest.mark.parametrize("trials", [1, 6, 25])
def test_search_at_a_non_absorbable_jet_builds_no_candidate(trials, monkeypatch):
    # no integral element lies over the jet, so every trial counts as
    # attempted without a candidate being drawn
    import diskeds.integral_element as ie
    prob, _ = _hyperquadric_jet()
    blocked = prob.make_jet((1, 0, 1, 0, 0, 0), (0, 1, -1, 2))
    assert not torsion_absorbable(structure_equation_coefficients(prob, blocked)).absorbable
    built = []
    real = ie.integral_flag_from_c1
    monkeypatch.setattr(ie, "integral_flag_from_c1",
                        lambda dtheta, c1: built.append(c1) or real(dtheta, c1))
    result = ordinary_element_search(prob, blocked, trials=trials)
    assert result == (None, None, -1, trials)
    assert built == []
    with pytest.raises(InadmissibleFlag):
        ordinary_element_search(prob, blocked, trials=0)
