"""expr core: parsing, exact arithmetic, differentiation, rational functions."""
import operator
import random
import re
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from diskeds.errors import (
    DimensionMismatch,
    DiskEdsError,
    MalformedSyntax,
    NegativeOrNonIntegerExponent,
    NotComplexifiedMode,
    SchemaViolation,
    UnknownVariable,
)
from diskeds.exact import (
    FirstJet,
    GaussianRational,
    I_UNIT,
    PreparedPoint,
    gaussian,
    normalize_scalar,
    polynomial_at,
    rat,
    rational_str,
)
from diskeds.expr import Polynomial, parse_expression, print_polynomial
from diskeds import expr
from diskeds.jets import conjugate_involution
from diskeds.reports import build_problem, load_problem

from operands import fraction_operands
from oracles import (
    DivisionByZeroFunction,
    RationalFunction,
    differentiate,
    parse_expression_reference,
    product_by_operators,
    rat_reference,
    symbolic_gamma_beta,
    var,
)

F2 = ("f1", "f2")
CX = ("z1", "z2", "zb1", "zb2", "w1", "w2", "wb1", "wb2")


def test_parse_basic():
    p = parse_expression("2*f1^2 - 1/3*f2", F2)
    assert p.terms == {(2, 0): Fraction(2), (0, 1): Fraction(-1, 3)}


def test_parse_negative_exponent():
    with pytest.raises(NegativeOrNonIntegerExponent):
        parse_expression("f1^-2", F2)


def test_parse_fractional_exponent():
    with pytest.raises(NegativeOrNonIntegerExponent):
        parse_expression("f1^1/2", F2)


def test_parse_float_rejected():
    with pytest.raises(MalformedSyntax) as exc:
        parse_expression("0.5*f1", F2)
    assert exc.value.offset == 1


def test_parse_unknown_variable():
    with pytest.raises(UnknownVariable):
        parse_expression("f1 + g7", F2)


def test_parse_stray_division():
    with pytest.raises(MalformedSyntax):
        parse_expression("f1/f2", F2)


def test_parse_hyperquadric_stratum_constraint():
    p = parse_expression("z1*zb1 - z2*zb2", CX, complexified=True)
    z1 = CX.index("z1")
    zb1 = CX.index("zb1")
    e = [0] * len(CX)
    e[z1] = 1
    e[zb1] = 1
    assert p.terms[tuple(e)] == 1
    assert len(p.terms) == 2
    assert conjugate_involution(p) == p  # real constraint


def test_parse_imaginary_unit_complex_mode_only():
    p = parse_expression("i*w1", CX, complexified=True)
    assert list(p.terms.values()) == [gaussian(0, 1)]
    with pytest.raises(UnknownVariable):
        parse_expression("i*f1", F2)


def test_differentiate_power_rule():
    p = parse_expression("f1^2 + 2*f1*f2", F2)
    assert differentiate(p, "f1") == parse_expression("2*f1 + 2*f2", F2)
    assert differentiate(parse_expression("f1*f2", ("f1", "f2", "f3")), "f3").is_zero()


def test_differentiate_pseudo_ellipsoid_gradient():
    ys = tuple(f"y{i}" for i in range(1, 7))
    p = var(ys, "y3") ** 4  # alpha3 = 1, k3 = 2
    assert differentiate(p, "y3") == var(ys, "y3").__pow__(3).scale(4)


def test_evaluate_examples():
    p = parse_expression("f1^2 - f2", F2)
    assert p.evaluate((3, 4)) == 5
    vs = tuple(f"f{i}" for i in range(1, 7))
    rho = parse_expression("f5 + f1^2 + f2^2 - f3^2 - f4^2", vs)
    assert rho.evaluate((1, 0, 1, 0, 0, 0)) == 0
    assert Polynomial.zero(F2).evaluate((7, 9)) == 0


def test_conjugate_involution_examples():
    p = parse_expression("z1^2*zb2", CX, complexified=True)
    assert conjugate_involution(p) == parse_expression("zb1^2*z2", CX,
                                                       complexified=True)
    q = parse_expression("i*w1", CX, complexified=True)
    assert conjugate_involution(q) == parse_expression("-i*wb1", CX,
                                                       complexified=True)
    with pytest.raises(NotComplexifiedMode):
        conjugate_involution(parse_expression("f1", F2))


def test_ratfn_common_denominator():
    vs = ("f1", "f2")
    f1 = RationalFunction(var(vs, "f1"))
    f2 = RationalFunction(var(vs, "f2"))
    s = 1 / f1 + 1 / f2
    assert s == RationalFunction(parse_expression("f1 + f2", vs),
                                 parse_expression("f1*f2", vs))


def test_ratfn_cross_multiplication_equality():
    vs = ("f1", "f2")
    lhs = RationalFunction(parse_expression("f1^2 - f2^2", vs),
                           parse_expression("f1 - f2", vs))
    assert lhs == RationalFunction(parse_expression("f1 + f2", vs))


def test_ratfn_division_by_zero_function():
    vs = ("f1",)
    one = RationalFunction.from_const(vs, 1)
    zero = RationalFunction.from_const(vs, 0)
    with pytest.raises(DivisionByZeroFunction):
        one / zero


def test_gamma_symbolic_matches_pointwise():
    # gamma^1_3 of the hyperquadric as a rational function equals its
    # pointwise evaluations at 20 random chart points
    from diskeds.geometry import HypersurfaceProblem, complex_standard, compute_gamma_beta
    vs = tuple(f"f{i}" for i in range(1, 7))
    rho = parse_expression("f5 + f1^2 + f2^2 - f3^2 - f4^2", vs)
    prob = HypersurfaceProblem(rho, complex_standard(3, vs), (1, 2))
    sym = symbolic_gamma_beta(prob)
    rng = random.Random(0)
    hits = 0
    while hits < 20:
        pt = tuple(Fraction(rng.randint(-4, 4)) for _ in range(6))
        if sym.D.evaluate(pt) == 0:
            continue
        pw = compute_gamma_beta(prob, pt)
        assert sym.gamma1[0].evaluate(pt) == pw.gamma1[0]
        hits += 1


# ---------------------------------------------------------------------
# properties

names = st.sampled_from(["f1", "f2", "f3"])
V3 = ("f1", "f2", "f3")


@st.composite
def polys(draw, variables=V3, maxdeg=3):
    terms = {}
    for _ in range(draw(st.integers(0, 5))):
        exps = tuple(draw(st.integers(0, maxdeg)) for _ in variables)
        coeff = Fraction(draw(st.integers(-9, 9)), draw(st.integers(1, 9)))
        if coeff:
            terms[exps] = coeff
    return Polynomial(variables, terms)


@given(polys(), polys(), polys())
@settings(max_examples=60, deadline=None)
def test_ring_axioms(p, q, r):
    assert (p + q) + r == p + (q + r)
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r
    assert p + q == q + p
    assert p * q == q * p


@given(polys(), polys(), names)
@settings(max_examples=60, deadline=None)
def test_product_rule(p, q, v):
    assert differentiate(p * q, v) == \
        differentiate(p, v) * q + p * differentiate(q, v)


@given(polys())
@settings(max_examples=80, deadline=None)
def test_print_parse_round_trip(p):
    text = print_polynomial(p)
    assert parse_expression(text, V3) == p


@given(polys(), polys(), st.tuples(st.integers(-5, 5), st.integers(-5, 5),
                                   st.integers(-5, 5)))
@settings(max_examples=60, deadline=None)
def test_evaluate_is_homomorphism(p, q, pt):
    assert (p + q).evaluate(pt) == p.evaluate(pt) + q.evaluate(pt)
    assert (p * q).evaluate(pt) == p.evaluate(pt) * q.evaluate(pt)


def _canonical(x):
    return type(x) is Fraction or (type(x) is GaussianRational and x.im != 0)


def _evaluated(p, pt):
    """sum c * prod x ** e, term by term with Python's operators."""
    out = Fraction(0)
    for exps, c in p.terms.items():
        for x, e in zip(pt, exps):
            c = c * x ** e
        out = out + c
    return out


@st.composite
def gaussian_polys(draw):
    terms = {}
    for _ in range(draw(st.integers(0, 5))):
        exps = tuple(draw(st.integers(0, 3)) for _ in V3)
        terms[exps] = gaussian(draw(st.integers(-5, 5)), draw(st.integers(-3, 3)))
    return Polynomial(V3, terms)


BIG = 2 ** 4000
# zero, negative, half-integer and 4,000-bit rationals, an int, and
# Gaussian values with and without a real part
COORDINATES = (0, 0, 1, -2, Fraction(3, 2), Fraction(-1, 2), BIG + 1, Fraction(1 - BIG, 3),
               gaussian(0, 1), gaussian(1, -2))


@given(st.one_of(polys(), gaussian_polys()), st.tuples(*[st.sampled_from(COORDINATES)] * 3))
@example(Polynomial(V3, {(2, 1, 0): Fraction(1), (0, 0, 3): gaussian(0, 2)}), (0, 1, 0))
@example(Polynomial(V3, {(3, 3, 3): Fraction(-3, 4)}), (BIG + 1, Fraction(1, 2), 0))
@settings(derandomize=True, database=None, max_examples=200, deadline=None)
def test_one_pass_derivatives_equal_differentiate_then_evaluate(p, pt):
    # zero coordinates included: a monomial with a zero factor left out of
    # a derivative contributes nothing to it; Fraction and Gaussian
    # coefficients and coordinates, mixed in one polynomial, and every
    # result a canonical scalar, of the type the oracle's value has
    grad, hessian = p.derivatives_at(pt, second=True)
    want_grad = tuple(_evaluated(differentiate(p, v), pt) for v in V3)
    want_hessian = tuple(tuple(_evaluated(differentiate(differentiate(p, a), b), pt)
                               for b in V3) for a in V3)
    assert grad == want_grad and hessian == want_hessian
    assert p.derivatives_at(pt) == (grad, None)
    value = p.evaluate(pt)
    assert value == _evaluated(p, pt)
    jet = p.first_jet(pt)
    assert (jet.value, jet.grad) == (value, grad)
    outputs = (value,) + grad + sum(hessian, ())
    wants = (_evaluated(p, pt),) + want_grad + sum(want_hessian, ())
    assert all(map(_canonical, outputs))
    assert [type(x) for x in outputs] == [type(normalize_scalar(w)) for w in wants]
    # the kernel over any iterable of (exps, coeff) pairs, one prepared
    # point shared by every read, and derivatives from a coordinate on
    pairs = list(p.terms.items())
    at = PreparedPoint(pt)
    assert polynomial_at(iter(pairs), at, 2) == (value, grad, hessian)
    assert polynomial_at(iter(pairs), at, 1, value=False) == (None, grad, None)
    assert polynomial_at(iter(pairs), at, 2, start=1) == (
        value, grad[1:], tuple(row[1:] for row in hessian[1:]))


def test_every_reading_at_a_point_checks_its_length():
    p = parse_expression("f1*f2 + f2^2", F2)
    for point in ((1, 2, 99), (1,)):
        for read in (p.evaluate, p.derivatives_at, p.first_jet):
            with pytest.raises(DimensionMismatch, match=f"point of length {len(point)} vs 2"):
                read(point)


def test_monomial_stops_at_the_first_zero_factor():
    # a monomial, or a derivative of one, that keeps a factor with an exact
    # zero value is 0 before any of its powers is taken, wherever the zero
    # stands; a power it needs passes exact.power's bit bound or raises
    p = Polynomial(F2, {(10 ** 8, 1): Fraction(1), (0, 0): Fraction(3)})   # f1^(10^8) f2 + 3
    assert p.evaluate((0, 2)) == p.evaluate((2, 0)) == 3
    assert p.derivatives_at((0, 2), second=True) == ((0, 0), ((0, 0), (0, 0)))
    assert p.evaluate((1, 5)) == p.evaluate((-1, 5)) == 8
    for read, message in ((lambda: p.evaluate((2, 1)), "x^100000000"),
                          (lambda: p.derivatives_at((2, 0)), "x^100000000"),
                          (lambda: p.derivatives_at((2, 1)), "x^99999999")):
        with pytest.raises(SchemaViolation, match=re.escape(f"exact power {message} of a 1-bit x")):
            read()
    q = Polynomial(F2, {(2, 1): Fraction(1, 2)})
    assert q.evaluate((Fraction(1, 2), 3)) == Fraction(3, 8)


def test_each_power_at_a_point_is_taken_once(monkeypatch):
    # the value, gradient and Hessian of f1^3 f2^2 + f1^3 + f1^2 f2 read
    # each power x_i^k, k >= 2, that a kept factor needs, once
    from diskeds import exact
    taken = []
    real = exact.power

    def power(x, k):
        taken.append((x, k))
        return real(x, k)

    monkeypatch.setattr(exact, "power", power)
    p = parse_expression("f1^3*f2^2 + f1^3 + f1^2*f2", F2)
    pt = (Fraction(2, 3), Fraction(-5))
    jet = p.first_jet(PreparedPoint(pt))
    taken.clear()
    at = PreparedPoint(pt)
    value, grad, hessian = polynomial_at(p.terms.items(), at, 2)
    assert (value, grad) == (jet.value, jet.grad)
    assert sorted(taken, key=repr) == sorted(
        [(pt[0], 3), (pt[0], 2), (pt[1], 2)], key=repr)


@st.composite
def cx_polys(draw):
    terms = {}
    for _ in range(draw(st.integers(0, 4))):
        exps = tuple(draw(st.integers(0, 2)) for _ in CX)
        coeff = GaussianRational(Fraction(draw(st.integers(-5, 5))),
                                 Fraction(draw(st.integers(-5, 5))))
        if coeff:
            terms[exps] = coeff
    return Polynomial(CX, terms)


@given(cx_polys())
@settings(max_examples=60, deadline=None)
def test_conjugation_is_involution(p):
    assert conjugate_involution(conjugate_involution(p)) == p


@given(cx_polys())
@settings(max_examples=40, deadline=None)
def test_complexified_round_trip(p):
    assert parse_expression(print_polynomial(p), CX, complexified=True) == p


rationals = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 9))
ZERO3 = (Fraction(0),) * 3


@st.composite
def first_jets(draw):
    return FirstJet(draw(rationals), tuple(draw(rationals) for _ in range(3)))


def _value_and_grad(x):
    return (x.value, x.grad) if isinstance(x, FirstJet) else (Fraction(x), ZERO3)


@given(first_jets(), st.one_of(st.sampled_from([0, Fraction(0), Fraction(1)]), rationals))
@settings(derandomize=True, database=None, max_examples=150, deadline=None)
def test_first_jet_constant_operand_matches_lifted_jet(x, c):
    lifted = FirstJet(c, ZERO3)
    for args, lifted_args in (((x, c), (x, lifted)), ((c, x), (lifted, x))):
        try:
            want = _dense_quotient(*lifted_args)
        except ZeroDivisionError:
            for operands in (args, lifted_args):
                with pytest.raises(ZeroDivisionError):
                    operator.truediv(*operands)
            continue
        got = operator.truediv(*args)
        assert _value_and_grad(got) == want
        assert _value_and_grad(operator.truediv(*lifted_args)) == want
        if args[0] is c and not c:
            # 0 / v is the exact Fraction 0, a zero operand that dot skips
            assert type(got) is Fraction and got == 0


# zeros, negatives, equal and coprime denominators (6, 35, 77 and a
# 4,000-bit one), and 4,000-bit numerators and denominators
sparse_rationals = st.one_of(
    st.just(Fraction(0)), st.just(Fraction(0)), rationals,
    st.sampled_from([Fraction(1, 6), Fraction(-5, 6), Fraction(4, 35), Fraction(-9, 77),
                     Fraction(3, BIG - 1)]),
    st.builds(Fraction, st.integers(-BIG, BIG), st.integers(1, BIG)))


@st.composite
def sparse_first_jets(draw):
    return FirstJet(draw(sparse_rationals), tuple(draw(sparse_rationals) for _ in range(3)))


def _dense_quotient(x, y):
    """The quotient rule on every component, none skipped."""
    (u, du), (v, dv) = _value_and_grad(x), _value_and_grad(y)
    return u / v, tuple((a * v - u * b) / (v * v) for a, b in zip(du, dv))


def _without_gradient(x):
    return FirstJet(x.value, ()) if isinstance(x, FirstJet) else x


@given(sparse_first_jets(),
       st.one_of(sparse_first_jets(), sparse_rationals, st.integers(-3, 3)))
@settings(derandomize=True, database=None, max_examples=200, deadline=None)
def test_first_jet_rules_on_sparse_gradients(x, y):
    rules = [(operator.neg, (x,), (-x.value, tuple(-a for a in x.grad)))]
    for args in ((x, y), (y, x)):
        try:
            rules.append((operator.truediv, args, _dense_quotient(*args)))
        except ZeroDivisionError:
            with pytest.raises(ZeroDivisionError):
                operator.truediv(*args)
    for op, args, want in rules:
        with fraction_operands() as counts:
            got = op(*args)
        value, grad = _value_and_grad(got)
        assert (value, grad) == want
        assert all(type(g) is Fraction for g in grad)
        # a zero gradient component costs nothing: the rule reads no
        # more exact zeros than on the values alone
        with fraction_operands() as values_only:
            op(*map(_without_gradient, args))
        assert counts[1] == values_only[1]


def test_first_jet_is_truthy_at_a_zero_value():
    # a zero value does not make a jet the constant 0: its gradient may not vanish
    assert FirstJet(Fraction(0), (Fraction(0), Fraction(1), Fraction(0)))
    assert FirstJet(Fraction(0), ZERO3)


gaussians = st.builds(GaussianRational, rationals, rationals)
# the part formulas, every product and sum taken
DENSE_PARTS = {operator.add: lambda a, b, c, d: (a + c, b + d),
               operator.sub: lambda a, b, c, d: (a - c, b - d),
               operator.mul: lambda a, b, c, d: (a * c - b * d, a * d + b * c)}


@given(st.one_of(gaussians, st.builds(GaussianRational, sparse_rationals, sparse_rationals)),
       st.one_of(st.integers(-4, 4), rationals, sparse_rationals))
@settings(max_examples=150, deadline=None)
def test_gaussian_real_operand_matches_lifted_gaussian(z, c):
    lifted = GaussianRational(c, 0)
    for op in (operator.add, operator.sub, operator.mul, operator.truediv):
        for args, lifted_args in (((z, c), (z, lifted)), ((c, z), (lifted, z))):
            try:
                want = op(*lifted_args)
            except ZeroDivisionError:
                with pytest.raises(ZeroDivisionError):
                    op(*args)
                continue
            got = op(*args)
            assert (got.re, got.im) == (want.re, want.im)
            assert type(got.re) is Fraction and type(got.im) is Fraction
            if op in DENSE_PARTS:
                # exact-zero parts are skipped, never read
                u, v = lifted_args
                with fraction_operands() as counts:
                    want = op(u, v)
                assert (want.re, want.im) == DENSE_PARTS[op](u.re, u.im, v.re, v.im)
                assert counts[1] == 0


@given(gaussians, st.integers(0, 6))
@settings(max_examples=60, deadline=None)
def test_gaussian_power_is_repeated_product(z, k):
    want = GaussianRational(1, 0)
    for _ in range(k):
        want = want * z
    assert z ** k == want


def test_gaussian_repr_and_coercion():
    z = GaussianRational(Fraction(1, 2), 1)
    assert repr(z) == "GaussianRational(re=Fraction(1, 2), im=Fraction(1, 1))"
    assert type(z.im) is Fraction
    assert z == gaussian("1/2", "1") and hash(z) == hash(gaussian("1/2", "1"))


def test_gaussian_repr_at_any_size():
    # the parts read as Fraction's repr, computed with the digit limit
    # lifted, while the repr itself runs under the default limit
    values = [gaussian(10 ** 5000, 1), gaussian(Fraction(-3, 10 ** 5000), -(7 ** 6000)),
              gaussian("-5/7", "0")]
    saved = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(0)
        want = [f"GaussianRational(re={z.re!r}, im={z.im!r})" for z in values]
        sys.set_int_max_str_digits(4300)
        got = [repr(z) for z in values]
    finally:
        sys.set_int_max_str_digits(saved)
    assert got == want


_hash_coefficients = st.one_of(
    st.fractions(max_denominator=9).filter(bool),
    st.builds(lambda p, q: Fraction(p, q), st.integers(-2 ** 300, 2 ** 300).filter(bool),
              st.integers(1, 2 ** 200)))


@given(st.dictionaries(st.tuples(*[st.integers(0, 3)] * 3), _hash_coefficients,
                       max_size=6),
       st.randoms(use_true_random=False), st.sampled_from([1, -1, 3, Fraction(-7, 2)]))
@settings(derandomize=True, database=None, max_examples=150, deadline=None)
def test_equal_polynomials_hash_equal_however_built(terms, rng, c):
    # the hash covers the support only: equal polynomials built from
    # Gaussian coefficients with a zero imaginary part, from sums in another
    # order, or from a scale and its inverse hash equal and find each other
    # in sets and dicts; c * p for c != 1 has the same support and the
    # same hash, and is still told apart by equality
    p = Polynomial(V3, terms)
    monomials = [Polynomial(V3, {e: x}) for e, x in terms.items()]
    rng.shuffle(monomials)
    built = [Polynomial(V3, {e: GaussianRational(x, 0) for e, x in terms.items()}),
             sum(monomials, Polynomial.zero(V3)),
             p.scale(c).scale(1 / Fraction(c)),
             (p + Polynomial.const(V3, c)) - c,
             p.scale(I_UNIT).scale(-I_UNIT)]
    for q in built:
        assert q == p and hash(q) == hash(p)
        assert q in {p} and {p: "p"}[q] == "p"
    assert len(set(built + [p])) == 1
    zero = p - built[1]
    assert zero == Polynomial.zero(V3) and hash(zero) == hash(Polynomial.zero(V3))
    assert zero in {Polynomial.zero(V3)}
    if c != 1 and terms:
        scaled = p.scale(c)
        assert hash(scaled) == hash(p) and scaled != p
        assert len({p, scaled}) == 2 and scaled not in {p: 0}


@given(polys(maxdeg=2), st.integers(0, 6))
@settings(max_examples=60, deadline=None)
def test_polynomial_power_is_repeated_product(p, k):
    want = Polynomial.const(V3, 1)
    for _ in range(k):
        want = want * p
    assert p ** k == want


def test_polynomial_power_squares_only_while_bits_remain(monkeypatch):
    # square-and-multiply from the base itself: p**2 is one product, and no
    # square is taken after the last bit; Polynomial powers and the parser's
    # '^' share the term-table product
    p = parse_expression("f1 + 2*f2 - f3", V3)
    products = []
    real = expr._product

    def counting(a, b, *limit):
        products.append(b)
        return real(a, b, *limit)

    monkeypatch.setattr(expr, "_product", counting)
    for k, want in ((0, 0), (1, 0), (2, 1), (3, 2), (4, 2), (5, 3), (8, 3)):
        products.clear()
        p ** k
        assert len(products) == want, k
        products.clear()
        parse_expression(f"(f1 + f2 - f3)^{k}", V3)
        assert len(products) == want, k


_BOUND = expr.MAX_NESTING


@pytest.mark.parametrize("text, offset", [
    ("(" * 3000 + "f1" + ")" * 3000, _BOUND),
    ("-" * 3000 + "f1", _BOUND),
    ("f2 + " + "-(" * _BOUND + "f1" + ")" * _BOUND, len("f2 + ") + _BOUND),
], ids=["parentheses", "unary_minus", "mixed"])
def test_nesting_beyond_the_bound_names_the_deepest_level(text, offset):
    # parentheses and unary minuses count alike; the offset is the token
    # that opens the first level past the bound
    with pytest.raises(MalformedSyntax) as exc:
        parse_expression(text, F2)
    assert exc.value.offset == offset
    assert str(exc.value) == f"expression nested deeper than {_BOUND} levels (at byte {offset})"


@pytest.mark.parametrize("text", ["f1 + " + "1" * 5000, "f1 + ²"], ids=["long", "superscript"])
def test_unreadable_integer_literal_is_malformed(text):
    # str.isdigit accepts both, int() reads neither
    with pytest.raises(MalformedSyntax) as exc:
        parse_expression(text, F2)
    assert str(exc.value) == "unreadable integer literal (at byte 5)"


def test_nesting_up_to_the_bound_parses():
    half = _BOUND // 2
    assert parse_expression("(" * _BOUND + "f1" + ")" * _BOUND, F2) == var(F2, "f1")
    assert parse_expression("-(" * half + "f1" + ")" * half, F2) == var(F2, "f1")
    assert parse_expression("(" * _BOUND + "f1)" + "*(f2" + ")" * _BOUND, F2) == \
        parse_expression("f1*f2", F2)


# expressions of the grammar over a few atoms, with junk tokens spliced in
_REAL_ATOMS = ("f1", "f2", "f3", "g")
_COMPLEX_ATOMS = ("z1", "zb1", "w1", "i")
_JUNK = ("^", "/", "(", ")", "*", "+", "-", "^-1", "^1/2", "2.5", "#", "1/0", "f1 f2")


def _expressions(atoms):
    leaf = st.one_of(st.integers(0, 12).map(str),
                     st.tuples(st.integers(0, 9), st.integers(0, 4)).map(
                         lambda t: f"{t[0]}/{t[1]}"),
                     st.sampled_from(atoms))
    return st.recursive(leaf, lambda inner: st.one_of(
        st.tuples(inner, st.sampled_from((" + ", " - ", "*", "-")), inner).map("".join),
        inner.map(lambda e: f"({e})"),
        inner.map(lambda e: f"-{e}"),
        st.tuples(inner, st.integers(0, 3)).map(lambda t: f"({t[0]})^{t[1]}"),
        st.tuples(st.sampled_from(atoms), st.integers(0, 3)).map(lambda t: f"{t[0]}^{t[1]}"),
    ), max_leaves=10)


@st.composite
def _parser_inputs(draw):
    complexified = draw(st.booleans())
    table = (("z1", "zb1", "w1", "wb1") if complexified else ("f1", "f2", "f3"))
    if draw(st.integers(0, 5)) == 0:
        table += ("i",)
    text = draw(_expressions(_COMPLEX_ATOMS if complexified else _REAL_ATOMS))
    if complexified and draw(st.booleans()):
        text = f"{draw(st.sampled_from(('i', '2*i', '(1 - i)')))}*({text})"
    for _ in range(draw(st.integers(0, 2)) if draw(st.booleans()) else 0):
        at = draw(st.integers(0, len(text)))
        text = text[:at] + draw(st.sampled_from(_JUNK)) + text[at:]
    return text, table, complexified


def _parse_outcome(parse, text, table, complexified):
    try:
        p = parse(text, table, complexified)
    except DiskEdsError as exc:
        return type(exc), str(exc), getattr(exc, "offset", None)
    return p.vars, p.terms, {e: type(c) for e, c in p.terms.items()}


@given(_parser_inputs())
@settings(derandomize=True, database=None, max_examples=400, deadline=None)
def test_term_table_parser_matches_the_polynomial_parser(case):
    # same table, terms and coefficient types, or the same error; and the
    # printed polynomial parses back to itself
    text, table, complexified = case
    got = _parse_outcome(parse_expression, text, table, complexified)
    assert got == _parse_outcome(parse_expression_reference, text, table, complexified)
    if not isinstance(got[0], type):
        p = parse_expression(text, table, complexified)
        assert parse_expression(print_polynomial(p), table, complexified) == p


_SMALL_COEFFICIENTS = st.fractions(min_value=-4, max_value=4, max_denominator=6).filter(bool)
_RATIONAL_COEFFICIENTS = st.one_of(
    _SMALL_COEFFICIENTS, _SMALL_COEFFICIENTS, _SMALL_COEFFICIENTS,
    st.builds(Fraction, st.integers(-BIG, BIG).filter(bool), st.integers(1, BIG)))
_GAUSSIAN_COEFFICIENTS = st.builds(gaussian, st.integers(-3, 3), st.integers(-3, 3)).map(
    normalize_scalar).filter(bool)


@st.composite
def _product_cases(draw):
    """Two term tables over 3 variables of 0 to 12 terms each, rational or
    with Gaussian coefficients, so that both factors of a product may pass
    8 terms, with a budget that may run out part way."""
    coefficients = draw(st.sampled_from(
        [_RATIONAL_COEFFICIENTS] * 3 + [st.one_of(_RATIONAL_COEFFICIENTS, _GAUSSIAN_COEFFICIENTS)]))
    exps = st.tuples(*[st.integers(0, 3)] * 3)
    a, b = (draw(st.dictionaries(exps, coefficients, max_size=12)) for _ in range(2))
    pairs = draw(st.one_of(st.just(expr.MAX_PRODUCT_PAIRS), st.integers(0, 150)))
    words = draw(st.one_of(st.just(expr.MAX_PRODUCT_WORDS), st.integers(0, 2000)))
    return a, b, pairs, words


def _product_outcome(product, a, b, pairs, words):
    budget = expr.ParseBudget()
    budget.pairs, budget.words = pairs, words
    try:
        res = product(a, b, budget)
    except DiskEdsError as exc:
        return type(exc), str(exc), budget.pairs, budget.words
    return list(res.items()), [type(c) for c in res.values()], budget.pairs, budget.words


_FULL = expr.MAX_PRODUCT_PAIRS, expr.MAX_PRODUCT_WORDS


@given(_product_cases())
@example(({(1, 0, 0): Fraction(1), (0, 1, 0): Fraction(-1, 2)},
          {(1, 0, 0): Fraction(1), (0, 1, 0): Fraction(1, 2)}, *_FULL))
@example(({(0, 0, 0): Fraction(BIG, 3), (1, 0, 0): Fraction(1)},
          {(0, 0, 0): Fraction(3, BIG), (0, 0, 1): Fraction(2)}, 3, 40))
@example(({(k, 0, 1): Fraction(k + 1, 2) for k in range(9)},
          {(0, k % 3, k // 3): Fraction(-1, k + 1) for k in range(9)}, *_FULL))
# two Gaussian tables of more than 8 terms
@example(({(k, 0, 1): gaussian(k, 1) for k in range(9)},
          {(0, k % 3, k // 3): gaussian(1, -k - 1) for k in range(10)}, *_FULL))
# x*y forms in the first row, cancels in the second and forms again in
# the last, at the end of the table
@example(({(0, 0, 0): Fraction(1), (1, 0, 0): Fraction(1),
           **{(0, 0, k): Fraction(k) for k in range(1, 7)}, (0, 1, 0): Fraction(1)},
          {(1, 1, 0): Fraction(1), (0, 1, 0): Fraction(-1), (1, 0, 0): Fraction(1),
           **{(0, 0, k): Fraction(1, k) for k in range(1, 7)}}, *_FULL))
# exponents of 2^70 widen every slot past a machine word
@example(({(2 ** 70, 0, 1): Fraction(1, 3), (0, 1, 0): Fraction(2)},
          {(2 ** 70, 0, 0): Fraction(1), (0, 0, 5): Fraction(-1, 2)}, *_FULL))
@example(({(1, 0, 0): Fraction(2), (0, 1, 0): Fraction(1)}, {}, 0, 0))
# denominators that share no factor: each row is charged on numerators
# over the table's lcm, about 13 words each, and stops at the second row
# of 2,000 words; with 20,000 the rows pass and the gcds of the 81 terms
# left, over a 29-word denominator, do not
@example(({(k, 0, 0): Fraction(1, 10 ** 30 + k) for k in range(9)},
          {(0, k, 0): Fraction(1, 10 ** 30 + 100 + k) for k in range(9)}, 150, 2000))
@example(({(k, 0, 0): Fraction(1, 10 ** 30 + k) for k in range(9)},
          {(0, k, 0): Fraction(1, 10 ** 30 + 100 + k) for k in range(9)}, 150, 20000))
@settings(derandomize=True, database=None, max_examples=300, deadline=None)
def test_the_term_table_product_equals_the_operator_fold(case):
    # at every table size: the same table in the same term order, with the
    # same coefficient types, or the same ParseBudget error with the same
    # budget left
    a, b, pairs, words = case
    got = _product_outcome(expr._product, a, b, pairs, words)
    assert got == _product_outcome(product_by_operators, a, b, pairs, words)


def test_loading_cusp_builds_one_polynomial_per_parsed_expression(monkeypatch):
    doc = load_problem("cusp")
    expressions = 1 + sum(len(sdoc["equalities"]) + len(sdoc["openings"])
                          for sdoc in doc["strata"].values())
    parsing, built, parsed = [], [], []
    real_init, real_parse = Polynomial.__init__, expr._Parser.parse

    def init(self, *args, **kwargs):
        built.extend(parsing)
        real_init(self, *args, **kwargs)

    def parse(self):
        parsed.append(self)
        parsing.append(self)
        try:
            return real_parse(self)
        finally:
            parsing.pop()

    monkeypatch.setattr(Polynomial, "__init__", init)
    monkeypatch.setattr(expr._Parser, "parse", parse)
    build_problem(doc, "cusp")
    # both strata hold the long equality and w3, each at one jet order:
    # 10 expressions are 8 distinct (text, jet order) parses
    assert expressions == 10 and len(parsed) == 8
    assert built == parsed


def test_repeated_stratum_texts_take_the_budget_once(monkeypatch):
    # a load parses each (text, jet order) once, so strata that repeat
    # their equalities and openings take from the load's budget what one
    # of them takes
    taken = []
    real = expr.ParseBudget.take

    def take(self, pairs, words):
        taken.append((pairs, words))
        return real(self, pairs, words)

    monkeypatch.setattr(expr.ParseBudget, "take", take)
    stratum = {"equalities": ["(z1 + zb1)^3 - w2*wb2", "(w1 + 2*wb1)*(z2 - 1/2*zb2)"],
               "openings": ["(z1 + 1)*(zb1 + 1)", "(w1 + 2*wb1)*(z2 - 1/2*zb2)"]}
    build_problem({"dimension_2n": 4, "strata": {"S": stratum}})
    once, taken[:] = list(taken), []
    build_problem({"dimension_2n": 4, "strata": {f"S{k}": stratum for k in range(6)}})
    assert len(once) > 5 and taken == once


_RATIONAL_TEXTS = ("3", "-3", "+3", " 7 ", "3/4", "-3/4", "+3/4", "3 / 4", "3/ 4", "3 /4",
                   "3/0", "0/5", "-0", "0.5", "1_0", "1/2_0", "", " ", "+-3", "--3", "3/-4",
                   "/4", "3/", "1e3", "٣/4", "²", "0x10", "\t12\n", "12/8", "1" * 5000,
                   "1/" + "1" * 5000)


@given(st.one_of(st.sampled_from(_RATIONAL_TEXTS),
                 st.text(alphabet="0123456789+-/ ._", max_size=8),
                 st.integers(-10**30, 10**30), st.booleans(),
                 st.fractions(), st.floats(allow_nan=False)))
@settings(derandomize=True, database=None, max_examples=400, deadline=None)
def test_rat_matches_the_fraction_string_reference(value):
    # the same inputs are accepted, with equal values; the reference's
    # ValueError on spaces around '/' is a rejection the runtime names
    try:
        want = rat_reference(value)
    except (DiskEdsError, ValueError):
        with pytest.raises(DiskEdsError):
            rat(value)
        return
    got = rat(value)
    assert got == want and type(got) is Fraction


@pytest.mark.parametrize("limit", [640, 4300])
@pytest.mark.parametrize("digits", [1, 499, 500, 501, 640, 4300, 4301, 9000, 20000])
def test_rational_str_is_str_at_any_size_under_any_digit_limit(digits, limit):
    # str() is the reference, computed with the limit lifted; the writer
    # runs under the least limit CPython allows and under its default
    n = 7 * 10 ** (digits - 1) + 123456789 % 10 ** digits
    values = [Fraction(n), Fraction(-n), Fraction(n, 3 ** (digits // 2) * 2 + 1),
              Fraction(-1, n)]
    saved = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(0)
        want = [str(x) for x in values]
        sys.set_int_max_str_digits(limit)
        got = [rational_str(x) for x in values]
    finally:
        sys.set_int_max_str_digits(saved)
    assert got == want
