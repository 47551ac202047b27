"""Jet prolongation, strata, involution loops, Levi form, conversions."""
import json
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from diskeds.builtins import BUILTIN_PROBLEMS
from diskeds.errors import DimensionMismatch, NotComplexifiedMode, ProbeViolatesStratum
from diskeds.exact import I_UNIT, gaussian, scalar_conj
from diskeds.expr import Polynomial, parse_expression, print_polynomial
from diskeds.geometry import complex_standard
from diskeds import cli, expr, jets
from diskeds.jets import (
    conjugate_involution,
    d_t,
    d_tbar,
    extend_probe,
    involution_loop,
    jet_table,
    linearize,
    make_system,
    probe_from_values,
    prolong_constraints,
    reduce_redundant,
    stratum_analyze,
    substitute_vanishing,
    torsion_at_probe,
)
from diskeds.cli import main
from diskeds.reports import build_problem, load_problem
from oracles import (complexify, conjugate_by_name, curve_probe, derivation_at,
                     differentiate, extend_to, jet_to_probe, levi_form,
                     linearize_two_branch, prolong_by_conjugation, realify,
                     reduce_redundant_by_span, rows_term_by_term,
                     substitute_vanishing_by_conjugation,
                     substitute_vanishing_by_full_passes, used_variables, var,
                     var_jet_order)

V6 = tuple(f"f{i}" for i in range(1, 7))


def cx(text, order=2, n=3):
    return parse_expression(text, jet_table(n, order), complexified=True)


def test_dt_basic_rules():
    assert d_t(cx("w3")) == cx("w3_1")
    assert d_t(cx("z2")) == cx("w2")
    assert d_t(cx("zb1")).is_zero()
    assert d_t(cx("wb2_1")).is_zero()


def test_dt_leibniz_z1_pattern():
    g = cx("2*z1*w1 + 3*z2^2*w2")
    assert d_t(g) == cx("2*w1^2 + 2*z1*w1_1 + 6*z2*w2^2 + 3*z2^2*w2_1")


def test_dt_hyperquadric_prolonged_lines():
    g = cx("w1*wb1 - w2*wb2")
    assert d_t(g) == cx("w1_1*wb1 - w2_1*wb2")
    assert d_tbar(d_t(g)) == cx("w1_1*wb1_1 - w2_1*wb2_1")


@st.composite
def cx_polys3(draw):
    table = jet_table(2, 2)
    big = jet_table(2, 4)
    terms = {}
    for _ in range(draw(st.integers(0, 4))):
        exps = tuple(draw(st.integers(0, 1)) for _ in table)
        coeff = gaussian(draw(st.integers(-4, 4)), draw(st.integers(-4, 4)))
        if coeff:
            terms[exps] = coeff
    return extend_to(Polynomial(table, terms), big)


@given(cx_polys3())
@settings(max_examples=40, deadline=None)
def test_dt_dtbar_commute(p):
    assert d_t(d_tbar(p)) == d_tbar(d_t(p))


@given(cx_polys3())
@settings(max_examples=40, deadline=None)
def test_conjugation_intertwines_derivations(p):
    assert conjugate_involution(d_t(p)) == d_tbar(conjugate_involution(p))


def _next_name(name):
    """z_l -> w_l, w_l -> w_l_1, w_l_k -> w_l_(k+1), bars kept: D_t and D_tb
    on generators, read off the names."""
    kind = name[:2] if name[1] == "b" else name[:1]
    w, rest = ("wb" if kind.endswith("b") else "w"), name[len(kind):]
    if kind[0] == "z":
        return w + rest
    l, _, k = rest.partition("_")
    return f"{w}{l}_{int(k or 0) + 1}"


@st.composite
def jet_polys(draw):
    """A random polynomial over jet_table(n, q), n = 1..3, q = 1..3."""
    table = jet_table(draw(st.integers(1, 3)), draw(st.integers(1, 3)))
    terms = {}
    for _ in range(draw(st.integers(0, 4))):
        exps = [0] * len(table)
        for i in draw(st.lists(st.integers(0, len(table) - 1), max_size=3)):
            exps[i] += 1
        terms[tuple(exps)] = gaussian(draw(st.integers(-3, 3)), draw(st.integers(-3, 3)))
    return Polynomial(table, terms)


@given(jet_polys(), st.booleans())
@settings(derandomize=True, database=None, max_examples=150, deadline=None)
def test_derivations_are_the_product_rule(p, barred):
    # the exponent shift on the table layout equals sum_v dp/dv * next(v)
    # over the generators v of the derived kind, and a top-order generator,
    # which has no successor in the table, is an error
    derive = d_tbar if barred else d_t
    kind = [v for v in used_variables(p) if (v[1] == "b") == barred]
    if any(_next_name(v) not in p.vars for v in kind):
        with pytest.raises(NotComplexifiedMode):
            derive(p)
        return
    want = Polynomial.zero(p.vars)
    for v in kind:
        want = want + differentiate(p, v) * var(p.vars, _next_name(v))
    assert derive(p) == want


def _stratum(name, sname):
    lp = build_problem(load_problem(name), name)
    return lp.strata[sname]


def test_prolong_adds_first_prolongation_equalities():
    system, probes = _stratum("hyperquadric", "nonzero_velocity")
    P = prolong_constraints(system)
    want = [
        cx("w3_1 + w1_1*zb1 - w2_1*zb2", order=P.order),
        cx("w1_1*wb1 - w2_1*wb2", order=P.order),
        cx("w1_1*wb1_1 - w2_1*wb2_1", order=P.order),
    ]
    eqs = set(P.equalities)
    for g in want:
        assert g in eqs
    assert P.order == system.order + 1


def test_reduce_redundant_marks_square_norm_rows():
    # |w1^(1)|^2 - |w2^(1)|^2 has no affine part in the top jets, hence is
    # retained; the linear w^(2)-row drop happens one order up
    system, probes = _stratum("hyperquadric", "nonzero_velocity")
    probe = probes["Q0"]
    P = prolong_constraints(system)
    ext = extend_probe(P, probe)
    reduced, dropped = reduce_redundant(linearize(P, ext))
    sq = cx("w1_1*wb1_1 - w2_1*wb2_1", order=P.order)
    assert sq in set(reduced.equalities)
    P2 = prolong_constraints(P)
    ext2 = extend_probe(P2, ext)
    reduced2, dropped2 = reduce_redundant(linearize(P2, ext2))
    mixed_row = cx("w1_2*wb1_1 - w2_2*wb2_1", order=P2.order)
    assert mixed_row in set(dropped2)


def test_definiteness_and_redundancy_each_run_one_echelon(monkeypatch):
    # both read their answer off at most one linalg._echelon, patched where
    # each module imports it
    from diskeds import linalg, torsion
    calls = []

    def counting(rows, ncols):
        calls.append(ncols)
        return linalg._echelon(rows, ncols)

    monkeypatch.setattr(torsion, "_echelon", counting)
    monkeypatch.setattr(jets, "_echelon", counting)
    # a diagonal of one sign leaves the answer to the elimination
    form = [[Fraction(1), Fraction(2)], [Fraction(2), Fraction(1)]]
    assert torsion.form_definiteness(form) == "not_definite"
    assert len(calls) == 1
    # a mixed or zero diagonal decides before it
    for diagonal in ((2, 2, -2), (1, 0, 1)):
        calls.clear()
        form = [[Fraction(diagonal[0]), Fraction(1), Fraction(0)],
                [Fraction(1), Fraction(diagonal[1]), Fraction(1)],
                [Fraction(0), Fraction(1), Fraction(diagonal[2])]]
        assert torsion.form_definiteness(form) == "not_definite"
        assert calls == []
    system, probes = _stratum("hyperquadric", "nonzero_velocity")
    P = prolong_constraints(system)
    calls.clear()
    reduce_redundant(linearize(P, extend_probe(P, probes["Q0"])))
    assert len(calls) == 1


def _random_stratum(rng):
    """A random n = 2 system of order 2, some rows linear in the top jets
    (w_1, wb_1), some nonlinear, some free of them, some sums of others,
    and a probe with zero top jets."""
    table = jet_table(2, 2)
    low, top = table[:-4], table[-4:]
    unit = lambda name: var(table, name)
    coeff = lambda: gaussian(rng.randint(-2, 2), rng.randint(-1, 1))

    def row():
        p = Polynomial.const(table, coeff())
        for _ in range(rng.randint(1, 3)):
            m = unit(rng.choice(top))
            if rng.random() < 0.4:
                m = m * unit(rng.choice(low))
            if rng.random() < 0.1:
                m = m * unit(rng.choice(top))
            p = p + m * coeff()
        return p

    eqs = [row() for _ in range(rng.randint(1, 4))]
    eqs += [unit(rng.choice(low)) * coeff() + coeff() for _ in range(rng.randint(0, 2))]
    eqs += [eqs[rng.randrange(len(eqs))] * coeff() + eqs[rng.randrange(len(eqs))]
            for _ in range(rng.randint(0, 3))]
    small = lambda: gaussian(rng.randint(-2, 2), rng.randint(-2, 2))
    probe = probe_from_values(2, 2, [small(), small()],
                              [[small(), small()], [0, 0]])
    return make_system(2, eqs, order=2), probe


@given(st.integers(0, 2 ** 32))
@settings(derandomize=True, database=None, max_examples=60, deadline=None)
def test_reduce_redundant_matches_reverse_deletion(seed):
    # one forward elimination keeps what per-candidate reverse deletion keeps
    system, probe = _random_stratum(random.Random(seed))
    lin = linearize(system, probe)
    reduced, dropped = reduce_redundant(lin)
    retained, want_dropped = reduce_redundant_by_span(lin)
    assert reduced.equalities == retained
    assert dropped == want_dropped


@given(st.integers(0, 2 ** 32), st.booleans(), st.booleans())
@settings(derandomize=True, database=None, max_examples=80, deadline=None)
def test_linearize_matches_the_two_branch_reference(seed, prolonged, top_zero):
    # one reading path: at zero top jets it gives the constant and linear
    # coefficients of each frozen equality, elsewhere the sums at the top
    # jets, with the reference's canonical types
    rng = random.Random(seed)
    system, probe = _random_stratum(rng)
    if prolonged:
        system = prolong_constraints(system)
        probe = extend_probe(system, probe)
    if not top_zero:
        top = [gaussian(rng.randint(-2, 2), rng.randint(-2, 2)) for _ in range(2)]
        top[rng.randrange(2)] = gaussian(rng.choice((-1, 1, 2)), rng.randint(-2, 2))
        # the top jets, one of them nonzero, and their conjugates
        probe = probe[:-4] + probe_from_values(2, 1, top, [])[:4]
    lin = linearize(system, probe)
    want = linearize_two_branch(system, probe)
    assert (lin.values, lin.gradients, lin.nonlinear, lin.uses_top, lin.mixed) == want
    types = lambda values, gradients: [type(x) for x in values + sum(gradients, ())]
    assert types(lin.values, lin.gradients) == types(*want[:2])


@given(st.integers(0, 2 ** 32), st.booleans())
@settings(derandomize=True, database=None, max_examples=60, deadline=None)
def test_rows_and_derivations_match_term_by_term_evaluation(seed, prolonged):
    # at n = 2..4 and Gaussian probes with zero and non-integral coordinates,
    # linearize's rows are the term-by-term value, top-jet gradient and
    # flags, and D_t, D_tb at the probe follow the product rule
    rng = random.Random(seed)
    n, order = rng.randint(2, 4), rng.randint(1, 2)
    table = jet_table(n, order)
    part = lambda: rng.choice((0, rng.randint(-3, 3),
                               Fraction(rng.randint(-5, 5), rng.randint(2, 7))))
    coeff = lambda: gaussian(part(), part()) or gaussian(1, rng.choice((0, 1)))

    def poly(slots):
        terms = {}
        for _ in range(rng.randint(1, 5)):
            exps = [0] * len(table)
            for i in rng.sample(range(slots), min(slots, rng.randint(0, 3))):
                exps[i] += rng.randint(1, 2)
            terms[tuple(exps)] = coeff()
        return Polynomial(table, terms)

    system = make_system(n, [poly(len(table)) for _ in range(rng.randint(1, 3))],
                         order=order)
    probe = probe_from_values(n, order, [gaussian(part(), part()) for _ in range(n)],
                              [[gaussian(part(), part()) for _ in range(n)]
                               for _ in range(order)])
    if prolonged:
        system = prolong_constraints(system)
        probe = extend_probe(system, probe) if rng.random() < 0.5 else (
            probe + probe_from_values(n, 1, [gaussian(part(), part()) for _ in range(n)],
                                      [])[:2 * n])
    rows = linearize(system, probe).rows
    want = rows_term_by_term(system, probe)
    assert rows == want
    types = lambda rows: [type(x) for row in rows for x in (row[0],) + row[1]]
    assert types(rows) == types(want)
    # D_t and D_tb on generators below the top order, at the probe
    p = poly(len(table) - 2 * n)
    if prolonged:
        p = prolong_constraints(make_system(n, [p], order=order)).equalities[0]
    for barred, derive in ((False, d_t), (True, d_tbar)):
        assert derive(p).evaluate(probe) == derivation_at(p, probe, barred)


@given(jet_polys())
@settings(derandomize=True, database=None, max_examples=150, deadline=None)
def test_conjugation_on_the_layout_matches_the_name_based_reference(p):
    # the partner i + n or i - n on the table layout is the variable whose
    # name swaps z <-> zb and w <-> wb; conjugating twice is the identity
    q = conjugate_involution(p)
    assert q == conjugate_by_name(p)
    assert conjugate_involution(q) == p


def test_prolongation_looks_up_no_variable(monkeypatch):
    # D_t and D_tb shift exponents and widening to the next order appends
    # zeros, so prolonging builds no variable table's unit exponents
    calls = []

    def counting(name, real):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)
        return wrapper

    systems = [system for name in sorted(BUILTIN_PROBLEMS)
               for system, _ in build_problem(load_problem(name), name).strata.values()]
    monkeypatch.setattr(expr, "unit_exponents", counting("units", expr.unit_exponents))
    for system in systems:
        prolong_constraints(prolong_constraints(system))
    assert len(systems) == 4 and calls == []


def _random_closed_system(rng):
    """A random system over jet_table(n, q), n = 1..3 and q = 1..2, closed by
    make_system: Gaussian coefficients, bare variables, a conjugate given
    twice and a self-conjugate row, and a probe of the system's table."""
    n, q = rng.randint(1, 3), rng.randint(1, 2)
    table = jet_table(n, q)
    coeff = lambda: gaussian(rng.randint(-2, 2), rng.randint(-2, 2))

    def row():
        p = Polynomial.const(table, coeff())
        for _ in range(rng.randint(1, 3)):
            exps = [0] * len(table)
            for _ in range(rng.randint(1, 2)):
                exps[rng.randrange(len(table))] += 1
            p = p + Polynomial(table, {tuple(exps): coeff()})
        return p

    eqs = [row() for _ in range(rng.randint(1, 3))]
    eqs += [var(table, rng.choice(table)) for _ in range(rng.randint(0, 2))]
    if rng.random() < 0.5:
        eqs.append(conjugate_involution(eqs[0]).scale(coeff() or 1))
    if rng.random() < 0.5:
        eqs.append(eqs[-1] + conjugate_involution(eqs[-1]))
    probe = probe_from_values(n, q, [coeff() for _ in range(n)],
                              [[coeff() for _ in range(n)] for _ in range(q)])
    return make_system(n, eqs, order=q), probe


def _assert_closed(system):
    eqs = system.equalities
    assert {jets._monic(conjugate_involution(eq)) for eq in eqs} <= set(eqs)
    assert jets._close(eqs) == eqs


def _prolong_like_the_reference(system):
    _assert_closed(system)
    prolonged = prolong_constraints(system)
    assert prolonged.equalities == prolong_by_conjugation(system)
    _assert_closed(prolonged)
    return prolonged


def _substitute_like_the_reference(lin):
    reduced, dropped = reduce_redundant(lin)
    out = substitute_vanishing(reduced, dropped)
    assert out.equalities == substitute_vanishing_by_conjugation(reduced.equalities)
    _assert_closed(out)
    return out


@given(st.integers(0, 2 ** 32))
@settings(derandomize=True, database=None, max_examples=80, deadline=None)
def test_prolongation_closing_the_derived_equalities_matches_closing_every_one(seed):
    # closing only D_t g, D_tb g and D_t D_tb g gives the order conjugating
    # every prolonged equality gives, and so does the re-closure after a
    # redundancy reduction
    system, probe = _random_closed_system(random.Random(seed))
    prolonged = _prolong_like_the_reference(system)
    _substitute_like_the_reference(linearize(prolonged, extend_probe(prolonged, probe)))


def _cut(system, dropped):
    """(reduced system, cut): ``system`` without the equalities at the
    indices ``dropped``, in descending order, as jets.reduce_redundant
    leaves it, then the dropped ones."""
    eqs = system.equalities
    return (system._replace(equalities=tuple(p for j, p in enumerate(eqs)
                                             if j not in dropped)),
            [eqs[j] for j in dropped])


def _random_chain_system(rng):
    """A closed system over jet_table(n, q), n = 2..4 and q = 1..2, with
    Gaussian coefficients: c v0 = 0, mostly, then c' v1 + v0 u = 0, bare
    once v0 is zero, and so on along a chain of generators, and rows that
    name the chain next to other generators and a constant."""
    n, q = rng.randint(2, 4), rng.randint(1, 2)
    table = jet_table(n, q)
    part = lambda: rng.choice((0, 1, -1, 2, Fraction(1, 2), Fraction(-3, 2)))
    coeff = lambda: gaussian(part(), part()) or gaussian(1, rng.choice((0, 1, -1)))
    anywhere = lambda: rng.randrange(len(table))
    chain = rng.sample(range(len(table)), rng.randint(1, 4))

    def monomial(*slots):
        exps = [0] * len(table)
        for i in slots:
            exps[i] += 1
        return tuple(exps)

    eqs = [Polynomial(table, {monomial(chain[0]): coeff()})] if rng.random() < 0.8 else []
    for before, v in zip(chain, chain[1:]):
        eqs.append(Polynomial(table, {monomial(v): coeff(),
                                      monomial(before, anywhere()): coeff()}))
    for _ in range(rng.randint(1, 3)):
        eqs.append(Polynomial(table, {monomial(rng.choice(chain), anywhere()): coeff(),
                                      monomial(anywhere()): coeff(), monomial(): coeff()}))
    return make_system(n, eqs, order=q)


def _canonical(p):
    """``p`` is what checking its own terms gives: the same table, terms and
    coefficient types, no zero coefficient and tuples throughout."""
    want = Polynomial(p.vars, p.terms)
    return (type(p.vars) is tuple and all(type(e) is tuple for e in p.terms)
            and p == want and list(map(type, p.terms.values()))
            == list(map(type, want.terms.values())))


def _recording_canonical(mp, built):
    """Make Polynomial.canonical append each polynomial it builds to ``built``."""
    original = Polynomial.canonical.__func__
    mp.setattr(Polynomial, "canonical", classmethod(
        lambda cls, variables, terms: built.append(original(cls, variables, terms))
        or built[-1]))


@given(st.integers(0, 2 ** 32), st.booleans(), st.booleans())
@settings(derandomize=True, database=None, max_examples=120, deadline=None)
def test_substitution_matches_the_full_passes(seed, prolonged, cut):
    # rebuilding only what names a newly zeroed generator gives what
    # rebuilding every equality on every pass gives; a
    # system nothing changes in comes back itself, and every polynomial the
    # layout builds unchecked is canonical
    rng = random.Random(seed)
    built = []
    with pytest.MonkeyPatch.context() as mp:
        _recording_canonical(mp, built)
        system = _random_chain_system(rng)
        if prolonged:
            system = prolong_constraints(system)
        count = len(system.equalities)
        dropped = sorted(rng.sample(range(count), rng.randint(1, min(3, count))),
                         reverse=True) if cut else []
        reduced, gone = _cut(system, dropped)
        got = substitute_vanishing(reduced, gone)
    want = substitute_vanishing_by_full_passes(reduced)
    assert got == want
    if not gone and want.equalities == reduced.equalities:
        assert got is reduced
    assert built and all(map(_canonical, built))


def test_substitution_follows_a_chain_of_bare_equalities():
    # w1 = 0 makes w2 + z1*w1 bare, and w2 = 0 then leaves z2 + 1 of the
    # third; the second and third passes rebuild only what they touch
    table = jet_table(2, 1)
    eq = lambda text: parse_expression(text, table, complexified=True)
    system = make_system(2, [eq("w1"), eq("w2 + z1*w1"), eq("2*z2 + zb1*w2 + 2")])
    got = substitute_vanishing(system)
    assert got == substitute_vanishing_by_full_passes(system)
    assert set(got.equalities) == set(map(eq, ("w1", "wb1", "w2", "wb2", "z2 + 1", "zb2 + 1")))
    assert substitute_vanishing(got) is got


@given(st.integers(0, 2 ** 32), st.booleans())
@settings(derandomize=True, database=None, max_examples=150, deadline=None)
def test_the_layout_builds_canonical_polynomials(seed, barred):
    # D_t, D_tb, conjugation and widening build what checking their terms
    # builds: a z_l w_m + b z_m w_l (or its barred twin) meets itself in
    # w_l w_m under the derivation, and with units and 1 +- i for a and b
    # the sum is often real or 0
    rng = random.Random(seed)
    n = rng.randint(2, 3)
    table = jet_table(n, 1)
    coeff = lambda: rng.choice((1, -1, I_UNIT, -I_UNIT, gaussian(1, 1), gaussian(1, -1)))
    l, m = rng.sample(range(n), 2)
    shift = n if barred else 0      # the barred block follows the plain one

    def monomial(*slots):
        exps = [0] * len(table)
        for i in slots:
            exps[i] += 1
        return tuple(exps)

    terms = {monomial(l + shift, 2 * n + m + shift): coeff(),
             monomial(m + shift, 2 * n + l + shift): coeff()}
    for _ in range(rng.randint(0, 3)):
        terms[monomial(*rng.choices(range(len(table)), k=rng.randint(1, 2)))] = coeff()
    p = Polynomial(table, terms)
    built = []
    with pytest.MonkeyPatch.context() as mp:
        _recording_canonical(mp, built)
        widened = jets._widen(p, jet_table(n, 2))
        (d_tbar if barred else d_t)(widened)
        conjugate_involution(widened)
    assert len(built) == 3 and all(map(_canonical, built))
    assert jets._widen(p, p.vars) is p


def _same_rows(got, want):
    """Two linearizations agree field by field, in value and in type."""
    fields = lambda lin: (lin.values, lin.gradients, lin.nonlinear, lin.uses_top, lin.mixes)
    types = lambda lin: [type(x) for x in lin.values + sum(lin.gradients, ())
                         + lin.nonlinear + lin.uses_top + lin.mixes]
    assert fields(got) == fields(want) and types(got) == types(want)
    assert got.mixed == want.mixed


def _with_top(system, probe, values):
    """``probe`` with the top jets of ``system``'s table set to ``values``
    (n of them) and their conjugates."""
    return probe[:-2 * system.n] + probe_from_values(system.n, 1, values, [])[:2 * system.n]


@given(st.integers(0, 2 ** 32), st.booleans(), st.booleans())
@settings(derandomize=True, database=None, max_examples=60, deadline=None)
def test_rows_read_before_equal_rows_frozen_again(seed, prolonged, top_zero):
    # each source of reused rows gives what freezing every equality gives:
    # the round's own values for the carried equalities at the zero
    # extension, the zero extension's rows free of top jets at a nonzero
    # extension, and the extension's rows for the equalities a
    # substitution left alone
    rng = random.Random(seed)
    coeff = lambda: gaussian(rng.randint(-2, 2), rng.randint(-2, 2))
    system, probe = _random_closed_system(rng)
    if prolonged:
        system = prolong_constraints(system)
        probe = extend_probe(system, probe)
    if top_zero:
        probe = _with_top(system, probe, [0] * system.n)
    lin = linearize(system, probe)
    _, zero, _, _ = torsion_at_probe(lin)
    _same_rows(zero, linearize(zero.system, zero.probe))
    P = zero.system
    ext = _with_top(P, zero.probe, [coeff() for _ in range(P.n)])
    _same_rows(linearize(P, ext, [None if row[3] else row for row in zero.rows]),
               linearize(P, ext))
    reduced = substitute_vanishing(*reduce_redundant(zero))
    known = dict(zip(P.equalities, linearize(P, ext).rows))
    _same_rows(linearize(reduced, ext, [known.get(p) for p in reduced.equalities]),
               linearize(reduced, ext))


def test_every_reused_row_on_the_builtin_strata_equals_a_fresh_freeze():
    # the rounds of every loop on the builtins and on the extension
    # document: the zero extension, an extension solved for nonzero top
    # jets and the reduced system carried into the next round
    path = Path(__file__).resolve().parent / "golden" / "docs" / "n2_extension.json"
    problems = [build_problem(load_problem(name), name) for name in sorted(BUILTIN_PROBLEMS)]
    checked = set()
    for lp in problems + [build_problem(load_problem(str(path)))]:
        for system, probes in lp.strata.values():
            for probe in probes.values():
                lin = linearize(system, probe)
                for _ in range(3):
                    _, zero, extension, _ = torsion_at_probe(lin)
                    for got in (zero, extension):
                        if got is not None:
                            _same_rows(got, linearize(got.system, got.probe))
                    if extension is not None and extension is not zero:
                        checked.add("extension")
                    if not lin.satisfied(strict=False) or extension is None:
                        break
                    lin = stratum_analyze(lin).next
                    if lin is None:
                        break
                    checked.add("next")
                    _same_rows(lin, linearize(lin.system, lin.probe))
    assert checked == {"extension", "next"}


@pytest.mark.parametrize("argv, monomials", [
    (["jets", "hyperquadric"], 80), (["all", "cusp"], 116), (["jets", "cusp"], 80),
])
def test_each_equality_is_frozen_once_per_probe(argv, monomials, monkeypatch, capsys):
    # the monomials frozen over a whole command; freezing every equality of
    # every linearization froze 224, 194 and 130
    frozen = []
    _counting_freezes(monkeypatch, frozen)
    assert main(argv) == 0
    assert sum(len(p.terms) for p, _ in frozen) == monomials
    assert len(set(frozen)) == len(frozen)


def test_prolongation_matches_closing_by_conjugation_on_builtin_strata():
    # three rounds of prolongation, reduction and substitution per probe
    for name in sorted(BUILTIN_PROBLEMS):
        for initial, probes in build_problem(load_problem(name), name).strata.values():
            for probe in probes.values():
                system = initial
                for _ in range(3):
                    prolonged = _prolong_like_the_reference(system)
                    probe = extend_probe(prolonged, probe)
                    system = _substitute_like_the_reference(linearize(prolonged, probe))


def test_prolongation_conjugates_none_of_the_carried_equalities(monkeypatch):
    # a closed system's equalities are closed already: prolonging conjugates
    # only derived equalities, each at most once and none that was carried
    systems = [system for name in sorted(BUILTIN_PROBLEMS)
               for system, _ in build_problem(load_problem(name), name).strata.values()]
    calls = []

    def counting(p, original=jets.conjugate_involution):
        calls.append(p)
        return original(p)

    monkeypatch.setattr(jets, "conjugate_involution", counting)
    for system in systems:
        for _ in range(2):
            calls.clear()
            prolonged = prolong_constraints(system)
            carried = prolonged.equalities[:len(system.equalities)]
            assert calls and len(set(calls)) == len(calls)
            assert len(calls) <= 3 * len(system.equalities)
            assert not set(calls) & set(carried)
            assert set(calls) <= set(prolonged.equalities[len(carried):])
            system = prolonged
    assert len(systems) == 4


SHARED_WORK = ("prolong_constraints", "substitute_vanishing", "_velocities_pinned")


def _counting_shared_work(monkeypatch):
    """Make each function the command memo shares append its arguments to a
    list; returns the lists by function name."""
    work = {name: [] for name in SHARED_WORK}
    for name, calls in work.items():
        monkeypatch.setattr(jets, name, lambda *args, f=getattr(jets, name), calls=calls:
                            calls.append(args) or f(*args))
    return work


@pytest.mark.parametrize("argv", (["jets", "hyperquadric"], ["all", "cusp"]))
def test_jets_prolongs_each_system_once_per_command(monkeypatch, capsys, argv):
    # the probes of one command share each system's prolongation, each
    # substitution of a reduced system and each velocity check
    work = _counting_shared_work(monkeypatch)
    assert main(argv) == 0
    for name, calls in work.items():
        assert calls and len(set(calls)) == len(calls), name
    if argv[1] != "hyperquadric":
        return
    system, probes = _stratum("hyperquadric", "nonzero_velocity")
    assert work["prolong_constraints"].count((system,)) == 1
    # the two probes meet the same systems: without a memo, each does it all
    shared = {name: len(calls) for name, calls in work.items()}
    for calls in work.values():
        calls.clear()
    for probe in probes.values():
        involution_loop(system, probe)
    assert len(probes) == 2
    assert {name: len(calls) for name, calls in work.items()} == {
        name: 2 * count for name, count in shared.items()}


@pytest.mark.parametrize("argv", (["jets", "hyperquadric"], ["all", "cusp"]))
def test_no_prolongation_outlives_a_command(monkeypatch, capsys, argv):
    # the memo belongs to one command: a second run in the same process
    # derives, substitutes and checks as much as the first
    counts = []
    for _ in range(2):
        calls = []
        for name in ("d_t", "d_tbar"):
            monkeypatch.setattr(jets, name, lambda p, f=getattr(jets, name):
                                calls.append(p) or f(p))
        work = _counting_shared_work(monkeypatch)
        assert main(argv) == 0
        monkeypatch.undo()
        counts.append([len(calls)] + [len(work[name]) for name in SHARED_WORK])
    assert counts[0] == counts[1] and all(counts[0])


def test_stratum_dims_fixtures():
    system, probes = _stratum("hyperquadric", "nonzero_velocity")
    rep = stratum_analyze(linearize(system, probes["Q0"]))
    assert rep.tableau_dim == 3 and not rep.complex_split
    assert rep.torsion_free
    assert rep.next_dim == 2
    assert rep.verdict == "continue"

    system, probes = _stratum("cusp", "generic")
    rep_gen = stratum_analyze(linearize(system, probes["P_generic"]))
    assert rep_gen.tableau_dim == 1 and rep_gen.complex_split
    assert rep_gen.torsion_free and rep_gen.verdict == "involutive_at_order_q"
    rep_org = stratum_analyze(linearize(system, probes["P_origin"]))
    assert rep_org.tableau_dim == 2
    assert not rep_org.torsion_free


def _counting_freezes(monkeypatch, frozen, systems=None):
    """Make jets.linearize append to ``frozen`` an (equality, probe) pair
    for each equality a call freezes, that is, each one it is given no row
    for, and to ``systems`` each system."""
    original = jets.linearize

    def counting(system, probe, rows=None):
        if systems is not None:
            systems.append(system)
        frozen.extend((p, tuple(map(str, probe))) for k, p in enumerate(system.equalities)
                      if not rows or rows[k] is None)
        return original(system, probe, rows)

    monkeypatch.setattr(jets, "linearize", counting)


def test_stratum_step_freezes_each_prolonged_equality_at_most_twice(monkeypatch):
    # the torsion test and the redundancy reduction share one linearization
    # of the prolonged system, and the next tableau reads the reduced
    # system's; a step freezes at most twice as many equalities as the
    # prolonged system has.  Carried equalities take their rows from the
    # round's own linearization and unchanged ones from the extension's,
    # so on these strata it freezes no more than the prolonged system has
    for name, sname, pname in [("hyperquadric", "nonzero_velocity", "Q0"),
                               ("cusp", "generic", "P_generic"),
                               ("cusp", "vertex", "R0")]:
        system, probes = _stratum(name, sname)
        lin = linearize(system, probes[pname])
        frozen, systems = [], []
        _counting_freezes(monkeypatch, frozen, systems)
        stratum_analyze(lin)
        monkeypatch.undo()
        prolonged = prolong_constraints(system)
        assert prolonged in systems
        assert len(frozen) <= 2 * len(prolonged.equalities)
        assert len(frozen) <= len(prolonged.equalities)
        # no equality of the round's own system is frozen again
        assert not {p for p, _ in frozen} & set(prolonged.equalities[:len(system.equalities)])


def test_involution_loop_reads_each_system_probe_pair_once(monkeypatch):
    # one linearization and one tableau per (system, probe) over a whole
    # loop, the reduced system's tableau carried into the next round, and
    # each equality frozen once per probe; D_tb derives the barred
    # generators directly, with no conjugation
    linearized, tableaux, in_dtbar, conjugated, dtbar_calls = [], [], [], [], []
    frozen = []

    def key(system, probe):
        return system, tuple(map(str, probe))

    def counting_linearize(system, probe, rows=None, original=jets.linearize):
        linearized.append(key(system, probe))
        frozen.extend((p, key(system, probe)[1]) for k, p in enumerate(system.equalities)
                      if not rows or rows[k] is None)
        return original(system, probe, rows)

    def counting_tableau(lin, original=jets.tableau_at_probe):
        tableaux.append(key(lin.system, lin.probe))
        return original(lin)

    def tracking_dtbar(p, original=jets.d_tbar):
        dtbar_calls.append(p)
        in_dtbar.append(p)
        try:
            return original(p)
        finally:
            in_dtbar.pop()

    def counting_conjugation(p, original=jets.conjugate_involution):
        if in_dtbar:
            conjugated.append(p)
        return original(p)

    monkeypatch.setattr(jets, "d_tbar", tracking_dtbar)
    monkeypatch.setattr(jets, "conjugate_involution", counting_conjugation)
    monkeypatch.setattr(jets, "linearize", counting_linearize)
    monkeypatch.setattr(jets, "tableau_at_probe", counting_tableau)
    for name, sname in [("hyperquadric", "nonzero_velocity"), ("cusp", "generic"),
                        ("cusp", "vertex"), ("flat", "base")]:
        system, probes = _stratum(name, sname)
        for probe in probes.values():
            linearized.clear()
            tableaux.clear()
            frozen.clear()
            chain = involution_loop(system, probe, max_rounds=5)
            assert len(set(linearized)) == len(linearized)
            assert len(set(frozen)) == len(frozen)
            assert len(frozen) < sum(len(s.equalities) for s, _ in linearized)
            assert len(set(tableaux)) == len(tableaux)
            # each round reads its base tableau; a settled round the next one
            assert len(tableaux) >= chain.rounds
    assert dtbar_calls and not conjugated


def test_tableau_dim_bounded_by_2n_minus_2():
    for name, sname in [("hyperquadric", "nonzero_velocity"),
                        ("cusp", "generic"), ("cusp", "vertex"),
                        ("flat", "base")]:
        system, probes = _stratum(name, sname)
        for probe in probes.values():
            rep = stratum_analyze(linearize(system, probe))
            assert rep.tableau_dim <= 2 * system.n - 2


def test_involution_loop_hyperquadric_chain():
    system, probes = _stratum("hyperquadric", "nonzero_velocity")
    chain = involution_loop(system, probes["Q0"], max_rounds=3)
    assert chain.dims == (3, 2, 2)
    assert chain.verdict == "involutive"
    assert all(r.torsion_free for r in chain.reports)
    assert all(b <= a for a, b in zip(chain.dims, chain.dims[1:]))


def test_involution_loop_flat():
    system, probes = _stratum("flat", "base")
    chain = involution_loop(system, probes["Q0"])
    assert chain.verdict == "involutive"
    assert chain.dims == (2, 2)
    assert chain.rounds == 1


def test_involution_loop_cusp_vertex_collapse():
    system, probes = _stratum("cusp", "vertex")
    chain = involution_loop(system, probes["R0"], max_rounds=4)
    assert chain.verdict == "involutive"
    assert chain.reports[-1].trivial_velocities
    final = chain.reports[-1].next.system
    low = sorted(print_polynomial(p) for p in final.equalities
                 if all(var_jet_order(v) <= 1 for v in used_variables(p)))
    assert low == ["w1", "w2", "w3", "wb1", "wb2", "wb3",
                   "z1", "z2", "z3 + zb3", "zb1", "zb2"]


def test_probe_validation():
    system, probes = _stratum("hyperquadric", "nonzero_velocity")
    bad = probe_from_values(3, 1, [1, 1, 1], [[1, 1, 0]])  # rho != 0
    with pytest.raises(ProbeViolatesStratum):
        stratum_analyze(linearize(system, bad))
    # opening violation: w = 0
    zero_w = probe_from_values(3, 1, [1, 1, 0], [[0, 0, 0]])
    with pytest.raises(ProbeViolatesStratum):
        stratum_analyze(linearize(system, zero_w))


def test_linearize_rejects_a_probe_over_another_table():
    # a probe is a tuple over the system's jet table, so its length is the
    # table's
    system, probes = _stratum("hyperquadric", "nonzero_velocity")
    with pytest.raises(DimensionMismatch):
        linearize(system, probes["Q0"][:-1])
    with pytest.raises(DimensionMismatch):
        linearize(prolong_constraints(system), probes["Q0"])


def test_substitute_vanishing_collapses():
    n = 3
    table = jet_table(n, 1)
    rho = cx("1/2*z3 + 1/2*zb3 + (z1^2 - z2^3)*(zb1^2 - zb2^3)", order=1)
    sys0 = make_system(n, [rho, cx("z1", order=1), cx("z2", order=1)])
    out = substitute_vanishing(sys0)
    texts = {print_polynomial(p) for p in out.equalities}
    assert "z3 + zb3" in texts  # rho collapsed to the linear part (monic)


def test_levi_form_fixtures():
    J = complex_standard(3, V6)
    flat = parse_expression("f5", V6)
    for p in [(1, 0, 0, 0, 0, 0), (0, 1, 2, 3, 4, 5)]:
        v, warn = levi_form(flat, J, (0,) * 6, p)
        assert v == 0 and warn == ()
    hyper = parse_expression("2*f5 + f1^2 + f2^2 - f3^2 - f4^2", V6)
    v, _ = levi_form(hyper, J, (1, 0, 1, 0, 0, 0), (1, 0, 1, 0, 0, 0))
    assert v == 0
    ball = parse_expression("2*f5 + f1^2 + f2^2 + f3^2 + f4^2", V6)
    v, _ = levi_form(ball, J, (0,) * 6, (1, 0, 0, 0, 0, 0))
    assert v == 4


def test_levi_form_constant_J_is_hessian_trace():
    # with constant J the DJ terms vanish: value = D2r(p,p) + D2r(Jp,Jp)
    rng = random.Random(50)
    J = complex_standard(3, V6)
    from oracles import random_polynomial
    rho = random_polynomial(rng, V6, 3, 8)
    f0 = tuple(Fraction(rng.randint(-2, 2)) for _ in range(6))
    Jm = [[e.evaluate(f0) for e in row] for row in J.numerators]
    hess = [[differentiate(differentiate(rho, a), b).evaluate(f0)
             for b in V6] for a in V6]
    for _ in range(5):
        p = [Fraction(rng.randint(-3, 3)) for _ in range(6)]
        Jp = [sum(Jm[r][s] * p[s] for s in range(6)) for r in range(6)]
        expect = (sum(hess[i][j] * p[i] * p[j] for i in range(6) for j in range(6))
                  + sum(hess[i][j] * Jp[i] * Jp[j] for i in range(6) for j in range(6)))
        got, _ = levi_form(rho, J, f0, p)
        assert got == expect


def test_levi_form_vanishes_on_t8_jets():
    # |w1| = |w2| in real coordinates: Levi = 4(|w1|^2 - |w2|^2) for the
    # hyperquadric, so it vanishes exactly on the stratum jets
    hyper = parse_expression("2*f5 + f1^2 + f2^2 - f3^2 - f4^2", V6)
    J = complex_standard(3, V6)
    rng = random.Random(51)
    for _ in range(10):
        p = [Fraction(rng.randint(-3, 3)) for _ in range(6)]
        v, _ = levi_form(hyper, J, (1, 0, 1, 0, 0, 0), p)
        w1sq = p[0] ** 2 + p[1] ** 2
        w2sq = p[2] ** 2 + p[3] ** 2
        assert v == 4 * (w1sq - w2sq)


def test_nonconstant_J_levi_form_terms():
    # J with polynomial entries and J^2 = -I at the point: DJ terms enter;
    # a wrong J produces the warning
    from diskeds.geometry import structure_from_entries
    from diskeds.expr import Polynomial
    one = Polynomial.const(V6, 1)
    f1 = var(V6, "f1")
    rows = [[one * 0 for _ in range(6)] for _ in range(6)]
    for i in range(3):
        rows[2 * i][2 * i + 1] = -one - f1 * f1 if i == 0 else -one
        rows[2 * i + 1][2 * i] = one
    J = structure_from_entries(3, rows)
    rho = parse_expression("2*f5 + f1^2*f3 + f2^2", V6)
    v, warn = levi_form(rho, J, (0, 0, 1, 0, 0, 0), (1, 1, 0, 0, 0, 0))
    assert warn == ()  # J^2 = -I holds at f1 = 0
    v2, warn2 = levi_form(rho, J, (1, 0, 1, 0, 0, 0), (1, 0, 0, 0, 0, 0))
    assert warn2  # J^2 != -I away from f1 = 0


def test_complexify_realify_roundtrip():
    hyper = parse_expression("2*f5 + f1^2 + f2^2 - f3^2 - f4^2", V6)
    cxp = complexify(hyper)
    assert print_polynomial(cxp) == "z1*zb1 - z2*zb2 + z3 + zb3"
    assert realify(cxp, V6) == hyper


def test_jet_to_probe_matches_stratum():
    lp = build_problem(load_problem("hyperquadric"), "hyperquadric")
    system, probes = lp.strata["nonzero_velocity"]
    jet = lp.jets["J0"]
    probe = jet_to_probe(lp.problem, jet)
    assert linearize(system, probe).satisfied(strict=False)
    assert probe == probes["Q0"]


def test_flat_disk_satisfies_prolonged_system():
    lp = build_problem(load_problem("flat"), "flat")
    system, _ = lp.strata["base"]
    S = system
    for _ in range(3):
        S = prolong_constraints(S)
    t = var(("t",), "t")
    comps = [t, Polynomial.zero(("t",)), Polynomial.zero(("t",))]
    for t0 in (Fraction(0), Fraction(1, 2), Fraction(-2, 3)):
        assert linearize(S, curve_probe(3, S.order, comps, t0)).satisfied(
            strict=False)


def test_cusp_escape_curve_on_t6_closure():
    # t -> (t^3, t^2, i a) lies in the cusp hypersurface; it satisfies the
    # prolonged equalities even at the closure point the loop flags
    lp = build_problem(load_problem("cusp"), "cusp")
    system, _ = lp.strata["generic"]
    P = prolong_constraints(system)
    t = var(("t",), "t")
    comps = [t ** 3, t ** 2, Polynomial.const(("t",), gaussian(0, 1))]
    for t0 in (Fraction(1, 3), Fraction(-1, 2)):
        assert linearize(P, curve_probe(3, P.order, comps, t0)).satisfied(
            strict=False)


def test_involution_loop_rounds_exhausted_is_a_value():
    system, probes = _stratum("hyperquadric", "nonzero_velocity")
    chain = involution_loop(system, probes["Q0"], max_rounds=1)
    assert chain.verdict == "rounds_exhausted"
    assert chain.rounds == 1 and chain.dims == (3,)


def test_hyperquadric_second_probe_same_chain():
    system, probes = _stratum("hyperquadric", "nonzero_velocity")
    chain = involution_loop(system, probes["Q1"], max_rounds=3)
    assert chain.dims == (3, 2, 2)
    assert chain.verdict == "involutive"


def test_small_dimension_flat_model():
    # n = 2 hyperplane Re z2 = 0: one linear velocity constraint
    n = 2
    table = jet_table(n, 1)
    rho = parse_expression("1/2*z2 + 1/2*zb2", table, complexified=True)
    w2 = parse_expression("w2", table, complexified=True)
    system = make_system(n, [rho, w2])
    probe = probe_from_values(n, 1, [1, 0], [[1, 0]])
    rep = stratum_analyze(linearize(system, probe))
    assert rep.tableau_dim == 1 and rep.complex_split
    assert rep.torsion_free
    assert rep.verdict == "involutive_at_order_q"


def test_tableaux_of_both_kinds_compare_by_their_real_kernels():
    # wb1 - w1 and wb1 + w1 mix a plain and a barred top jet and leave a
    # real kernel of dimension 2; their prolongation pins w1_1 and wb1_1,
    # an unmixed kernel of complex dimension 1, real dimension 2 again.
    # The round is involutive, though its reported dims read 2 then 1
    n = 2
    table = jet_table(n, 1)
    system = make_system(n, [parse_expression(text, table, complexified=True)
                             for text in ("wb1 - w1", "wb1 + w1")])
    probe = probe_from_values(n, 1, [1, 0], [[0, 1]])
    rep = stratum_analyze(linearize(system, probe))
    assert (rep.tableau_dim, rep.complex_split, rep.next_dim) == (2, False, 1)
    assert rep.torsion_free and rep.warnings == ()
    assert rep.verdict == "involutive_at_order_q"
    chain = involution_loop(system, probe)
    assert (chain.dims, chain.verdict, chain.rounds) == ((2, 1), "involutive", 1)


def _hyperquadric_type_stratum(n):
    """2 Re z_n + sum_k s_k |z_k|^2 with signs + - + ..., its velocity
    equation and its Levi-null condition, probed at z = w = (1, 1, 0, ...)."""
    signs = ["+" if k % 2 else "-" for k in range(1, n)]

    def terms(fmt):
        return "".join(f" {s} {fmt.format(k=k)}" for k, s in enumerate(signs, 1))

    ones = [["1", "0"]] * 2 + [["0", "0"]] * (n - 2)
    return {
        "dimension_2n": 2 * n,
        "strata": {"levi_null": {
            "equalities": [f"z{n} + zb{n}" + terms("z{k}*zb{k}"),
                           f"w{n}" + terms("w{k}*zb{k}"),
                           terms("w{k}*wb{k}").lstrip(" +")],
            "openings": [{"expr": " + ".join(f"w{k}*wb{k}" for k in range(1, n)),
                          "sign": "+"}],
            "probes": {"P": {"z": ones, "w": ones}},
        }},
    }


@pytest.mark.parametrize("n", [4, 5])
def test_jets_hyperquadric_type_above_n3(n, tmp_path, capsys):
    from diskeds import cli
    path = tmp_path / f"hyperquadric{n}.json"
    path.write_text(json.dumps(_hyperquadric_type_stratum(n)))
    assert cli.main(["jets", str(path)]) == 0
    probe = json.loads(capsys.readouterr().out)["results"]["probes"]["P"]
    assert probe["dims"] == [2 * n - 3, 2 * n - 4, 2 * n - 4]
    assert probe["verdict"] == "involutive"


def test_a_probe_extends_by_nonzero_top_jets():
    # w2 = z1 w1 prolongs to w2_1 = w1^2 + z1 w1_1, which the probe
    # extended by zero top jets misses wherever w1 != 0; the exact
    # extension solves for the top jets and sets their conjugates
    path = Path(__file__).resolve().parent / "golden" / "docs" / "n2_extension.json"
    system, probes = build_problem(load_problem(str(path))).strata["extension"]
    for probe in probes.values():
        torsion_free, zero, extension, nonlinear = torsion_at_probe(linearize(system, probe))
        assert torsion_free and nonlinear == 0
        assert not zero.satisfied(strict=False)
        assert extension.satisfied(strict=False)
        top = extension.probe[len(probe):]
        assert any(top) and top[2:] == tuple(scalar_conj(x) for x in top[:2])
