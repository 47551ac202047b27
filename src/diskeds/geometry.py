"""Problem setup and the reduced first-jet relations.

A problem is a polynomial defining function rho on R^{2n}, a 2n x 2n
structure matrix, and a distinguished coordinate pair playing the
elimination roles 1 and 2; with no pair, each builder charts at the
first pair with D != 0 at its point.  That is the one chart decision
(:func:`_chart_order`); the complex closed forms drop any pair to take
it.  Internally coordinates are relabeled so the distinguished pair
sits in positions 1,2; every report carries the permutation back to
user coordinates.

A structure matrix holds polynomial numerators N over one polynomial
denominator q, alpha_{j,i} = N_{j,i} / q: q = 1 for the standard and the
matrix structures, q = 1 + a^2 for a pair structure (so q >= 1 at every
real point).  Only this module builds and reads that format.

The core computation solves the 2x2 linear system obtained by
differentiating rho(f(x)) = 0 along both disk directions:

    gamma^1_j = (-1/D)(rho_j mu_2 - rho_2 mu_j)
    gamma^2_j = (-1/D)(rho_1 mu_j - rho_j mu_1)
    D = rho_1 mu_2 - rho_2 mu_1,   mu_i = sum_j rho_j alpha_{j,i}

and then beta_{i,j} = alpha_{i,1} gamma^1_j + alpha_{i,2} gamma^2_j
+ alpha_{i,j}.  The formulas are written once and evaluated over two
exact scalars: rationals (pointwise mode, feeding rank tests) and exact
first jets (value and derivatives at a point); the test suite's oracles
evaluate them over rational functions as the symbolic reference.  A first
jet's tangent holds the derivatives along chosen directions: the
coordinate axes give the full gradient (the complex closed forms), and
the full first jet's p1 and p2 give the two derivatives that torsion and
the polar maps contract with.  One builder runs both modes: they differ
only in how each input (a first derivative of rho or a structure entry)
becomes a scalar, read once in user coordinates and then re-indexed into
a chart's internal order or projected onto the directions.

D = 0 at the point raises SingularD whether or not D vanishes
identically: telling the two apart would need polynomial products whose
size nothing at the point bounds.  The one polynomial identity test,
A^2 = -I for a pair structure's A, reads A at the unit vectors first:
one e_k with A(e_k)^2 != -I decides, and the products of its nonzero
entries follow only when none does.
"""
from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from functools import cached_property
from itertools import combinations

from .errors import CrossCheckMismatch, DimensionMismatch, SingularD, ZeroB
from .exact import FirstJet, PreparedPoint, _negated, rat, rational_str, sum_of_products
from .expr import Polynomial
from .linalg import dot, dot_plus, row_times_matrix


def default_coordinates(two_n: int):
    return tuple(f"f{i}" for i in range(1, two_n + 1))


# The matrix relating the two disk-direction derivatives, p_2 = A p_1:
# A_{j,i} = numerators[j][i] / denominator, all Polynomials over the
# coordinates (``numerators`` is a 2n x 2n tuple of tuples).
StructureMatrix = namedtuple("StructureMatrix", "n numerators denominator kind warnings",
                             defaults=("general", ()))


def complex_standard(n: int, variables=None) -> StructureMatrix:
    """alpha_{2i-1,2i} = -1, alpha_{2i,2i-1} = 1, zero elsewhere; the
    three distinct entries are built once and shared."""
    variables = tuple(variables) if variables else default_coordinates(2 * n)
    zero, minus_one, one = (Polynomial.const(variables, c) for c in (0, -1, 1))
    rows = [[zero] * (2 * n) for _ in range(2 * n)]
    for i in range(n):
        rows[2 * i][2 * i + 1] = minus_one
        rows[2 * i + 1][2 * i] = one
    return StructureMatrix(n, tuple(tuple(r) for r in rows), one, "complex_standard")


def _square(entries, n, what):
    """``entries`` as a tuple of 2n tuples of 2n entries."""
    entries = tuple(tuple(row) for row in entries)
    if len(entries) != 2 * n or any(len(row) != 2 * n for row in entries):
        raise DimensionMismatch(f"{what} must be {2*n}x{2*n}")
    return entries


def structure_from_entries(n: int, entries) -> StructureMatrix:
    """The structure whose entries are the Polynomials ``entries``."""
    entries = _square(entries, n, "structure matrix")
    return StructureMatrix(n, entries, Polynomial.const(entries[0][0].vars, 1), "general")


def _square_is_minus_identity(rows) -> bool:
    """Whether a matrix squares to -I, row i given by its nonzero entries as
    (k, a_ik) pairs: row i of the square sums a_ik a_kj over those alone,
    and the first row that is not -e_i decides."""
    for i, row in enumerate(rows):
        pairs = {}
        for k, x in row:
            for j, y in rows[k]:
                pairs.setdefault(j, []).append((x, y))
        if i not in pairs or any(sum_of_products(*zip(*terms)) != (-1 if j == i else 0)
                                 for j, terms in pairs.items()):
            return False
    return True


def _squares_to_minus_identity(A_entries) -> bool:
    """Whether A^2 = -I, read first at each unit vector e_k: one
    A(e_k)^2 != -I decides, and the polynomial products are formed only
    when every e_k squares to -I.  Only A's nonzero entries are evaluated
    and multiplied.  A constant A is read at e_1 alone: its value there is A."""
    rows = [[(k, x) for k, x in enumerate(row) if x] for row in A_entries]
    constant = not any(x.degree() for row in rows for _, x in row)
    units = [tuple(int(i == k) for i in range(len(rows)))
             for k in range(1 if constant else len(rows))]
    return (all(_square_is_minus_identity([[(j, v) for j, x in row if (v := x.evaluate(w))]
                                           for row in rows]) for w in units)
            and (constant or _square_is_minus_identity(rows)))


def make_structure_from_pair(a: Polynomial, b: Polynomial, A_entries,
                             n: int) -> StructureMatrix:
    """Almost-holomorphic reduction matrix b*(a*I - A)/(1 + a^2), from
    Polynomials a, b and A.

    A is the caller's candidate almost complex structure; A^2 = -I is
    checked exactly but a violation is only flagged as a warning since the
    general theory admits any matrix.
    """
    if b.is_zero():
        raise ZeroB("b is identically zero")
    A_entries = _square(A_entries, n, "A")
    m = 2 * n
    # a constant b scales each entry, with no polynomial product
    times_b = (lambda p: b * p) if b.degree() else (lambda p: p.scale(b.constant_term()))
    rows = tuple(tuple(times_b(a - A_entries[j][i]) if i == j else times_b(-A_entries[j][i])
                       for i in range(m)) for j in range(m))
    warnings = () if _squares_to_minus_identity(A_entries) else ("NotAlmostComplex",)
    return StructureMatrix(n, rows, a * a + 1, "from_pair", warnings)


def _fractions(xs) -> tuple:
    """``xs`` as a tuple of Fractions, each read by ``rat`` (no floats)."""
    return tuple(x if type(x) is Fraction else rat(x) for x in xs)


# f: base point, user coordinate order; p_reduced: p^3_1..p^{2n}_1 in
# relabeled coordinates
FirstJetPoint = namedtuple("FirstJetPoint", "f p_reduced")


class HypersurfaceProblem(namedtuple("HypersurfaceProblem", "rho structure pair")):
    """``pair`` is 1-based, or None: the first pair with D != 0 at the builder's point."""

    __slots__ = ()

    def __new__(cls, rho: Polynomial, structure: StructureMatrix, pair=(1, 2)):
        two_n = 2 * structure.n
        if len(rho.vars) != two_n:
            raise DimensionMismatch(
                f"rho has {len(rho.vars)} variables, expected {two_n}")
        if pair is not None:
            i1, i2 = pair = tuple(pair)
            if i1 == i2 or not (1 <= i1 <= two_n and 1 <= i2 <= two_n):
                raise DimensionMismatch(f"bad distinguished pair {pair}")
        return super().__new__(cls, rho, structure, pair)

    @property
    def n(self):
        return self.structure.n

    @property
    def two_n(self):
        return 2 * self.structure.n

    def internal_order(self):
        """0-based original indices in internal order: pair first, rest ascending."""
        i1, i2 = self.pair
        rest = [k for k in range(self.two_n) if k not in (i1 - 1, i2 - 1)]
        return [i1 - 1, i2 - 1] + rest

    def sigma(self):
        """1-based map internal position -> original coordinate index."""
        return tuple(i + 1 for i in self.internal_order())

    def with_pair(self, pair):
        return HypersurfaceProblem(self.rho, self.structure, pair)

    def make_jet(self, f, p_reduced, allow_off_surface=False, rho_at_f=None) -> FirstJetPoint:
        """The jet at the point ``f``; DimensionMismatch when rho is not 0
        there, unless ``allow_off_surface``.  ``rho_at_f``, a function of no
        arguments that returns rho at f, lets a caller with many jets at
        one point evaluate rho there once."""
        f = _fractions(f)
        if len(f) != self.two_n:
            raise DimensionMismatch("base point has wrong length")
        p_reduced = _fractions(p_reduced)
        if len(p_reduced) != self.two_n - 2:
            raise DimensionMismatch("reduced jet has wrong length")
        value = self.rho.evaluate(f) if rho_at_f is None else rho_at_f()
        if value != 0 and not allow_off_surface:
            raise DimensionMismatch(
                f"point is off the hypersurface: rho = {rational_str(value)}")
        return FirstJetPoint(f, p_reduced)


class GammaBetaData(namedtuple("GammaBetaData", "problem alpha rho_grad mu D gamma1 gamma2")):
    """Reduced first-jet data; entries are Fractions in pointwise mode and
    FirstJets in first-jet mode (a Fraction where the tangent is zero).

    ``alpha`` holds the structure entries in internal order; ``rho_grad``
    and ``mu`` have length 2n, ``gamma1`` and ``gamma2`` length 2n-2
    (internal j = 3..2n); ``beta_full``, 2n rows and 2n-2 columns, is formed on first read.
    """

    @property
    def two_n(self):
        return 2 * self.problem.n

    @cached_property
    def beta_full(self):
        gammas = tuple(enumerate(zip(self.gamma1, self.gamma2), 2))
        return tuple(tuple(dot_plus(row[:2], g, row[j]) for j, g in gammas)
                     for row in self.alpha)

    @property
    def beta(self):
        return self.beta_full[2:]

    @property
    def beta1(self):
        return self.beta_full[0]

    @property
    def beta2(self):
        return self.beta_full[1]

    def self_check(self):
        """Re-substitution identities of the defining 2x2 system, exact.
        ``beta_full`` is checked against an independent reading by
        ``involutivity``'s cross-check of the closed-form obstruction rows."""
        rho12, mu12 = self.rho_grad[:2], self.mu[:2]
        for j, gammas in enumerate(zip(self.gamma1, self.gamma2)):
            if dot_plus(rho12, gammas, self.rho_grad[j + 2]) != 0:
                raise CrossCheckMismatch("rho re-substitution failed")
            if dot_plus(mu12, gammas, self.mu[j + 2]) != 0:
                raise CrossCheckMismatch("mu re-substitution failed")


def _pair_D(grad, mu, minus_mu, a, b, zero):
    """D = rho_a mu_b - rho_b mu_a at the 0-based pair (a, b), over any
    scalar; ``minus_mu`` is mu negated once for every pair read."""
    return dot((grad[a], grad[b]), (mu[b], minus_mu[a]), zero)


def _mu_and_D(grad, alpha, zero):
    """mu_i = sum_j rho_j alpha_{j,i}, mu negated, and D = rho_1 mu_2 - rho_2 mu_1."""
    mu = row_times_matrix(grad, alpha, zero)
    minus_mu = _negated(mu)
    return mu, minus_mu, _pair_D(grad, mu, minus_mu, 0, 1, zero)


def _gammas(grad, mu, minus_mu, D, zero):
    """gamma^1 and gamma^2, j = 3..2n, over -D: their numerators are D at
    the pairs (j, 2) and (1, j)."""
    minus_D = -D
    over = lambda num: num / minus_D if num else num
    js = range(2, len(grad))
    return (tuple(over(_pair_D(grad, mu, minus_mu, j, 1, zero)) for j in js),
            tuple(over(_pair_D(grad, mu, minus_mu, 0, j, zero)) for j in js))


def _settled(jet: FirstJet):
    """``jet``, or its value where its tangent is zero, so that it costs no
    gradient arithmetic."""
    return jet if any(jet.grad) else jet.value


def _inputs(problem: HypersurfaceProblem, point, jets=False):
    """rho's first derivatives and the structure entries at a point, user
    order, as the scalars of one mode, and last the zero of those scalars.

    The point is prepared once (``exact.PreparedPoint``) for rho and
    every numerator.  rho's gradient, and with ``jets`` its Hessian rows,
    come from one pass over its monomials, and each entry is N/q with q
    read once: values, or
    with ``jets`` first jets with gradients in user order, each
    :func:`_settled`.  A zero entry costs nothing, and each distinct
    numerator object is read once: entries that share a Polynomial (the
    loader shares one per distinct text) share its scalar, through a dict
    keyed by the object's id that lives for this call."""
    rho = problem.rho
    numerators, q = problem.structure.numerators, problem.structure.denominator
    point = _fractions(point)
    if len(point) != problem.two_n:
        raise DimensionMismatch("point has wrong length")
    at = PreparedPoint(point)
    grad, hessian = rho.derivatives_at(at, second=jets)
    if jets:
        grad = tuple(map(_settled, map(FirstJet, grad, hessian)))
    read = (lambda p: _settled(p.first_jet(at))) if jets else (lambda p: p.evaluate(at))
    q = read(q)
    zero = Fraction(0)
    scalars = {}

    def entry(N):
        if not N:
            return zero
        x = scalars.get(id(N))
        if x is None:
            x = read(N)
            if q != 1:
                x = x / q
            scalars[id(N)] = x
        return x

    return grad, tuple(tuple(map(entry, row)) for row in numerators), zero


def _reindex(x, order):
    """One scalar with its gradient over the chart's internal order."""
    return FirstJet(x.value, tuple(x.grad[i] for i in order)) if isinstance(x, FirstJet) else x


def _value(x):
    """A first jet's value; any other scalar as it is."""
    return x.value if isinstance(x, FirstJet) else x


def _tangent(x, i):
    """Component i of a first jet's tangent; 0 for a constant."""
    return x.grad[i] if isinstance(x, FirstJet) else Fraction(0)


def _along(directions):
    """The scalar map that turns a first jet's user-order gradient into
    its derivatives along ``directions`` (user order), through
    :func:`_settled`."""
    zero = Fraction(0)

    def scalar(x):
        if not isinstance(x, FirstJet):
            return x
        return _settled(FirstJet(x.value, tuple(dot(x.grad, d, zero) for d in directions)))

    return scalar


def _chart_order(problem: HypersurfaceProblem, inputs, scalar=None):
    """``problem`` charted and ``inputs`` (from :func:`_inputs`) re-indexed
    into the chart's internal order (pair first), each input taken through
    ``scalar``: by default :func:`_reindex`, so gradients are taken along
    the internal coordinate axes.  A problem with no pair is charted at the
    first pair, in index order, where D does not vanish at the inputs'
    values, every D read off one mu."""
    grad, alpha, zero = inputs
    if problem.pair is None:
        values = tuple(map(_value, grad))
        mu = row_times_matrix(values, tuple(tuple(map(_value, row)) for row in alpha), zero)
        minus_mu = _negated(mu)
        for a, b in combinations(range(len(grad)), 2):
            if _pair_D(values, mu, minus_mu, a, b, zero) != 0:
                problem = problem.with_pair((a + 1, b + 1))
                break
        else:
            raise SingularD("D = 0 at the point for every distinguished pair")
    order = problem.internal_order()
    if scalar is None:
        scalar = lambda x: _reindex(x, order)
    return problem, (tuple(scalar(grad[i]) for i in order),
                     tuple(tuple(scalar(alpha[j][i]) for i in order) for j in order),
                     scalar(zero))


def _gamma_beta(problem: HypersurfaceProblem, inputs) -> GammaBetaData:
    """The one gamma/beta builder behind both modes, over a problem and
    its inputs from :func:`_chart_order`."""
    grad, alpha, zero = inputs
    mu, minus_mu, D = _mu_and_D(grad, alpha, zero)
    if _value(D) == 0:
        raise SingularD("D = 0 at this point; try another distinguished pair")
    return GammaBetaData(problem, alpha, grad, mu, D,
                         *_gammas(grad, mu, minus_mu, D, zero))


def compute_gamma_beta(problem: HypersurfaceProblem, point) -> GammaBetaData:
    """Exact pointwise mode at ``point``, given in the user's coordinate
    order.  Raises SingularD when D = 0 there (at every pair, for a
    problem that names none).
    """
    return _gamma_beta(*_chart_order(problem, _inputs(problem, point)))


def gamma_beta_first_jets(problem: HypersurfaceProblem, point) -> GammaBetaData:
    """Pointwise mode over exact first jets: every entry is a FirstJet
    holding its value and its gradient in the internal f-variables, or its
    value where that gradient is zero (read through :func:`_value` and
    :func:`_tangent`).  Raises as :func:`compute_gamma_beta`.
    """
    return _gamma_beta(*_chart_order(problem, _inputs(problem, point, jets=True)))


def gamma_beta_along_jet(problem: HypersurfaceProblem, jet: FirstJetPoint):
    """(pointwise data at ``jet.f``, its :func:`full_jet`, first-jet data
    along the jet), from one reading of the inputs.

    The first jets carry, in place of a gradient, the derivatives along
    the jet's p1 and p2 (user order): two numbers per entry instead of
    2n.  They need p1 and p2, hence the pointwise gammas, first.  Raises
    as :func:`gamma_beta_first_jets`.
    """
    inputs = _inputs(problem, jet.f, jets=True)
    gb = _gamma_beta(*_chart_order(problem, inputs, _value))
    fj = full_jet(jet, gb)
    along = _gamma_beta(*_chart_order(gb.problem, inputs, _along((fj.p1, fj.p2))))
    return gb, fj, along


# p1 and p2 in user coordinate order
FullJet = namedtuple("FullJet", "p11 p21 p1 p2")


def full_jet(jet: FirstJetPoint, gb: GammaBetaData) -> FullJet:
    """Complete the reduced jet: p^1_1, p^2_1 from the gammas, then p_2 = A p_1;
    ``gb`` is the pointwise gamma/beta data at ``jet.f``, in its chart."""
    p_red, zero = jet.p_reduced, Fraction(0)
    p11 = dot(gb.gamma1, p_red, zero)
    p21 = dot(gb.gamma2, p_red, zero)
    p1_int = (p11, p21) + p_red
    p2_int = tuple(dot(row, p1_int, zero) for row in gb.alpha)
    order = gb.problem.internal_order()
    user = lambda v: tuple(v[order.index(i)] for i in range(len(order)))
    return FullJet(p11, p21, user(p1_int), user(p2_int))
