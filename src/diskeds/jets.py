"""Complexified jet constraint systems, prolongation and involution.

Strata are user-declared systems of polynomial equalities and open
(nonzero, signed) conditions in the complexified jet variables
z1..zn, zb1..zbn, w1..wn, wb1..wbn, w1_1.., where wl_k stands for the
k-th derivative of wl along the disk parameter.  The derivation D_t acts
by z_l -> w_l, w_l^(j) -> w_l^(j+1) and kills every barred variable
(holomorphy of the sought disk); D_tb is its conjugate.  A system is
closed under conjugation: each equality it adds is followed by its monic
conjugate.  Prolonging adds D_t g, D_tb g and D_t D_tb g for every
equality g and closes only those; the system's own equalities are closed
already.

``jet_table(n, q)``, which ``expr`` defines with ``Opening`` for the
loader, holds blocks of n names, z, zb, w, wb, w_1, wb_1, ..., and is a
prefix of ``jet_table(n, q + 1)``.  Each (n, q) has one table, built on
first use and shared by every system, polynomial and probe over it (the
last ``JET_TABLES_KEPT`` stay built).  Generator i is barred when
``i // n`` is odd, has jet order ``i // 2n``, goes to ``i + 2n`` under D_t
(or D_tb) and has its conjugate partner at ``i + n`` or ``i - n``.  A
probe is a tuple of values in the same order.  Derivation, conjugation,
widening and probes read these facts off indices; no name is parsed
after a problem is loaded.

Each (system, probe) is linearized once; the probe check, the tableau,
the torsion test and the redundancy reduction read that one table.  Each
equality is frozen once per probe: a prolongation carries the system's
equalities first and unchanged, so at the probe extended by zero top
jets they keep the round's own values; an extension solved for nonzero
top jets keeps the rows of the equalities free of top jets; and the
reduced system keeps the extension's rows of the equalities the
substitution left alone.  The tableau is the kernel of the Jacobian of
the equalities with respect to the top-order variables.  When no
equality names both a barred and an unbarred top variable, in one
monomial or in two, the system splits into conjugate halves and the
complex dimension (half the kernel dimension) is reported; mixed systems
(``wb1 - w1``, say) report the full kernel dimension, which equals the
real dimension of the real solution space.  Two tableaux are compared
by their kernels' real dimension, whichever dimension they report.  Torsion-freeness at the
probe is solvability of the prolonged equalities, lower jets frozen, as
an affine system in the new top variables.  Freezing and reading use
the package's one polynomial evaluator, ``exact.polynomial_at``, on one
prepared point per call (``exact.PreparedPoint``): it reads each
equality's value and its gradient in the top jets off the whole probe,
on integer sums, which at zero top jets are the frozen equality's
constant and linear coefficients, and it freezes the lower jets into
the coefficient of each monomial of degree >= 2 in the top jets.

One command shares one memo between the loops over its probes (see
:func:`_shared`): each system it meets is prolonged, substituted and
velocity-checked once, and the memo is dropped with the command.  Work
that changes nothing builds nothing: ``substitute_vanishing`` returns its
system when nothing was cut and no bare equality zeroes a generator
another names, ``reduce_redundant`` returns its system when it drops
nothing, and ``_widen`` and ``_without`` return the polynomial they were
given when it is already over the table or loses no term.  The layout's
own outputs are canonical by construction and are built by
``Polynomial.canonical``, which checks nothing again.
"""
from __future__ import annotations

from collections import namedtuple
from functools import cached_property, lru_cache
from fractions import Fraction
from operator import itemgetter

from .errors import (
    CrossCheckMismatch,
    DimensionMismatch,
    NotComplexifiedMode,
    ProbeViolatesStratum,
    SchemaViolation,
)
from .exact import (
    PreparedPoint,
    normalize_scalar,
    polynomial_at,
    rational_str,
    require_real,
    scalar_conj,
)
from .expr import JET_TABLES_KEPT, Opening, Polynomial, jet_table, print_polynomial
from .linalg import _echelon, mat_rank, solve_particular


# ----------------------------------------------------------------------
# variable tables


def _block(table) -> int:
    """n for ``table``, a jet table: the index of zb1, where the first
    barred block starts."""
    n = table.index("zb1") if "zb1" in table else 0
    if not n or len(table) % (2 * n):
        raise NotComplexifiedMode("expected a polynomial over a jet table")
    return n


def _derivation(p: Polynomial, barred: bool) -> Polynomial:
    """The product rule on the table layout: each exponent e_i of a
    generator of the derived kind moves one unit to slot i + 2n, times e_i.
    A coefficient times a positive integer stays canonical, so only a sum
    where two terms met is normalized, and dropped if it cancelled."""
    n, res, met = _block(p.vars), {}, set()
    for exps, c in p.terms.items():
        for i, e in enumerate(exps):
            if e and (i // n) % 2 == barred:
                if i + 2 * n >= len(exps):
                    raise NotComplexifiedMode(f"{p.vars[i]} has no successor in "
                                              "the table; extend the jet order first")
                out = list(exps)
                out[i] -= 1
                out[i + 2 * n] += 1
                out = tuple(out)
                ce = c if e == 1 else c * e
                s = res.get(out)
                if s is None:
                    res[out] = ce
                else:
                    res[out] = s + ce
                    met.add(out)
    for out in met:
        c = normalize_scalar(res[out])
        if c:
            res[out] = c
        else:
            del res[out]
    return Polynomial.canonical(p.vars, res)


@lru_cache(maxsize=JET_TABLES_KEPT)
def _conjugate_slots(table):
    """The exponent swap of ``table``: slot i takes slot i + n or i - n."""
    n = _block(table)
    return itemgetter(*[i - n if (i // n) % 2 else i + n for i in range(len(table))])


def conjugate_involution(p: Polynomial) -> Polynomial:
    """Swap each generator with its partner i + n or i - n (z <-> zb,
    w_k <-> wb_k) and conjugate the coefficients."""
    swap = _conjugate_slots(p.vars)
    return Polynomial.canonical(p.vars, {swap(exps): scalar_conj(c)
                                         for exps, c in p.terms.items()})


def d_t(p: Polynomial) -> Polynomial:
    """D_t: z_l -> w_l, w_l^(k) -> w_l^(k+1); barred generators go to zero."""
    return _derivation(p, barred=False)


def d_tbar(p: Polynomial) -> Polynomial:
    """D_tb: zb_l -> wb_l, wb_l^(k) -> wb_l^(k+1); unbarred generators go to zero."""
    return _derivation(p, barred=True)


# ----------------------------------------------------------------------
# constraint systems


def _monic(p: Polynomial) -> Polynomial:
    if p.is_zero():
        return p
    lead = p.leading()[1]
    return p if lead == 1 else p.scale(1 / lead)


class JetConstraintSystem(namedtuple("JetConstraintSystem",
                                     "n order equalities openings")):
    """``equalities`` are monic, deduplicated and conjugation-closed, in the
    order :func:`_close` leaves them, so closing them again changes
    nothing (a redundancy reduction's output is the one system that is
    not closed: see :func:`reduce_redundant`); ``openings`` are Opening
    instances."""

    __slots__ = ()

    @property
    def table(self):
        return jet_table(self.n, self.order)


def _widen(p: Polynomial, table) -> Polynomial:
    """``p`` over ``table``, a jet table of the same n that its own table is
    a prefix of: every exponent tuple gains trailing zeros; ``p`` itself
    when its table is ``table``."""
    extra = len(table) - len(p.vars)
    if extra < 0:
        raise DimensionMismatch(f"a polynomial over {len(p.vars)} jets does not "
                                f"widen to a table of {len(table)}")
    if not extra:
        return p
    pad = (0,) * extra
    return Polynomial.canonical(table, {e + pad: c for e, c in p.terms.items()})


def make_system(n: int, equalities, openings=(), order=None) -> JetConstraintSystem:
    """Over ``jet_table(n, order)``, which the tables of ``equalities`` and
    ``openings`` are prefixes of; ``order`` defaults to their highest jet."""
    eqs = list(equalities)
    needed = max([1] + [i // (2 * n) for p in eqs for e in p.terms
                        for i, k in enumerate(e) if k])
    if order is None:
        order = needed
    elif order < needed:
        raise DimensionMismatch("declared order below the highest jet present")
    table = jet_table(n, order)
    eqs = [_monic(_widen(p, table)) for p in eqs]
    ops = tuple(Opening(_widen(o.poly, table), o.sign) for o in openings)
    return JetConstraintSystem(n, order, _close(eqs), ops)


def _close(eqs, kept=0):
    """The closed system spanned by the monic ``eqs``: the first ``kept``
    equalities, distinct and closed among themselves, in place, then each
    other nonzero equality in turn, unless already present, then its monic
    conjugate, unless already present."""
    out = dict.fromkeys(eqs[:kept])     # an ordered set
    for p in eqs[kept:]:
        if p and p not in out:
            out[p] = None
            out.setdefault(_monic(conjugate_involution(p)))
    return tuple(out)


def prolong_constraints(system: JetConstraintSystem) -> JetConstraintSystem:
    """Add D_t g, D_tb g and D_t D_tb g for every equality; order + 1.  The
    system's own equalities, widened, come first in their order, and only
    the derived ones are closed."""
    table = jet_table(system.n, system.order + 1)
    eqs = [_widen(p, table) for p in system.equalities]
    derived = []
    for p in eqs:
        dt = d_t(p)
        derived += [_monic(dt), _monic(d_tbar(p)), _monic(d_tbar(dt))]
    ops = tuple(Opening(_widen(o.poly, table), o.sign) for o in system.openings)
    return JetConstraintSystem(system.n, system.order + 1,
                               _close(eqs + derived, kept=len(eqs)), ops)


def substitute_vanishing(system: JetConstraintSystem, cut=False) -> JetConstraintSystem:
    """Propagate bare-variable equalities (c*v = 0) through the system, then
    close it again: an equality whose conjugate is missing gets it back,
    right after itself.  ``system`` itself when nothing was cut and no
    equality names a generator a bare one zeroes.

    ``cut`` is true when a redundancy reduction dropped equalities from a
    closed system, so it must be closed again.  Each pass rebuilds only
    the equalities that name a generator zeroed in that pass, and only the
    rebuilt ones are made monic again."""
    eqs = list(system.equalities)
    zero, changed = set(), set()
    while True:
        new = {next(iter(p.terms)).index(1) for p in eqs if _bare(p)} - zero
        if not new:
            break
        zero |= new
        for k, p in enumerate(eqs):
            if not _bare(p):
                q = _without(p, new)
                if q is not p:
                    eqs[k] = q
                    changed.add(k)
    if not changed and not cut:
        return system
    return system._replace(equalities=_close(
        [_monic(p) if k in changed else p for k, p in enumerate(eqs)]))


def _bare(p: Polynomial) -> bool:
    """``p`` is c*v for one generator v."""
    return len(p.terms) == 1 and sum(next(iter(p.terms))) == 1


def _without(p: Polynomial, slots) -> Polynomial:
    """``p`` with every term that involves a generator in ``slots`` removed;
    ``p`` itself when no term does."""
    gone = [e for e in p.terms if any(e[i] for i in slots)]
    if not gone:
        return p
    terms = dict(p.terms)
    for e in gone:
        del terms[e]
    return Polynomial.canonical(p.vars, terms)


# ----------------------------------------------------------------------
# probes


def probe_from_values(n: int, order: int, z_values, w_jets) -> tuple:
    """A probe: one value per generator of ``jet_table(n, order)``, in its
    order, from complex values; conjugates are derived, never given.

    ``w_jets[k]`` lists the n values of w^(k); missing higher jets are zero.
    """
    blocks = [z_values] + [w_jets[k] if k < len(w_jets) else [0] * n
                           for k in range(order)]
    probe = ()
    for k, values in enumerate(blocks):
        if len(values) != n:
            raise SchemaViolation("need n values for z" if k == 0
                                  else "need n values for each w jet")
        values = tuple(map(normalize_scalar, values))
        probe += values + tuple(map(scalar_conj, values))
    return probe


def extend_probe(system: JetConstraintSystem, probe: tuple) -> tuple:
    """``probe`` over the system's table, which its own table is a prefix
    of: the new jet orders are zero."""
    return probe + (Fraction(0),) * (len(system.table) - len(probe))


# ----------------------------------------------------------------------
# one row per (equality, probe)


class Linearization(namedtuple("Linearization", "system probe values gradients "
                               "nonlinear uses_top mixes")):
    """Per equality of a system at one probe: its value, its gradient in the
    top-order jets, whether a monomial of degree >= 2 in them survives
    freezing the lower jets, whether it involves a top jet at all, and
    whether it names both a plain and a barred top jet, in one monomial or
    in two (``mixes``).
    Where the top jets are zero, value and gradient are the affine part.
    Instances keep a ``__dict__`` for the cached tableau."""

    @property
    def mixed(self) -> bool:
        """Some equality names both a plain and a barred top jet."""
        return any(self.mixes)

    @property
    def rows(self):
        """(value, gradient, nonlinear, uses_top, mixes) per equality, the
        rows :func:`linearize` takes."""
        return tuple(zip(self.values, self.gradients, self.nonlinear,
                         self.uses_top, self.mixes))

    def satisfied(self, strict=True) -> bool:
        """Equalities vanish and openings hold; ``strict`` raises instead."""
        for p, value in zip(self.system.equalities, self.values):
            if value:
                if strict:
                    raise ProbeViolatesStratum(
                        f"probe violates equality {print_polynomial(p)}")
                return False
        for o in self.system.openings:
            real = require_real(o.poly.evaluate(self.probe))
            ok = real != 0 and (o.sign == "nonzero"
                                or (o.sign == "+" and real > 0)
                                or (o.sign == "-" and real < 0))
            if not ok:
                if strict:
                    raise ProbeViolatesStratum(
                        f"probe violates opening {print_polynomial(o.poly)} "
                        f"(value {rational_str(real)}, required sign {o.sign})")
                return False
        return True

    @cached_property
    def tableau(self):
        return tableau_at_probe(self)


def linearize(system: JetConstraintSystem, probe: tuple, rows=None) -> Linearization:
    """One pass over the monomials of every equality at the probe, prepared
    once: each equality's value and its gradient in the top jets; the
    lower jets freeze into a coefficient only for the monomials of degree
    >= 2 in the top jets, whose frozen coefficients decide ``nonlinear``.

    ``rows``, one per equality, holds a row already read where the
    equality's generators had the values they have in ``probe`` (see
    :attr:`Linearization.rows`), or None; only an equality without one is
    read."""
    table, n = system.table, system.n
    if len(probe) != len(table):
        raise DimensionMismatch(f"probe of {len(probe)} values for a table of "
                                f"{len(table)} jets")
    cut = len(table) - 2 * n    # the top-order jets close the table
    at = PreparedPoint(probe)
    out = []
    for k, p in enumerate(system.equalities):
        row = rows[k] if rows else None
        if row is None:
            if p.vars != table:
                raise CrossCheckMismatch("equality is not over the system's jet table")
            keys = set()    # the top-jet exponents of every term
            quadratic = {}  # top-jet exponents of degree >= 2 -> their lower-jet terms
            for exps, c in p.terms.items():
                key = exps[cut:]
                keys.add(key)
                if sum(key) >= 2:
                    quadratic.setdefault(key, []).append((exps[:cut], c))
            value, grad, _ = polynomial_at(p.terms.items(), at, 1, start=cut)
            row = (value, grad,
                   any(polynomial_at(terms, at)[0] for terms in quadratic.values()),
                   any(any(e) for e in keys),
                   any(any(e[:n]) for e in keys) and any(any(e[n:]) for e in keys))
        out.append(row)
    return Linearization(system, probe, *(tuple(zip(*out)) or ((),) * 5))


# ----------------------------------------------------------------------
# tableau and torsion at a probe


def tableau_at_probe(lin: Linearization):
    """(dimension, complex_split, kernel) of the top-order tableau: the
    reported dimension, complex for a split kernel and real otherwise, and
    the real dimension 2n - rank of the kernel, the one two tableaux are
    compared by."""
    rows = [g for g, used in zip(lin.gradients, lin.uses_top) if used]
    null = 2 * lin.system.n - mat_rank(rows)
    if not lin.mixed:
        if null % 2:
            raise CrossCheckMismatch(
                "unmixed top-order kernel does not split into conjugate halves")
        return null // 2, True, null
    return null, False, null


def _shared(memo, make, *args):
    """``make(*args)``, made once per ``memo``: a dict that one command owns
    and drops, keyed by the function and its arguments, so the probes of
    the command share each prolongation, substitution and velocity check of
    a system they meet.  Without a memo nothing is shared."""
    if memo is None:
        return make(*args)
    key = (make, *args)
    if key not in memo:
        memo[key] = make(*args)
    return memo[key]


def torsion_at_probe(lin: Linearization, memo=None):
    """Solvability of ``lin.system``'s prolongation in the next-order jets
    at ``lin.probe``.

    Returns (torsion_free, zero, extension, nonlinear): the prolonged
    system linearized at the probe extended by zero top jets (the affine
    parts the test solves) and at an exact extension that satisfies it, or
    None; ``nonlinear`` counts the equalities nonlinear in the top jets.
    A carried equality names no new top jet, so its row at the zero
    extension is its value in ``lin``, and the extension reads each
    equality free of top jets off ``zero``.
    ``memo`` is a dict a caller owns to share work between the probes of
    one command (see :func:`_shared`).
    """
    system = lin.system
    prolonged = _shared(memo, prolong_constraints, system)
    flat = (Fraction(0),) * (2 * system.n)
    carried = [(value, flat, False, False, False) for value in lin.values]
    zero = linearize(prolonged, extend_probe(prolonged, lin.probe),
                     carried + [None] * (len(prolonged.equalities) - len(carried)))
    rows, rhs = [], []
    for grad, value in zip(zero.gradients, zero.values):
        if value or any(grad):
            rows.append(grad)
            rhs.append(-value)
    solution = solve_particular(rows, rhs)
    torsion_free = solution is not None
    extension = None
    if torsion_free:
        extension = zero
        if not zero.satisfied(strict=False):
            extension = None
            if solution:
                ext = list(zero.probe)
                n = prolonged.n
                cut = len(ext) - 2 * n
                # each barred top jet, and its conjugate as the unbarred one
                for k, val in enumerate(map(normalize_scalar, solution[n:])):
                    ext[cut + n + k], ext[cut + k] = val, scalar_conj(val)
                candidate = linearize(prolonged, tuple(ext),
                                      [None if row[3] else row for row in zero.rows])
                if candidate.satisfied(strict=False):
                    extension = candidate
    return torsion_free, zero, extension, sum(zero.nonlinear)


def reduce_redundant(lin: Linearization):
    """Drop top-order equalities whose affine part lies in the span of the
    retained ones (nonlinear-in-top equalities are kept).

    ``lin`` linearizes the system at a probe whose top jets are zero, so it
    holds the affine parts.  The reduction is greedy deletion from the last
    equality down; it keeps exactly what greedy insertion from the first
    one keeps once the equalities free of top jets (always kept) are in, so
    one ``_echelon`` of the transposed stack (free rows, then candidates)
    decides every candidate: its pivot columns are the rows outside the
    span of the rows before them.  Returns (reduced system, dropped list),
    the dropped equalities in descending index.
    """
    system = lin.system
    if any(lin.probe[-2 * system.n:]):
        raise CrossCheckMismatch("affine parts need a probe with zero top jets")
    eqs = system.equalities
    parts = [list(g) + [v] for g, v in zip(lin.gradients, lin.values)]
    candidates = [j for j in range(len(eqs))
                  if lin.uses_top[j] and not lin.nonlinear[j]]
    free = [parts[j] for j in range(len(eqs)) if not lin.uses_top[j]]
    stack = free + [parts[j] for j in candidates]
    pivots, _ = _echelon([list(col) for col in zip(*stack)], len(stack))
    kept = {candidates[c - len(free)] for c in pivots if c >= len(free)}
    dropped = [j for j in reversed(candidates) if j not in kept]
    if not dropped:
        return system, []
    # the reduced system is not closed: substitute_vanishing(reduced, True)
    # puts back each dropped equality whose conjugate was retained
    return (system._replace(equalities=tuple(p for j, p in enumerate(eqs)
                                             if j not in dropped)),
            [eqs[j] for j in dropped])


# ----------------------------------------------------------------------
# stratum analysis and the involution loop


# verdict: involutive_at_order_q | continue | blocked; next: the
# Linearization of the reduced system at the extended probe, None if blocked
StratumReport = namedtuple("StratumReport", "torsion_free tableau_dim complex_split "
                           "next_dim redundant_dropped verdict warnings next "
                           "trivial_velocities")


def _velocities_pinned(system: JetConstraintSystem) -> bool:
    """All first-order velocities forced to zero by linear equalities."""
    w = range(2 * system.n, 3 * system.n)   # the indices of w1..wn
    rows = []
    for p in system.equalities:
        if p.degree() != 1 or p.constant_term() != 0:
            continue
        coeffs = {e.index(1): c for e, c in p.terms.items()}
        if not all(i in w for i in coeffs):
            continue
        rows.append([coeffs.get(i, Fraction(0)) for i in w])
    return bool(rows) and mat_rank(rows) == system.n


def stratum_analyze(lin: Linearization, memo=None) -> StratumReport:
    """One round of the involution loop at ``lin.system`` and ``lin.probe``;
    ``memo`` as for :func:`torsion_at_probe`."""
    lin.satisfied(strict=True)
    dim_now, split_now, kernel_now = lin.tableau
    torsion_free, zero, ext, nonlinear = torsion_at_probe(lin, memo)
    warnings = []
    if nonlinear:
        warnings.append(
            f"{nonlinear} prolonged equalities are nonlinear in the top jets; "
            "their affine parts drive the torsion test")
    following, dropped = None, []
    if ext is None:
        warnings.append("no exact extension of the probe to the prolonged system")
        verdict = "blocked"
        dim_next = -1
    else:
        reduced, dropped = reduce_redundant(zero)
        reduced = _shared(memo, substitute_vanishing, reduced, bool(dropped))
        if reduced == ext.system:
            following = ext
        else:
            # an equality the substitution left alone keeps its row in ext
            known = dict(zip(ext.system.equalities, ext.rows))
            following = linearize(reduced, ext.probe,
                                  [known.get(p) for p in reduced.equalities])
        dim_next, _, kernel_next = ext.tableau
        if following.tableau[2] != kernel_next:
            warnings.append(
                f"redundancy reduction changed the next tableau dimension "
                f"({dim_next} -> {following.tableau[0]}); reporting the unreduced value")
        verdict = "involutive_at_order_q" if kernel_next == kernel_now else "continue"
    return StratumReport(torsion_free, dim_now, split_now, dim_next,
                         tuple(dropped), verdict, tuple(warnings), following,
                         _shared(memo, _velocities_pinned, (following or lin).system))


# verdict: involutive | blocked | rounds_exhausted
InvolutionChain = namedtuple("InvolutionChain", "reports dims verdict rounds")


def involution_loop(initial: JetConstraintSystem, probe: tuple,
                    max_rounds: int = None, memo=None) -> InvolutionChain:
    """Rounds of :func:`stratum_analyze` until involutive or blocked; pass one
    ``memo`` dict to the loops over the probes of one command to prolong,
    substitute and check each system they meet once."""
    if max_rounds is None:
        max_rounds = max(2 * initial.n - 2, 1)
    if max_rounds < 1:
        raise DimensionMismatch("max_rounds must be >= 1")
    lin = linearize(initial, probe)
    reports, kernels = [], []
    verdict = "rounds_exhausted"
    for _ in range(max_rounds):
        rep = stratum_analyze(lin, memo)
        reports.append(rep)
        kernels.append(lin.tableau[2])
        if rep.verdict == "involutive_at_order_q":
            verdict = "involutive"
            break
        if rep.verdict == "blocked":
            verdict = "blocked"
            break
        lin = rep.next
    # a settled round's next kernel equals its own, so the rounds' kernels
    # decide the check
    if any(b > a for a, b in zip(kernels, kernels[1:])):
        raise CrossCheckMismatch("tableau dimensions must be non-increasing")
    dims = [r.tableau_dim for r in reports]
    if reports and reports[-1].verdict == "involutive_at_order_q":
        dims.append(reports[-1].next_dim)
    return InvolutionChain(tuple(reports), tuple(dims), verdict, len(reports))
