"""Complexified jet constraint systems, prolongation and involution.

Strata are user-declared systems of polynomial equalities and open
(nonzero, signed) conditions in the complexified jet variables
z1..zn, zb1..zbn, w1..wn, wb1..wbn, w1_1.., where wl_k stands for the
k-th derivative of wl along the disk parameter.  The derivation D_t acts
by z_l -> w_l, w_l^(j) -> w_l^(j+1) and kills every barred variable
(holomorphy of the sought disk); D_tb is its conjugate.  Prolonging a
system adds D_t g, D_tb g and D_t D_tb g for every equality and re-closes
under conjugation.

At a probe point (exact values for all current jet variables) the tableau
is the kernel of the Jacobian of the equalities with respect to the
top-order variables.  When no equality structurally couples barred and
unbarred top variables the system splits into conjugate halves and the
complex dimension (half the kernel dimension) is reported; mixed systems
report the full kernel dimension, which equals the real dimension of the
real solution space.  Torsion-freeness at the probe is solvability of the
prolonged equalities, lower jets frozen, as an affine system in the new
top variables.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction

from .errors import (
    CrossCheckMismatch,
    DimensionMismatch,
    NotComplexifiedMode,
    ProbeViolatesStratum,
    SchemaViolation,
)
from .exact import gaussian, normalize_scalar, require_real, scalar_conj
from .expr import Polynomial, conjugate_involution, conjugate_name, print_polynomial
from .geometry import HypersurfaceProblem, StructureMatrix
from .linalg import in_row_span, mat_rank, solve_particular


# ----------------------------------------------------------------------
# variable tables


def jet_table(n: int, max_order: int):
    """z/zb (order 0) then w-jets of orders 1..max_order."""
    names = [f"z{l}" for l in range(1, n + 1)] + [f"zb{l}" for l in range(1, n + 1)]
    for k in range(max_order):
        suffix = "" if k == 0 else f"_{k}"
        names += [f"w{l}{suffix}" for l in range(1, n + 1)]
        names += [f"wb{l}{suffix}" for l in range(1, n + 1)]
    return tuple(names)


def var_jet_order(name: str) -> int:
    base = name[2:] if name.startswith(("zb", "wb")) else name[1:]
    kind = name[:2] if name.startswith(("zb", "wb")) else name[0]
    if kind in ("z", "zb"):
        return 0
    if "_" in base:
        return int(base.split("_", 1)[1]) + 1
    return 1


def _is_barred(name: str) -> bool:
    return name.startswith(("zb", "wb"))


def _dt_image(name: str, table):
    """D_t on generators; None means zero."""
    if _is_barred(name):
        return None
    if name.startswith("z"):
        target = "w" + name[1:]
    else:
        base = name[1:]
        if "_" in base:
            l, k = base.split("_", 1)
            target = f"w{l}_{int(k) + 1}"
        else:
            target = f"w{base}_1"
    if target not in table:
        raise NotComplexifiedMode(f"table lacks {target}; extend the jet order first")
    return Polynomial.var(table, target)


def d_t(p: Polynomial) -> Polynomial:
    images = {}
    for v in p.used_variables():
        img = _dt_image(v, p.vars)
        if img is not None:
            images[v] = img
    return p.derive(images)


def d_tbar(p: Polynomial) -> Polynomial:
    return conjugate_involution(d_t(conjugate_involution(p)))


# ----------------------------------------------------------------------
# constraint systems


def _monic(p: Polynomial) -> Polynomial:
    if p.is_zero():
        return p
    lead = p.leading()[1]
    return p if lead == 1 else p.scale(1 / lead)


@dataclass(frozen=True)
class Opening:
    poly: Polynomial
    sign: str = "nonzero"   # "+", "-", or "nonzero"


@dataclass(frozen=True)
class JetConstraintSystem:
    n: int
    order: int
    equalities: tuple   # monic, deduplicated, conjugation-closed
    openings: tuple     # Opening instances

    @property
    def table(self):
        return jet_table(self.n, self.order)


def make_system(n: int, equalities, openings=(), order=None) -> JetConstraintSystem:
    eqs = list(equalities)
    needed = max([var_jet_order(v) for p in eqs for v in p.used_variables()] + [1])
    if order is None:
        order = needed
    elif order < needed:
        raise DimensionMismatch("declared order below the highest jet present")
    table = jet_table(n, order)
    eqs = [p.extend_to(table) for p in eqs]
    ops = []
    for o in openings:
        if isinstance(o, Opening):
            ops.append(Opening(o.poly.extend_to(table), o.sign))
        else:
            ops.append(Opening(o.extend_to(table), "nonzero"))
    return JetConstraintSystem(n, order, _normalize(eqs), tuple(ops))


def _normalize(eqs):
    out, seen = [], set()
    queue = [_monic(p) for p in eqs]
    for p in queue:
        if p.is_zero():
            continue
        if p not in seen:
            out.append(p)
            seen.add(p)
        q = _monic(conjugate_involution(p))
        if not q.is_zero() and q not in seen:
            out.append(q)
            seen.add(q)
    return tuple(out)


def prolong_constraints(system: JetConstraintSystem) -> JetConstraintSystem:
    """Add D_t g, D_tb g and D_t D_tb g for every equality; order + 1."""
    table = jet_table(system.n, system.order + 1)
    eqs = [p.extend_to(table) for p in system.equalities]
    derived = []
    for p in eqs:
        dt = d_t(p)
        dtb = d_tbar(p)
        dtdtb = d_tbar(dt)
        derived += [q for q in (dt, dtb, dtdtb) if not q.is_zero()]
    ops = tuple(Opening(o.poly.extend_to(table), o.sign) for o in system.openings)
    return JetConstraintSystem(system.n, system.order + 1,
                               _normalize(eqs + derived), ops)


def substitute_vanishing(system: JetConstraintSystem) -> JetConstraintSystem:
    """Propagate bare-variable equalities (c*v = 0) through the system."""
    eqs = list(system.equalities)
    while True:
        zero_vars = set()
        for p in eqs:
            if len(p.terms) == 1:
                exps, _ = next(iter(p.terms.items()))
                if sum(exps) == 1:
                    zero_vars.add(p.vars[exps.index(1)])
        if not zero_vars:
            break
        changed = False
        new_eqs = []
        for p in eqs:
            if len(p.terms) == 1 and sum(next(iter(p.terms))) == 1:
                new_eqs.append(p)
                continue
            q = Polynomial(p.vars, {e: c for e, c in p.terms.items()
                                    if not any(e[i] and p.vars[i] in zero_vars
                                               for i in range(len(p.vars)))})
            if q.terms != p.terms:
                changed = True
            new_eqs.append(q)
        eqs = new_eqs
        if not changed:
            break
    return replace(system, equalities=_normalize(eqs))


# ----------------------------------------------------------------------
# probes


def probe_from_values(n: int, order: int, z_values, w_jets) -> dict:
    """Probe dict from complex values; conjugates are derived, never given.

    ``w_jets[k]`` lists the n values of w^(k); missing higher jets are zero.
    """
    table = jet_table(n, order)
    probe = {}
    if len(z_values) != n:
        raise SchemaViolation("need n values for z")
    for l, val in enumerate(z_values, start=1):
        probe[f"z{l}"] = normalize_scalar(val)
        probe[f"zb{l}"] = scalar_conj(normalize_scalar(val))
    for k in range(order):
        suffix = "" if k == 0 else f"_{k}"
        vals = w_jets[k] if k < len(w_jets) else [Fraction(0)] * n
        if len(vals) != n:
            raise SchemaViolation("need n values for each w jet")
        for l, val in enumerate(vals, start=1):
            probe[f"w{l}{suffix}"] = normalize_scalar(val)
            probe[f"wb{l}{suffix}"] = scalar_conj(normalize_scalar(val))
    if set(probe) != set(table):
        raise CrossCheckMismatch("probe variables differ from the jet table")
    return probe


def _point_for(p: Polynomial, probe: dict):
    return [probe[v] for v in p.vars]


def probe_satisfies(system: JetConstraintSystem, probe: dict, strict=True):
    for p in system.equalities:
        if p.evaluate(_point_for(p, probe)) != 0:
            if strict:
                raise ProbeViolatesStratum(
                    f"probe violates equality {print_polynomial(p)}")
            return False
    for o in system.openings:
        val = o.poly.evaluate(_point_for(o.poly, probe))
        real = require_real(val)
        ok = real != 0 and (o.sign == "nonzero"
                            or (o.sign == "+" and real > 0)
                            or (o.sign == "-" and real < 0))
        if not ok:
            if strict:
                raise ProbeViolatesStratum(
                    f"probe violates opening {print_polynomial(o.poly)} "
                    f"(value {real}, required sign {o.sign})")
            return False
    return True


def extend_probe(system: JetConstraintSystem, probe: dict) -> dict:
    """Values for variables the probe lacks (new jet orders), zero defaults."""
    out = dict(probe)
    for v in system.table:
        if v not in out:
            out[v] = Fraction(0)
    return out


# ----------------------------------------------------------------------
# tableau and torsion at a probe


def top_variables(system: JetConstraintSystem):
    plain = [v for v in system.table
             if var_jet_order(v) == system.order and not _is_barred(v)]
    barred = [v for v in system.table
              if var_jet_order(v) == system.order and _is_barred(v)]
    return plain, barred


def _structurally_mixed(p: Polynomial, top_plain, top_barred) -> bool:
    """Does some monomial contain both an unbarred and a barred top variable?"""
    pi = [i for i, v in enumerate(p.vars) if v in top_plain]
    bi = [i for i, v in enumerate(p.vars) if v in top_barred]
    for exps in p.terms:
        if any(exps[i] for i in pi) and any(exps[i] for i in bi):
            return True
    return False


def tableau_at_probe(system: JetConstraintSystem, probe: dict):
    """(dimension, complex_split, jacobian rank) of the top-order tableau."""
    plain, barred = top_variables(system)
    tops = plain + barred
    rows = []
    mixed = False
    for p in system.equalities:
        used = p.used_variables()
        if not used & set(tops):
            continue
        if _structurally_mixed(p, set(plain), set(barred)):
            mixed = True
        point = _point_for(p, probe)
        row = [p.differentiate(v).evaluate(point) for v in tops]
        rows.append(row)
    rank = mat_rank(rows) if rows else 0
    null = len(tops) - rank
    if not mixed:
        if null % 2:
            raise CrossCheckMismatch(
                "unmixed top-order kernel does not split into conjugate halves")
        return null // 2, True, rank
    return null, False, rank


def _affine_parts(system: JetConstraintSystem, probe: dict):
    """Each equality with the lower jets frozen at the probe, read as an
    affine form in the top-order jets (table order).

    Returns one (coefficients, constant, nonlinear) triple per equality;
    ``nonlinear`` flags a frozen monomial of degree >= 2 in the top jets.
    """
    lower = {v: probe[v] for v in system.table
             if var_jet_order(v) < system.order}
    parts = []
    for p in system.equalities:
        q = p.partial_evaluate(lower)
        lin = [Fraction(0)] * len(q.vars)
        nonlinear = False
        for exps, c in q.terms.items():
            deg = sum(exps)
            if deg == 1:
                lin[exps.index(1)] = c
            elif deg >= 2:
                nonlinear = True
        parts.append((lin, q.constant_term(), nonlinear))
    return parts


def torsion_at_probe(system: JetConstraintSystem, probe: dict):
    """Solvability of the prolonged system in the next-order jets.

    Returns (torsion_free, prolonged system, extension probe or None,
    nonlinear_alert list).
    """
    prolonged = prolong_constraints(system)
    new_vars = [v for v in prolonged.table if var_jet_order(v) == prolonged.order]
    rows, rhs = [], []
    nonlinear = []
    for p, (lin, const, higher) in zip(prolonged.equalities,
                                       _affine_parts(prolonged, probe)):
        if higher:
            nonlinear.append(p)
        if any(x != 0 for x in lin) or const != 0:
            rows.append(lin)
            rhs.append(-const)
    solution = solve_particular(rows, rhs) if rows else []
    torsion_free = solution is not None
    extension = None
    if torsion_free:
        ext = extend_probe(prolonged, probe)
        if not probe_satisfies(prolonged, ext, strict=False):
            if solution:
                for v, val in zip(new_vars, solution):
                    ext[v] = normalize_scalar(val)
                    cj = conjugate_name(v)
                    ext[cj] = scalar_conj(normalize_scalar(val))
            if not probe_satisfies(prolonged, ext, strict=False):
                ext = None
        extension = ext
    return torsion_free, prolonged, extension, nonlinear


def reduce_redundant(system: JetConstraintSystem, probe: dict):
    """Drop top-order equalities whose affine part at the probe lies in the
    span of the retained ones (nonlinear-in-top equalities are kept).

    Returns (reduced system, dropped list).
    """
    top = {v for v in system.table if var_jet_order(v) == system.order}
    eqs = system.equalities
    parts = _affine_parts(system, probe)
    retained = list(range(len(eqs)))
    dropped = []
    for idx in reversed(range(len(eqs))):
        lin, const, higher = parts[idx]
        if higher or not eqs[idx].used_variables() & top:
            continue
        base = [parts[j][0] + [parts[j][1]] for j in retained
                if j != idx and not parts[j][2]]
        if in_row_span(base, lin + [const], len(top) + 1):
            dropped.append(eqs[idx])
            retained.remove(idx)
    # keep conjugation closure: a dropped equality whose conjugate survived
    # is harmless (the conjugate was independently tested), but _normalize
    # would re-add it, so rebuild without closure re-insertion
    return replace(system, equalities=tuple(eqs[j] for j in retained)), dropped


# ----------------------------------------------------------------------
# stratum analysis and the involution loop


@dataclass(frozen=True)
class StratumReport:
    torsion_free: bool
    tableau_dim: int
    complex_split: bool
    next_dim: int
    redundant_dropped: tuple
    verdict: str            # involutive_at_order_q | continue | blocked
    warnings: tuple
    next_system: JetConstraintSystem
    next_probe: dict
    trivial_velocities: bool


def _velocities_pinned(system: JetConstraintSystem) -> bool:
    """All first-order velocities forced to zero by linear equalities."""
    wvars = [f"w{l}" for l in range(1, system.n + 1)]
    rows = []
    for p in system.equalities:
        if p.degree() != 1 or p.constant_term() != 0:
            continue
        used = p.used_variables()
        if not used or not all(v in wvars for v in used):
            continue
        rows.append([p.differentiate(v).constant_term() for v in wvars])
    return bool(rows) and mat_rank(rows) == system.n


def stratum_analyze(system: JetConstraintSystem, probe: dict) -> StratumReport:
    probe_satisfies(system, probe)
    dim_now, split_now, _ = tableau_at_probe(system, probe)
    torsion_free, prolonged, ext, nonlinear = torsion_at_probe(system, probe)
    warnings = []
    if nonlinear:
        warnings.append(
            f"{len(nonlinear)} prolonged equalities are nonlinear in the top jets; "
            "their affine parts drive the torsion test")
    if ext is None:
        warnings.append("no exact extension of the probe to the prolonged system")
        verdict = "blocked"
        reduced, dropped = prolonged, []
        dim_next = -1
    else:
        reduced, dropped = reduce_redundant(prolonged, ext)
        reduced = substitute_vanishing(reduced)
        dim_next, _, _ = tableau_at_probe(prolonged, ext)
        dim_reduced, _, _ = tableau_at_probe(reduced, ext)
        if dim_reduced != dim_next:
            warnings.append(
                f"redundancy reduction changed the next tableau dimension "
                f"({dim_next} -> {dim_reduced}); reporting the unreduced value")
        if not torsion_free:
            verdict = "blocked"
        elif dim_next == dim_now:
            verdict = "involutive_at_order_q"
        else:
            verdict = "continue"
    return StratumReport(torsion_free, dim_now, split_now, dim_next,
                         tuple(dropped), verdict,
                         tuple(warnings), reduced, ext if ext else probe,
                         _velocities_pinned(reduced if ext else system))


@dataclass(frozen=True)
class InvolutionChain:
    reports: tuple
    dims: tuple
    verdict: str      # involutive | blocked | rounds_exhausted
    rounds: int


def involution_loop(initial: JetConstraintSystem, probe: dict,
                    max_rounds: int = None) -> InvolutionChain:
    if max_rounds is None:
        max_rounds = max(2 * initial.n - 2, 1)
    if max_rounds < 1:
        raise DimensionMismatch("max_rounds must be >= 1")
    system = initial
    current = dict(probe)
    reports = []
    verdict = "rounds_exhausted"
    for _ in range(max_rounds):
        rep = stratum_analyze(system, current)
        reports.append(rep)
        if rep.verdict == "involutive_at_order_q":
            verdict = "involutive"
            break
        if rep.verdict == "blocked":
            verdict = "blocked"
            break
        system = rep.next_system
        current = rep.next_probe
    dims = [r.tableau_dim for r in reports]
    if reports and reports[-1].verdict == "involutive_at_order_q":
        dims.append(reports[-1].next_dim)
    if any(b > a for a, b in zip(dims, dims[1:])):
        raise CrossCheckMismatch("tableau dimensions must be non-increasing")
    return InvolutionChain(tuple(reports), tuple(dims), verdict, len(reports))


# ----------------------------------------------------------------------
# Levi form


def levi_form(rho: Polynomial, J: StructureMatrix, f_point, p):
    """D^2 rho(p,p) + Drho(DJ(Jp)(p)) + Drho(J(DJ(p)(p))) + D^2 rho(Jp,Jp).

    ``rho`` is a real-mode polynomial (complexified input is converted);
    for constant J the two DJ terms vanish.  Returns (value, warnings).
    """
    if any(conjugate_name(v) for v in rho.vars):
        rho = realify(rho)
    two_n = len(rho.vars)
    f_point = tuple(Fraction(x) for x in f_point)
    p = tuple(Fraction(x) for x in p)
    if len(f_point) != two_n or len(p) != two_n:
        raise DimensionMismatch("point / vector length mismatch")
    warnings = []
    Jval = [[require_real(e.evaluate(f_point)) for e in row] for row in J.entries]
    ident = [[sum(Jval[r][k] * Jval[k][s] for k in range(two_n))
              for s in range(two_n)] for r in range(two_n)]
    if any(ident[r][s] != (-1 if r == s else 0)
           for r in range(two_n) for s in range(two_n)):
        warnings.append("J^2 != -I at the point")
    grad = [rho.differentiate(v).evaluate(f_point) for v in rho.vars]
    hess = [[rho.differentiate(a).differentiate(b).evaluate(f_point)
             for b in rho.vars] for a in rho.vars]
    Jp = [sum(Jval[r][s] * p[s] for s in range(two_n)) for r in range(two_n)]

    def dj_matrix(v):
        out = []
        for r in range(two_n):
            row = []
            for s in range(two_n):
                g = J.entries[r][s].first_jet(f_point).grad
                row.append(sum(require_real(g[l]) * v[l] for l in range(two_n)))
            out.append(row)
        return out

    quad = lambda a, b: sum(hess[i][j] * a[i] * b[j]
                            for i in range(two_n) for j in range(two_n))
    dj_jp = dj_matrix(Jp)
    dj_p = dj_matrix(p)
    vec1 = [sum(dj_jp[r][s] * p[s] for s in range(two_n)) for r in range(two_n)]
    inner = [sum(dj_p[r][s] * p[s] for s in range(two_n)) for r in range(two_n)]
    vec2 = [sum(Jval[r][s] * inner[s] for s in range(two_n)) for r in range(two_n)]
    value = (quad(p, p) + quad(Jp, Jp)
             + sum(grad[r] * vec1[r] for r in range(two_n))
             + sum(grad[r] * vec2[r] for r in range(two_n)))
    return value, tuple(warnings)


# ----------------------------------------------------------------------
# real <-> complexified conversions


def complexify(rho: Polynomial) -> Polynomial:
    """Real 2n-variable polynomial to the z/zb coordinates."""
    two_n = len(rho.vars)
    if two_n % 2:
        raise DimensionMismatch("need an even number of variables")
    n = two_n // 2
    table = jet_table(n, 1)
    half = Fraction(1, 2)
    mapping = {}
    for l in range(1, n + 1):
        z = Polynomial.var(table, f"z{l}")
        zb = Polynomial.var(table, f"zb{l}")
        mapping[rho.vars[2 * l - 2]] = (z + zb).scale(half)
        mapping[rho.vars[2 * l - 1]] = (zb - z).scale(gaussian("1/2") * gaussian(0, 1))
    return rho.substitute(mapping, table)


def realify(p: Polynomial, variables=None) -> Polynomial:
    """Inverse of complexify; errors if jets are present or coefficients
    fail to be real."""
    names = {v for v in p.used_variables()}
    if any(var_jet_order(v) > 0 for v in names):
        raise NotComplexifiedMode("cannot realify jet variables")
    n = max([int(v[2:] if v.startswith("zb") else v[1:]) for v in names] + [1])
    if variables is None:
        variables = tuple(f"f{i}" for i in range(1, 2 * n + 1))
    if len(variables) < 2 * n:
        raise DimensionMismatch("target table too small")
    znames = tuple([f"z{l}" for l in range(1, n + 1)]
                   + [f"zb{l}" for l in range(1, n + 1)])
    keep = [p.vars.index(v) for v in znames]
    p = Polynomial(znames, {tuple(e[i] for i in keep): c
                            for e, c in p.terms.items()})
    mapping = {}
    for l in range(1, n + 1):
        x = Polynomial.var(variables, variables[2 * l - 2])
        y = Polynomial.var(variables, variables[2 * l - 1])
        mapping[f"z{l}"] = x + y.scale(gaussian(0, 1))
        mapping[f"zb{l}"] = x - y.scale(gaussian(0, 1))
    out = p.substitute(mapping, variables)
    return Polynomial(out.vars, {e: require_real(c) for e, c in out.terms.items()})


def jet_to_probe(problem: HypersurfaceProblem, jet, order: int = 1) -> dict:
    """Complexified probe from a real first jet (standard complex pairing)."""
    from .geometry import full_jet as _fj
    fj = _fj(problem, jet)
    n = problem.n
    z = [gaussian(jet.f[2 * l - 2], jet.f[2 * l - 1]) for l in range(1, n + 1)]
    w = [gaussian(fj.p1[2 * l - 2], fj.p1[2 * l - 1]) for l in range(1, n + 1)]
    return probe_from_values(n, order, z, [w])


def curve_probe(n: int, order: int, components, t0=Fraction(0)) -> dict:
    """Probe carried by a polynomial disk t -> (z_1(t), .., z_n(t)).

    ``components`` are univariate Polynomials in the table ('t',); jets are
    exact derivatives at t0 (w^(k)_l = z_l^{(k+1)}(t0)).
    """
    z_values = []
    jets = []
    derivs = [list(components)]
    for k in range(order):
        derivs.append([q.differentiate("t") for q in derivs[-1]])
    z_values = [q.evaluate((t0,)) for q in derivs[0]]
    for k in range(1, order + 1):
        jets.append([q.evaluate((t0,)) for q in derivs[k]])
    return probe_from_values(n, order, z_values, jets)
