"""Command-line interface: dispatch, verdict payloads, exit codes.

Exit code 0 means the analysis ran (mathematical verdicts are data in the
report, never exit codes); 2 is an input problem; 3 is an internal
cross-check failure, which signals a bug.

Every call is a fresh interpreter, so importing this module loads only
the loader and the modules every command needs; each ``cmd_*`` imports
the module it runs when it is dispatched.
"""
from __future__ import annotations

import argparse
import sys
from functools import partial

from .errors import CrossCheckMismatch, DiskEdsError, SchemaViolation, SingularD
from .expr import print_polynomial
from .geometry import compute_gamma_beta
from .reports import (
    LoadedProblem,
    Report,
    _field,
    build_problem,
    emit_report,
    load_problem,
)


def _pick(named: dict, requested, one, many):
    if not named:
        raise SchemaViolation(f"the problem declares no {many}")
    if requested is None:
        return sorted(named)[0]
    if requested not in named:
        raise SchemaViolation(f"unknown {one} {requested!r}; "
                              f"have {', '.join(sorted(named))}")
    return requested


def _problem(lp: LoadedProblem):
    """``lp.problem``; a document with no pair is charted by the builders."""
    if lp.problem is None:
        raise SchemaViolation("this command needs a rho/structure block")
    return lp.problem


def _complex_standard(lp: LoadedProblem, command):
    """``lp.problem`` when it carries the standard structure that the closed
    forms of ``command`` are written for."""
    if lp.problem is None or lp.problem.structure.kind != "complex_standard":
        raise SchemaViolation(f"{command} needs a complex_standard problem")
    return lp.problem


def _chart(problem) -> dict:
    """The pair a command charted ``problem`` at and, in the internal order
    that its reduced entries follow, the user-coordinate indices of the rest."""
    return {"distinguished_pair": problem.pair, "reduced_coordinates": problem.sigma()[2:]}


def cmd_involutivity(lp: LoadedProblem, opts) -> dict:
    from .involutivity import compute_D_vectors, tableau_report
    pname = _pick(lp.points, opts.point, "point", "points")
    point = lp.points[pname]
    gb = compute_gamma_beta(_problem(lp), point)
    gb.self_check()
    dv = compute_D_vectors(gb)
    report = tableau_report(gb, dv)
    return {
        "point": pname,
        **_chart(gb.problem),
        "D": gb.D,
        "gamma1": gb.gamma1,
        "gamma2": gb.gamma2,
        "D0": dv.D0,
        "D0_zero": report.involutive_at_0,
        **report._asdict(),
    }


def cmd_torsion(lp: LoadedProblem, opts) -> dict:
    from .torsion import structure_equation_coefficients, torsion_absorbable
    jname = _pick(lp.jets, opts.jet, "jet", "jets")
    jet = lp.jets[jname]
    sed = structure_equation_coefficients(_problem(lp), jet)
    verdict = torsion_absorbable(sed)
    return {"jet": jname, **verdict._asdict(), "c_values": sed.c_values}


def cmd_complex_forms(lp: LoadedProblem, opts) -> dict:
    from .torsion import complex_B_coefficients, form_definiteness
    pname = _pick(lp.points, opts.point, "point", "points")
    point = lp.points[pname]
    data = complex_B_coefficients(_complex_standard(lp, "complex-forms"), point)
    d1 = form_definiteness(data.c1)
    d2 = form_definiteness(data.c2)
    return {
        "point": pname,
        **_chart(data.problem),
        "B_lower": {f"{j},{k}": v for (j, k), v in sorted(data.B_lower.items())},
        "B_upper": {f"{j},{k}": v for (j, k), v in sorted(data.B_upper.items())},
        "c1_matrix": data.c1,
        "c2_matrix": data.c2,
        "c1_definiteness": d1,
        "c2_definiteness": d2,
        "only_points_possible": d1 != "not_definite" or d2 != "not_definite",
    }


def cmd_dim6(lp: LoadedProblem, opts) -> dict:
    from .torsion import dim6_definiteness
    pname = _pick(lp.points, opts.point, "point", "points")
    point = lp.points[pname]
    rep = dim6_definiteness(_complex_standard(lp, "dim6"), point)._asdict()
    return {"point": pname, **_chart(rep.pop("problem")), **rep}


def cmd_pseudo_ellipsoid(lp: LoadedProblem, opts) -> dict:
    from .torsion import pseudo_ellipsoid_check
    pe = _field(lp.doc, "pseudo_ellipsoid", "", "object", required=False)
    if not pe:
        raise SchemaViolation("the problem has no pseudo_ellipsoid block")
    alphas, ks = (_field(pe, key, "pseudo_ellipsoid", "rationals")
                  for key in ("alphas", "ks"))
    if any(k.denominator != 1 for k in ks):
        raise SchemaViolation("pseudo_ellipsoid.ks must be integers")
    pname = _pick(lp.points, opts.point, "point", "points")
    rep = pseudo_ellipsoid_check(alphas, ks, lp.points[pname])
    return {
        "point": pname,
        "v": rep.v,
        "w": rep.w,
        "L": rep.L,
        "verdict": "holds" if rep.holds else "violated",
        "off_surface": rep.off_surface,
        "rho_value": rep.rho_value,
    }


def cmd_integral_element(lp: LoadedProblem, opts) -> dict:
    from .integral_element import kahler_regularity, ordinary_element_search
    jname = _pick(lp.jets, opts.jet, "jet", "jets")
    jet = lp.jets[jname]
    problem = _problem(lp)
    if opts.flag is not None:
        flag = lp.flags.get(opts.flag)
        if flag is None:
            raise SchemaViolation(f"unknown flag {opts.flag!r}")
        verdict = kahler_regularity(problem, jet, flag)
        out = {"jet": jname, "flag": opts.flag, "dim_ker_gf": verdict.dim_ker_gf}
    else:
        trials = {} if opts.trials is None else {"trials": opts.trials}
        result = ordinary_element_search(problem, jet, **trials)
        out = {"jet": jname, "attempted": result.attempted,
               "found": result.flag is not None}
        if result.flag is None:
            return out
        verdict = result.verdict
        trivial = all(x == 0 for x in jet.p_reduced)
        out.update({
            "candidate_index": result.candidate_index,
            "flag_c1": result.flag.c1,
            "flag_c2": result.flag.c2,
            "conclusion": ("ordinary integral element: a disk germ exists "
                           "through this jet"
                           + (" (zero velocity: the constant disk realizes it)"
                              if trivial else "")),
        })
    out.update({k: getattr(verdict, k) for k in ("determinant", "verdict", "eps_samples")})
    return out


def cmd_jets(lp: LoadedProblem, opts) -> dict:
    from .jets import involution_loop, linearize
    sname = _pick(lp.strata, opts.stratum, "stratum", "strata")
    system, probes = lp.strata[sname]
    if not probes:
        raise SchemaViolation(f"stratum {sname!r} declares no probes")
    selected = sorted(probes) if opts.probe is None else [
        _pick(probes, opts.probe, "probe", "probes")]
    chains, base_dims = {}, {}
    memo = {}   # each system's prolongation, substitution and velocity check
    for pname in sorted(probes):
        if pname in selected:
            chains[pname] = involution_loop(system, probes[pname], max_rounds=opts.rounds,
                                            memo=memo)
            base_dims[pname] = chains[pname].dims[0]
        else:
            # only the base tableau, for the locally-constant check
            lin = linearize(system, probes[pname])
            lin.satisfied()
            base_dims[pname] = lin.tableau[0]
    min_dim = min(base_dims.values())
    out_probes = {}
    for pname in selected:
        chain = chains[pname]
        warnings = [w for r in chain.reports for w in r.warnings]
        if base_dims[pname] > min_dim:
            warnings.append(
                "tableau dimension is not locally constant on the stratum: "
                f"dimension {base_dims[pname]} here vs {min_dim} at other probes")
        out_probes[pname] = {
            "dims": chain.dims,
            "verdict": chain.verdict,
            "rounds": chain.rounds,
            "torsion_free": [r.torsion_free for r in chain.reports],
            "complex_split": [r.complex_split for r in chain.reports],
            "redundant_dropped": [[print_polynomial(p) for p in r.redundant_dropped]
                                  for r in chain.reports],
            "trivial_velocities": chain.reports[-1].trivial_velocities,
            "warnings": warnings,
            "conclusion": _jets_conclusion(chain),
        }
    return {"stratum": sname, "probes": out_probes}


def _jets_conclusion(chain) -> str:
    if chain.verdict == "involutive":
        if chain.reports[-1].trivial_velocities:
            return ("involutive with all velocities pinned to zero: "
                    "only trivial (constant) disks through this stratum")
        return ("free torsion with tableau in involution: disk germs exist "
                "through every jet of this stratum (linear Pfaffian theory)")
    if chain.verdict == "blocked":
        return "blocked: torsion obstruction or no exact probe extension"
    return "not settled within the round budget"


def _section(command, lp, opts) -> dict:
    """One section of ``all``; a chart with D = 0 makes it not applicable."""
    try:
        return command(lp, opts)
    except SingularD as exc:
        return {"not_applicable": f"{type(exc).__name__}: {exc}"}


def cmd_all(lp: LoadedProblem, opts) -> dict:
    out = {}
    if lp.problem is not None and lp.points:
        out["involutivity"] = _section(cmd_involutivity, lp, opts)
        if lp.jets:
            out["torsion"] = _section(cmd_torsion, lp, opts)
        if lp.two_n == 6 and lp.problem.structure.kind == "complex_standard":
            out["dim6"] = _section(cmd_dim6, lp, opts)
    for sname in sorted(lp.strata):
        sub = argparse.Namespace(**vars(opts))
        sub.stratum = sname
        out[f"jets[{sname}]"] = _section(cmd_jets, lp, sub)
    return out


# command -> (function, the options it reads); every other option but
# --format exits 2, so the report echoes only options that shaped it
_DISPATCH = {
    "involutivity": (cmd_involutivity, ("point",)),
    "torsion": (cmd_torsion, ("jet",)),
    "complex-forms": (cmd_complex_forms, ("point",)),
    "dim6": (cmd_dim6, ("point",)),
    "pseudo-ellipsoid": (cmd_pseudo_ellipsoid, ("point",)),
    "integral-element": (cmd_integral_element, ("jet", "flag", "trials")),
    "jets": (cmd_jets, ("stratum", "probe", "rounds")),
    # every stratum and every probe, so neither --stratum nor --probe
    "all": (cmd_all, ("point", "jet", "rounds")),
}
COMMANDS = tuple(_DISPATCH)
_OPTIONAL = ("point", "jet", "stratum", "probe", "rounds", "flag", "trials")

# the most flag candidates --trials may ask for, 40 times the default of
# ordinary_element_search; at n = 2, where none certifies, each costs about 0.1 ms
MAX_TRIALS = 1000


def run_command(command: str, problem_source: str, opts) -> Report:
    run, reads = _DISPATCH[command]
    options = {k: getattr(opts, k) for k in _OPTIONAL if getattr(opts, k) is not None}
    for name in options:
        if name not in reads:
            raise SchemaViolation(f"--{name} is not read by {command}")
    for name in ("rounds", "trials"):
        if options.get(name, 1) < 1:
            raise SchemaViolation(f"--{name} must be at least 1, got {options[name]}")
    if options.get("trials", 1) > MAX_TRIALS:
        raise SchemaViolation(f"--trials must be at most {MAX_TRIALS}, got {opts.trials}")
    doc = load_problem(problem_source)
    lp = build_problem(doc, name=problem_source)
    results = run(lp, opts)
    return Report(command, problem_source, lp.digest, options, results,
                  lp.structure_warnings)


def build_parser():
    ap = argparse.ArgumentParser(
        prog="diskeds",
        description="Exact Pfaffian-system analyzer for disk germs in "
                    "real-analytic hypersurfaces",
        # argparse's width off a terminal, fixed so that it loads no shutil
        # to read the terminal's
        formatter_class=partial(argparse.HelpFormatter, width=78))
    ap.add_argument("command", choices=COMMANDS)
    ap.add_argument("problem", help="builtin name or JSON problem file")
    ap.add_argument("--point", default=None)
    ap.add_argument("--jet", default=None)
    ap.add_argument("--stratum", default=None)
    ap.add_argument("--probe", default=None)
    ap.add_argument("--rounds", type=int, default=None)
    ap.add_argument("--flag", default=None)
    ap.add_argument("--trials", type=int, default=None)
    ap.add_argument("--format", dest="fmt", choices=("json", "text"),
                    default="json")
    return ap


_PARSER = None   # built by the first main call, not at import


def main(argv=None) -> int:
    global _PARSER
    if _PARSER is None:
        _PARSER = build_parser()
    try:
        opts = _PARSER.parse_args(argv)
    except SystemExit as exc:   # argparse wrote its usage and error, or --help
        return exc.code
    try:
        out = emit_report(run_command(opts.command, opts.problem, opts), opts.fmt)
    except CrossCheckMismatch as exc:
        sys.stderr.write(f"internal cross-check failure: {exc}\n")
        return 3
    except DiskEdsError as exc:
        sys.stderr.write(f"{type(exc).__name__}: {exc}\n")
        return 2
    sys.stdout.buffer.write(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
