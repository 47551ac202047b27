#!/usr/bin/env python3
"""Run the full analysis battery over the built-in model problems.

Prints a compact summary of what the exact pipeline concludes for each
builtin: obstruction vector, prolongation dimensions, torsion verdicts,
dimension-6 discriminants, flag certificates, and the stratum involution
chains.  Everything is deterministic; rerunning gives identical output.
"""
import argparse
import sys

from diskeds.errors import IdenticallySingularD, SingularD
from diskeds.exact import rational_str
from diskeds.geometry import compute_gamma_beta
from diskeds.involutivity import compute_D_vectors, tableau_report
from diskeds.integral_element import ordinary_element_search
from diskeds.jets import involution_loop
from diskeds.reports import build_problem, load_problem
from diskeds.torsion import (dim6_definiteness, structure_equation_coefficients,
                             torsion_absorbable)


def analyze(name, seed):
    lp = build_problem(load_problem(name), name)
    print(f"== {name} ==")
    if lp.problem is not None and lp.points:
        pname = sorted(lp.points)[0]
        point = lp.points[pname]
        problem = lp.problem
        gb = compute_gamma_beta(problem, point)
        dv = compute_D_vectors(gb)
        rep = tableau_report(gb, dv)
        print(f"  point {pname}: D = {rational_str(gb.D)}, "
              f"D0 = [{', '.join(map(rational_str, dv.D0))}]")
        print(f"  dims A^(q) = {list(rep.dims)}, q0 = {rep.q0}, "
              f"involutive at order 0: {rep.involutive_at_0}")
        if lp.two_n == 6 and problem.structure.kind == "complex_standard":
            try:
                d6 = dim6_definiteness(problem, point)
                print(f"  dimension-6 discriminants: {rational_str(d6.delta1)}, "
                      f"{rational_str(d6.delta2)} -> {d6.verdict}")
            except (SingularD, IdenticallySingularD):
                print("  dimension-6 test: the coordinate-pair chart is "
                      "singular here (rho_1 = rho_2 = 0)")
        for jname in sorted(lp.jets):
            jet = lp.jets[jname]
            tv = torsion_absorbable(structure_equation_coefficients(problem, jet))
            print(f"  jet {jname}: torsion case {tv.case}, "
                  f"absorbable: {tv.absorbable}")
            sr = ordinary_element_search(problem, jet, trials=20, seed=seed)
            if sr.flag is not None:
                print(f"    flag certificate at candidate {sr.candidate_index}: "
                      f"{sr.verdict.verdict} (polar dim {sr.verdict.dim_ker_gf})")
            else:
                print(f"    no flag certificate in {sr.attempted} candidates")
    for sname in sorted(lp.strata):
        system, probes = lp.strata[sname]
        for pname in sorted(probes):
            chain = involution_loop(system, probes[pname])
            extra = " (only trivial disks)" if chain.reports[-1].trivial_velocities else ""
            print(f"  stratum {sname} @ {pname}: dims {list(chain.dims)} "
                  f"-> {chain.verdict}{extra}")
    print()


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("names", nargs="*",
                    default=["flat", "hyperquadric", "cusp"])
    opts = ap.parse_args()
    for name in opts.names:
        analyze(name, opts.seed)
    return 0


if __name__ == "__main__":
    sys.exit(main())
