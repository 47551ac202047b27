#!/usr/bin/env python3
"""Record the golden CLI reports under tests/golden/.

Runs ``diskeds.cli.main`` in-process on every builtin x applicable command
in json and text format, plus ``jets`` on every stratum with ``--rounds``
1..3, plus the jet and point commands on the documents under
``tests/golden/docs/`` (n = 4 and 5, a non-constant structure, which
``dim6`` rejects in both formats, a structure of kind ``pair``, flags
on every branch of the Cramer determinant, and a point charted at (3, 4)),
plus ``jets`` with ``--rounds`` 1..3 on
the Levi-null strata at n = 4 and 5, plus ``jets`` on a stratum whose probes
extend by nonzero top jets, on one whose equality names a plain and a
barred velocity and on one whose prolongation is quadratic in the top
jets, ``jets --probe`` on the cusp and
``pseudo-ellipsoid`` on a document of its own, plus ``involutivity`` on
two n = 4 pair documents whose A^2 = -I check is decided by the
polynomial products, and writes each invocation's stdout to
``tests/golden/<case>.out`` and its argv, exit code and stderr to
``tests/golden/index.json``.  Reports echo
the problem path, so the documents are named relative to the repository
root, and the runs are made from there.
``tests/test_golden.py`` compares the program against these files byte for
byte.  Re-record only for an intended behaviour change, and say so in
CHANGES.md:

    PYTHONPATH=src python3 scripts/record_golden.py
"""
import contextlib
import io
import json
from pathlib import Path

from diskeds.builtins import BUILTIN_PROBLEMS
from diskeds.cli import main

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden"

APPLICABLE = {
    # every command whose inputs the builtin declares
    "flat": ("involutivity", "torsion", "complex-forms", "dim6",
             "integral-element", "jets", "all"),
    "hyperquadric": ("involutivity", "torsion", "complex-forms", "dim6",
                     "integral-element", "jets", "all"),
    "cusp": ("involutivity", "complex-forms", "dim6", "jets", "all"),
}

# document stem -> extra runs beyond the four commands, as argv tails
DOCS = {
    "n5_hyperquadric": (),
    "n4_hyperquadric": (("integral-element", "--jet", "J1"),
                        ("integral-element", "--flag", "F")),
    "n3_matrix": (("torsion", "--jet", "J1"), ("integral-element", "--jet", "J1"),
                  ("integral-element", "--flag", "F")),
    # one flag per branch of the Cramer determinant: A_1 = 0 != A_2, both
    # nonzero with (alpha, beta) != (1, 0), A_1 = A_2 = 0, zero generator
    "n3_ball_flags": tuple(("integral-element", "--flag", name)
                           for name in ("A1_zero", "mixed", "x_degenerate", "zero")),
    # a structure of kind "pair"; flag F (A_1 = 0) certifies at J1, G at J0
    "n3_pair": (("torsion", "--jet", "J1"), ("integral-element", "--flag", "G"),
                ("integral-element", "--jet", "J1", "--flag", "F")),
    # rho_1 = rho_2 = 0 at the point: every command charts at (3, 4), where
    # the complex closed forms have nonzero B
    "n3_chart34": (("dim6",),),
}


def cases():
    for fmt in ("json", "text"):
        for name, commands in APPLICABLE.items():
            for command in commands:
                yield (f"{command}-{name}-{fmt}",
                       [command, name, "--format", fmt])
            for stratum in sorted(BUILTIN_PROBLEMS[name]["strata"]):
                for rounds in (1, 2, 3):
                    yield (f"jets-{name}-{stratum}-r{rounds}-{fmt}",
                           ["jets", name, "--stratum", stratum,
                            "--rounds", str(rounds), "--format", fmt])
    for stem, extra in DOCS.items():
        path = f"tests/golden/docs/{stem}.json"
        for command in ("involutivity", "torsion", "complex-forms", "integral-element"):
            yield f"{command}-{stem}-json", [command, path, "--format", "json"]
        for command, *options in extra:
            yield ("-".join([command, stem, *(o.lstrip("-") for o in options), "json"]),
                   [command, path, *options, "--format", "json"])
    # hyperquadric-type Levi-null strata above n = 3, each with a real probe
    # and a non-real one
    for stem in ("n4_levi_null", "n5_levi_null"):
        for rounds in (1, 2, 3):
            yield (f"jets-{stem}-r{rounds}-json",
                   ["jets", f"tests/golden/docs/{stem}.json", "--rounds", str(rounds),
                    "--format", "json"])
    # dim6 is written for complex_standard, so it rejects the matrix
    # structure (exit 2)
    for fmt in ("json", "text"):
        yield (f"dim6-n3_matrix-{fmt}",
               ["dim6", "tests/golden/docs/n3_matrix.json", "--format", fmt])
    # a probe extended by nonzero top jets (n2_extension), a real velocity
    # wb1 = w1, whose tableau mixes the conjugate halves (n2_real_velocity),
    # a stratum w1*wb1 = z1*zb1 whose prolongation is quadratic in the top
    # jets (n2_quadratic_stratum),
    # the base tableau of probes jets does not select, and pseudo-ellipsoid
    # at a point where the condition holds on the surface and one off it
    # where it is violated
    for fmt in ("json", "text"):
        for stem in ("n2_extension", "n2_real_velocity", "n2_quadratic_stratum"):
            yield (f"jets-{stem}-{fmt}",
                   ["jets", f"tests/golden/docs/{stem}.json", "--format", fmt])
        yield (f"jets-cusp-generic-probe-P_origin-{fmt}",
               ["jets", "cusp", "--stratum", "generic", "--probe", "P_origin",
                "--format", fmt])
        for point in ("Y0", "Y1"):
            yield (f"pseudo-ellipsoid-pseudo_ellipsoid-point-{point}-{fmt}",
                   ["pseudo-ellipsoid", "tests/golden/docs/pseudo_ellipsoid.json",
                    "--point", point, "--format", fmt])
    # A^2 = -I decided past the unit vectors: A of 2x2 blocks
    # [[f3, 1 + f3^2], [-1, -f3]], non-constant and squaring to -I, and J
    # with f1*f2 added to one entry, -I at every unit vector but not as
    # polynomials (NotAlmostComplex)
    for fmt in ("json", "text"):
        for stem in ("n4_pair_blocks", "n4_pair_not_almost_complex"):
            yield (f"involutivity-{stem}-{fmt}",
                   ["involutivity", f"tests/golden/docs/{stem}.json", "--format", fmt])


def run(argv):
    """(exit code, stdout bytes, stderr text) of one in-process CLI run."""
    out, err = io.TextIOWrapper(io.BytesIO()), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    out.flush()
    return code, out.buffer.getvalue(), err.getvalue()


def record():
    GOLDEN.mkdir(parents=True, exist_ok=True)
    index = {}
    for case, argv in cases():
        with contextlib.chdir(ROOT):
            code, stdout, stderr = run(argv)
        (GOLDEN / f"{case}.out").write_bytes(stdout)
        index[case] = {"argv": argv, "exit": code, "stderr": stderr}
    (GOLDEN / "index.json").write_text(
        json.dumps(index, sort_keys=True, indent=2) + "\n", encoding="utf-8")
    return index


if __name__ == "__main__":
    print(f"recorded {len(record())} cases in {GOLDEN}")
