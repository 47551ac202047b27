#!/usr/bin/env python3
"""Record the golden CLI reports under tests/golden/.

Runs ``diskeds.cli.main`` in-process on every builtin x applicable command
in json and text format, plus ``jets`` on every stratum with ``--rounds``
1..3, and writes each invocation's stdout to ``tests/golden/<case>.out``
and its argv, exit code and stderr to ``tests/golden/index.json``.
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

GOLDEN = Path(__file__).resolve().parents[1] / "tests" / "golden"

APPLICABLE = {
    # every command whose inputs the builtin declares
    "flat": ("involutivity", "torsion", "complex-forms", "dim6",
             "integral-element", "jets", "all"),
    "hyperquadric": ("involutivity", "torsion", "complex-forms", "dim6",
                     "integral-element", "jets", "all"),
    "cusp": ("involutivity", "complex-forms", "dim6", "jets", "all"),
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
        code, stdout, stderr = run(argv)
        (GOLDEN / f"{case}.out").write_bytes(stdout)
        index[case] = {"argv": argv, "exit": code, "stderr": stderr}
    (GOLDEN / "index.json").write_text(
        json.dumps(index, sort_keys=True, indent=2) + "\n", encoding="utf-8")
    return index


if __name__ == "__main__":
    print(f"recorded {len(record())} cases in {GOLDEN}")
