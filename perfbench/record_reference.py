#!/usr/bin/env python3
"""Record the builtin reference values the benchmark compares against.

    python3 perfbench/record_reference.py

Runs every builtin invocation of the ``builtin_cli`` workload once and
writes the verdict-bearing fields (or the exit code and error class) to
``reference_builtin.json``.  Re-record only for a deliberate change of
behaviour, and say so where the change is described.
"""
import json
import os
import sys
from fractions import Fraction

import checks
import run
import workloads


def reference_entries(outcomes):
    """Reference entries from (label, exit code, stdout, stderr) tuples."""
    ref = {}
    for label, rc, out, err in outcomes:
        command = label.split(" ", 1)[0]
        if rc == 0:
            ref[label] = {"exit": 0,
                          "verdicts": _jsonable(checks.verdict_view(
                              command, json.loads(out)["results"]))}
        else:
            ref[label] = {"exit": rc, "error": err.split(":", 1)[0].strip()}
    return ref


def _jsonable(value):
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, list):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    return value


def main():
    sys.path.insert(0, run.SRC)
    from diskeds.cli import main as cli_main
    work = workloads.builtin_cli(0, run.WORK, 1)
    outcomes = [run.invoke(cli_main, inv) for inv in work.passes[0]]
    ref = reference_entries((o.inv.label, o.rc, o.out, o.err) for o in outcomes)
    with open(checks.REFERENCE_PATH, "w", encoding="utf-8") as fh:
        json.dump(ref, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(ref)} entries to {os.path.relpath(checks.REFERENCE_PATH)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
