#!/usr/bin/env python3
"""The diskeds benchmark: CLI analyses through ``diskeds.cli.main``.

    python3 perfbench/run.py --workload builtin_cli --seed 1 --seconds 30 --trace 0

One client in a closed loop, in-process, single-threaded: the next
invocation starts when the previous one returns.  Reports go to an
in-memory buffer.  A run generates the workload's problem documents from
``--seed``, then runs whole passes over them until ``--seconds`` have
gone by (and at least enough passes for ten latency samples beyond p90),
checks every report, and prints each metric by name with its unit.

``--trace 0`` reports the end-to-end metrics.  Their timings are scaled
to a nominal host speed by the probe of ``speed.py``, timed before every
invocation and around every set-up, so that the load other tenants put
on a shared host cancels while changes to the program show in full; the
unscaled wall-clock figures are printed and written next to them.  ``--trace 1`` runs one
pass untraced and the same pass again under the layer tracer
(``layers.py``) and reports the per-layer metrics with the tracing
overhead.  End-to-end numbers never come from a traced pass.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``failed`` counts reports that
fail their correctness check, which includes any exit code other than
the one recorded for the invocation.  ``failed_share`` additionally
counts the invocations that exit non-zero as recorded (the known
``flat`` defects), so fixing them shows as a drop.  A results file with
every metric, the latency of each (command, problem) row and the
machine description is written under ``.bench_work/``.
"""
from __future__ import annotations

import argparse
import gc
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")

import checks  # noqa: E402
import layers  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402

WORKLOADS = {
    "builtin_cli": workloads.builtin_cli,
    "dimension_sweep": workloads.dimension_sweep,
    "polynomial_structure": workloads.polynomial_structure,
}
# Passes generated during set-up, about three times what a 30-second run
# uses today; a run that exhausts them stops early.  Fixed per workload so
# that set-up does the same work on every commit.
POOL_PASSES = {"builtin_cli": 60, "dimension_sweep": 16, "polynomial_structure": 16}
SETUP_REPEATS = 15
SETUP_PROBES = 3      # host-speed probes before and after each set-up
MIN_SAMPLES = 100     # at least ten latency samples beyond p90
E2E_UNITS = {"setup_s": "s", "analyses_per_s": "1/s", "latency_ms.p50": "ms",
             "latency_ms.p90": "ms", "ok_share": "share", "failed_share": "share",
             "peak_rss_mb": "MB"}


def import_seconds():
    """Time a fresh interpreter takes to import diskeds.cli."""
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
            "t = time.perf_counter(); import diskeds.cli; "
            "print(time.perf_counter() - t)")
    done = subprocess.run([sys.executable, "-I", "-c", code, SRC],
                          capture_output=True, text=True, timeout=60, check=True)
    return float(done.stdout.strip())


def write_documents(work):
    for path, doc in work.documents.items():
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=1)


def setup(name, seed, workdir):
    """Generate and write the documents; time it with the import.

    Returns the median over SETUP_REPEATS of the set-up time scaled to
    the nominal host speed, and the median unscaled time.
    """
    import_seconds()   # compiles bytecode on a fresh checkout; not timed
    totals, scaled = [], []
    work = None
    for _ in range(SETUP_REPEATS):
        shutil.rmtree(workdir, ignore_errors=True)
        os.makedirs(workdir)
        probes = [speed.probe() for _ in range(SETUP_PROBES)]
        t0 = time.perf_counter()
        work = WORKLOADS[name](seed, workdir, POOL_PASSES[name])
        write_documents(work)
        gen = time.perf_counter() - t0
        totals.append(gen + import_seconds())
        probes += [speed.probe() for _ in range(SETUP_PROBES)]
        scaled.append(speed.scale(totals[-1], statistics.median(probes)))
    return work, statistics.median(scaled), statistics.median(totals)


class Outcome:
    __slots__ = ("inv", "rc", "seconds", "scaled", "out", "err", "problems")

    def __init__(self, inv, rc, seconds, out, err):
        self.inv, self.rc, self.seconds, self.out, self.err = inv, rc, seconds, out, err
        self.scaled = seconds    # at the nominal host speed, set by measure()
        self.problems = []


def invoke(main, inv, tracer=None):
    """One CLI invocation with stdout/stderr captured in memory.

    The garbage collector is run first, outside the timed region, so each
    invocation starts from a collected heap as a fresh CLI process would,
    whatever ran before it.
    """
    gc.collect()
    buf = io.BytesIO()
    stdout, stderr = io.TextIOWrapper(buf, encoding="utf-8"), io.StringIO()
    saved = sys.stdout, sys.stderr
    sys.stdout, sys.stderr = stdout, stderr
    t0 = time.perf_counter()
    try:
        rc = tracer.run(main, inv.argv) if tracer else main(inv.argv)
    except SystemExit as exc:          # argparse rejects the arguments
        rc = exc.code if isinstance(exc.code, int) else 2
    except Exception:                  # a traceback: the CLI would exit 1
        rc = 1
        stderr.write(traceback.format_exc())
    finally:
        seconds = time.perf_counter() - t0
        stdout.flush()
        sys.stdout, sys.stderr = saved
    return Outcome(inv, rc, seconds, buf.getvalue().decode("utf-8"), stderr.getvalue())


def run_pass(main, invocations, tracer=None, probes=None):
    """Invoke one pass; its wall time is the sum of the invocations'.

    With a ``probes`` list, the host-speed probe is timed before each
    invocation and appended to it.
    """
    outcomes = []
    for inv in invocations:
        if probes is not None:
            probes.append(speed.probe())
        outcomes.append(invoke(main, inv, tracer))
    return outcomes, sum(o.seconds for o in outcomes)


def check_outcomes(outcomes, work, reference):
    for o in outcomes:
        try:
            if o.inv.builtin:
                o.problems = checks.check_builtin(reference, o.inv.label,
                                                  o.rc, o.out, o.err)
            else:
                o.problems = checks.check_generated(
                    o.inv.command, work.documents[o.inv.problem], o.rc, o.out, o.err)
        except Exception as exc:        # a malformed report fails its check
            o.problems = [f"check raised {type(exc).__name__}: {exc}"]


def percentile(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def rows(outcomes):
    """Latency and exit codes of each (command, problem) row."""
    by_label = {}
    for o in outcomes:
        by_label.setdefault(o.inv.label, []).append(o)
    return {label: {"latency_ms.median": statistics.median(o.scaled for o in group) * 1e3,
                    "wall_latency_ms.median":
                        statistics.median(o.seconds for o in group) * 1e3,
                    "samples": len(group),
                    "exit_codes": sorted({o.rc for o in group}),
                    "check_failures": sum(1 for o in group if o.problems)}
            for label, group in sorted(by_label.items())}


def machine():
    return {"python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "machine": platform.machine(),
            "platform": platform.platform(),
            "processor": platform.processor(),
            "nproc": os.cpu_count()}


def measure(main, work, reference, seconds):
    """Whole passes until ``seconds`` are over and MIN_SAMPLES are taken.

    Every latency is scaled to the nominal host speed by the probes
    around it; ``analyses_per_s`` is the checked analyses of the whole
    run over the sum of their scaled latencies.
    """
    min_passes = math.ceil(MIN_SAMPLES / len(work.passes[0]))
    outcomes, walls, probes = [], [], []
    t_start = time.perf_counter()
    for invocations in work.passes:
        if len(walls) >= min_passes and time.perf_counter() - t_start >= seconds:
            break
        done, wall = run_pass(main, invocations, probes=probes)
        check_outcomes(done, work, reference)
        outcomes += done
        walls.append(wall)
    probes.append(speed.probe())
    for o, local in zip(outcomes, speed.local_speeds(probes)):
        o.scaled = speed.scale(o.seconds, local)
    ok = sum(1 for o in outcomes if o.rc == 0 and not o.problems)
    latencies = [o.scaled * 1e3 for o in outcomes]
    walls_ms = [o.seconds * 1e3 for o in outcomes]
    metrics = {
        "analyses_per_s": ok / sum(o.scaled for o in outcomes),
        "latency_ms.p50": percentile(latencies, 50),
        "latency_ms.p90": percentile(latencies, 90),
        "ok_share": ok / len(outcomes),
        "failed_share": 1 - ok / len(outcomes),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    wall = {
        "analyses_per_s": ok / sum(walls),
        "latency_ms.p50": percentile(walls_ms, 50),
        "latency_ms.p90": percentile(walls_ms, 90),
        "probe_ms.median": statistics.median(probes) * 1e3,
    }
    samples = {name: len(latencies) for name in metrics}
    samples["peak_rss_mb"] = 1
    beyond_p90 = sum(1 for x in latencies if x > metrics["latency_ms.p90"])
    return outcomes, metrics, {"passes": len(walls), "samples": samples,
                               "samples_beyond_p90": beyond_p90,
                               "pass_wall_s": walls, "wall": wall}


def trace(main, work, reference):
    invocations = work.passes[0]
    plain, untraced_s = run_pass(main, invocations)
    tracer = layers.Tracer(os.path.join(SRC, "diskeds"))
    traced, traced_s = run_pass(main, invocations, tracer)
    outcomes = plain + traced
    check_outcomes(outcomes, work, reference)
    metrics = tracer.metrics(len(traced), [o.rc for o in traced], untraced_s, traced_s)
    return outcomes, metrics, {"passes": 2,
                               "samples": {name: 1 for name in metrics}}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    opts = ap.parse_args(argv)

    sys.path.insert(0, SRC)
    try:
        from diskeds.cli import main as cli_main
    except ImportError as exc:
        print(f"cannot import diskeds from {SRC}: {exc}", file=sys.stderr)
        return 2
    reference = checks.load_reference()

    workdir = os.path.join(WORK, f"{opts.workload}-{opts.seed}-{os.getpid()}")
    try:
        work, setup_s, setup_wall_s = setup(opts.workload, opts.seed, workdir)
        if opts.trace:
            outcomes, metrics, info = trace(cli_main, work, reference)
            units = {name: unit for name, unit, _ in layers.METRICS}
        else:
            outcomes, metrics, info = measure(cli_main, work, reference, opts.seconds)
            metrics["setup_s"] = setup_s
            info["samples"]["setup_s"] = SETUP_REPEATS
            info["wall"]["setup_s"] = setup_wall_s
            units = E2E_UNITS
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failures = [o for o in outcomes if o.problems]
    for o in failures[:10]:
        print(f"CHECK FAILED {o.inv.label}: {'; '.join(o.problems)}", file=sys.stderr)
    for name in sorted(metrics):
        print(f"{opts.workload} {name} = {metrics[name]:.6g} {units[name]} "
              f"(samples {info['samples'][name]})")
    if not opts.trace:
        print(f"{opts.workload} passes = {info['passes']}, "
              f"latency samples beyond p90 = {info['samples_beyond_p90']}")
        print(f"{opts.workload} unscaled wall clock: "
              + ", ".join(f"{k} = {v:.6g}" for k, v in sorted(info["wall"].items())))

    print(f"machine: {json.dumps(machine(), sort_keys=True)}")
    results = {"workload": opts.workload, "seed": opts.seed, "seconds": opts.seconds,
               "trace": opts.trace, "machine": machine(), "info": info,
               "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
               "rows": rows(outcomes)}
    os.makedirs(WORK, exist_ok=True)
    path = os.path.join(WORK, f"results-{opts.workload}-seed{opts.seed}-trace{opts.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(results, fh, indent=1, sort_keys=True)
    print(f"results written to {os.path.relpath(path, ROOT)}")

    declared = [n for n, _, _ in layers.METRICS] if opts.trace else \
        [n for n in E2E_UNITS if n != "failed_share"]
    print(json.dumps({
        "correct": not failures,
        "attempted": len(outcomes),
        "failed": len(failures),
        "metrics": {n: {"value": metrics[n], "unit": units[n]} for n in declared},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
