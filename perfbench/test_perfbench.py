"""Tests of the benchmark's own code.

    python3 -m pytest perfbench -q
"""
import json
import os
import sys

import pytest

import checks
import layers
import run
import speed
import workloads

sys.path.insert(0, run.SRC)
from diskeds.cli import main as cli_main  # noqa: E402

GENERATED = ("dimension_sweep", "polynomial_structure")


def _generate(name, seed, workdir, npasses=2):
    work = run.WORKLOADS[name](seed, str(workdir), npasses)
    run.write_documents(work)
    return work


def _cheap(invocations):
    """Invocations of a pass that run in well under a second each."""
    return [inv for inv in invocations
            if inv.command in ("involutivity", "torsion")
            and "_n3" not in inv.label and "_n4" not in inv.label
            and "_n5" not in inv.label]


@pytest.mark.parametrize("name", GENERATED)
def test_same_seed_gives_same_documents(name, tmp_path):
    a = _generate(name, 7, tmp_path)
    b = _generate(name, 7, tmp_path)
    assert a.documents == b.documents
    assert [[i.argv for i in p] for p in a.passes] == [[i.argv for i in p] for p in b.passes]
    for path, doc in a.documents.items():
        with open(path, encoding="utf-8") as fh:
            assert json.load(fh) == doc


@pytest.mark.parametrize("name", GENERATED)
def test_different_seed_gives_different_documents(name, tmp_path):
    a = _generate(name, 7, tmp_path)
    b = _generate(name, 8, tmp_path)
    assert a.documents.keys() == b.documents.keys()
    assert a.documents != b.documents


def test_builtin_seed_only_permutes_the_pass():
    a = workloads.builtin_cli(7, "", 3)
    b = workloads.builtin_cli(8, "", 3)
    labels = sorted(i.label for i in a.passes[0])
    assert len(labels) == 19
    assert all(sorted(i.label for i in p) == labels for p in a.passes + b.passes)
    assert [i.label for i in a.passes[0]] != [i.label for i in b.passes[0]]


def test_two_builtin_passes_give_identical_reports():
    work = workloads.builtin_cli(3, "", 2)
    first, _ = run.run_pass(cli_main, work.passes[0])
    second, _ = run.run_pass(cli_main, work.passes[1])
    by_label = {o.inv.label: (o.rc, o.out) for o in first}
    assert len(by_label) == 19
    for o in second:
        assert (o.rc, o.out) == by_label[o.inv.label], o.inv.label


@pytest.mark.parametrize("name", GENERATED)
def test_regenerated_pass_gives_identical_reports(name, tmp_path):
    outs = []
    for _ in range(2):
        work = _generate(name, 5, tmp_path, npasses=1)
        done, _ = run.run_pass(cli_main, _cheap(work.passes[0]))
        run.check_outcomes(done, work, checks.load_reference())
        assert all(o.rc == 0 and not o.problems for o in done)
        outs.append([o.out.encode() for o in done])
    assert outs[0] == outs[1]


def test_builtin_check_accepts_reference_and_rejects_changes():
    reference = checks.load_reference()
    o = run.invoke(cli_main, workloads.Invocation(
        "involutivity", "hyperquadric", "involutivity hyperquadric"))
    assert checks.check_builtin(reference, "involutivity hyperquadric",
                                o.rc, o.out, o.err) == []
    report = json.loads(o.out)
    report["results"]["q0"] += 1
    report["results"]["layout_field_added_later"] = "ignored"
    assert checks.check_builtin(reference, "involutivity hyperquadric", 0,
                                json.dumps(report), "") == ["field q0 differs from the reference"]
    assert checks.check_builtin(reference, "involutivity hyperquadric", 3, "", "x")


def test_known_failure_counts_but_a_fix_passes_the_check():
    reference = checks.load_reference()
    o = run.invoke(cli_main, workloads.Invocation("dim6", "flat", "dim6 flat"))
    assert o.rc == 2
    assert checks.check_builtin(reference, "dim6 flat", o.rc, o.out, o.err) == []
    fixed = json.dumps({"command": "dim6", "results": {}})
    assert checks.check_builtin(reference, "dim6 flat", 0, fixed, "") == []
    assert checks.check_builtin(reference, "dim6 flat", 3, "", "boom")


def test_generated_checks_catch_a_wrong_gamma(tmp_path):
    work = _generate("dimension_sweep", 2, tmp_path, npasses=1)
    inv = work.passes[0][0]
    assert inv.command == "involutivity"
    o = run.invoke(cli_main, inv)
    doc = work.documents[inv.problem]
    assert checks.check_generated(inv.command, doc, o.rc, o.out, o.err) == []
    report = json.loads(o.out)
    report["results"]["gamma1"][0] = "12345"
    assert checks.check_generated(inv.command, doc, 0, json.dumps(report), "")


def test_generator_polynomials_round_trip():
    poly = {(2, 0, 1): workloads.Fraction(-3, 2), (0, 0, 0): workloads.Fraction(5),
            (0, 1, 0): workloads.Fraction(1)}
    text = workloads.poly_str(poly, 3)
    assert checks._parse_poly(text, 3) == poly


def test_tracer_spans_nest_and_count():
    tracer = layers.Tracer(os.path.join(run.SRC, "diskeds"))
    inv = workloads.Invocation("torsion", "hyperquadric", "torsion hyperquadric")
    o = run.invoke(cli_main, inv, tracer)
    assert o.rc == 0
    m = tracer.metrics(1, [o.rc], 1.0, 2.0)
    assert m["cli.calls"] == 1
    assert m["torsion.coefficient_tables.calls"] >= 1
    assert m["geometry.gamma_beta_symbolic.calls"] >= 1
    for layer in layers.LAYERS:
        assert m[f"{layer}.busy_ms"] >= m[f"{layer}.self_ms"] >= 0
    assert m["cli.busy_ms"] >= m["torsion.busy_ms"] >= m["torsion.coefficient_tables.busy_ms"]
    assert tracer._frames == [] and len(tracer._entries) == 1
    assert {name for name, _, _ in layers.METRICS} == set(m)


def test_speed_scaling_uses_the_probes_around_each_invocation():
    # probes 1..5 surround four invocations; each sees two on either side
    assert speed.local_speeds([1, 2, 3, 4, 5]) == [2, 2.5, 3.5, 4]
    assert speed.scale(0.5, speed.NOMINAL_S) == 0.5
    assert speed.scale(0.5, 2 * speed.NOMINAL_S) == 0.25
    assert speed.kernel() == speed.kernel()
