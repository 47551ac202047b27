"""Problem ingestion, report emission, CLI dispatch and exit codes."""
import contextlib
import functools
import io
import json
import operator
import re
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from diskeds.builtins import BUILTIN_PROBLEMS
from diskeds.errors import (CrossCheckMismatch, DimensionMismatch, DiskEdsError,
                            MalformedSyntax, SchemaViolation)
from diskeds.exact import FirstJet, gaussian
from diskeds.expr import Polynomial, parse_expression, print_polynomial
from diskeds.geometry import FirstJetPoint
from diskeds.jets import Opening, jet_table, make_system
from diskeds.reports import MAX_DIMENSION_2N, Report, build_problem, emit_report, load_problem
from diskeds import cli, expr, jets, reports
from operands import fraction_operands
from oracles import report_by_tree


def run_cli(*args):
    proc = subprocess.run([sys.executable, "-m", "diskeds.cli", *args],
                          capture_output=True)
    return proc.returncode, proc.stdout, proc.stderr


def test_involutivity_builtin_report():
    rc, out, err = run_cli("involutivity", "hyperquadric", "--point", "P0")
    assert rc == 0, err
    doc = json.loads(out)
    assert doc["results"]["D0_zero"] is True
    assert doc["results"]["dims"] == [4, 4, 4, 4]
    assert doc["results"]["q0"] == 0
    assert doc["results"]["D"] == "-4"
    assert doc["warnings"] == []


def test_jets_hyperquadric_chain_via_cli():
    rc, out, _ = run_cli("jets", "hyperquadric", "--stratum", "nonzero_velocity",
                         "--rounds", "3")
    assert rc == 0
    doc = json.loads(out)
    probe = doc["results"]["probes"]["Q0"]
    assert probe["dims"] == [3, 2, 2]
    assert probe["verdict"] == "involutive"
    assert all(probe["torsion_free"])


def test_cusp_origin_warning_via_cli():
    rc, out, _ = run_cli("jets", "cusp", "--stratum", "generic")
    assert rc == 0
    doc = json.loads(out)
    probes = doc["results"]["probes"]
    assert probes["P_generic"]["dims"] == [1, 1]
    assert probes["P_origin"]["dims"] == [2]
    assert any("not locally constant" in w for w in probes["P_origin"]["warnings"])


def test_torsion_and_dim6_and_integral_element_commands():
    rc, out, _ = run_cli("torsion", "hyperquadric", "--jet", "J0")
    assert rc == 0
    doc = json.loads(out)
    assert doc["results"]["case"] == "D0_zero"
    assert doc["results"]["absorbable"] is True

    rc, out, _ = run_cli("dim6", "hyperquadric", "--point", "P0")
    assert rc == 0
    assert json.loads(out)["results"]["verdict"] == "necessary_condition_holds"

    rc, out, _ = run_cli("complex-forms", "hyperquadric", "--point", "P0")
    assert rc == 0
    assert json.loads(out)["results"]["c1_definiteness"] == "not_definite"

    rc, out, _ = run_cli("integral-element", "hyperquadric", "--jet", "J0")
    assert rc == 0
    doc = json.loads(out)
    assert doc["results"]["found"] is True
    assert doc["results"]["verdict"] == "kahler_regular"


def test_determinism_byte_identical():
    outs = set()
    for _ in range(2):
        rc, out, _ = run_cli("all", "hyperquadric")
        assert rc == 0
        outs.add(out)
    assert len(outs) == 1
    outs = set()
    for _ in range(2):
        rc, out, _ = run_cli("integral-element", "hyperquadric", "--jet", "J1",
                             "--format", "text")
        assert rc == 0
        outs.add(out)
    assert len(outs) == 1


def test_text_format_contains_verdicts():
    rc, js, _ = run_cli("jets", "cusp", "--stratum", "vertex")
    rc2, tx, _ = run_cli("jets", "cusp", "--stratum", "vertex", "--format", "text")
    assert rc == 0 and rc2 == 0
    doc = json.loads(js)
    text = tx.decode()

    def verdict_strings(obj):
        if isinstance(obj, dict):
            for k, v in obj.items():
                if k in ("verdict", "conclusion") and isinstance(v, str):
                    yield v
                yield from verdict_strings(v)
        elif isinstance(obj, list):
            for v in obj:
                yield from verdict_strings(v)

    for s in verdict_strings(doc["results"]):
        assert s in text


def test_unknown_problem_exit_2():
    rc, out, err = run_cli("involutivity", "no_such_thing")
    assert rc == 2
    assert b"SchemaViolation" in err


def test_malformed_rational_names_field(tmp_path):
    doc = load_problem("hyperquadric")
    doc["points"]["P0"][2] = "0.5"
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    rc, out, err = run_cli("involutivity", str(path), "--point", "P0")
    assert rc == 2
    assert b"points.P0[2]" in err


def test_json_float_literal_rejected(tmp_path):
    doc = load_problem("hyperquadric")
    text = json.dumps(doc).replace('"1"', '0.5', 1)
    path = tmp_path / "bad2.json"
    path.write_text(text)
    rc, out, err = run_cli("involutivity", str(path))
    assert rc == 2
    assert b"float" in err


def test_cross_check_failure_exit_3(monkeypatch):
    def boom(*a, **k):
        raise CrossCheckMismatch("synthetic")
    monkeypatch.setattr(cli, "run_command", boom)
    assert cli.main(["involutivity", "hyperquadric"]) == 3


def test_emit_report_stability():
    rep = Report("x", "y", "z", {}, {"value": 1, "warn": []}, [])
    assert emit_report(rep, "json") == emit_report(rep, "json")
    obj = json.loads(emit_report(rep, "json"))
    assert obj["results"]["warn"] == []  # empty list serializes, not absent


# report leaves: control and non-ASCII characters in strings, big and
# negative ints, the three constants, and Fractions, one of them past
# 4,300 digits, the int-to-str limit
_report_leaves = st.one_of(
    st.none(), st.booleans(), st.integers(), st.integers(-10 ** 400, 10 ** 400),
    st.text(max_size=6),
    st.text(alphabet=st.sampled_from("\x00\x1f\x7f\"\\/\n\t\u00e9\u2028\ud7ff\U0001f600ab"),
            max_size=6),
    st.fractions(), st.just(4400).map(lambda k: Fraction(-(10 ** k) - 1, 3)))
_report_trees = st.recursive(
    _report_leaves,
    lambda kids: st.one_of(st.lists(kids, max_size=4), st.tuples(kids, kids),
                           st.dictionaries(st.text(max_size=4), kids, max_size=4)),
    max_leaves=30)


@given(_report_trees)
@example({})
@example([])
@example({"": [{}, [], [[]], {"a": {}}]})
@example([True, False, None, 1, -1, 0, 10 ** 300, -(10 ** 300)])
@example({"b": 1, "a": {"\u00e9": "\x00\U0001f600"}, "A": [None]})
@example(((Fraction(1, 3), (Fraction(-2), ())), [(), {"x": (Fraction(10 ** 40, 7),)}]))
@settings(derandomize=True, database=None, max_examples=300, deadline=None)
def test_the_report_writer_writes_what_json_dumps_writes(tree):
    # one pass over the command's own values gives the bytes of json.dumps
    # with sorted keys and an indent of 2 over their tree of strings, and
    # the text lines of that tree, whatever the nesting and the characters
    report = Report("torsion", "doc.json", "0" * 64, {"point": "P0"}, tree, ("W",))
    for fmt in ("json", "text"):
        assert emit_report(report, fmt) == report_by_tree(report, fmt)


def test_digest_detects_input_drift():
    a = build_problem(load_problem("hyperquadric"), "h")
    doc = load_problem("hyperquadric")
    doc["points"]["P0"][0] = "2"
    doc["points"]["P0"][2] = "2"  # stays on the hypersurface
    b = build_problem(doc, "h")
    assert a.digest != b.digest


@given(st.binary(max_size=300))
@example(bytes(range(256)) * 8)
@settings(derandomize=True, database=None, max_examples=200, deadline=None)
def test_the_digest_sha256_is_hashlib_sha256(data):
    # the interpreter's own SHA-256 the digest uses, against OpenSSL's;
    # sizes across the 55/64-byte padding and block boundaries
    import hashlib
    assert reports.sha256(data).hexdigest() == hashlib.sha256(data).hexdigest()
    doc = {"blob": data.hex(), "dimension_2n": 4}
    canonical = json.dumps(doc, sort_keys=True, separators=(",", ":")).encode("utf-8")
    assert reports.problem_digest(doc) == hashlib.sha256(canonical).hexdigest()


def test_the_hashlib_fallback_reproduces_the_golden_digest():
    # an interpreter built without _sha2 and _sha256 digests through
    # hashlib, to the same bytes
    code = ("import sys\n"
            "sys.modules['_sha2'] = sys.modules['_sha256'] = None\n"
            "from diskeds import cli\n"
            "rc = cli.main(['torsion', 'hyperquadric', '--format', 'json'])\n"
            "print(rc, 'hashlib' in sys.modules, file=sys.stderr)\n")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True)
    golden = Path(__file__).resolve().parent / "golden" / "torsion-hyperquadric-json.out"
    assert done.stderr == b"0 True\n"
    assert done.stdout == golden.read_bytes()


def test_pseudo_ellipsoid_command(tmp_path):
    doc = {
        "dimension_2n": 6,
        "coordinates": [f"y{i}" for i in range(1, 7)],
        "pseudo_ellipsoid": {"alphas": ["1", "1", "-1", "-1", "1", "1"],
                             "ks": [1, 1, 1, 1, 1, 1]},
        "points": {"Y0": ["1", "0", "1", "0", "0", "0"],
                   "Y2": ["0", "0", "1", "0", "0", "0"]},
    }
    path = tmp_path / "pe.json"
    path.write_text(json.dumps(doc))
    rc, out, _ = run_cli("pseudo-ellipsoid", str(path), "--point", "Y0")
    assert rc == 0
    res = json.loads(out)["results"]
    assert res["L"] == "0" and res["verdict"] == "holds"
    assert res["off_surface"] is False
    rc, out, _ = run_cli("pseudo-ellipsoid", str(path), "--point", "Y2")
    res = json.loads(out)["results"]
    assert res["L"] == "64"
    assert res["verdict"] == "violated" and res["off_surface"] is True


@pytest.mark.parametrize("block, message", [
    ({"ks": [1] * 6}, "missing field pseudo_ellipsoid.alphas"),
    ({"alphas": ["1"] * 6}, "missing field pseudo_ellipsoid.ks"),
    ({"alphas": ["1"] * 6, "ks": "abc"}, "pseudo_ellipsoid.ks must be a list"),
    ({"alphas": ["1"] * 6, "ks": [1, 1, "3/2", 1, 1, 1]},
     "pseudo_ellipsoid.ks must be integers"),
    ({"alphas": "1", "ks": [1] * 6}, "pseudo_ellipsoid.alphas must be a list"),
    ({"alphas": 1, "ks": [1] * 6}, "pseudo_ellipsoid.alphas must be a list"),
    (5, "pseudo_ellipsoid must be an object"),
], ids=["no_alphas", "no_ks", "ks_string", "ks_fraction", "alphas_string",
        "alphas_number", "block_number"])
def test_bad_pseudo_ellipsoid_block_is_schema_violation(block, message, tmp_path,
                                                        capsys):
    doc = {"dimension_2n": 6, "pseudo_ellipsoid": block,
           "points": {"Y0": ["1", "0", "1", "0", "0", "0"]}}
    path = tmp_path / "pe.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["pseudo-ellipsoid", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("SchemaViolation: ") and message in err
    assert "Traceback" not in err


def test_non_list_point_is_schema_violation(tmp_path, capsys):
    doc = json.loads(json.dumps(SCHEMA_DOC))
    doc["points"]["P"] = 7
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["involutivity", str(path)]) == 2
    assert capsys.readouterr().err == (
        "SchemaViolation: points.P must be a list of exact rationals\n")


def test_matrix_structure_problem_file(tmp_path):
    # a general-structure problem through the file interface
    entries = [["0"] * 4 for _ in range(4)]
    entries[0][1] = "-1"
    entries[1][0] = "1"
    entries[2][3] = "-1 - f1"
    entries[3][2] = "1"
    doc = {
        "dimension_2n": 4,
        "rho": "f4 + f1^2 + f2^2 + f3",
        "structure": {"kind": "matrix", "entries": entries},
        "points": {"P": ["0", "0", "0", "0"]},
        "jets": {"J": {"point": "P", "p_reduced": ["1", "0"]}},
    }
    path = tmp_path / "m.json"
    path.write_text(json.dumps(doc))
    rc, out, _ = run_cli("involutivity", str(path), "--point", "P")
    assert rc == 0
    doc_out = json.loads(out)
    assert "dims" in doc_out["results"]


def test_pair_structure_problem_file(tmp_path):
    A = [["0"] * 4 for _ in range(4)]
    A[0][1] = "-1"
    A[1][0] = "1"
    A[2][3] = "-1"
    A[3][2] = "1"
    doc = {
        "dimension_2n": 4,
        "rho": "f4 + f1*f2 + f3",
        "structure": {"kind": "pair", "a": "f1", "b": "1", "A": A},
        "points": {"P": ["0", "0", "0", "0"]},
    }
    path = tmp_path / "p.json"
    path.write_text(json.dumps(doc))
    rc, out, _ = run_cli("involutivity", str(path), "--point", "P")
    assert rc == 0
    res = json.loads(out)["results"]
    assert res["D0_zero"] is True  # almost complex reduction


def test_not_almost_complex_warning_surfaces(tmp_path):
    A = [["0"] * 4 for _ in range(4)]
    A[0][1] = "-2"  # A^2 != -I
    A[1][0] = "1"
    A[2][3] = "-1"
    A[3][2] = "1"
    doc = {
        "dimension_2n": 4,
        "rho": "f4 + f1*f2 + f3",
        "structure": {"kind": "pair", "a": "0", "b": "1", "A": A},
        "points": {"P": ["0", "0", "0", "0"]},
    }
    path = tmp_path / "warn.json"
    path.write_text(json.dumps(doc))
    rc, out, _ = run_cli("involutivity", str(path), "--point", "P")
    assert rc == 0
    assert "NotAlmostComplex" in json.loads(out)["warnings"]


def test_order_and_seed_are_not_options():
    # dims always runs to 2n - 2, where dim A^(q) is constant, and the flag
    # search's sampled tail has one fixed seed, so neither has an option
    for argv, refused in ((["involutivity", "hyperquadric", "--point", "P0"], ["--order", "2"]),
                          (["integral-element", "hyperquadric"], ["--seed", "7"]),
                          (["all", "hyperquadric"], ["--order", "4", "--seed", "0"])):
        rc, out, err = run_cli(*argv, *refused)
        assert rc == 2 and out == b""
        assert err.endswith(f"unrecognized arguments: {' '.join(refused)}\n".encode())


@pytest.mark.parametrize("argv, message", [
    (["torsion", "hyperquadric", "--flag", "F"], "--flag is not read by torsion"),
    (["complex-forms", "hyperquadric", "--stratum", "nope", "--rounds", "7"],
     "--stratum is not read by complex-forms"),
    (["all", "hyperquadric", "--stratum", "nonzero_velocity"],
     "--stratum is not read by all"),
    (["jets", "hyperquadric", "--point", "P0"], "--point is not read by jets"),
    (["integral-element", "hyperquadric", "--point", "P0"],
     "--point is not read by integral-element"),
    (["involutivity", "hyperquadric", "--flag", "F"], "--flag is not read by involutivity"),
    (["all", "hyperquadric", "--probe", "Q0"], "--probe is not read by all"),
    (["torsion", "hyperquadric", "--trials", "3"], "--trials is not read by torsion"),
])
def test_an_option_the_command_does_not_read_exits_2(argv, message, capsys):
    # an unread option would otherwise be echoed under options as if it
    # had shaped the report
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"SchemaViolation: {message}\n"


def test_all_runs_every_probe_of_every_stratum(capsys):
    # a probe belongs to one stratum, so --probe could never name a probe
    # of each of cusp's two strata; all runs them all instead
    assert cli.main(["all", "cusp", "--probe", "P_origin"]) == 2
    assert capsys.readouterr().err == "SchemaViolation: --probe is not read by all\n"
    assert cli.main(["all", "cusp"]) == 0
    results = json.loads(capsys.readouterr().out)["results"]
    assert sorted(results["jets[generic]"]["probes"]) == ["P_generic", "P_origin"]
    assert sorted(results["jets[vertex]"]["probes"]) == ["R0"]


def test_each_command_takes_the_options_it_reads(capsys):
    # all reads what its sections read; the echo is exactly the options set
    for argv, options in (
            (["all", "hyperquadric", "--point", "P0", "--jet", "J1", "--rounds", "1"],
             {"point": "P0", "jet": "J1", "rounds": 1}),
            (["torsion", "hyperquadric", "--jet", "J1"], {"jet": "J1"}),
            (["dim6", "hyperquadric", "--format", "json"], {}),
            (["integral-element", "hyperquadric", "--jet", "J1", "--trials", "3"],
             {"jet": "J1", "trials": 3}),
            (["jets", "cusp", "--stratum", "generic", "--probe", "P_origin",
              "--rounds", "1"], {"stratum": "generic", "probe": "P_origin", "rounds": 1})):
        assert cli.main(argv) == 0
        assert json.loads(capsys.readouterr().out)["options"] == options


# the options each command reads, as the README lists them
READS = {"involutivity": {"point"}, "torsion": {"jet"}, "complex-forms": {"point"},
         "dim6": {"point"}, "pseudo-ellipsoid": {"point"},
         "integral-element": {"jet", "flag", "trials"},
         "jets": {"stratum", "probe", "rounds"}, "all": {"point", "jet", "rounds"}}


def test_every_option_but_format_exits_2_where_it_is_not_read(capsys):
    values = {"point": "P0", "jet": "J1", "stratum": "S", "probe": "Q0",
              "rounds": "1", "flag": "F", "trials": "3"}
    declared = {s for action in cli.build_parser()._actions for s in action.option_strings}
    assert declared == {"-h", "--help", "--format"} | {f"--{k}" for k in values}
    assert sorted(READS) == sorted(cli.COMMANDS)
    for command, reads in READS.items():
        for name in sorted(set(values) - reads):
            assert cli.main([command, "hyperquadric", f"--{name}", values[name]]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == f"SchemaViolation: --{name} is not read by {command}\n"


@pytest.mark.parametrize("command", ["involutivity", "all"])
def test_negative_order_exit_2(command, capsys):
    # --order is no option, so argparse refuses it whatever its value, and
    # main returns 2 as for every other input error
    for order in ("-1", "0"):
        assert cli.main([command, "hyperquadric", "--order", order]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"unrecognized arguments: --order {order}" in captured.err


@pytest.mark.parametrize("fmt", ["json", "text"])
@pytest.mark.parametrize("argv, message", [
    (["jets", "hyperquadric", "--rounds", "0"], "--rounds must be at least 1, got 0"),
    (["jets", "cusp", "--stratum", "generic", "--rounds", "-2"],
     "--rounds must be at least 1, got -2"),
    (["all", "hyperquadric", "--rounds", "0"], "--rounds must be at least 1, got 0"),
    (["integral-element", "hyperquadric", "--trials", "0"],
     "--trials must be at least 1, got 0"),
])
def test_a_count_below_1_names_the_option(argv, message, fmt, capsys):
    # a count is bad input named by its option, not by a library parameter
    assert _cli_exit_2(argv, fmt, capsys) == f"SchemaViolation: {message}\n"


def test_jets_probe_selection():
    rc, out, _ = run_cli("jets", "cusp", "--stratum", "generic",
                         "--probe", "P_origin")
    assert rc == 0
    probes = json.loads(out)["results"]["probes"]
    assert list(probes) == ["P_origin"]
    # the cross-probe warning is still computed against the other probes
    assert any("not locally constant" in w
               for w in probes["P_origin"]["warnings"])


def test_pair_fallback_reports_coordinate_mapping(tmp_path):
    # rho = f3 + f1*f2: at the origin-like point the (1,2) chart is
    # singular; the scan must land on another pair and the report must
    # say which user coordinates the reduced entries refer to
    doc = {
        "dimension_2n": 4,
        "rho": "f3 + f1^2 - f2^2 + f4^2",
        "structure": {"kind": "complex_standard"},
        "points": {"P": ["0", "0", "0", "0"]},
    }
    path = tmp_path / "fb.json"
    path.write_text(json.dumps(doc))
    rc, out, _ = run_cli("involutivity", str(path), "--point", "P")
    assert rc == 0
    res = json.loads(out)["results"]
    assert res["distinguished_pair"] != [1, 2]
    pair = res["distinguished_pair"]
    assert sorted(pair + res["reduced_coordinates"]) == [1, 2, 3, 4]


@pytest.mark.parametrize("command", ["complex-forms", "dim6"])
def test_flat_charts_the_complex_forms_at_5_6(command):
    # flat's gradient is zero on z1 and z2, so the closed forms chart at
    # z3 = (f5, f6), the first pair with D != 0, whatever pair is declared
    rc, out, err = run_cli(command, "flat")
    assert rc == 0 and err == b""
    results = json.loads(out)["results"]
    assert results["distinguished_pair"] == [5, 6]
    assert results["reduced_coordinates"] == [1, 2, 3, 4]
    assert results["c1_definiteness"] == results["c2_definiteness"] == "not_definite"
    if command == "complex-forms":
        assert set(results["B_lower"].values()) == set(results["B_upper"].values()) == {"0"}
        assert results["c1_matrix"] == results["c2_matrix"] == [["0"] * 4] * 4
    else:
        assert results["delta1"] == results["delta2"] == "0"
        assert results["verdict"] == "necessary_condition_holds"


def test_all_flat_runs_dim6_at_chart_5_6():
    rc, out, err = run_cli("all", "flat")
    assert rc == 0 and err == b""
    results = json.loads(out)["results"]
    assert sorted(results) == ["dim6", "involutivity", "jets[base]", "torsion"]
    assert results["dim6"]["distinguished_pair"] == [5, 6]
    assert results["dim6"]["verdict"] == "necessary_condition_holds"
    assert results["involutivity"]["dims"] == [4, 4, 4, 4]
    assert results["torsion"]["absorbable"] is True


def test_all_cross_check_failure_still_exit_3(monkeypatch, capsys):
    def boom(*a, **k):
        raise CrossCheckMismatch("synthetic")
    monkeypatch.setattr(cli, "cmd_dim6", boom)
    assert cli.main(["all", "hyperquadric"]) == 3
    assert capsys.readouterr().out == ""


# hyperquadric with rho_1 = rho_2 = 0 at P0: D = -(rho_1^2 + rho_2^2)
# vanishes at the point but not identically
SINGULAR_AT_JET = {
    "dimension_2n": 6,
    "rho": "2*f5 + f1^2 + f2^2 - f3^2 - f4^2",
    "structure": {"kind": "complex_standard"},
    "distinguished_pair": [1, 2],
    "points": {"P0": ["0", "0", "1", "0", "1/2", "0"]},
    "jets": {"J0": {"point": "P0", "p_reduced": ["1", "0", "0", "1"]}},
}


@pytest.mark.parametrize("command", ["torsion", "integral-element"])
def test_D_zero_at_the_jet_only_exit_2(command, tmp_path):
    path = tmp_path / "singular.json"
    path.write_text(json.dumps(SINGULAR_AT_JET))
    rc, out, err = run_cli(command, str(path))
    assert rc == 2 and out == b""
    assert err.startswith(b"SingularD: ")
    assert b"Traceback" not in err


# alpha = 2 I makes mu = 2 grad(rho), so D = 0 at every pair and every point
NO_CHART = {
    "dimension_2n": 4,
    "rho": "f1 + f2^2 - f3 + f4",
    "structure": {"kind": "matrix",
                  "entries": [["2" if i == j else "0" for j in range(4)] for i in range(4)]},
    "points": {"P": ["1", "1", "1", "-1"]},
    "jets": {"J": {"point": "P", "p_reduced": ["1", "0"]}},
    "flags": {"zero_weights": {"a1": ["1", "0"], "a2": ["0", "1"], "c1": ["0", "0"],
                               "c2": ["0", "0"], "alpha": "0", "beta": "0"}},
}


@pytest.mark.parametrize("pair, singular", [
    (None, "SingularD: D = 0 at the point for every distinguished pair"),
    ([1, 2], "SingularD: D = 0 at this point; try another distinguished pair"),
], ids=["no_pair", "pair_1_2"])
def test_an_inadmissible_flag_is_reported_before_a_singular_chart(pair, singular,
                                                                  tmp_path, capsys):
    # with a pair named or not: the flag is checked before any chart
    doc = NO_CHART if pair is None else {**NO_CHART, "distinguished_pair": pair}
    path = tmp_path / "no_chart.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["integral-element", str(path), "--flag", "zero_weights"]) == 2
    assert capsys.readouterr().err == "InadmissibleFlag: (alpha, beta) = (0, 0)\n"
    assert cli.main(["integral-element", str(path)]) == 2
    assert capsys.readouterr().err == singular + "\n"


@pytest.mark.parametrize("argv, message", [
    (["involutivity", "hyperquadric", "--point", "nope"], "unknown point 'nope'; have P0"),
    (["torsion", "hyperquadric", "--jet", "nope"], "unknown jet 'nope'; have J0, J1"),
    (["jets", "hyperquadric", "--stratum", "nope"],
     "unknown stratum 'nope'; have nonzero_velocity"),
    (["jets", "hyperquadric", "--probe", "nope"], "unknown probe 'nope'; have Q0, Q1"),
], ids=["point", "jet", "stratum", "probe"])
def test_an_unknown_name_exits_2_naming_what_it_is(argv, message, capsys):
    assert cli.main(argv) == 2
    assert capsys.readouterr().err == f"SchemaViolation: {message}\n"


@pytest.mark.parametrize("command", ["complex-forms", "dim6"])
def test_the_complex_forms_ignore_a_declared_pair_with_D_zero(command, tmp_path):
    # the declared pair (1, 2) has D = 0 at the point; the closed forms
    # chart at the first pair with D != 0, (3, 4), as the builders do
    path = tmp_path / "singular.json"
    path.write_text(json.dumps(SINGULAR_AT_JET))
    rc, out, err = run_cli(command, str(path))
    assert rc == 0 and err == b""
    results = json.loads(out)["results"]
    assert results["distinguished_pair"] == [3, 4]
    assert results["reduced_coordinates"] == [1, 2, 5, 6]
    if command == "complex-forms":
        assert (results["B_lower"]["2,2"], results["B_lower"]["3,3"]) == ("2", "-2")
        assert results["c2_matrix"] == [["-2", "0", "0", "0"], ["0", "-2", "0", "0"],
                                        ["0", "0", "2", "0"], ["0", "0", "0", "2"]]
    else:
        assert results["verdict"] == "necessary_condition_holds"


def test_all_marks_each_section_singular_at_the_point(tmp_path, capsys):
    # the sections charted at the declared pair are singular; dim6 charts
    # on its own at (3, 4)
    path = tmp_path / "singular.json"
    path.write_text(json.dumps(SINGULAR_AT_JET))
    assert cli.main(["all", str(path)]) == 0
    results = json.loads(capsys.readouterr().out)["results"]
    assert sorted(results) == ["dim6", "involutivity", "torsion"]
    assert results["involutivity"] == results["torsion"] == {
        "not_applicable": "SingularD: D = 0 at this point; try another distinguished pair"}
    assert results["dim6"]["distinguished_pair"] == [3, 4]


def test_torsion_command_builds_structure_equations_once(monkeypatch, capsys):
    from diskeds import torsion
    real = torsion.structure_equation_coefficients
    builds = []

    def counting(problem, jet):
        builds.append(jet)
        return real(problem, jet)

    monkeypatch.setattr(torsion, "structure_equation_coefficients", counting)
    assert cli.main(["torsion", "hyperquadric"]) == 0
    assert len(builds) == 1


# every optional block that has required fields: a pair structure, a flag
# and a dict-form stratum opening
SCHEMA_DOC = {
    "dimension_2n": 4,
    "rho": "f4 + f1^2 + f2*f3",
    "structure": {"kind": "pair", "a": "f1", "b": "1",
                  "A": [["0", "-1", "0", "0"], ["1", "0", "0", "0"],
                        ["0", "0", "0", "-1"], ["0", "0", "1", "0"]]},
    "distinguished_pair": [1, 2],
    "points": {"P": ["1", "0", "0", "-1"]},
    "flags": {"F": {"a1": ["1", "0"], "a2": ["0", "1"],
                    "c1": ["0", "0"], "c2": ["0", "0"]}},
    "strata": {"S": {"equalities": ["z2 + zb2 + z1*zb1"],
                     "openings": [{"expr": "w1*wb1", "sign": "+"}]}},
}


def test_schema_document_is_valid(tmp_path, capsys):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(SCHEMA_DOC))
    assert cli.main(["involutivity", str(path)]) == 0


@pytest.mark.parametrize("field", [
    ("structure", "a"), ("structure", "b"), ("structure", "A"),
    ("flags", "F", "a1"), ("flags", "F", "a2"), ("flags", "F", "c1"),
    ("flags", "F", "c2"), ("strata", "S", "openings", 0, "expr"),
], ids=lambda field: ".".join(map(str, field)))
def test_missing_field_is_schema_violation(field, tmp_path, capsys):
    doc = json.loads(json.dumps(SCHEMA_DOC))
    parent = doc
    for key in field[:-1]:
        parent = parent[key]
    del parent[field[-1]]
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["involutivity", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("SchemaViolation: missing field")
    assert "Traceback" not in err


@pytest.mark.parametrize("key, value, message", [
    ("alpha", [1], "flags.F.alpha must be an exact rational 'p/q' string or integer"),
    ("beta", True, "flags.F.beta must be an exact rational 'p/q' string or integer"),
    ("alpha", "0.5", "flags.F.alpha: not an exact rational: '0.5'"),
    ("beta", "1/0", "flags.F.beta: zero denominator: '1/0'"),
])
def test_bad_flag_weight_names_its_field(key, value, message, tmp_path, capsys):
    doc = json.loads(json.dumps(SCHEMA_DOC))
    doc["flags"]["F"][key] = value
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["involutivity", str(path)]) == 2
    err = capsys.readouterr().err
    assert err == f"SchemaViolation: {message}\n"


@pytest.mark.parametrize("weights, want", [
    ({}, (1, 0)), ({"alpha": None, "beta": None}, (1, 0)),
    ({"alpha": "-3/2", "beta": 2}, (Fraction(-3, 2), 2)),
])
def test_flag_weights_read_as_exact_rationals(weights, want):
    doc = json.loads(json.dumps(SCHEMA_DOC))
    doc["flags"]["F"].update(weights)
    flag = build_problem(doc).flags["F"]
    assert (flag.alpha, flag.beta) == want
    assert all(type(x) is Fraction for x in (flag.alpha, flag.beta))


@pytest.mark.parametrize("value, rc, message", [
    ("absent", 2, "DimensionMismatch: point is off the hypersurface: rho = -1"),
    (False, 2, "DimensionMismatch: point is off the hypersurface: rho = -1"),
    ("false", 2, "SchemaViolation: jets.J.allow_off_surface must be true or false"),
    (1, 2, "SchemaViolation: jets.J.allow_off_surface must be true or false"),
    (True, 0, ""),
])
def test_allow_off_surface_is_a_json_boolean(value, rc, message, tmp_path, capsys):
    # rho = -1 at P: only the JSON true skips the on-surface check
    doc = {"dimension_2n": 4, "rho": "f4 + f1^2 + f2*f3",
           "points": {"P": ["0", "0", "0", "-1"]},
           "jets": {"J": {"point": "P", "p_reduced": ["1", "0"]}}}
    if value != "absent":
        doc["jets"]["J"]["allow_off_surface"] = value
    path = tmp_path / "off.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["torsion", str(path)]) == rc
    out, err = capsys.readouterr()
    assert err.strip() == message
    if rc == 0:
        assert json.loads(out)["results"]["jet"] == "J"


def _count_gamma_beta_builds(monkeypatch):
    """Count pointwise gamma/beta builds, first-jet gamma builds along the
    coordinate axes and along-the-jet reads, wherever called, and the
    passes that read derivatives off a polynomial's monomials."""
    from diskeds import geometry, involutivity, torsion
    from diskeds.expr import Polynomial
    counts = {"pointwise": 0, "first_jets": 0, "along_jet": 0, "derivative_passes": 0}

    def counting(key, real, counts_call=lambda *args, **kwargs: True):
        def wrapper(*args, **kwargs):
            counts[key] += counts_call(*args, **kwargs)
            return real(*args, **kwargs)
        return wrapper

    wrappers = {
        "compute_gamma_beta": counting("pointwise", geometry.compute_gamma_beta,
                                       lambda problem, point=None: point is not None),
        "gamma_first_jets": counting("first_jets", geometry.gamma_first_jets),
        "gamma_beta_along_jet": counting("along_jet", geometry.gamma_beta_along_jet),
    }
    for module in (geometry, involutivity, torsion, cli):
        for name, wrapper in wrappers.items():
            if hasattr(module, name):
                monkeypatch.setattr(module, name, wrapper)
    monkeypatch.setattr(Polynomial, "derivatives_at",
                        counting("derivative_passes", Polynomial.derivatives_at))
    return counts


@pytest.mark.parametrize("builtin", ["hyperquadric", "cusp"])
def test_involutivity_builds_gamma_beta_once(builtin, monkeypatch, capsys):
    # cusp names no distinguished pair, so the fallback scan runs first
    counts = _count_gamma_beta_builds(monkeypatch)
    assert cli.main(["involutivity", builtin]) == 0
    assert (counts["pointwise"], counts["first_jets"], counts["along_jet"]) == (1, 0, 0)


@pytest.mark.parametrize("command", ["torsion", "integral-element"])
def test_jet_commands_build_first_jets_once_and_no_pointwise(command, monkeypatch,
                                                             capsys):
    # one build along the jet gives the pointwise data and the first jets
    # along p1, p2, from one pass over rho's monomials
    counts = _count_gamma_beta_builds(monkeypatch)
    assert cli.main([command, "hyperquadric"]) == 0
    assert counts == {"pointwise": 0, "first_jets": 0, "along_jet": 1,
                      "derivative_passes": 1}


def _no_pair_document(name):
    """A document that names no distinguished pair: the builtin flat, the
    builtin cusp with a jet at its point, or n3_matrix (degree-1 matrix
    structure)."""
    if name == "n3_matrix":
        return json.loads((DOCS / "n3_matrix.json").read_text())
    jets = {"J0": {"point": "P0", "p_reduced": ["1", "0", "0", "0"]}}
    return {**BUILTIN_PROBLEMS[name], "jets": jets}


@pytest.mark.parametrize("command", ["involutivity", "torsion", "integral-element"])
@pytest.mark.parametrize("name", ["flat", "cusp", "n3_matrix"])
def test_a_problem_with_no_pair_reads_its_point_once(command, name, tmp_path,
                                                     monkeypatch, capsys):
    # the builder charts the problem from the derivatives it reads, so
    # picking the pair costs no second pass over rho's monomials
    doc = _no_pair_document(name)
    assert "distinguished_pair" not in doc
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(doc))
    counts = _count_gamma_beta_builds(monkeypatch)
    assert cli.main([command, str(path)]) == 0
    assert counts["derivative_passes"] == 1


@pytest.mark.parametrize("command, name", [("torsion", "hyperquadric"),
                                           ("complex-forms", "cusp")])
def test_a_constant_structure_entry_costs_no_gradient_pass(command, name, monkeypatch,
                                                           capsys):
    # the standard structure's entries are constants, whose first jets have
    # a zero gradient; only rho's derivatives take a derivative pass over
    # monomials
    from diskeds import expr
    constant = []
    real = expr.polynomial_at

    def counting(pairs, at, order=0, value=True, start=0):
        pairs = list(pairs)
        if order:
            constant.append(not any(map(any, (exps for exps, _ in pairs))))
        return real(pairs, at, order, value, start)

    monkeypatch.setattr(expr, "polynomial_at", counting)
    assert cli.main([command, name]) == 0
    assert constant and not any(constant)


# n = 5, rho = 2 f9 + f1^2 + f2^2 - f3^2 - f4^2 + f5^2 + f6^2 - f7^2 - f8^2:
# the complex_standard alpha has 2n nonzero entries out of 4n^2
N5_HYPERQUADRIC = {
    "dimension_2n": 10,
    "rho": "2*f9 + f1^2 + f2^2 - f3^2 - f4^2 + f5^2 + f6^2 - f7^2 - f8^2",
    "structure": {"kind": "complex_standard"},
    "distinguished_pair": [1, 2],
    "points": {"P0": ["1", "-2", "1", "2", "-1", "1", "2", "-1", "3/2", "1"]},
    "jets": {"J0": {"point": "P0", "p_reduced": ["1", "-2", "3", "1", "-1", "2", "-3", "1"]}},
}


def _count_beta_full_forms(monkeypatch):
    """Count the GammaBetaData records whose beta_full forms, split into
    those with a FirstJet entry and the pointwise ones."""
    from diskeds.exact import FirstJet
    from diskeds.geometry import GammaBetaData
    counts = {"first_jets": 0, "pointwise": 0}
    form = GammaBetaData.beta_full.func

    def counting(gb):
        entries = (*gb.rho_grad, *gb.mu, gb.D, *gb.gamma1, *gb.gamma2,
                   *(x for row in gb.alpha for x in row))
        jets = any(isinstance(x, FirstJet) for x in entries)
        counts["first_jets" if jets else "pointwise"] += 1
        return form(gb)

    wrapper = functools.cached_property(counting)
    wrapper.__set_name__(GammaBetaData, "beta_full")
    monkeypatch.setattr(GammaBetaData, "beta_full", wrapper)
    return counts


# pointwise beta_full formations per command: involutivity and
# integral-element read the rows, torsion's D vectors check against them
# and the complex closed forms read gammas only
BETA_FULL_FORMS = {"involutivity": 1, "torsion": 1, "integral-element": 1,
                   "complex-forms": 0, "dim6": 0}


@pytest.mark.parametrize("command", list(BETA_FULL_FORMS))
@pytest.mark.parametrize("name", ["hyperquadric", "cusp", "n5", "n3_matrix"])
def test_no_first_jet_build_forms_beta(command, name, tmp_path, monkeypatch, capsys):
    # torsion contracts with p before differentiating, so no command forms
    # beta over first jets, and a pointwise beta_full forms at most once
    if name == "hyperquadric":
        path = name
    else:
        doc = N5_HYPERQUADRIC if name == "n5" else _no_pair_document(name)
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(doc))
    counts = _count_beta_full_forms(monkeypatch)
    # the closed forms need the standard structure, dim6 also 2n = 6
    applies = not (name == "n3_matrix" and command in ("complex-forms", "dim6")
                   or name == "n5" and command == "dim6")
    assert cli.main([command, str(path)]) == (0 if applies else 2)
    want = BETA_FULL_FORMS[command] if applies else 0
    assert counts == {"first_jets": 0, "pointwise": want}


def _fraction_operands(argv):
    """[operands, zero operands] that exact arithmetic takes in while the
    CLI runs ``argv`` (see ``operands.py``)."""
    with fraction_operands() as counts:
        assert cli.main(argv) == 0
    return counts


@pytest.mark.parametrize("command", ["torsion", "involutivity"])
def test_exact_zeros_cost_no_multiplication(command, tmp_path, capsys):
    # dense contractions with this alpha multiply by an exact zero in about
    # 80 % of their Fraction products; the kernels skip those terms.  With
    # a dot that skips none, 817 of 2,705 (torsion) and 1,472 of 2,662
    # (involutivity) operands are zeros; with the skipping kernels, 2 of
    # 847 and 0 of 443
    path = tmp_path / "n5.json"
    path.write_text(json.dumps(N5_HYPERQUADRIC))
    operands, zeros = _fraction_operands([command, str(path)])
    assert operands > 100
    assert zeros * 10 <= operands


@pytest.mark.parametrize("command", ["torsion", "integral-element"])
def test_torsion_along_the_jet_is_quadratic_work(command, tmp_path, capsys):
    # the 2n quadratic-form matrices on full gradients took 2,661 (torsion)
    # and 2,873 (integral-element) Fraction operands here, on the same
    # kernels; the derivatives along p1 and p2 took 1,129, under half, and
    # take 847 with rho's derivatives on integer sums (exact.polynomial_at)
    path = tmp_path / "n5.json"
    path.write_text(json.dumps(N5_HYPERQUADRIC))
    assert 100 < _fraction_operands([command, str(path)])[0] <= 847


def test_gaussian_arithmetic_skips_zero_parts(monkeypatch, capsys):
    # a real value in a complexified table is a GaussianRational with an
    # exact-zero imaginary part; term by term, 309 of the 772 Fraction
    # operands GaussianRational's +, - and * took here were such zeros
    from diskeds.exact import GaussianRational
    inside = [0]

    def tracking(real):
        def op(a, b):
            inside[0] += 1
            try:
                return real(a, b)
            finally:
                inside[0] -= 1
        return op

    for name in ("__add__", "__radd__", "__sub__", "__mul__", "__rmul__"):
        monkeypatch.setattr(GaussianRational, name, tracking(getattr(GaussianRational, name)))
    with fraction_operands(lambda: inside[0]) as counts:
        assert cli.main(["jets", "hyperquadric"]) == 0
    operands, zeros = counts
    assert operands > 100
    assert zeros == 0


def test_jets_multiplies_no_coefficient_by_one(capsys):
    # the derivations and the frozen coefficients skip products by 1 (an
    # exponent 1, a term free of lower jets): exact arithmetic took 858
    # Fraction operands here with them and 724 without, and takes 702 with
    # each equality read on integer sums (exact.polynomial_at)
    assert 100 < _fraction_operands(["jets", "hyperquadric"])[0] <= 702


def test_torsion_on_a_degree_1_structure_takes_one_jet_per_dot(tmp_path, capsys):
    # each dot over first jets builds one FirstJet from integer sums, and each
    # distinct entry is read once: exact arithmetic took 1,322 Fraction
    # operands here with a FirstJet per product and per partial sum, 1,013
    # with one per dot, and takes 974 with rho's derivatives on integer
    # sums (exact.polynomial_at)
    path = tmp_path / "degree_1_n3.json"
    path.write_text(json.dumps(DEGREE_1_N3))
    assert 100 < _fraction_operands(["torsion", str(path)])[0] <= 974


def _schema_exit_2(doc, tmp_path, capsys, command="involutivity"):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    assert cli.main([command, str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("SchemaViolation: ") and "Traceback" not in err
    return err


def _same_exit_without_strata(doc, err, tmp_path, capsys):
    """A stratum is checked at load, so the commands that read no stratum
    exit 2 with the same message as jets."""
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    for command in ("torsion", "involutivity"):
        assert cli.main([command, str(path)]) == 2
        assert capsys.readouterr().err == err


DEEP_PARENTHESES = "(" * 3000 + "f1" + ")" * 3000
DEEP_MINUSES = "-" * 3000 + "f1"


@pytest.mark.parametrize("text", [DEEP_PARENTHESES, DEEP_MINUSES], ids=["parentheses", "minuses"])
@pytest.mark.parametrize("where", ["rho", "equality"])
def test_deep_nesting_exits_2_naming_the_offset(where, text, tmp_path, capsys):
    # past MAX_NESTING levels the expression is malformed, never a RecursionError
    doc = json.loads(json.dumps(SCHEMA_DOC))
    if where == "rho":
        doc["rho"] = text
    else:
        doc["strata"]["S"]["equalities"].append(text.replace("f1", "z1"))
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["involutivity", str(path)]) == 2
    assert capsys.readouterr().err == (
        "MalformedSyntax: expression nested deeper than 100 levels (at byte 100)\n")


@pytest.mark.parametrize("value, message", [
    ("3 / 4", "not an exact rational: '3 / 4'"),
    ("1" * 5000, "not an exact rational: 5000 characters is too long"),
    # the loader refuses floats while it reads the JSON, so a value of any
    # other kind is named by its JSON kind
    (True, "not an exact rational: a boolean, not a 'p/q' string or an integer"),
    (None, "not an exact rational: null, not a 'p/q' string or an integer"),
    (["1", "2"], "not an exact rational: a list, not a 'p/q' string or an integer"),
    ({"re": "1"}, "not an exact rational: an object, not a 'p/q' string or an integer"),
], ids=["spaces", "long", "true", "null", "list", "object"])
def test_unreadable_rational_exits_2(value, message, tmp_path, capsys):
    doc = json.loads(json.dumps(SCHEMA_DOC))
    doc["points"]["P"][3] = value
    err = _schema_exit_2(doc, tmp_path, capsys)
    assert err == f"SchemaViolation: points.P[3]: {message}\n"


@pytest.mark.parametrize("coordinates, message", [
    (["f1", "f1", "f3", "f4"], "coordinates must be dimension_2n distinct names"),
    ([1, 2, 3, 4], "coordinates must be dimension_2n distinct names"),
    (["f1", "f2", "f3", None], "coordinates must be dimension_2n distinct names"),
    ([], "coordinates must list dimension_2n names"),
    (["f1", "f2", "f3"], "coordinates must list dimension_2n names"),
], ids=["repeated", "numbers", "null", "empty", "short"])
def test_coordinates_must_be_distinct_names(coordinates, message, tmp_path, capsys):
    # an empty list is a list of the wrong length, not an absent field
    doc = json.loads(json.dumps(SCHEMA_DOC))
    doc["coordinates"] = coordinates
    err = _schema_exit_2(doc, tmp_path, capsys)
    assert err == f"SchemaViolation: {message}\n"


@pytest.mark.parametrize("two_n, message", [
    (2, "dimension_2n must be an even integer >= 4"),
    (7, "dimension_2n must be an even integer >= 4"),
    (MAX_DIMENSION_2N + 2, f"dimension_2n must be at most {MAX_DIMENSION_2N}"),
    (10 ** 9, f"dimension_2n must be at most {MAX_DIMENSION_2N}"),
], ids=["two", "odd", "past_maximum", "billion"])
def test_dimension_out_of_range_exits_2_before_any_table(two_n, message, tmp_path,
                                                         capsys, monkeypatch):
    # nothing sized by dimension_2n is built before the bounds are checked
    def sized(*args):
        raise AssertionError("a table was sized before the dimension check")

    monkeypatch.setattr(reports, "unit_exponents", sized)
    monkeypatch.setattr(reports, "default_coordinates", sized)
    doc = dict(json.loads(json.dumps(SCHEMA_DOC)), dimension_2n=two_n)
    for fmt in ("json", "text"):
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        assert cli.main(["involutivity", str(path), "--format", fmt]) == 2
        assert capsys.readouterr().err == f"SchemaViolation: {message}\n"


def test_the_maximum_dimension_loads():
    loaded = build_problem({"dimension_2n": MAX_DIMENSION_2N,
                            "rho": f"f{MAX_DIMENSION_2N} + f1^2"})
    assert loaded.two_n == MAX_DIMENSION_2N
    assert loaded.problem.rho.vars[-1] == f"f{MAX_DIMENSION_2N}"


def test_declared_coordinates_name_the_variables(tmp_path, capsys):
    # renaming every coordinate in the table and in the expressions changes
    # nothing but the echoed document
    doc = json.loads(json.dumps(SCHEMA_DOC))
    doc["coordinates"] = ["x", "y", "u", "v"]
    doc["rho"] = "v + x^2 + y*u"
    doc["structure"]["a"] = "x"
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["involutivity", str(path)]) == 0
    renamed = json.loads(capsys.readouterr().out)["results"]
    path.write_text(json.dumps(SCHEMA_DOC))
    assert cli.main(["involutivity", str(path)]) == 0
    assert renamed == json.loads(capsys.readouterr().out)["results"]


def test_help_returns_0_and_an_unknown_option_2(capsys):
    # argparse exits on its own; main turns both exits into its return value
    assert cli.main(["--help"]) == 0
    assert capsys.readouterr().out.startswith("usage: diskeds")
    assert cli.main(["jets", "hyperquadric", "--bogus"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.endswith("diskeds: error: unrecognized arguments: --bogus\n")


def test_help_wraps_at_a_fixed_width(monkeypatch, capsys):
    # the width argparse takes off a terminal, whatever COLUMNS says
    texts = []
    for columns in ("40", "80", "200"):
        monkeypatch.setenv("COLUMNS", columns)
        assert cli.main(["--help"]) == 0
        texts.append(capsys.readouterr().out)
    assert texts[0] == texts[1] == texts[2]
    assert "usage: diskeds [-h] [--point POINT] [--jet JET] [--stratum STRATUM]\n" in texts[0]


def test_main_builds_its_parser_once(monkeypatch, capsys):
    # the argparse parser is built on the first call and reused; a call
    # argparse rejects leaves it working and keeps no option of its own
    built = []
    real = cli.build_parser
    monkeypatch.setattr(cli, "_PARSER", None)
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or real())
    assert cli.main(["dim6", "hyperquadric"]) == 0
    first = json.loads(capsys.readouterr().out)
    assert cli.main(["dim6", "hyperquadric", "--point", "P0", "--format", "xml"]) == 2
    assert "invalid choice: 'xml'" in capsys.readouterr().err
    assert cli.main(["dim6", "hyperquadric"]) == 0
    assert json.loads(capsys.readouterr().out) == first
    assert first["options"] == {}
    assert cli.main(["dim6", "hyperquadric", "--format", "text"]) == 0
    assert capsys.readouterr().out.startswith("diskeds dim6 on hyperquadric\n")
    assert built == [1]


@pytest.mark.parametrize("pair", [
    [1], [1, None], [1, 2, 3], [], [2, 2], [0, 2], [1, 5], [True, 2],
    ["1", "2"], "12", 5, {"1": 2},
], ids=["one", "null", "three", "empty", "equal", "zero", "above_2n", "bool",
        "strings", "string", "number", "object"])
def test_bad_distinguished_pair_is_schema_violation(pair, tmp_path, capsys):
    doc = json.loads(json.dumps(SCHEMA_DOC))
    doc["distinguished_pair"] = pair
    err = _schema_exit_2(doc, tmp_path, capsys)
    assert "distinguished_pair must be two distinct integers in 1..4" in err


def test_declared_distinguished_pair_in_any_order_loads():
    doc = json.loads(json.dumps(SCHEMA_DOC))
    doc["distinguished_pair"] = [2, 1]
    assert build_problem(doc).problem.pair == (2, 1)


@pytest.mark.parametrize("command", ["involutivity", "all"])
def test_order_up_to_2n_minus_2_is_the_whole_report(command, capsys):
    # dim A^(q) is constant from q0 <= 2n - 2 on, so the report lists
    # q = 1..2n - 2, and no option asks for a prefix of that list; the
    # n = 3 matrix structure reaches q0 = 4 only at the last entry
    doc = str(DOCS / "n3_matrix.json")
    assert cli.main([command, doc]) == 0
    results = json.loads(capsys.readouterr().out)["results"]
    if command == "all":
        results = results["involutivity"]
    assert results["q0"] == 4 and results["dims"] == [3, 2, 1, 0]
    assert cli.main([command, doc, "--order", "4"]) == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("sign", ["?", "", "positive", 1, None])
def test_unknown_opening_sign_is_schema_violation(sign, tmp_path, capsys):
    doc = json.loads(json.dumps(SCHEMA_DOC))
    doc["strata"]["S"]["openings"][0]["sign"] = sign
    err = _schema_exit_2(doc, tmp_path, capsys, command="jets")
    assert "strata.S.openings[0].sign must be" in err


def test_stratum_reads_jets_of_any_order_its_equalities_name(tmp_path, capsys):
    # the parse table comes from the equalities' jet names, whatever the
    # probes declare
    doc = {"dimension_2n": 4, "strata": {"S": {
        "equalities": ["w1_4 - z1*w2_4", "z2 + zb2"],
        "openings": [{"expr": "w1*wb1", "sign": "+"}],
        "probes": {"Q": {"z": ["0", "0"], "w": ["1", "0"]}}}}}
    assert build_problem(doc).strata["S"][0].order == 5
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["jets", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["results"]["probes"]["Q"][
        "verdict"] == "involutive"


def test_opening_above_the_stratum_order_names_the_opening(tmp_path, capsys):
    doc = json.loads(json.dumps(SCHEMA_DOC))
    doc["strata"]["S"]["openings"].append("w1_1*wb1_1 + w1*wb1")
    err = _schema_exit_2(doc, tmp_path, capsys, command="jets")
    assert "strata.S.openings[1] uses a jet above the stratum's order 1" in err
    _same_exit_without_strata(doc, err, tmp_path, capsys)


def test_probe_jet_level_after_a_gap_names_the_missing_level(tmp_path, capsys):
    # w_2 without w_1 is not read as absent: the level that is missing is
    # named, where the gap once dropped w_2 and the probe then failed the
    # equality it was meant to satisfy
    doc = {"dimension_2n": 4, "strata": {"S": {
        "equalities": ["w1_2 - 5"],
        "probes": {"Q": {"z": ["0", "0"], "w": ["0", "0"], "w_2": ["5", "0"]}}}}}
    err = _schema_exit_2(doc, tmp_path, capsys, command="jets")
    assert "strata.S.probes.Q.w_2 is given but w_1 is missing" in err
    _same_exit_without_strata(doc, err, tmp_path, capsys)
    doc["strata"]["S"]["probes"]["Q"]["w_1"] = ["0", "0"]
    assert build_problem(doc).strata["S"][1]["Q"][-4] == 5


def test_probe_jet_above_the_stratum_order_names_the_probe(tmp_path, capsys):
    # a declared jet level the stratum has no variables for is bad input,
    # not values to drop
    doc = json.loads(json.dumps(SCHEMA_DOC))
    doc["strata"]["S"]["probes"] = {"Q": {"z": ["0", "0"], "w": ["1", "0"],
                                          "w_1": ["2", "0"]}}
    err = _schema_exit_2(doc, tmp_path, capsys, command="jets")
    assert "strata.S.probes.Q.w_1 is above the stratum's order 1" in err
    _same_exit_without_strata(doc, err, tmp_path, capsys)
    # the same level is read once an equality names it
    doc["strata"]["S"]["equalities"].append("w1_1 - 2")
    probe = build_problem(doc).strata["S"][1]["Q"]
    assert probe[jet_table(2, 2).index("w1_1")] == 2


def test_each_stratum_expression_is_tokenized_once(monkeypatch):
    calls = []
    real = reports.tokenize

    def counting(text):
        calls.append(text)
        return real(text)

    monkeypatch.setattr(reports, "tokenize", counting)
    doc = json.loads(json.dumps(SCHEMA_DOC))
    del doc["rho"]
    build_problem(doc)
    assert calls == ["z2 + zb2 + z1*zb1", "w1*wb1"]


@pytest.mark.parametrize("equalities, error", [
    (["f9", "z1 $"], "UnknownVariable: unknown variable 'f9'"),
    (["z1 $", "f9"], "MalformedSyntax: unexpected character '$'"),
    ([5, "z1 $"], "SchemaViolation: an expression must be a string, got 5"),
    (["z1 + w1_1 $", "w1_1 +"], "MalformedSyntax: unexpected character '$'"),
    (["z1 +", "z1 $"], "MalformedSyntax: unexpected token None"),
])
def test_first_bad_equality_in_order_is_the_error(equalities, error, tmp_path, capsys):
    # an equality that does not tokenize keeps its error for its turn to
    # parse, so the first bad equality in document order is reported
    doc = json.loads(json.dumps(SCHEMA_DOC))
    doc["strata"]["S"]["equalities"] = equalities
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["jets", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(error)
    _same_exit_without_strata(doc, err, tmp_path, capsys)


def test_an_opening_above_the_order_is_reported_before_its_parse_error(tmp_path, capsys):
    # the opening tokenizes, names a jet of order 2 in an order-1 stratum,
    # and would not parse: the order is checked first
    doc = json.loads(json.dumps(SCHEMA_DOC))
    doc["strata"]["S"]["openings"].append("w1_1 +")
    err = _schema_exit_2(doc, tmp_path, capsys, command="jets")
    assert "strata.S.openings[1] uses a jet above the stratum's order 1" in err
    _same_exit_without_strata(doc, err, tmp_path, capsys)


def test_equalities_of_different_orders_give_the_system_over_one_table():
    # each expression is parsed over the table its own jets need, then
    # widened: the system equals the one parsed over the stratum's table
    eqs, opening = ["z1 + zb1 - 2", "w1_1*wb2_1 - z2", "z2*zb2"], "w1*wb1 + 1"
    doc = {"dimension_2n": 4, "strata": {"S": {
        "equalities": eqs, "openings": [{"expr": opening, "sign": "+"}]}}}
    table = jet_table(2, 2)
    parse = lambda text: parse_expression(text, table, complexified=True)
    want = make_system(2, list(map(parse, eqs)), [Opening(parse(opening), "+")], order=2)
    system = build_problem(doc).strata["S"][0]
    assert system == want and system.order == 2
    assert all(p.vars == table for p in system.equalities)
    assert system.openings[0].poly.vars == table


@pytest.mark.parametrize("probe, message", [
    ({"z": ["0"], "w": ["1", "0"]}, "need n values for z"),
    ({"z": ["0", "0", "0"], "w": ["1", "0"]}, "need n values for z"),
    ({"z": ["0", "0"], "w": ["1"]}, "need n values for each w jet"),
    ({"z": ["0", "0"], "w": ["1", "0"], "w_1": ["0", "0", "0"]},
     "need n values for each w jet"),
], ids=["z_short", "z_long", "w_short", "w_1_long"])
def test_a_probe_with_a_wrong_count_exits_2_at_load(probe, message, tmp_path, capsys):
    # the counts are checked with the probe's syntax, before any command
    # reads the stratum
    doc = json.loads(json.dumps(SCHEMA_DOC))
    doc["strata"]["S"]["equalities"].append("w1_1 - w1_1")
    doc["strata"]["S"]["probes"] = {"Q": probe}
    err = _schema_exit_2(doc, tmp_path, capsys, command="jets")
    assert err == f"SchemaViolation: {message}\n"
    _same_exit_without_strata(doc, err, tmp_path, capsys)


@pytest.mark.parametrize("argv, built", [
    (["torsion", "hyperquadric"], []),
    (["involutivity", "cusp"], []),
    (["complex-forms", "flat"], []),
    (["jets", "cusp", "--stratum", "vertex"], ["vertex"]),
    (["all", "cusp"], ["generic", "vertex"]),
])
def test_a_stratum_is_built_on_its_first_read(argv, built, monkeypatch, capsys):
    # a command builds the systems and probes of the strata it reads, and
    # only those; loading checks them all
    name = argv[1]
    strata = build_problem(load_problem(name), name).strata
    want = [strata[sname][0] for sname in built]
    made = []
    real = jets.make_system
    monkeypatch.setattr(jets, "make_system",
                        lambda *args, **kwargs: made.append(real(*args, **kwargs)) or made[-1])
    cli.main(argv)
    capsys.readouterr()
    assert made == want


@st.composite
def stratum_documents(draw):
    """A document of one or two strata at n = 2, 3: equalities printed from
    random polynomials over jet tables of orders 1..3 (some naming a top
    jet that cancels), openings up to one order above the stratum's, and
    probes whose levels hold n, n - 1 or n + 1 values, up to one level
    above the order, some after a missing level."""
    n = draw(st.sampled_from([2, 3]))
    strata = {}
    for sname in ("S", "T")[:draw(st.integers(1, 2))]:
        def poly(order):
            table = jet_table(n, order)
            p = Polynomial.const(table, gaussian(draw(st.integers(-2, 2)),
                                                 draw(st.integers(-1, 1))))
            for _ in range(draw(st.integers(1, 3))):
                exps = [0] * len(table)
                for _ in range(draw(st.integers(1, 2))):
                    exps[draw(st.integers(0, len(table) - 1))] += 1
                p = p + Polynomial(table, {tuple(exps): gaussian(draw(st.integers(1, 2)),
                                                                 draw(st.integers(-1, 1)))})
            text = print_polynomial(p)
            if draw(st.booleans()):
                top = f"w1_{order - 1}" if order > 1 else "w1"
                text += f" + {top} - {top}"
            return text

        orders = draw(st.lists(st.integers(1, 3), min_size=0, max_size=3))
        order = max([1] + orders)
        sdoc = {"equalities": [poly(q) for q in orders],
                "openings": [{"expr": poly(draw(st.integers(1, order + 1))),
                              "sign": draw(st.sampled_from(["+", "-", "nonzero"]))}
                             for _ in range(draw(st.integers(0, 1)))],
                "probes": {}}
        for pname in ("P", "Q")[:draw(st.integers(0, 2))]:
            values = lambda: [[str(draw(st.integers(-2, 2))), str(draw(st.integers(-2, 2)))]
                              for _ in range(n + draw(st.sampled_from([0, 0, 0, 0, -1, 1])))]
            pdoc = {"z": values()}
            keys = ["w"] + [f"w_{k}" for k in range(1, order + 1)]
            for key in keys[:draw(st.integers(0, order + 1))]:
                pdoc[key] = values()
            if draw(st.integers(0, 5)) == 0 and "w" in pdoc:
                del pdoc["w"]
            sdoc["probes"][pname] = pdoc
        strata[sname] = sdoc
    return {"dimension_2n": 2 * n, "strata": strata}


@given(stratum_documents())
@settings(derandomize=True, database=None, max_examples=150, deadline=None)
def test_every_stratum_a_loaded_document_declares_builds(doc):
    # every check that can fail runs at load, so building a stratum on its
    # first read raises nothing: a document either exits 2 at load for
    # every command or builds each of its strata
    try:
        lp = build_problem(doc)
    except DiskEdsError:
        return
    for sname in sorted(lp.strata):
        system, probes = lp.strata[sname]
        assert all(len(probe) == len(system.table) for probe in probes.values())


def test_jet_suffix_of_three_digits_is_an_unknown_variable(tmp_path, capsys):
    # strata read jets up to order 100; the parse table never grows past it
    doc = json.loads(json.dumps(SCHEMA_DOC))
    doc["strata"]["S"]["equalities"].append("w1_100")
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["jets", str(path)]) == 2
    assert "UnknownVariable: unknown variable 'w1_100'" in capsys.readouterr().err


@pytest.mark.parametrize("field", [
    ("rho",), ("structure", "a"), ("structure", "A", 0, 0),
    ("strata", "S", "equalities", 0), ("strata", "S", "openings", 0, "expr"),
], ids=lambda field: ".".join(map(str, field)))
@pytest.mark.parametrize("value", [5, ["f1"], None], ids=["int", "list", "null"])
def test_non_string_expression_is_schema_violation(field, value, tmp_path, capsys):
    doc = json.loads(json.dumps(SCHEMA_DOC))
    parent = doc
    for key in field[:-1]:
        parent = parent[key]
    parent[field[-1]] = value
    err = _schema_exit_2(doc, tmp_path, capsys)
    assert "an expression must be a string" in err


def test_jets_probe_runs_one_involution_loop(monkeypatch, capsys):
    # the other probes only get the probe check and their base tableau,
    # which the locally-constant warning compares against
    calls = []
    real = jets.involution_loop

    def counting(system, probe, **options):
        calls.append(probe)
        return real(system, probe, **options)

    monkeypatch.setattr(jets, "involution_loop", counting)
    assert cli.main(["jets", "cusp", "--stratum", "generic",
                     "--probe", "P_origin"]) == 0
    assert len(calls) == 1
    warnings = json.loads(capsys.readouterr().out)["results"]["probes"][
        "P_origin"]["warnings"]
    assert any("dimension 2 here vs 1 at other probes" in w for w in warnings)



@pytest.mark.parametrize("field, value, message", [
    (("points",), [], "points must be an object"),
    (("jets", "J"), 7, "jets.J must be an object"),
    (("jets", "J", "point"), ["P"], "jets.J.point must be a string"),
    (("strata", "S", "equalities"), "z1", "strata.S.equalities must be a list"),
    (("strata", "S", "probes", "Q"), True, "strata.S.probes.Q must be an object"),
    (("strata", "S", "probes", "Q", "w", 0), [], "strata.S.probes.Q.w: complex values"),
    (("structure", "A", 1), 0, "structure.A[1] must be a list"),
    (("jets", "J", "p_reduced"), ["1"], "jets.J.p_reduced must have 2 entries"),
    (("dimension_2n",), "4", "dimension_2n must be an integer"),
], ids=lambda x: ".".join(map(str, x)) if isinstance(x, tuple) else None)
def test_wrong_json_type_names_its_path(field, value, message, tmp_path, capsys):
    doc = json.loads(json.dumps(SCHEMA_DOC))
    doc["jets"] = {"J": {"point": "P", "p_reduced": ["1", "0"]}}
    doc["strata"]["S"]["probes"] = {"Q": {"z": ["0", "0"], "w": ["1", "0"]}}
    *keys, last = field
    functools.reduce(operator.getitem, keys, doc)[last] = value
    assert message in _schema_exit_2(doc, tmp_path, capsys, command="jets")


def test_report_values_of_unexpected_type_are_a_cross_check_failure():
    # nothing is turned into text silently, in either format; a float
    # stays an input error
    for results, error in [
            ({"value": object()}, CrossCheckMismatch),
            ([Fraction(1, 2), 0.5], SchemaViolation),
            # a record is a tuple subclass, not a list
            ({"value": FirstJetPoint((0, 0, 0, 0), (1, 0))}, CrossCheckMismatch),
            ({"value": [gaussian(1, 1)]}, CrossCheckMismatch),
            ({"value": FirstJet(Fraction(1), (Fraction(0),))}, CrossCheckMismatch),
            # a key that is not a str, alone or among str keys
            ({"value": {1: "one"}}, CrossCheckMismatch),
            ({"value": {"a": 1, 2: "b"}}, CrossCheckMismatch)]:
        report = Report("torsion", "doc.json", "0" * 64, {}, results, ())
        for fmt in ("json", "text"):
            with pytest.raises(error):
                emit_report(report, fmt)


# wrong-typed values, junk expressions and rationals, expressions nested
# past the parser's bound, a deleted key, one large integer (past the
# dimension bound, or a large coordinate, index or pseudo-ellipsoid
# exponent), and the size mutations: a large power of a sum, in terms and
# in coefficient bits, a large exponent of a coordinate, of a constant and
# in a stratum equality, and a jet of order 100
DELETE = object()
MUTATIONS = (None, True, 0, -1, 7, 10 ** 9, "", "x", "1/0", "f1^", "f7", "zb9", "(",
             DEEP_PARENTHESES, DEEP_MINUSES, [], {}, [1], [["1", "0"]], DELETE,
             "(f1 + f2 + f4)^200", "(1 + f1)^1999", "f4 - f1^100000000", "f4 - 3^100000",
             "z1^100000000", "w1_99")


def _paths(obj, prefix=()):
    """Every key and list index path into a JSON document."""
    items = (obj.items() if isinstance(obj, dict)
             else enumerate(obj) if isinstance(obj, list) else ())
    return [path for key, value in items
            for path in [prefix + (key,)] + _paths(value, prefix + (key,))]


# the complex_standard builtins, the two documents with a matrix and a
# pair structure, and a pseudo-ellipsoid
DOCS = Path(__file__).resolve().parent / "golden" / "docs"
FUZZ_DOCUMENTS = {**BUILTIN_PROBLEMS, **{
    stem: json.loads((DOCS / f"{stem}.json").read_text())
    for stem in ("n3_matrix", "n3_pair", "pseudo_ellipsoid")}}


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(data=st.data())
def test_mutated_builtin_documents_never_raise(data, tmp_path_factory):
    # the exit-code contract holds on every input: one or two mutations of
    # a builtin or structure document end in 0, 2 or 3, never in an
    # uncaught exception
    name = data.draw(st.sampled_from(sorted(FUZZ_DOCUMENTS)))
    doc = json.loads(json.dumps(FUZZ_DOCUMENTS[name]))
    for _ in range(data.draw(st.integers(1, 2))):
        *keys, last = data.draw(st.sampled_from(_paths(doc)))
        value = data.draw(st.sampled_from(MUTATIONS))
        parent = functools.reduce(operator.getitem, keys, doc)
        if value is DELETE:
            del parent[last]
        else:
            parent[last] = json.loads(json.dumps(value))
    path = tmp_path_factory.getbasetemp() / "mutated.json"
    path.write_text(json.dumps(doc))
    command = data.draw(st.sampled_from(cli.COMMANDS))
    with contextlib.redirect_stdout(io.TextIOWrapper(io.BytesIO())), \
            contextlib.redirect_stderr(io.StringIO()):
        assert cli.main([command, str(path)]) in (0, 2, 3)


# ----------------------------------------------------------------------
# CPython's int <-> str digit limit (4,300 digits by default)

# rho's P0 literal 2^5000 has 1,506 digits; residual_2 at the jet has over 6,000
BIG_VALUE_DOC = {
    "dimension_2n": 4,
    "rho": "f3 - f1^5000 + f2^2",
    "distinguished_pair": [1, 2],
    "points": {"P0": ["2", "0", str(2 ** 5000), "0"]},
    "jets": {"J0": {"point": "P0", "p_reduced": ["1", "0"]}},
}
# rho = -3^10000, 4,772 digits, at the point
BIG_OFF_SURFACE_DOC = {
    "dimension_2n": 4,
    "rho": "f3 - f1^10000 + f2^2",
    "distinguished_pair": [1, 2],
    "points": {"P0": ["3", "0", "0", "0"]},
    "jets": {"J0": {"point": "P0", "p_reduced": ["1", "0"]}},
}


def _read_big_rational(text):
    """The Fraction a decimal 'p' or 'p/q' names, read 1,000 digits at a
    time so no single int() passes the digit limit."""
    def digits(s):
        value = 0
        for k in range(0, len(s), 1000):
            piece = s[k:k + 1000]
            value = value * 10 ** len(piece) + int(piece)
        return value

    sign = -1 if text.startswith("-") else 1
    num, _, den = text.lstrip("-").partition("/")
    return Fraction(sign * digits(num), digits(den) if den else 1)


@pytest.mark.parametrize("fmt", ["json", "text"])
@pytest.mark.parametrize("command", ["torsion", "all"])
def test_results_past_the_digit_limit_are_emitted_exactly(command, fmt, tmp_path, capsys):
    # the report writer prints any rational; at this jet it used to exit 1
    from diskeds.torsion import structure_equation_coefficients, torsion_absorbable
    path = tmp_path / "big.json"
    path.write_text(json.dumps(BIG_VALUE_DOC))
    lp = build_problem(json.loads(json.dumps(BIG_VALUE_DOC)))
    sed = structure_equation_coefficients(lp.problem, lp.jets["J0"])
    want = torsion_absorbable(sed).residual_2
    assert max(abs(want.numerator), want.denominator) > 10 ** 4300
    assert cli.main([command, str(path), "--format", fmt]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    if fmt == "json":
        results = json.loads(out)["results"]
        got = (results if command == "torsion" else results["torsion"])["residual_2"]
    else:
        key = "results.residual_2 = " if command == "torsion" else \
            "results.torsion.residual_2 = "
        got, = [line[len(key):] for line in out.splitlines() if line.startswith(key)]
    assert _read_big_rational(got) == want


def test_pseudo_ellipsoid_past_the_digit_limit_is_emitted_exactly(tmp_path, capsys):
    from diskeds.torsion import pseudo_ellipsoid_check
    doc = {"dimension_2n": 6, "points": {"P0": ["2", "0", "0", "0", "0", "0"]},
           "pseudo_ellipsoid": {"alphas": ["1"] * 6, "ks": ["10000"] * 6}}
    path = tmp_path / "pe.json"
    path.write_text(json.dumps(doc))
    want = pseudo_ellipsoid_check([1] * 6, [10000] * 6, [2, 0, 0, 0, 0, 0]).v[0]
    assert want > 10 ** 4300
    assert cli.main(["pseudo-ellipsoid", str(path)]) == 0
    assert _read_big_rational(json.loads(capsys.readouterr().out)["results"]["v"][0]) == want


@pytest.mark.parametrize("fmt", ["json", "text"])
def test_off_surface_message_past_the_digit_limit_exits_2(fmt, tmp_path, capsys):
    # the message names rho's value at the point, which used to raise
    path = tmp_path / "off.json"
    path.write_text(json.dumps(BIG_OFF_SURFACE_DOC))
    assert cli.main(["torsion", str(path), "--format", fmt]) == 2
    out, err = capsys.readouterr()
    prefix = "DimensionMismatch: point is off the hypersurface: rho = "
    assert out == "" and err.startswith(prefix) and err.endswith("\n")
    assert _read_big_rational(err[len(prefix):-1]) == -Fraction(3) ** 10000


@pytest.mark.parametrize("fmt", ["json", "text"])
def test_json_integer_past_the_digit_limit_is_schema_violation(fmt, tmp_path, capsys):
    path = tmp_path / "long.json"
    path.write_text('{"dimension_2n": ' + "4" * 5000 + "}")
    assert cli.main(["torsion", str(path), "--format", fmt]) == 2
    err = capsys.readouterr().err
    assert err.startswith("SchemaViolation: invalid JSON") and "too many digits" in err


def _nested_doc(depth):
    """A valid problem whose unread "extra" field nests ``depth`` lists deep."""
    return ('{"dimension_2n": 4, "rho": "f1 - f2^2", "points": {"P": ["0","0","0","0"]}, '
            '"extra": ' + "[" * depth + "1" + "]" * depth + "}")


def test_deeply_nested_json_is_schema_violation(tmp_path, capsys):
    # the decoder's RecursionError is an input problem, not a traceback
    path = tmp_path / "deep.json"
    path.write_text("[" * 200_000 + "]" * 200_000)
    assert cli.main(["involutivity", str(path)]) == 2
    err = capsys.readouterr().err
    assert err == f"SchemaViolation: invalid JSON in {path}: nested too deeply\n"


def test_nesting_across_the_decoder_limit_exits_0_or_2(tmp_path, capsys):
    # every depth either loads, and then its digest (which re-encodes the
    # document, one recursion per level as the decoder) is formed too, or
    # is refused as nested too deeply
    path = tmp_path / "deep.json"
    refused = 0
    for depth in range(900, 1001, 5):
        path.write_text(_nested_doc(depth))
        try:
            doc = load_problem(str(path))
        except SchemaViolation as exc:
            assert str(exc).endswith("nested too deeply")
            refused += 1
        else:
            assert len(reports.problem_digest(doc)) == 64
        assert cli.main(["involutivity", str(path)]) in (0, 2)
    capsys.readouterr()
    assert refused > 0


def test_deeply_nested_problem_exits_2_in_a_fresh_process(tmp_path):
    # a 2 KB document 1,000 lists deep, past the decoder's limit in a new interpreter
    path = tmp_path / "deep.json"
    path.write_text(_nested_doc(1000))
    rc, out, err = run_cli("involutivity", str(path))
    assert (rc, out) == (2, b"")
    assert err.decode() == f"SchemaViolation: invalid JSON in {path}: nested too deeply\n"


def test_file_that_is_not_utf8_is_schema_violation(tmp_path, capsys):
    # a decoding error is a ValueError too, but not a long integer
    path = tmp_path / "latin1.json"
    path.write_bytes(b'{"dimension_2n": "\xff"}')
    assert cli.main(["torsion", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("SchemaViolation: ") and "is not UTF-8" in err


def test_loading_cusp_reads_each_probe_part_once(monkeypatch):
    # a probe value's real and imaginary parts are read by rat once each
    from diskeds import exact
    calls = [0]
    real_rat = exact.rat

    def counting(value):
        calls[0] += 1
        return real_rat(value)

    monkeypatch.setattr(exact, "rat", counting)
    monkeypatch.setattr(reports, "rat", counting)
    doc = load_problem("cusp")
    parts = sum(len(value) for sdoc in doc["strata"].values()
                for pdoc in sdoc["probes"].values()
                for key in ("z", "w") for value in pdoc[key])
    points = sum(len(point) for point in doc["points"].values())
    build_problem(doc, "cusp")
    assert parts == 36 and calls[0] == points + parts


# ----------------------------------------------------------------------
# size limits: each exits 2 with a message naming it, never a traceback


def _cli_exit_2(argv, fmt, capsys):
    assert cli.main([*argv, "--format", fmt]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "Traceback" not in err
    return err


@pytest.mark.parametrize("fmt", ["json", "text"])
def test_a_directory_as_the_problem_exits_2(fmt, tmp_path, capsys):
    err = _cli_exit_2(["involutivity", str(tmp_path)], fmt, capsys)
    assert err.startswith(f"SchemaViolation: no such problem: {str(tmp_path)!r}")
    assert "Is a directory" in err


@pytest.mark.parametrize("fmt", ["json", "text"])
def test_a_stratum_jet_table_past_the_bound_exits_2(fmt, tmp_path, capsys):
    doc = {"dimension_2n": MAX_DIMENSION_2N, "strata": {"S": {"equalities": ["z1", "w1_99"]}}}
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    err = _cli_exit_2(["jets", str(path)], fmt, capsys)
    assert err == ("SchemaViolation: strata.S: jets of order 100 need a table of "
                   f"20200 names, more than {reports.MAX_JET_NAMES}\n")
    _same_exit_without_strata(doc, err, tmp_path, capsys)


def test_a_stratum_jet_table_at_the_bound_loads():
    # 2n (q + 1) names: z, zb and q blocks of w jets
    two_n = reports.MAX_JET_NAMES // 100
    doc = {"dimension_2n": two_n, "strata": {"S": {"equalities": ["w1_98"]}}}
    system = build_problem(doc).strata["S"][0]
    assert system.order == 99 and len(system.table) == reports.MAX_JET_NAMES


@pytest.mark.parametrize("fmt", ["json", "text"])
def test_trials_past_the_bound_exits_2(fmt, capsys):
    err = _cli_exit_2(["integral-element", "hyperquadric", "--trials",
                       str(cli.MAX_TRIALS + 1)], fmt, capsys)
    assert err == (f"SchemaViolation: --trials must be at most {cli.MAX_TRIALS}, "
                   f"got {cli.MAX_TRIALS + 1}\n")
    for trials in (cli.MAX_TRIALS, 25, 5):
        assert cli.main(["integral-element", "hyperquadric", "--trials", str(trials)]) == 0
        assert json.loads(capsys.readouterr().out)["results"]["found"] is True


@pytest.mark.parametrize("fmt", ["json", "text"])
@pytest.mark.parametrize("command, doc", [
    ("torsion", {"dimension_2n": 4, "rho": "f3 - (f1 + f2 + f4)^200",
                 "points": {"P0": ["0", "0", "0", "0"]}}),
    ("jets", {"dimension_2n": 4, "strata": {"S": {"equalities": ["(z1 + z2 + w1)^200"]}}}),
    ("torsion", {"dimension_2n": 4, "rho": "f3 - (f1 + f2 + f4)^40*(f1 + f2 + f4)^40"}),
], ids=["power", "stratum", "product"])
def test_an_expansion_past_the_term_bound_exits_2(command, doc, fmt, tmp_path, capsys):
    # (f1 + f2 + f4)^200 expands to 20,301 terms; the parser stops at the
    # first partial product past the bound
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    err = _cli_exit_2([command, str(path)], fmt, capsys)
    assert err == "SchemaViolation: expression expands past 2000 terms\n"


def test_the_term_bound_holds_in_the_parser_only():
    from diskeds.expr import MAX_TERMS
    V4 = ("f1", "f2", "f3", "f4")
    # 1,891 terms parse; a Polynomial product or power is not bounded
    assert len(parse_expression("(f1 + f2 + f4)^60", V4).terms) == 1891 <= MAX_TERMS
    p = parse_expression("f1 + f2 + f4", V4) ** 64
    assert len(p.terms) == 2145 > MAX_TERMS
    assert len((p * parse_expression("1 + f3", V4)).terms) == 2 * 2145


@pytest.mark.parametrize("fmt", ["json", "text"])
@pytest.mark.parametrize("command, doc", [
    ("torsion", {"dimension_2n": 4, "rho": "f3 - (1 + f1)^1999"}),
    ("torsion", {"dimension_2n": 4,
                 "rho": "f3 - (1 + f1)^1999 - (1 + f1)^1999 + (1 + f1)^1999"}),
    ("torsion", {"dimension_2n": 4, "rho": "f3 - (1 + f1)^420*(1 + f1)^420"}),
    ("torsion", {"dimension_2n": 4, "rho": "f3 - f1*((1 + f1)^420 + (1 + f2)^420)"}),
    ("jets", {"dimension_2n": 4, "strata": {"S": {"equalities": ["(1 + z1)^1999"]}}}),
], ids=["power", "sum_of_powers", "product", "parenthesized_sum", "stratum"])
def test_an_expansion_past_the_coefficient_bits_exits_2(command, doc, fmt, tmp_path,
                                                         capsys):
    # (1 + f1)^1999 holds 2,874,786 coefficient bits in 2,000 terms and
    # took 1.8 s to parse, each more copy of it another 1.8 s
    from diskeds.expr import MAX_COEFFICIENT_BITS
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    start = time.perf_counter()
    err = _cli_exit_2([command, str(path)], fmt, capsys)
    assert time.perf_counter() - start < 1
    assert err == ("SchemaViolation: expression expands past "
                   f"{MAX_COEFFICIENT_BITS} coefficient bits\n")


def test_the_coefficient_bit_bound_holds_in_the_parser_only():
    from diskeds.expr import MAX_COEFFICIENT_BITS
    V4 = ("f1", "f2", "f3", "f4")
    bits = lambda p: sum(c.numerator.bit_length() + c.denominator.bit_length()
                         for c in p.terms.values())
    # (1 + f1)^428, 130,957 bits, parses as a power and as a product, and
    # (1 + f1)^429 does not; a Polynomial power is not bounded
    for text in ("(f1 + f2 + f4)^60", "(1 + f1)^428", "(1 + f1)^424*(1 + f1)^4"):
        assert bits(parse_expression(text, V4)) <= MAX_COEFFICIENT_BITS
    for text in ("(1 + f1)^429", "(1 + f1)^425*(1 + f1)^4"):
        with pytest.raises(SchemaViolation):
            parse_expression(text, V4)
    assert bits(parse_expression("1 + f1", V4) ** 600) > MAX_COEFFICIENT_BITS


def test_the_parse_budget_refuses_before_the_products(tmp_path):
    # 40 copies of (1 + f1)^428 multiply 2.92 M coefficient pairs, and the
    # bits bound refused the sum only at the end, after 1.15 s; the budget
    # refuses before the first row of products past it.  The time is the
    # CPU time of cli.main in a fresh process, which the heap of this test
    # session does not slow
    from diskeds.expr import MAX_PRODUCT_PAIRS
    path = tmp_path / "doc.json"
    path.write_text(json.dumps({"dimension_2n": 4,
                                "rho": " - ".join(["(1+f1)^428"] * 40)}))
    code = ("import sys, time; from diskeds import cli; start = time.process_time(); "
            "rc = cli.main(['involutivity', sys.argv[1]]); "
            "print(rc, time.process_time() - start, file=sys.stderr)")
    done = subprocess.run([sys.executable, "-c", code, str(path)], capture_output=True,
                          text=True)
    err, timing = done.stderr.splitlines()
    rc, seconds = timing.split()
    assert (rc, done.stdout) == ("2", "") and float(seconds) < 0.5
    assert err == (f"SchemaViolation: expressions multiply past {MAX_PRODUCT_PAIRS} "
                   f"coefficient pairs in one document")


def test_few_products_of_large_coefficients_stop_at_the_word_budget(tmp_path):
    # each 3^20000*3^20000 multiplies two 31,699-bit coefficients, 1 pair of
    # the pair budget and 496^2 word pairs; 4,000 of them (72,000
    # characters) took about 3 s to load, and the word budget stops the
    # load at the 137th.  The time is the CPU time of cli.main in a fresh process
    from diskeds.expr import MAX_PRODUCT_WORDS
    path = tmp_path / "doc.json"
    path.write_text(json.dumps({"dimension_2n": 4,
                                "rho": " + ".join(["3^20000*3^20000"] * 4000)}))
    code = ("import sys, time; from diskeds import cli; start = time.process_time(); "
            "rc = cli.main(['involutivity', sys.argv[1]]); "
            "print(rc, time.process_time() - start, file=sys.stderr)")
    done = subprocess.run([sys.executable, "-c", code, str(path)], capture_output=True,
                          text=True)
    err, timing = done.stderr.splitlines()
    rc, seconds = timing.split()
    assert (rc, done.stdout) == ("2", "") and float(seconds) < 1
    assert err == (f"SchemaViolation: expressions multiply past {MAX_PRODUCT_WORDS} "
                   f"coefficient word pairs in one document")


def test_products_of_tables_over_unshared_denominators_stop_at_the_word_budget(tmp_path):
    # two sums of 600 terms 1/(10^30 + k)*f1^k: written, each coefficient
    # is 2 words and the product 360,000 pairs of 1,440,000 word pairs, but
    # over the lcm of its table's denominators each numerator holds about
    # 60,000 bits.  Charged on the written words the product ran for more
    # than 40 s of CPU; charged on the cleared numerators it stops at the
    # first row.  The time is the CPU time of cli.main in a fresh process
    from diskeds.expr import MAX_PRODUCT_WORDS
    table = lambda first: " + ".join(f"1/{10 ** 30 + first + k}*f1^{k}" for k in range(600))
    path = tmp_path / "doc.json"
    path.write_text(json.dumps({"dimension_2n": 4, "rho": f"({table(0)})*({table(1000)})"}))
    code = ("import sys, time; from diskeds import cli; start = time.process_time(); "
            "rc = cli.main(['involutivity', sys.argv[1]]); "
            "print(rc, time.process_time() - start, file=sys.stderr)")
    done = subprocess.run([sys.executable, "-c", code, str(path)], capture_output=True,
                          text=True, timeout=60)
    err, timing = done.stderr.splitlines()
    rc, seconds = timing.split()
    assert (rc, done.stdout) == ("2", "") and float(seconds) < 1
    assert err == (f"SchemaViolation: expressions multiply past {MAX_PRODUCT_WORDS} "
                   f"coefficient word pairs in one document")


def test_lone_powers_of_a_constant_stop_at_the_word_budget(tmp_path):
    # each 3^20000 alone is a power of one coefficient, which the parser
    # charges as one pair of its 313 words (power_bits(3) = 1, 20,000
    # factors); 20,000 of them (200 kB) took 3 to 4 s of CPU to load and no
    # budget stopped them.  The time is the CPU time of cli.main in a
    # fresh process
    from diskeds.expr import MAX_PRODUCT_WORDS
    path = tmp_path / "doc.json"
    path.write_text(json.dumps({"dimension_2n": 4,
                                "rho": " + ".join(["3^20000"] * 20000)}))
    code = ("import sys, time; from diskeds import cli; start = time.process_time(); "
            "rc = cli.main(['involutivity', sys.argv[1]]); "
            "print(rc, time.process_time() - start, file=sys.stderr)")
    done = subprocess.run([sys.executable, "-c", code, str(path)], capture_output=True,
                          text=True)
    err, timing = done.stderr.splitlines()
    rc, seconds = timing.split()
    assert (rc, done.stdout) == ("2", "") and float(seconds) < 1
    assert err == (f"SchemaViolation: expressions multiply past {MAX_PRODUCT_WORDS} "
                   f"coefficient word pairs in one document")


def test_the_parse_budget_is_spent_once_per_distinct_text():
    # (f1 + f2 + f4)^60 takes 284,337 pairs: four copies of one text are
    # parsed once and load, and two spellings of it pass the budget together
    spellings = ["(f1+f2+f4)^60", "(f1 + f2 + f4)^60"] * 2
    entries = lambda texts: {"kind": "matrix", "entries": [
        [texts[0], "0", "0", texts[1]], ["0", "0", "0", "0"],
        ["0", "0", "0", texts[2]], ["0", "0", "0", texts[3]]]}
    doc = {"dimension_2n": 4, "rho": "f3", "structure": entries([spellings[0]] * 4)}
    build_problem(doc)
    doc["structure"] = entries(spellings)
    with pytest.raises(SchemaViolation, match="coefficient pairs in one document"):
        build_problem(doc)


def _counting(monkeypatch, owner, name):
    """The calls of ``owner.name`` made from now on, as the list of their
    first arguments."""
    calls, real = [], getattr(owner, name)

    def counted(first, *args, **kwargs):
        calls.append(first)
        return real(first, *args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


SWEEP_N3 = {"dimension_2n": 6, "rho": "2*f5 + f1^2 + f2^2 - f3^2 - f4^2",
            "points": {"P0": ["1", "-2", "2", "1", "0", "1"],
                       "P1": ["1", "1", "1", "1", "0", "7"]},
            "jets": {"J0": {"point": "P0", "p_reduced": ["1", "2", "3", "1"]},
                     "J1": {"point": "P0", "p_reduced": ["-1", "2", "3", "1"]},
                     "J2": {"point": "P0", "p_reduced": ["0", "2", "3", "1"]},
                     "J3": {"point": "P1", "p_reduced": ["0", "0", "0", "1"]}}}


def test_rho_is_evaluated_once_per_point_a_jet_names(monkeypatch):
    # three jets at P0 and one at P1: two evaluations, each at its point
    evaluated = _counting(monkeypatch, Polynomial, "evaluate")
    lp = build_problem(SWEEP_N3)
    assert len(lp.jets) == 4
    assert [poly.vars for poly in evaluated] == [lp.problem.rho.vars] * 2


# a degree-1 matrix structure under a cubic rho, the shape of the
# benchmark's polynomial_structure documents: 31 nonzero entries of 20 texts
DEGREE_1_N3 = {
    "dimension_2n": 6,
    "rho": "-f1^2*f4 + 2*f3^2*f5 + 2*f2*f4 + 3*f3^2 - 3*f2 - 2*f6 - 19",
    "structure": {"kind": "matrix", "entries": [
        ["0", "2*f5 + 2", "-2*f6 + 2", "0", "0", "2*f6 + 2"],
        ["-2", "-1", "-2", "-1", "-f5 + 2", "-2"],
        ["f6", "-2", "-2*f6 - 2", "-1", "-2*f5", "1"],
        ["-2", "-2", "-1", "-f5 + 2", "f5 + 1", "f6"],
        ["2*f5", "-2*f6", "2*f3 - 2", "2*f3 + 2", "2", "0"],
        ["f4", "-f5 - 2", "-2*f1", "f6", "2*f1 + 1", "0"]]},
    "points": {"P0": ["-1", "2", "-2", "-1", "2", "0"]},
    "jets": {"J0": {"point": "P0", "p_reduced": ["-2", "0", "2", "0"]}},
    "distinguished_pair": [1, 2]}


@pytest.mark.parametrize("name", ["n3_matrix", "degree_1_n3"])
def test_each_distinct_numerator_is_read_once_per_point(name, monkeypatch):
    # entries of one text share one Polynomial, and _inputs evaluates it, or
    # takes its first jet, once per point; q is read once besides
    from diskeds.geometry import _inputs
    doc = (json.loads((DOCS / "n3_matrix.json").read_text()) if name == "n3_matrix"
           else DEGREE_1_N3)
    problem = build_problem(doc).problem
    numerators = [N for row in problem.structure.numerators for N in row if N]
    distinct = sorted({id(N) for N in numerators})
    assert len(distinct) < len(numerators)
    q = problem.structure.denominator
    reads = {"evaluate": _counting(monkeypatch, Polynomial, "evaluate"),
             "first_jet": _counting(monkeypatch, Polynomial, "first_jet")}
    for point in doc["points"].values():
        for method, jets in (("evaluate", False), ("first_jet", True)):
            read = reads[method]
            read.clear()
            _inputs(problem, tuple(map(Fraction, point)), jets)
            assert [p for p in read if p is q] == [q]
            assert sorted(id(p) for p in read if p is not q) == distinct


def test_a_degree_1_first_jet_reads_the_linear_coefficients(monkeypatch):
    # the gradient of a degree-1 entry is its linear coefficients, read with
    # no polynomial_at pass, and equals the pass's gradient
    problem = build_problem(DEGREE_1_N3).problem
    point = tuple(map(Fraction, DEGREE_1_N3["points"]["P0"]))
    entries = {id(N): N for row in problem.structure.numerators for N in row
               if N.degree() == 1}
    assert len(entries) == 16
    passes = _counting(monkeypatch, expr, "polynomial_at")
    jets = [N.first_jet(point) for N in entries.values()]
    assert not passes
    for N, jet in zip(entries.values(), jets):
        assert (jet.value, jet.grad) == (N.evaluate(point), N.derivatives_at(point)[0])
        assert all(type(t) is Fraction for t in jet.grad)


def test_each_jet_keeps_its_own_off_surface_check():
    # rho(P0) = 3: the first jet allows it, the second does not and exits
    # with the message the jet alone gives
    doc = json.loads(json.dumps(SWEEP_N3))
    doc["points"]["P0"][4] = "3/2"
    doc["jets"]["J0"]["allow_off_surface"] = True
    with pytest.raises(DimensionMismatch) as err:
        build_problem(doc)
    assert str(err.value) == "point is off the hypersurface: rho = 3"
    del doc["jets"]["J1"], doc["jets"]["J2"]
    assert set(build_problem(doc).jets) == {"J0", "J3"}


def test_each_distinct_expression_text_is_parsed_once_per_load(monkeypatch):
    # rho and 16 entries of four texts: five parses, and the entries of
    # one text are one Polynomial
    parsed = _counting(monkeypatch, expr._Parser, "parse")
    doc = {"dimension_2n": 4, "rho": "f3 - f1^2",
           "structure": {"kind": "matrix", "entries": [
               ["f1", "-1", "0", "0"], ["1", "f1", "0", "0"],
               ["0", "0", "f1", "-1"], ["0", "0", "1", "f1"]]}}
    entries = build_problem(doc).problem.structure.numerators
    assert len(parsed) == 5
    assert entries[0][0] is entries[1][1] is entries[2][2] is entries[3][3]
    assert entries[0][1] is entries[2][3] and entries[1][0] is entries[3][2]
    build_problem(doc)
    assert len(parsed) == 10   # the memo lives for one load


def test_a_repeated_bad_entry_raises_its_first_error_unchanged():
    doc = {"dimension_2n": 4, "rho": "f3",
           "structure": {"kind": "matrix", "entries": [
               ["f1 +", "0", "0", "0"], ["0", "f1 +", "0", "0"],
               ["0", "0", "f9", "0"], ["0", "0", "0", "f1 +"]]}}
    with pytest.raises(MalformedSyntax) as want:
        parse_expression("f1 +", ("f1", "f2", "f3", "f4"))
    with pytest.raises(MalformedSyntax) as got:
        build_problem(doc)
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize("fmt", ["json", "text"])
@pytest.mark.parametrize("command, doc, message", [
    ("torsion", {"dimension_2n": 4, "rho": "f3 - f1^100000000",
                 "points": {"P0": ["2", "0", "0", "0"]},
                 "jets": {"J0": {"point": "P0", "p_reduced": ["1", "0"]}}},
     "exact power x^100000000 of a 1-bit x passes 32768 bits"),
    ("involutivity", {"dimension_2n": 4, "rho": "f3 + f1",
                      "structure": {"kind": "matrix", "entries": [
                          ["0", "-1", "0", "0"], ["1", "0", "0", "0"],
                          ["0", "0", "0", "-1"], ["0", "0", "1", "f2^40000"]]},
                      "points": {"P0": ["0", "3/2", "0", "0"]}},
     "exact power x^40000 of a 1-bit x passes 32768 bits"),
    ("torsion", {"dimension_2n": 4, "rho": "f3 - 3^100000"},
     "exact power x^100000 of a 1-bit x passes 32768 bits"),
    ("pseudo-ellipsoid", {"dimension_2n": 6, "points": {"Y": ["2", "0", "0", "0", "0", "0"]},
                          "pseudo_ellipsoid": {"alphas": ["1"] * 6, "ks": [10 ** 9] * 6}},
     "exact power x^1999999999 of a 1-bit x passes 32768 bits"),
], ids=["coordinate", "structure", "constant", "pseudo_ellipsoid"])
def test_an_exact_power_past_the_bit_bound_exits_2(command, doc, message, fmt, tmp_path,
                                                   capsys):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    assert _cli_exit_2([command, str(path)], fmt, capsys) == f"SchemaViolation: {message}\n"


@pytest.mark.parametrize("fmt", ["json", "text"])
@pytest.mark.parametrize("stratum, exponent", [
    ({"equalities": ["z1^10000000 - z2"],
      "probes": {"Q": {"z": ["3", "0"], "w": ["1", "0"]}}}, 10000000),
    ({"equalities": ["z2"], "openings": [{"expr": "z1^100000000", "sign": "+"}],
      "probes": {"Q": {"z": ["3", "0"], "w": ["1", "0"]}}}, 100000000),
], ids=["equality", "opening"])
def test_a_stratum_power_past_the_bit_bound_exits_2(stratum, exponent, fmt, tmp_path,
                                                    capsys):
    # the power is taken at the probe, which the loader does not evaluate;
    # the equality ran 9.7 s before exiting 2 on the probe's violation
    path = tmp_path / "doc.json"
    path.write_text(json.dumps({"dimension_2n": 4, "strata": {"S": stratum}}))
    start = time.perf_counter()
    err = _cli_exit_2(["jets", str(path)], fmt, capsys)
    assert time.perf_counter() - start < 1
    assert err == (f"SchemaViolation: exact power x^{exponent} of a 1-bit x "
                   "passes 32768 bits\n")


def test_exact_powers_at_the_bit_bound_exit_0(tmp_path, capsys):
    # power_bits(3/5) = 2, so (3/5)^16384 takes exactly the 32,768 bits;
    # 2^5000 and y^(2 k) with k = 10,000 at y = 2 stay within them
    def run(command, doc):
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        code = cli.main([command, str(path)])
        capsys.readouterr()
        return code

    def at_bound(e):
        return {"dimension_2n": 4, "rho": f"f1^{e} - f2^{e} + f3",
                "points": {"P0": ["3/5", "3/5", "0", "0"]},
                "jets": {"J0": {"point": "P0", "p_reduced": ["1", "0"]}}}

    assert run("torsion", at_bound(16384)) == 0
    assert run("torsion", at_bound(16385)) == 2
    assert run("torsion", BIG_VALUE_DOC) == 0
    assert run("pseudo-ellipsoid", {
        "dimension_2n": 6, "points": {"Y": ["2", "0", "0", "0", "0", "0"]},
        "pseudo_ellipsoid": {"alphas": ["1"] * 6, "ks": [10000] * 6}}) == 0


def test_a_gaussian_with_a_zero_part_counts_only_the_other(tmp_path, capsys):
    # (b i)^e = b^e i^e does not grow past b^e: a power of +-i costs
    # nothing and one of 2i takes 1 bit a factor, like 2^e; a Gaussian with
    # both parts nonzero counts both parts' bits plus 2
    table = jet_table(2, 1)
    for text in ("z1 - i^20000", "z1 - (-i)^100000000", "z1 - (2*i)^32768",
                 "z1 - (1+i)^16384"):
        parse_expression(text, table, complexified=True)
    for text, message in (("z1 - (2*i)^32769", "x^32769 of a 1-bit x"),
                          ("z1 - (1+i)^16385", "x^16385 of a 2-bit x")):
        with pytest.raises(SchemaViolation, match=re.escape(message)):
            parse_expression(text, table, complexified=True)
    # a stratum holding i^20000 (= 1) loads and runs; it exited 2 when i
    # counted 2 bits
    path = tmp_path / "doc.json"
    path.write_text(json.dumps({"dimension_2n": 4, "strata": {"S": {
        "equalities": ["z2 - i^20000"],
        "probes": {"Q": {"z": ["3", "1"], "w": ["1", "0"]}}}}}))
    assert cli.main(["jets", str(path)]) == 0
    capsys.readouterr()


def test_only_a_command_that_takes_the_power_exits_2(tmp_path, capsys):
    # rho holds f1^100000000 at f1 = 2 and the document has no jets, so
    # nothing evaluates rho at load; jets and pseudo-ellipsoid never do
    doc = {"dimension_2n": 6, "rho": "f3 - f1^100000000",
           "points": {"Y": ["2", "0", "0", "0", "0", "0"]},
           "pseudo_ellipsoid": {"alphas": ["1"] * 6, "ks": [1] * 6},
           "strata": {"S": {"equalities": ["z2"],
                            "probes": {"Q": {"z": ["0", "0", "0"], "w": ["1", "0", "0"]}}}}}
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    for command in ("jets", "pseudo-ellipsoid"):
        assert cli.main([command, str(path)]) == 0
        capsys.readouterr()
    # rho's gradient takes 2^(10^8 - 1)
    err = _cli_exit_2(["involutivity", str(path)], "json", capsys)
    assert err == "SchemaViolation: exact power x^99999999 of a 1-bit x passes 32768 bits\n"


def test_powers_of_zero_and_one_have_no_bit_bound(tmp_path, capsys):
    # 1^e and 0^e cost nothing, whatever e; the bound reads the coordinate
    doc = {"dimension_2n": 4, "rho": "f3 - f1^100000000 + f2^100000000 + 1",
           "distinguished_pair": [1, 2],
           "points": {"P0": ["1", "0", "0", "0"]},
           "jets": {"J0": {"point": "P0", "p_reduced": ["1", "0"]}}}
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["torsion", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["results"]["absorbable"] in (True, False)
