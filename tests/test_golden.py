"""Every golden CLI report is reproduced byte for byte, under this
interpreter and under each other CPython 3.10 to 3.13 found on PATH.

The files under tests/golden/ are written by scripts/record_golden.py; this
test only reads them.  A change to one of them is a behaviour change.
"""
import contextlib
import importlib.util
import io
import json
import os
import shutil
import subprocess
from pathlib import Path

import pytest

from diskeds.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"
INDEX = json.loads((GOLDEN / "index.json").read_text(encoding="utf-8"))


def test_golden_set_covers_every_builtin_command():
    assert len(INDEX) == 123
    for name in ("flat", "hyperquadric", "cusp"):
        for fmt in ("json", "text"):
            assert f"all-{name}-{fmt}" in INDEX
            assert f"jets-{name}-{fmt}" in INDEX
    # beyond the n = 3 builtins: n = 4, 5 and a non-constant structure
    for stem in ("n5_hyperquadric", "n4_hyperquadric", "n3_matrix", "n3_ball_flags",
                 "n3_pair", "n3_chart34"):
        for command in ("involutivity", "torsion", "complex-forms", "integral-element"):
            assert f"{command}-{stem}-json" in INDEX
    for stem in ("n4_levi_null", "n5_levi_null"):
        for rounds in (1, 2, 3):
            assert f"jets-{stem}-r{rounds}-json" in INDEX
    assert INDEX["dim6-n3_matrix-json"]["exit"] == INDEX["dim6-n3_matrix-text"]["exit"] == 2
    for fmt in ("json", "text"):
        for case in ("jets-n2_extension", "jets-n2_real_velocity",
                     "jets-cusp-generic-probe-P_origin",
                     "pseudo-ellipsoid-pseudo_ellipsoid-point-Y0",
                     "pseudo-ellipsoid-pseudo_ellipsoid-point-Y1",
                     "involutivity-n4_pair_blocks", "involutivity-n4_pair_not_almost_complex"):
            assert INDEX[f"{case}-{fmt}"]["exit"] == 0


def test_the_recorder_yields_exactly_the_indexed_cases():
    # a case added to scripts/record_golden.py or to the index alone fails
    spec = importlib.util.spec_from_file_location(
        "record_golden", ROOT / "scripts" / "record_golden.py")
    recorder = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(recorder)
    cases = list(recorder.cases())
    assert len(dict(cases)) == len(cases)
    assert dict(cases) == {case: entry["argv"] for case, entry in INDEX.items()}


@pytest.mark.parametrize("case", sorted(INDEX))
def test_golden_report(case, monkeypatch):
    # document paths are relative to the repository root, as recorded
    monkeypatch.chdir(ROOT)
    expected = INDEX[case]
    out, err = io.TextIOWrapper(io.BytesIO()), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(expected["argv"])
    out.flush()
    assert code == expected["exit"]
    assert err.getvalue() == expected["stderr"]
    assert out.buffer.getvalue() == (GOLDEN / f"{case}.out").read_bytes()


def _options_set(argv):
    """The options an argv ``[command, problem, --name value, ...]`` sets,
    --format aside, with the counts as integers."""
    options = {name[2:]: value for name, value in zip(argv[2::2], argv[3::2])
               if name != "--format"}
    return {name: int(value) if name in ("rounds", "trials") else value
            for name, value in options.items()}


@pytest.mark.parametrize("case", sorted(c for c, e in INDEX.items() if e["exit"] == 0))
def test_golden_report_echoes_exactly_the_options_its_argv_sets(case):
    # an option the report echoes but the argv does not set would read as
    # if it had shaped the report
    argv = INDEX[case]["argv"]
    options = _options_set(argv)
    report = (GOLDEN / f"{case}.out").read_text(encoding="utf-8")
    if argv[argv.index("--format") + 1] == "json":
        assert json.loads(report)["options"] == options
    else:
        assert [line for line in report.splitlines() if line.startswith("options.")] == [
            f"options.{name} = {options[name]}" for name in sorted(options)]


# replays every indexed case in-process, importing nothing beyond the
# standard library and diskeds (the interpreter runs with -S); prints each
# case that differs, then the interpreter's version and the case count
REPLAY = r"""
import contextlib, io, json, sys
from pathlib import Path
root = Path(sys.argv[1])
sys.path.insert(0, str(root / "src"))
from diskeds.cli import main
golden = root / "tests" / "golden"
index = json.loads((golden / "index.json").read_text(encoding="utf-8"))
for case, expected in sorted(index.items()):
    out, err = io.TextIOWrapper(io.BytesIO()), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(expected["argv"])
    out.flush()
    if (code, err.getvalue(), out.buffer.getvalue()) != (
            expected["exit"], expected["stderr"], (golden / f"{case}.out").read_bytes()):
        print("differs:", case)
print("%d.%d" % sys.version_info[:2], len(index))
"""


def _environment(name):
    """The environment that runs ``name`` from PATH, or None when it is
    absent.  A pyenv shim runs only the selected versions, so the
    environment selects the last installed version that provides ``name``."""
    if shutil.which(name) is None:
        return None
    env = dict(os.environ)
    if shutil.which("pyenv"):
        versions = subprocess.run(["pyenv", "whence", name], capture_output=True,
                                  text=True).stdout.split()
        if versions:
            env["PYENV_VERSION"] = versions[-1]
    if subprocess.run([name, "-S", "-c", "pass"], env=env, capture_output=True).returncode:
        return None
    return env


@pytest.mark.parametrize("version", ["3.10", "3.12", "3.13"])
def test_golden_reports_replay_under_other_interpreters(version):
    name = f"python{version}"
    env = _environment(name)
    if env is None:
        pytest.skip(f"{name} is not on PATH")
    run = subprocess.run([name, "-S", "-c", REPLAY, str(ROOT)], cwd=ROOT, env=env,
                         capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines() == [f"{version} {len(INDEX)}"]
