"""Every golden CLI report is reproduced byte for byte.

The files under tests/golden/ are written by scripts/record_golden.py; this
test only reads them.  A change to one of them is a behaviour change.
"""
import contextlib
import importlib.util
import io
import json
from pathlib import Path

import pytest

from diskeds.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"
INDEX = json.loads((GOLDEN / "index.json").read_text(encoding="utf-8"))


def test_golden_set_covers_every_builtin_command():
    assert len(INDEX) == 110
    for name in ("flat", "hyperquadric", "cusp"):
        for fmt in ("json", "text"):
            assert f"all-{name}-{fmt}" in INDEX
            assert f"jets-{name}-{fmt}" in INDEX
    # beyond the n = 3 builtins: n = 4, 5 and a non-constant structure
    for stem in ("n5_hyperquadric", "n4_hyperquadric", "n3_matrix", "n3_ball_flags",
                 "n3_pair"):
        for command in ("involutivity", "torsion", "complex-forms", "integral-element"):
            assert f"{command}-{stem}-json" in INDEX
    for stem in ("n4_levi_null", "n5_levi_null"):
        for rounds in (1, 2, 3):
            assert f"jets-{stem}-r{rounds}-json" in INDEX
    assert INDEX["dim6-n3_matrix-json"]["exit"] == INDEX["dim6-n3_matrix-text"]["exit"] == 2
    for fmt in ("json", "text"):
        for case in ("jets-n2_extension", "jets-cusp-generic-probe-P_origin",
                     "pseudo-ellipsoid-pseudo_ellipsoid-point-Y0",
                     "pseudo-ellipsoid-pseudo_ellipsoid-point-Y1"):
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
