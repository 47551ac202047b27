"""The scripts under scripts/ run end to end."""
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_run_builtin_analyses_is_deterministic():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    script = str(ROOT / "scripts" / "run_builtin_analyses.py")
    runs = [subprocess.run([sys.executable, script], capture_output=True, env=env)
            for _ in range(2)]
    for run in runs:
        assert run.returncode == 0, run.stderr.decode()
        assert run.stderr == b""
    assert runs[0].stdout == runs[1].stdout
    for name in ("flat", "hyperquadric", "cusp"):
        assert f"== {name} ==".encode() in runs[0].stdout
    # what the script prints is pinned, byte for byte
    golden = ROOT / "tests" / "golden" / "scripts" / "run_builtin_analyses.out"
    assert runs[0].stdout == golden.read_bytes()
