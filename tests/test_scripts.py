"""The scripts under scripts/ run to completion; two import test helpers
(conftest.py, test_minisolve.py), so a change there that breaks them shows
here."""

import subprocess
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def test_scripts_run(tmp_path):
    runs = [
        ["run_demo.py", "--out", str(tmp_path / "demo")],
        ["stress_roundtrip.py", "--instances", "3", "--max-heavy", "6"],
    ]
    for script, *args in runs:
        done = subprocess.run(
            [sys.executable, str(SCRIPTS / script), *args],
            cwd=tmp_path, capture_output=True, text=True, timeout=300,
        )
        assert done.returncode == 0, f"{script}:\n{done.stdout}{done.stderr}"


def test_compare_solvers_agrees(tmp_path):
    done = subprocess.run(
        [sys.executable, str(SCRIPTS / "compare_solvers.py"), "--trials", "3"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    assert "agreement: 3/3" in done.stdout
