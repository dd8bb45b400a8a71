"""The scripts under scripts/ run to completion; stress_roundtrip.py
imports test helpers from conftest.py, so a change there that breaks it
shows here.  The benchmark's tracer still finds every name it wraps."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SCRIPTS = ROOT / "scripts"


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


# perfbench/run.py --trace 1 installs these wrappers by attribute name, so
# a name it wraps that leaves src/ breaks the traced benchmark.
TRACE_PROBE = """
import sys
sys.path[:0] = sys.argv[1:]
from spans import Tracer, _model_counts
from conftest import roundtrip_fixture
from invqsar import cli

tracer = Tracer()
tracer.install()
tracer.enabled = True
fx = roundtrip_fixture("triangle")
model = cli.build_milp(fx.spec, fx.space, fx.predictor, fx.y_lo, fx.y_hi)
counts = _model_counts(model)
assert counts["rows"] > 0 and counts["int_vars"] > 0, counts
(span,) = [s for s in tracer.spans if s.name == "milp.build.build_milp"]
assert span.counts == counts, span.counts
"""


def test_perfbench_tracer_installs(tmp_path):
    paths = [str(ROOT / d) for d in ("src", "tests", "perfbench")]
    done = subprocess.run(
        [sys.executable, "-c", TRACE_PROBE, *paths],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stdout + done.stderr
