"""The scripts under scripts/ run to completion; stress_roundtrip.py
imports test helpers from conftest.py, so a change there that breaks it
shows here.  The benchmark's tracer still finds every name it wraps, and
its spans of featurize and train still carry the names its metrics read."""

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
# a name it wraps that leaves src/ breaks the traced benchmark: the probe
# builds a model and runs featurize and train with the tracer on, and
# checks the spans that the per-layer metrics read.
TRACE_PROBE = """
import json, sys
from pathlib import Path
sys.path[:0] = sys.argv[1:4]
from spans import Tracer, _model_counts
from conftest import chain, ring, roundtrip_fixture
from invqsar import cli
from invqsar.sdf import graph_to_sdf

tracer = Tracer()
tracer.install()
tracer.enabled = True
fx = roundtrip_fixture("triangle")
model = cli.build_milp(fx.spec, fx.space, fx.predictor, fx.y_lo, fx.y_hi)
counts = _model_counts(model)
assert counts["rows"] > 0 and counts["int_vars"] > 0, counts
(span,) = [s for s in tracer.spans if s.name == "milp.build.build_milp"]
assert span.counts == counts, span.counts

work = Path(sys.argv[4])
molecules = [ring(n) for n in (3, 4, 5, 6)] + [chain(["C"] * n) for n in range(2, 10)]
(work / "dataset.sdf").write_text(
    "".join(graph_to_sdf(g, f"m{i}") for i, g in enumerate(molecules)))
(work / "targets.csv").write_text(
    "".join(f"m{i},{g.n_heavy()}\\n" for i, g in enumerate(molecules)))
(work / "config.json").write_text(json.dumps({
    "dataset": str(work / "dataset.sdf"), "targets": str(work / "targets.csv"),
    "lambda_grid": [0.001, 0.01], "cv_executions": 1,
    "output_dir": str(work / "out")}))
for command in ("featurize", "train"):
    assert cli.main([command, "--config", str(work / "config.json")]) == 0
names = {s.name for s in tracer.spans}
wanted = {"descriptors.write_feature_csv", "descriptors.read_feature_csv",
          "decompose.decompose", "regression.lasso_fit"}
assert wanted <= names, sorted(wanted - names)
"""


def test_perfbench_tracer_installs(tmp_path):
    paths = [str(ROOT / d) for d in ("src", "tests", "perfbench")]
    done = subprocess.run(
        [sys.executable, "-c", TRACE_PROBE, *paths, str(tmp_path)],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stdout + done.stderr
