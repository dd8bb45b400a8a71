import csv
import gc
import hashlib
import io
import json
import re
import subprocess
import sys
import weakref
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from invqsar import cli
from invqsar.cli import main
from invqsar.descriptors import (
    census_vector, read_feature_csv, space_from_json, space_to_json_text, take_census,
    write_feature_csv)
from invqsar.milp import solve as solve_module
from invqsar.milp.decode import DecodeError, solution_feature_values
from invqsar.milp.minisolve import MiniSolverError
from invqsar.graph import build_graph, graph_to_json_text
from invqsar.regression import min_max_scale, predictor_to_json_text
from invqsar.sdf import graph_to_sdf
from invqsar.topospec import spec_to_json_text

from conftest import (
    chain, hydrogen_tree_entry, perfbench_inputs, random_chemical_graph, ring,
    roundtrip_fixture, sdf_records)
import oracles


@pytest.fixture
def project(tmp_path):
    """A small ready-to-run project directory.

    Twelve molecules whose property is exactly 2*heavy-atoms + 1, so the
    trained model is essentially perfect and inference targets are easy to
    place."""
    fx = roundtrip_fixture("triangle")

    molecules = (
        [ring(n) for n in (3, 4, 5, 6)]
        + [ring(n, pendant=1) for n in (3, 4, 5, 6)]
        + [ring(5, pendant=2), ring(6, pendant=2)]
        + [chain(["C"] * 5), chain(["C"] * 6)]
    )
    sdf = "".join(
        graph_to_sdf(g, f"mol{i}") for i, g in enumerate(molecules)
    )
    dataset = tmp_path / "dataset.sdf"
    dataset.write_text(sdf)
    targets = tmp_path / "targets.csv"
    lines = ["id,value"]
    for i, g in enumerate(molecules):
        lines.append(f"mol{i},{g.n_heavy() * 2.0 + 1.0}")
    targets.write_text("\n".join(lines) + "\n")
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(spec_to_json_text(fx.spec))
    cfg = {
        "dataset": str(dataset),
        "targets": str(targets),
        "rho": 2,
        "lambda_grid": [1e-4, 1e-3],
        "cv_executions": 2,
        "spec": str(spec_path),
        "output_dir": str(tmp_path / "out"),
        "seed": 7,
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(cfg))
    return tmp_path, cfg_path, fx


def test_sdf_rendering_parses_back():
    g = ring(5, pendant=1)
    text = graph_to_sdf(g, "probe")
    graphs, errors = sdf_records(text)
    assert not errors
    assert graphs[0][1].n_heavy() == g.n_heavy()


def test_featurize_command(project, capsys):
    tmp, cfg_path, fx = project
    assert main(["featurize", "--config", str(cfg_path)]) == 0
    out = tmp / "out"
    assert (out / "features.csv").exists()
    assert (out / "space.json").exists()
    text = (out / "features.csv").read_text()
    assert text.count("\n") == 12 + 1
    # determinism across runs
    first = text
    assert main(["featurize", "--config", str(cfg_path)]) == 0
    assert (out / "features.csv").read_text() == first


def test_featurize_decomposes_each_record_once(project, monkeypatch):
    from invqsar import descriptors

    tmp, cfg_path, fx = project
    calls = []
    original = descriptors.decompose

    def counted(g, rho):
        calls.append(g)
        return original(g, rho)

    monkeypatch.setattr(descriptors, "decompose", counted)
    assert main(["featurize", "--config", str(cfg_path)]) == 0
    records, _ = sdf_records((tmp / "dataset.sdf").read_text())
    assert len(calls) == len(records) == 12


def test_featurize_keeps_one_graph_alive(project, monkeypatch):
    """featurize keeps each record's counts, not its graph: when the space
    is built, at most one parsed graph is still alive."""
    from invqsar import sdf

    tmp, cfg_path, fx = project
    parsed = []
    parse_record = sdf._parse_record

    def tracked(lines, index):
        graph, name = parse_record(lines, index)
        parsed.append(weakref.ref(graph))
        return graph, name

    alive = []
    space_from_censuses = cli.space_from_censuses

    def counted(censuses):
        gc.collect()
        alive.append(sum(ref() is not None for ref in parsed))
        return space_from_censuses(censuses)

    monkeypatch.setattr(sdf, "_parse_record", tracked)
    monkeypatch.setattr(cli, "space_from_censuses", counted)
    assert main(["featurize", "--config", str(cfg_path)]) == 0
    assert len(parsed) == 12
    assert alive and alive[0] <= 1


def test_featurize_rejects_a_repeated_record_name(tmp_path, capsys):
    """Two records of one name would be two feature rows that train gives
    one target: featurize exits 2 naming the id and both record numbers,
    numbered from 0 as the warnings number them, before writing anything.
    A generated `record<i>` name counts as the record's name."""
    molecules = [ring(n) for n in (3, 4, 5, 6, 7)] + [chain(["C"] * n) for n in (2, 3, 4)]
    cases = [
        ([f"m{i % 4}" for i in range(8)], "'m0' names records 0 and 4"),
        (["a", "", "record1", "b"], "'record1' names records 1 and 2"),
    ]
    for names, message in cases:
        sdf = tmp_path / "dataset.sdf"
        sdf.write_text("".join(graph_to_sdf(g, n) for g, n in zip(molecules, names)))
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"dataset": str(sdf), "output_dir": str(tmp_path / "out")}))
        assert main(["featurize", "--config", str(cfg)]) == 2
        assert capsys.readouterr().err == f"error: id {message} of {sdf}\n"
        assert not (tmp_path / "out").exists()


def test_featurize_holds_carbon_monoxide(tmp_path, capsys):
    """C-(-1) triple-bonded to O(+1) meets the valence condition, so its
    leaf edge is a descriptor like any other, next to ethane's."""
    monoxide = build_graph([(1, "C", -1), (2, "O", 1)], [(1, 2, 3)])
    sdf = tmp_path / "dataset.sdf"
    sdf.write_text(graph_to_sdf(monoxide, "co") + graph_to_sdf(chain(["C", "C"]), "ethane"))
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"dataset": str(sdf), "output_dir": str(tmp_path / "out")}))
    assert main(["featurize", "--config", str(cfg)]) == 0
    space = space_from_json(json.loads((tmp_path / "out" / "space.json").read_text()))
    assert {ac.label for ac in space.ac_lf} == {"C_C_1", "C_O_3"}


def test_featurize_empty_dataset(tmp_path, capsys):
    empty = tmp_path / "nothing.sdf"
    empty.write_text("")
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"dataset": str(empty), "output_dir": str(tmp_path)}))
    assert main(["featurize", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err == "error: no parsable records in the dataset\n"


def _featurize_and_train(cfg_path) -> dict[str, bytes]:
    assert main(["featurize", "--config", str(cfg_path)]) == 0
    assert main(["train", "--config", str(cfg_path)]) == 0
    out = cfg_path.parent / "out"
    return {name: (out / name).read_bytes()
            for name in ("features.csv", "space.json", "predictor.json")}


# sha256 of the featurize + train outputs for the benchmark's train_cv inputs
TRAIN_CV_DIGESTS = {
    "features.csv": "e3929e86d82e4405ac156f39e1d35fd06c59a0a13e90b8e3603c25611d57d466",
    "space.json": "e175d3b617ff65b0ef7d79f45e571d30159dcd963d4095059198afea88efe33e",
    "predictor.json": "67c8621a49b44d9b782ef6abc99d78eaceb87277d588cbfbe633c2a316123546",
}


def _train_cv(tmp_path) -> tuple[dict[str, bytes], dict[str, float]]:
    """featurize and train on the benchmark's train_cv inputs (molecule seed
    1, 300 molecules, penalty grid (0.001, 0.003, 0.01), one execution,
    fold seed 1): the outputs, and the targets by id."""
    inputs = perfbench_inputs()
    rng = np.random.default_rng(1)
    named = [(f"m{i + 1:04d}", inputs.random_molecule(rng, 14)) for i in range(300)]
    targets = {n: inputs.synthetic_property(g, rng) for n, g in named}
    (tmp_path / "dataset.sdf").write_text(inputs.sdf_text(named))
    (tmp_path / "targets.csv").write_text(
        "id,value\n" + "".join(f"{n},{targets[n]!r}\n" for n, _ in named))
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps({
        "dataset": str(tmp_path / "dataset.sdf"),
        "targets": str(tmp_path / "targets.csv"),
        "rho": 2, "lambda_grid": [0.001, 0.003, 0.01], "cv_executions": 1,
        "output_dir": str(tmp_path / "out"), "seed": 1,
    }))
    return _featurize_and_train(cfg_path), targets


def test_train_cv_outputs_are_pinned(tmp_path, capsys):
    outputs, _ = _train_cv(tmp_path)
    assert {name: hashlib.sha256(data).hexdigest()
            for name, data in outputs.items()} == TRAIN_CV_DIGESTS


def test_train_cv_predictor_meets_the_lasso_conditions(tmp_path, capsys):
    """The final fit, warm-started down the grid to the chosen penalty, is
    a Lasso optimum on all rows: each zero weight's correlation is within
    the penalty, each nonzero weight's equals it with the weight's sign,
    and the residuals have mean zero, all within 1e-6."""
    outputs, targets = _train_cv(tmp_path)
    doc = json.loads(outputs["predictor.json"])
    ids, _, x_raw = read_feature_csv(outputs["features.csv"].decode())
    x = min_max_scale(x_raw, doc["min"], doc["max"])
    y = min_max_scale([targets[i] for i in ids], doc["target_min"], doc["target_max"])
    w, lam = np.asarray(doc["weights"]), doc["lambda"]
    residual = y - x @ w - doc["bias"]
    corr = x.T @ residual / len(y)
    assert lam == 0.001 and np.count_nonzero(w) == 7
    assert np.abs(corr[w == 0.0]).max() <= lam + 1e-6
    assert np.abs(corr[w != 0.0] - lam * np.sign(w[w != 0.0])).max() <= 1e-6
    assert abs(residual.mean()) <= 1e-6


def test_featurize_rows_match_the_dense_oracle(tmp_path, rng):
    """On 240 random molecules, some with names the csv writer quotes,
    featurize writes the bytes that the dense oracle writes from each
    record's census_vector; so does write_feature_csv for a census whose
    only nonzero values are its scalars."""
    graphs = [random_chemical_graph(rng) for _ in range(240)]
    names = [f'm,{i}' if i % 7 == 0 else f'q"{i}"' if i % 11 == 0 else f"m{i}"
             for i in range(len(graphs))]
    sdf = tmp_path / "dataset.sdf"
    sdf.write_text("".join(graph_to_sdf(g, n) for g, n in zip(graphs, names)))
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"dataset": str(sdf), "output_dir": str(tmp_path / "out")}))
    assert main(["featurize", "--config", str(cfg)]) == 0
    text = (tmp_path / "out" / "features.csv").read_text()
    space = space_from_json(json.loads((tmp_path / "out" / "space.json").read_text()))
    censuses = [take_census(g, space.rho) for _, g in sdf_records(sdf.read_text())[0]]
    vectors = [census_vector(c, space) for c in censuses]
    assert text == oracles.write_feature_csv(names, vectors, space)
    assert '"m,0"' in text and '"q""11"""' in text
    assert any(v.values[3].denominator != 1 for v in vectors)

    bare = replace(censuses[0], elements=Counter(), edge_configs=Counter(),
                   fringe=Counter(), leaf_edges=Counter())
    assert (write_feature_csv(["bare"], [bare], space)
            == oracles.write_feature_csv(["bare"], [census_vector(bare, space)], space))


def _unknown_element_record(name: str) -> str:
    atom = "    0.0000    0.0000    0.0000 Zz  0  0  0  0  0  0  0  0  0  0  0  0"
    return (f"{name}\n  test\n\n  1  0  0  0  0  0  0  0  0  0999 V2000\n"
            f"{atom}\nM  END\n$$$$\n")


def test_featurize_reports_bad_records_in_place(project, capsys):
    """Bad records first, in the middle and last are each reported, in
    record order, and the outputs are those of the good records alone.  A
    charge line naming an atom past the last one fails its record alone."""
    tmp, cfg_path, fx = project
    dataset = tmp / "dataset.sdf"
    good = [r + "$$$$\n" for r in dataset.read_text().split("$$$$\n")[:-1]]
    assert len(good) == 12
    clean = _featurize_and_train(cfg_path)
    assert capsys.readouterr().err == ""

    five_bonds = build_graph([(i, "C") for i in range(1, 7)],
                             [(1, i, 1) for i in range(2, 7)])
    stray = graph_to_sdf(ring(3), "stray").replace("M  END", "M  CHG  1  99   1\nM  END")
    dataset.write_text("".join([
        "junk\n\n\nnot-a-counts-line\n$$$$\n",
        *good[:5],
        _unknown_element_record("odd"),
        *good[5:9],
        stray,
        *good[9:],
        graph_to_sdf(five_bonds, "crowded"),
    ]))
    assert _featurize_and_train(cfg_path) == clean
    assert capsys.readouterr().err.splitlines() == [
        "warning: record 0 (junk): malformed counts line: 'not-a-counts-line'",
        "warning: record 6 (odd): unknown element symbol 'Zz'",
        "warning: record 11 (stray): charge line names missing atom 99",
        "warning: record 15 (crowded): vertex 1 has 5 heavy neighbours (max 4)",
    ]


def test_train_and_infer_and_verify(project, capsys):
    tmp, cfg_path, fx = project
    assert main(["featurize", "--config", str(cfg_path)]) == 0
    assert main(["train", "--config", str(cfg_path)]) == 0
    captured = capsys.readouterr()
    assert "lambda" in captured.out
    out = tmp / "out"
    predictor_doc = json.loads((out / "predictor.json").read_text())
    space_doc = json.loads((out / "space.json").read_text())
    k_cli = 14 + sum(
        len(space_doc[key])
        for key in ("lambda_int", "lambda_ex", "gamma_int", "fringe_codes", "ac_lf")
    )
    assert len(predictor_doc["weights"]) == k_cli

    # the synthetic property is 2*n_heavy + 1; ask for a value near n=3
    assert main(["infer", "--config", str(cfg_path), "--lo", "6.9", "--hi", "7.1"]) == 0
    captured = capsys.readouterr()
    assert "feasible" in captured.out
    assert (out / "result.json").exists()
    assert (out / "result.sdf").exists()
    verification = json.loads((out / "verification.json").read_text())
    assert verification["in_interval"]
    assert verification["spec_report"]["passed"]
    # the trained predictor is sparse, and only what it weighs is normalized
    weighed = {str(j) for j, w in enumerate(predictor_doc["weights"], start=1) if w}
    normalized = set(re.findall(r"\b(?:xd|xhat|nm_d|nm_lo|nm_hi)_(\d+)\b",
                                (out / "model.lp").read_text()))
    assert normalized and normalized <= weighed and len(weighed) < k_cli

    code = main([
        "verify",
        str(out / "result.json"),
        str(tmp / "spec.json"),
        str(out / "predictor.json"),
        str(out / "space.json"),
    ])
    assert code == 0
    captured = capsys.readouterr()
    assert "overall: pass" in captured.out


def test_infer_infeasible_exit_code(project, capsys):
    tmp, cfg_path, fx = project
    assert main(["featurize", "--config", str(cfg_path)]) == 0
    assert main(["train", "--config", str(cfg_path)]) == 0
    # property value far outside anything reachable under this request
    assert main(["infer", "--config", str(cfg_path), "--lo", "900", "--hi", "901"]) == 3
    assert (tmp / "out" / "solve.log").read_text() == (
        "HiGHS not called: row pred_value cannot be met within the variable "
        "bounds\n")


def test_infer_usage_errors(project, capsys):
    tmp, cfg_path, fx = project
    assert main(["infer", "--config", str(cfg_path), "--lo", "2", "--hi", "1"]) == 2
    missing = tmp / "missing.json"
    cfg = json.loads(cfg_path.read_text())
    cfg["spec"] = str(missing)
    bad_cfg = tmp / "bad.json"
    bad_cfg.write_text(json.dumps(cfg))
    assert main(["featurize", "--config", str(cfg_path)]) == 0
    assert main(["train", "--config", str(cfg_path)]) == 0
    assert main(["infer", "--config", str(bad_cfg), "--lo", "1", "--hi", "2"]) == 2


# the whole stderr line of each window fault
_WINDOW_ERRORS = {
    "empty target interval": "error: empty target interval\n",
    "bounds must be finite": "error: target interval bounds must be finite\n",
}


@pytest.mark.parametrize("lo, hi, needle", [
    ("-1e-05", "-2e-05", "empty target interval"),
    ("-inf", "1", "bounds must be finite"),
    ("0", "inf", "bounds must be finite"),
    ("nan", "1", "bounds must be finite"),
])
def test_infer_bounds_take_any_float_text(project, capsys, lo, hi, needle):
    """`-1e-05` and `-inf` are values of --lo, not unknown options; the
    empty or non-finite window they make is a usage error."""
    tmp, cfg_path, fx = project
    assert main(["infer", "--config", str(cfg_path), "--lo", lo, "--hi", hi]) == 2
    assert capsys.readouterr().err == _WINDOW_ERRORS[needle]


def test_train_id_mismatch(project, capsys):
    tmp, cfg_path, fx = project
    assert main(["featurize", "--config", str(cfg_path)]) == 0
    cfg = json.loads(cfg_path.read_text())
    shuffled = tmp / "targets2.csv"
    shuffled.write_text("id,value\nsomeoneelse,3.0\n")
    cfg["targets"] = str(shuffled)
    cfg2 = tmp / "config2.json"
    cfg2.write_text(json.dumps(cfg))
    capsys.readouterr()
    assert main(["train", "--config", str(cfg2)]) == 2
    assert capsys.readouterr().err == (
        "error: no target value for ids ['mol0', 'mol1', 'mol2', 'mol3', 'mol4']\n")


@pytest.mark.parametrize("value", ["nan", "-nan", "inf", "1e400"])
def test_train_rejects_a_non_finite_target(project, capsys, value):
    """A target that float() reads as NaN or infinite exits 2 naming its id
    and line, before any fit: a NaN would reach predictor.json as a
    `target_min` that no reader accepts."""
    tmp, cfg_path, fx = project
    assert main(["featurize", "--config", str(cfg_path)]) == 0
    targets = tmp / "targets.csv"
    lines = targets.read_text().splitlines()
    lines[4] = f"mol3,{value}"
    targets.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main(["train", "--config", str(cfg_path)]) == 2
    assert capsys.readouterr().err == (
        f"error: target of 'mol3' on line 5 of {targets} is not a finite number: "
        f"{value!r}\n")
    assert not (tmp / "out" / "predictor.json").exists()


def _target_lines(lines):
    lines.insert(3, "")
    lines.insert(5, "# a comment")


@pytest.mark.parametrize("edit, code, err", [
    (_target_lines, 0, ""),
    (lambda lines: lines.insert(4, "mol3,x"), 2, "error: bad target line 'mol3,x'\n"),
    (lambda lines: lines.append("mol3,9.0"), 2,
     "error: target id 'mol3' is on lines 5 and 14 of {}\n"),
    (lambda lines: lines.append("id,value"), 2, "error: bad target line 'id,value'\n"),
], ids=["blank-and-comment", "bad-line", "duplicate-id", "late-header"])
def test_train_reads_each_target_line(project, capsys, edit, code, err):
    """Blank and '#' lines are skipped; a line that is not an id and a
    number, or an id listed twice, exits 2 before any fit, and so does an
    `id,` line after the first."""
    tmp, cfg_path, fx = project
    assert main(["featurize", "--config", str(cfg_path)]) == 0
    targets = tmp / "targets.csv"
    lines = targets.read_text().splitlines()
    edit(lines)
    targets.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main(["train", "--config", str(cfg_path)]) == code
    assert capsys.readouterr().err == err.format(targets)
    assert (tmp / "out" / "predictor.json").exists() == (code == 0)


@pytest.mark.parametrize("text, expected", [
    ("id,value\nID,3.0\nm2,4.0\n", {"ID": 3.0, "m2": 4.0}),
    ("# targets\n\n Id,value\nm2,4.0\n", {"m2": 4.0}),
    ("id,3.0\nm2,4.0\n", {"id": 3.0, "m2": 4.0}),
    ("m2,4.0\nid,value\n", "bad target line 'id,value'"),
    ("id,value\nid,value\n", "bad target line 'id,value'"),
    ("id,value,unit\nm2,4.0\n", "bad target line 'id,value,unit'"),
], ids=["record-after-header", "header-after-comment", "numeric-first-line",
        "header-after-record", "two-headers", "three-field-header"])
def test_only_the_first_line_may_be_a_header(tmp_path, text, expected):
    """A line is a header only when it is the first line that is neither
    blank nor a comment, starts with `id,` and has a value field that is
    not a number; any later line is a record."""
    path = tmp_path / "targets.csv"
    path.write_text(text)
    if isinstance(expected, dict):
        assert cli._load_targets(str(path)) == expected
    else:
        with pytest.raises(cli.UsageError) as info:
            cli._load_targets(str(path))
        assert str(info.value) == expected


def _drop_last_column(path):
    lines = path.read_text().splitlines()
    path.write_text("".join(ln.rsplit(",", 1)[0] + "\n" for ln in lines))


def test_train_rejects_features_that_differ_from_the_space(project, capsys):
    """A features.csv header that is not space.json's descriptor list
    would give a predictor of the wrong width under the space's hash."""
    tmp, cfg_path, fx = project
    assert main(["featurize", "--config", str(cfg_path)]) == 0
    _drop_last_column(tmp / "out" / "features.csv")
    capsys.readouterr()
    assert main(["train", "--config", str(cfg_path)]) == 2
    assert capsys.readouterr().err == (
        "error: features.csv header differs from space.json at descriptor 25: "
        "nothing where the space has 'ac_C_C_1'\n")
    assert not (tmp / "out" / "predictor.json").exists()


def _drop_last_descriptor(doc):
    for key in ("weights", "min", "max", "descriptor_names"):
        doc[key] = doc[key][:-1]


def _swap_first_descriptors(doc):
    names = doc["descriptor_names"]
    names[0], names[1] = names[1], names[0]


@pytest.mark.parametrize("command", ["verify", "infer"])
@pytest.mark.parametrize("edit, message", [
    (_drop_last_descriptor, "descriptor 25: nothing where the space has 'ac_C_C_1'"),
    (_swap_first_descriptors, "descriptor 1: 'rank' where the space has 'n_heavy'"),
], ids=["dropped", "swapped"])
def test_predictor_of_other_descriptors_is_a_usage_error(trained, capsys, command,
                                                         edit, message):
    """A predictor stamped with the space's hash but not trained on its
    descriptors, in their order, is an input error, not a failed check."""
    tmp, cfg_path = trained
    out = tmp / "out"
    doc = json.loads((out / "predictor.json").read_text())
    edit(doc)
    (out / "predictor.json").write_text(json.dumps(doc))
    (tmp / "graph.json").write_text(graph_to_json_text(ring(3)))
    argv = {
        "infer": ["infer", "--config", str(cfg_path), "--lo", "6.9", "--hi", "7.1"],
        "verify": ["verify", str(tmp / "graph.json"), str(tmp / "spec.json"),
                   str(out / "predictor.json"), str(out / "space.json")],
    }[command]
    capsys.readouterr()
    assert main(argv) == 2
    assert capsys.readouterr().err == (
        f"error: predictor descriptor_names differs from space.json at {message}\n")


def test_verify_flags_bad_graph(project, capsys, tmp_path):
    tmp, cfg_path, fx = project
    assert main(["featurize", "--config", str(cfg_path)]) == 0
    assert main(["train", "--config", str(cfg_path)]) == 0
    out = tmp / "out"
    # hand-edit: a pentagon violates the triangle seed spec
    bad = tmp / "bad_graph.json"
    bad.write_text(graph_to_json_text(ring(5)))
    code = main([
        "verify",
        str(bad),
        str(tmp / "spec.json"),
        str(out / "predictor.json"),
        str(out / "space.json"),
    ])
    assert code == 1


def test_verify_disconnected_graph_fails_check(trained, capsys):
    tmp, cfg_path = trained
    out = tmp / "out"
    two_rings = build_graph(
        [(i, "C") for i in range(1, 8)],
        [(1, 2, 1), (2, 3, 1), (3, 1, 1), (4, 5, 1), (5, 6, 1), (6, 7, 1), (7, 4, 1)],
        add_hydrogens=True,
    )
    bad = tmp / "two_rings.json"
    bad.write_text(graph_to_json_text(two_rings))
    code = main([
        "verify",
        str(bad),
        str(tmp / "spec.json"),
        str(out / "predictor.json"),
        str(out / "space.json"),
    ])
    assert code == 1
    printed = capsys.readouterr().out
    assert "graph invariants: FAIL: graph is not connected" in printed
    assert "overall: FAIL" in printed


def test_missing_config_file():
    assert main(["featurize", "--config", "/nonexistent/cfg.json"]) == 2


def test_config_directory_is_usage_error(tmp_path, capsys):
    assert main(["featurize", "--config", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot read") and "Traceback" not in err


def test_unreadable_input_path_is_usage_error(tmp_path, capsys):
    # without a "dataset" key the dataset path is "", the current directory
    cfg = tmp_path / "c.json"
    cfg.write_text("{}")
    assert main(["featurize", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot read") and "Traceback" not in err


def test_infer_solver_failure_exit_code(project):
    tmp, cfg_path, fx = project
    assert main(["featurize", "--config", str(cfg_path)]) == 0
    assert main(["train", "--config", str(cfg_path)]) == 0
    cfg = json.loads(cfg_path.read_text())
    cfg["solver_command"] = "false {input} {output}"
    broken = tmp / "broken.json"
    broken.write_text(json.dumps(cfg))
    assert main(["infer", "--config", str(broken), "--lo", "6", "--hi", "8"]) == 4


def test_infer_window_met_only_within_tolerance_exit_code(tmp_path, capsys):
    """A window just above the one answer's exact prediction, which HiGHS
    meets through the normalization sandwiches' slack: the polished answer
    fails its residual check on y, and infer exits 4 saying so."""
    fx = roundtrip_fixture("expanded_path")
    out = tmp_path / "out"
    out.mkdir()
    (out / "space.json").write_text(space_to_json_text(fx.space))
    (out / "predictor.json").write_text(predictor_to_json_text(fx.predictor))
    (tmp_path / "spec.json").write_text(spec_to_json_text(fx.spec))
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"spec": str(tmp_path / "spec.json"),
                               "output_dir": str(out)}))
    # the window sits 3e-6 to 5e-6 (standardized) above the exact
    # prediction, inside the 1.12e-5 the sandwiches let y rise
    lo, hi = (fx.predictor.destandardize(fx.y_center + d) for d in (3e-6, 5e-6))
    assert main(["infer", "--config", str(cfg), "--lo", repr(lo), "--hi", repr(hi)]) == 4
    err = capsys.readouterr().err
    assert re.match(r"solver failure: solution fails verification: y = \S+ below "
                    r"lower bound \S+; the solver met the target interval only "
                    r"within its tolerance", err), err


def test_solver_timeout_binds_an_external_solver(trained, capsys):
    tmp, cfg_path = trained
    cfg = json.loads(cfg_path.read_text())
    cfg["solver_command"] = 'sh -c "sleep 30; cp {input} {output}"'
    cfg["solver_timeout"] = 0.3
    slow = tmp / "slow.json"
    slow.write_text(json.dumps(cfg))
    assert main(["infer", "--config", str(slow), "--lo", "6.9", "--hi", "7.1"]) == 4
    assert capsys.readouterr().err == "solver failure: external solver exceeded 0.3s\n"


def test_infer_with_builtin_solver(project, capsys):
    tmp, cfg_path, fx = project
    assert main(["featurize", "--config", str(cfg_path)]) == 0
    assert main(["train", "--config", str(cfg_path)]) == 0
    cfg = json.loads(cfg_path.read_text())
    cfg["solver_command"] = "mini"
    cfg["solver_timeout"] = 240
    mini_cfg = tmp / "mini.json"
    mini_cfg.write_text(json.dumps(cfg))
    assert main(["infer", "--config", str(mini_cfg), "--lo", "6.9", "--hi", "7.1"]) == 0
    verification = json.loads((tmp / "out" / "verification.json").read_text())
    assert verification["in_interval"]
    assert verification["spec_report"]["passed"]
    log = (tmp / "out" / "solve.log").read_text()
    match = re.fullmatch(r"mini-solver nodes=(\d+) pivots=(\d+)", log)
    assert match and int(match[1]) >= 1


def test_one_parser_serves_every_command_of_a_process(project, capsys):
    """main builds its parser once; a usage error between two commands
    leaves it parsing the next ones as before."""
    tmp, cfg_path, fx = project
    cli._parser.cache_clear()
    assert main(["featurize", "--config", str(cfg_path)]) == 0
    with pytest.raises(SystemExit) as stop:
        main(["infer", "--config", str(cfg_path), "--lo", "6.9"])
    assert stop.value.code == 2
    assert "the following arguments are required: --hi" in capsys.readouterr().err
    assert main(["train", "--config", str(cfg_path)]) == 0
    assert main(["infer", "--config", str(cfg_path), "--lo", "6.9", "--hi", "7.1"]) == 0
    assert cli._parser.cache_info().misses == 1


def test_sdf_round_trip_random_graphs():
    """Writing a graph out as SDF and re-parsing reproduces the molecule
    (compared through its feature vector over a shared space)."""
    import numpy as np

    from conftest import random_chemical_graph
    from invqsar.descriptors import build_space, featurize

    rng = np.random.default_rng(9090)
    graphs = [random_chemical_graph(rng, max_heavy=10) for _ in range(25)]
    space = build_space(graphs, 2)
    for g in graphs:
        text = graph_to_sdf(g, "probe")
        graphs, errors = sdf_records(text)
        assert not errors, errors
        ((_, back),) = graphs
        assert back.validate() == []
        assert featurize(back, space).values == featurize(g, space).values


@pytest.fixture
def trained(project):
    tmp, cfg_path, fx = project
    assert main(["featurize", "--config", str(cfg_path)]) == 0
    assert main(["train", "--config", str(cfg_path)]) == 0
    return tmp, cfg_path


def with_solver(tmp, cfg_path, solver_command):
    cfg = json.loads(cfg_path.read_text())
    cfg["solver_command"] = solver_command
    path = tmp / f"solver_{solver_command or 'default'}.json"
    path.write_text(json.dumps(cfg))
    return str(path)


# scipy.optimize costs a fraction of a second to import, so only the HiGHS
# solve imports it: the CLI module, featurize and train load no scipy
NO_SCIPY_PROBE = """
import sys
sys.path.insert(0, sys.argv[1])
from invqsar import cli
for command in ("featurize", "train"):
    assert cli.main([command, "--config", sys.argv[2]]) == 0
print(sorted(m for m in sys.modules if m.partition(".")[0] == "scipy"))
"""


def test_featurize_and_train_import_no_scipy(project):
    tmp, cfg_path, _ = project
    src = Path(__file__).resolve().parents[1] / "src"
    done = subprocess.run(
        [sys.executable, "-c", NO_SCIPY_PROBE, str(src), str(cfg_path)],
        cwd=tmp, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    assert done.stdout.splitlines()[-1] == "[]"


def test_default_solver_starts_no_child_process(trained, monkeypatch):
    tmp, cfg_path = trained

    def no_children(*args, **kwargs):
        raise AssertionError("the default solver must not start a process")

    monkeypatch.setattr(subprocess, "Popen", no_children)
    cfg = with_solver(tmp, cfg_path, "")
    assert main(["infer", "--config", cfg, "--lo", "6.9", "--hi", "7.1"]) == 0
    assert (tmp / "out" / "model.lp").exists()


def test_infer_failed_check_exit_code(trained, monkeypatch, capsys):
    tmp, cfg_path = trained

    def shifted(sol, space):
        xs = solution_feature_values(sol, space)
        return (xs[0] + 1, *xs[1:])

    monkeypatch.setattr(cli, "solution_feature_values", shifted)
    assert main(["infer", "--config", str(cfg_path), "--lo", "6.9", "--hi", "7.1"]) == 1
    verification = json.loads((tmp / "out" / "verification.json").read_text())
    assert verification["feature_vector_matches_model"] is False
    assert "verification failed" in capsys.readouterr().err


def test_infer_decode_failure_exit_code(trained, monkeypatch, capsys):
    tmp, cfg_path = trained

    def broken(*args):
        raise DecodeError("no seed vertex selected")

    monkeypatch.setattr(cli, "decode", broken)
    assert main(["infer", "--config", str(cfg_path), "--lo", "6.9", "--hi", "7.1"]) == 4
    assert "decode failure: no seed vertex selected" in capsys.readouterr().err


def test_infer_infeasible_with_builtin_solver_logs_the_proof(trained):
    tmp, cfg_path = trained
    cfg = with_solver(tmp, cfg_path, "mini")
    assert main(["infer", "--config", cfg, "--lo", "900", "--hi", "901"]) == 3
    log = (tmp / "out" / "solve.log").read_text()
    match = re.fullmatch(r"mini-solver nodes=(\d+) pivots=(\d+)", log)
    assert match and int(match[1]) >= 1


def test_infer_mini_solver_fault_exit_code(trained, monkeypatch, capsys):
    tmp, cfg_path = trained

    def broken(*args, **kwargs):
        raise MiniSolverError("zero pivot")

    monkeypatch.setattr(solve_module, "solve_exact", broken)
    cfg = with_solver(tmp, cfg_path, "mini")
    assert main(["infer", "--config", cfg, "--lo", "6.9", "--hi", "7.1"]) == 4
    assert "zero pivot" in capsys.readouterr().err


def test_infer_rejects_a_menu_hydrogen_with_children_before_the_space(
        trained, capsys):
    """A menu tree whose hydrogen 2 bonds to three atoms (C1-H2, H2-C3 and
    H2=C4) exits 2 naming the entry, not its code's absence from the
    space."""
    tmp, cfg_path = trained
    spec_path = tmp / "spec.json"
    doc = json.loads(spec_path.read_text())
    doc["lambda_ex"] = ["C", "H"]
    doc["fringe_trees"].append(
        hydrogen_tree_entry("bad", [(1, 2, 1), (2, 3, 1), (2, 4, 2)]))
    spec_path.write_text(json.dumps(doc))
    assert main(["infer", "--config", str(cfg_path), "--lo", "6.9", "--hi", "7.1"]) == 2
    err = capsys.readouterr().err
    assert "fringe tree bad: hydrogen 2 is not a leaf on a single bond" in err
    assert "not in the space" not in err


@pytest.mark.parametrize("artifact, key", [
    ("predictor.json", "space_hash"),
    ("space.json", "gamma_int"),
])
def test_infer_artifact_missing_key(trained, capsys, artifact, key):
    tmp, cfg_path = trained
    path = tmp / "out" / artifact
    doc = json.loads(path.read_text())
    del doc[key]
    path.write_text(json.dumps(doc))
    assert main(["infer", "--config", str(cfg_path), "--lo", "6.9", "--hi", "7.1"]) == 2
    err = capsys.readouterr().err
    assert f"missing key {key!r}" in err
    assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("artifact, edit, needle", [
    ("predictor.json", lambda doc: [doc], "JSON object"),
    ("predictor.json", lambda doc: dict(doc, weights=0.5), "'weights'"),
    ("space.json", lambda doc: [doc], "JSON object"),
    ("space.json", lambda doc: dict(doc, lambda_int=5), "'lambda_int'"),
], ids=["predictor-list", "predictor-weights-number", "space-list",
        "space-lambda_int-number"])
def test_infer_artifact_wrong_shape(trained, capsys, artifact, edit, needle):
    tmp, cfg_path = trained
    path = tmp / "out" / artifact
    path.write_text(json.dumps(edit(json.loads(path.read_text()))))
    assert main(["infer", "--config", str(cfg_path), "--lo", "6.9", "--hi", "7.1"]) == 2
    err = capsys.readouterr().err
    assert needle in err
    assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("key, value", [
    ("rho", "2"),
    ("rho", True),
    ("rho", 2.0),
    ("seed", None),
    ("cv_executions", [3]),
    ("solver_timeout", "600"),
    ("solver_timeout", False),
    ("solver_command", 5),
    ("lambda_grid", 0.1),
    ("lambda_grid", [0.1, "0.2"]),
    ("lambda_grid", [0.1, True]),
    ("lambda_grid", []),
    ("lambda_grid", [0.1, float("nan")]),
    ("lambda_grid", [float("inf")]),
    ("lambda_grid", [0.1, -0.01]),
    ("cv_executions", 0),
    ("cv_executions", -3),
    ("solver_timeout", -1),
    ("solver_timeout", 0),
])
def test_config_type_errors(tmp_path, capsys, key, value):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({key: value}))
    assert main(["featurize", "--config", str(cfg)]) == 2
    assert repr(key) in capsys.readouterr().err


def test_config_must_be_an_object(tmp_path, capsys):
    cfg = tmp_path / "c.json"
    cfg.write_text("[]")
    assert main(["featurize", "--config", str(cfg)]) == 2
    assert "JSON object" in capsys.readouterr().err


def test_config_float_field_accepts_int(tmp_path):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"solver_timeout": 60, "lambda_grid": [1, 0.5]}))
    loaded = cli.ProjectConfig.load(str(cfg))
    assert loaded.solver_timeout == 60.0 and isinstance(loaded.solver_timeout, float)
    assert loaded.lambda_grid == (1.0, 0.5)


def test_infer_and_verify_decompose_the_result_once(trained, monkeypatch):
    from invqsar import descriptors

    tmp, cfg_path = trained
    out = tmp / "out"
    calls = []
    original = descriptors.decompose

    def counted(g, rho):
        calls.append(g)
        return original(g, rho)

    monkeypatch.setattr(descriptors, "decompose", counted)
    assert main(["infer", "--config", str(cfg_path), "--lo", "6.9", "--hi", "7.1"]) == 0
    assert len(calls) == 1
    assert main([
        "verify",
        str(out / "result.json"),
        str(tmp / "spec.json"),
        str(out / "predictor.json"),
        str(out / "space.json"),
    ]) == 0
    assert len(calls) == 2


def test_internal_value_error_is_not_a_usage_error(trained, monkeypatch):
    """A ValueError from inside the program is a fault, not bad input: it
    escapes main instead of becoming exit 2."""
    tmp, cfg_path = trained

    def broken(*args, **kwargs):
        raise ValueError("internal fault")

    monkeypatch.setattr(cli, "build_milp", broken)
    with pytest.raises(ValueError, match="internal fault"):
        main(["infer", "--config", str(cfg_path), "--lo", "6.9", "--hi", "7.1"])


def _replace_text(path, text):
    path.write_text(text)


def _drop_a_field(path):
    lines = path.read_text().splitlines()
    lines[1] = lines[1].rsplit(",", 1)[0]
    path.write_text("\n".join(lines) + "\n")


def _keep_header(path):
    path.write_text(path.read_text().splitlines()[0] + "\n")


def _long_field(path):
    # a last cell over the csv module's 128 KiB field limit
    lines = path.read_text().splitlines()
    lines[1] = lines[1].rsplit(",", 1)[0] + "," + "1" * 140_000 + "x"
    path.write_text("\n".join(lines) + "\n")


def _other_space(path):
    doc = json.loads(path.read_text())
    doc["lambda_ex"] = doc["lambda_ex"][:-1] or ["O"]
    path.write_text(json.dumps(doc))


@pytest.mark.parametrize("command, target, edit, needle", [
    ("infer", "out/space.json", lambda p: _replace_text(p, "{"), "not valid JSON"),
    ("infer", "out/predictor.json", lambda p: _replace_text(p, "{"), "not valid JSON"),
    ("infer", "spec.json", lambda p: _replace_text(
        p, p.read_text().replace('"n_star": ', '"n_star": "many", "x": ')),
     "malformed specification"),
    ("infer", "spec.json", lambda p: _replace_text(
        p, p.read_text().replace('"lambda_int": [', '"lambda_int": ["N", ')),
     "error: interior element N is not in the descriptor space"),
    ("infer", "spec.json", lambda p: _replace_text(
        p, p.read_text().replace('"rho": 2', '"rho": 1')),
     "error: specification rho 1 differs from the descriptor space's rho 2"),
    ("train", "out/features.csv", _drop_a_field, "feature CSV line 2"),
    ("train", "out/features.csv", lambda p: _replace_text(p, ""), "'id' column"),
    ("train", "out/features.csv", _keep_header, "error: features.csv has no rows"),
    ("train", "out/features.csv", _long_field,
     "error: feature CSV line 2: field larger than field limit"),
    ("verify", "graph.json", lambda p: _replace_text(p, "[]"), "graph document"),
    ("verify", "out/space.json", _other_space, "different space"),
    ("verify", "graph.json", lambda p: _replace_text(p, graph_to_json_text(chain(["C", "O"]))),
     "error: exterior element O not in the space"),
], ids=["space-json", "predictor-json", "spec-field", "spec-outside-space",
        "spec-rho", "features-short-row", "features-empty", "features-no-rows",
        "features-long-field", "graph-shape", "verify-space-mismatch",
        "verify-graph-outside-space"])
def test_bad_input_files_are_usage_errors(trained, capsys, command, target, edit,
                                          needle):
    """Bad input files exit 2 through the typed input errors, with one line
    naming the fault."""
    tmp, cfg_path = trained
    out = tmp / "out"
    (tmp / "graph.json").write_text(graph_to_json_text(ring(3)))
    edit(tmp / target)
    argv = {
        "infer": ["infer", "--config", str(cfg_path), "--lo", "6.9", "--hi", "7.1"],
        "train": ["train", "--config", str(cfg_path)],
        "verify": ["verify", str(tmp / "graph.json"), str(tmp / "spec.json"),
                   str(out / "predictor.json"), str(out / "space.json")],
    }[command]
    capsys.readouterr()
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert needle in err
    assert len(err.strip().splitlines()) == 1


def _old_format_space(path):
    """space.json as written before the fringe catalog held bare codes."""
    doc = json.loads(path.read_text())
    doc["fringe_trees"] = [{"code": code, "tree": {}} for code in doc.pop("fringe_codes")]
    path.write_text(json.dumps(doc))


@pytest.mark.parametrize("command", ["train", "infer", "verify"])
def test_old_format_space_is_a_usage_error(trained, capsys, command):
    """A space.json that still lists example trees must be re-featurized:
    every command that reads it exits 2 with one line."""
    tmp, cfg_path = trained
    out = tmp / "out"
    (tmp / "graph.json").write_text(graph_to_json_text(ring(3)))
    _old_format_space(out / "space.json")
    argv = {
        "infer": ["infer", "--config", str(cfg_path), "--lo", "6.9", "--hi", "7.1"],
        "train": ["train", "--config", str(cfg_path)],
        "verify": ["verify", str(tmp / "graph.json"), str(tmp / "spec.json"),
                   str(out / "predictor.json"), str(out / "space.json")],
    }[command]
    capsys.readouterr()
    assert main(argv) == 2
    assert capsys.readouterr().err == (
        "error: descriptor space is missing key 'fringe_codes'\n")


def test_train_accepts_quoted_ids(project, capsys):
    """Ids holding a comma or a double quote are quoted in features.csv and
    read back from targets.csv written the same way."""
    tmp, cfg_path, fx = project
    names = {"mol0": "m,0", "mol1": 'm"1'}
    sdf = tmp / "dataset.sdf"
    records, _ = sdf_records(sdf.read_text())
    sdf.write_text("".join(graph_to_sdf(g, names.get(n, n)) for n, g in records))
    targets = (tmp / "targets.csv").read_text().splitlines()
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["id", "value"])
    for line in targets[1:]:
        name, value = line.split(",")
        writer.writerow([names.get(name, name), value])
    (tmp / "targets.csv").write_text(buf.getvalue())

    assert main(["featurize", "--config", str(cfg_path)]) == 0
    features = (tmp / "out" / "features.csv").read_text()
    assert '\n"m,0",' in features and '\n"m""1",' in features
    assert main(["train", "--config", str(cfg_path)]) == 0


def _drop_edge_tail(doc):
    del doc["seed"]["edges"][0]["tail"]


def _drop_fringe_id(doc):
    del doc["fringe_trees"][0]["id"]


@pytest.mark.parametrize("command, edit, needle", [
    ("infer", _drop_edge_tail, "'seed.edges[0].tail'"),
    ("verify", _drop_fringe_id, "'fringe_trees[0].id'"),
])
def test_spec_missing_key_is_usage_error(trained, capsys, command, edit, needle):
    """A specification with a missing key exits 2 with one line naming the
    key's path, not with a KeyError traceback."""
    tmp, cfg_path = trained
    out = tmp / "out"
    (tmp / "graph.json").write_text(graph_to_json_text(ring(3)))
    spec = tmp / "spec.json"
    doc = json.loads(spec.read_text())
    edit(doc)
    spec.write_text(json.dumps(doc))
    argv = {
        "infer": ["infer", "--config", str(cfg_path), "--lo", "6.9", "--hi", "7.1"],
        "verify": ["verify", str(tmp / "graph.json"), str(spec),
                   str(out / "predictor.json"), str(out / "space.json")],
    }[command]
    capsys.readouterr()
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert needle in err and "Traceback" not in err
    assert len(err.strip().splitlines()) == 1
