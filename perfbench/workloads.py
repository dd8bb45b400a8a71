"""The benchmark's workloads: set-up (inputs written as files), the
requests of one round, and the independent check of every answer.

A request is one or more `invqsar.cli.main` calls.  Its check reads only
the files the program wrote and the inputs the benchmark generated, and
decides from outputs, not from the exit code alone.
"""

from __future__ import annotations

import json
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from invqsar.descriptors import featurize, space_from_json, space_hash
from invqsar.graph import graph_from_json_text
from invqsar.milp.build import build_milp
from invqsar.regression import predictor_from_json
from invqsar.topospec import check_graph_satisfies, parse_spec

from inputs import (
    FIXTURES,
    predict_std,
    random_molecule,
    read_features,
    sdf_text,
    stress_problems,
    synthetic_property,
    to_original,
    uniform_predictor_doc,
    write_json,
)

EXIT_OK = 0
EXIT_INFEASIBLE = 3

# Fixtures also solved with the exact rational solver, which handles only
# small models interactively.
EXACT_FIXTURES = ("triangle", "square_chord")
# Standardized half-widths of the prediction windows.
FIXTURE_WINDOW = 0.01
STRESS_WINDOW = 0.02
# The stress set is generated once from this seed, so every run does the
# same solver work whatever its --seed; the run seed orders the requests.
# Count and size are set by the run length (about 10 s of solving per
# round on 2 cores), not by which instances are slow.  The count is odd,
# so that the median latency falls within one family's requests in any
# number of rounds.
STRESS_SEED = 1
STRESS_COUNT = 5
STRESS_MAX_HEAVY = 8
SOLVER_TIMEOUT = 30.0

# Like the stress set, the training molecules come from a fixed seed: the
# number of coordinate-descent sweeps, and so the cost of a request, varies
# by a factor of two between random datasets of this size.
TRAIN_SEED = 1
TRAIN_MOLECULES = 300
TRAIN_MAX_HEAVY = 14
TRAIN_GRID = (0.001, 0.003, 0.01)
TRAIN_CV_EXECUTIONS = 1
KKT_TOL = 1e-5


class SetupError(RuntimeError):
    pass


@dataclass
class Request:
    """CLI calls timed as one request, and the check of their outputs.

    `check(codes, stdouts)` returns a problem description or None.
    `repeat_key()` returns an exact value read from the outputs that must
    be identical in every round."""

    rid: str
    argvs: list[list[str]]
    check: Callable[[list, list[str]], str | None]
    repeat_key: Callable[[], object]


@dataclass
class Problem:
    """One inverse-design input set written to disk."""

    root: Path
    spec_path: Path
    predictor_path: Path
    space_path: Path
    spec: object
    space: object
    predictor: dict
    y_center: float


def _featurize_dataset(call, root: Path, named) -> Path:
    sdf = root / "dataset.sdf"
    sdf.write_text(sdf_text(named))
    cfg = root / "featurize.json"
    write_json(cfg, {"dataset": str(sdf), "output_dir": str(root / "space")})
    codes, outs = call([["featurize", "--config", str(cfg)]])
    if codes != [EXIT_OK]:
        raise SetupError(f"featurize failed in set-up: {codes} {outs}")
    return root / "space"


def prepare_problem(call, root: Path, dataset, spec_doc, target,
                    weight: float) -> Problem:
    root.mkdir(parents=True)
    space_dir = _featurize_dataset(
        call, root, [(f"d{i + 1}", g) for i, g in enumerate(dataset)])
    _, names, x = read_features((space_dir / "features.csv").read_text())
    space = space_from_json(json.loads((space_dir / "space.json").read_text()))
    predictor = uniform_predictor_doc(names, x, weight, space_hash(space))
    spec_path = root / "spec.json"
    write_json(spec_path, spec_doc)
    predictor_path = root / "predictor.json"
    write_json(predictor_path, predictor)
    y = predict_std(predictor, featurize(target, space).as_floats())
    return Problem(root, spec_path, predictor_path, space_dir / "space.json",
                   parse_spec(spec_path.read_text()), space, predictor, y)


def reachable_max(problem: Problem) -> float:
    """Largest standardized prediction the model allows under its own
    variable bounds (the prediction row with every normalized descriptor
    at its best bound)."""
    model = build_milp(problem.spec, problem.space,
                       predictor_from_json(problem.predictor),
                       problem.y_center, problem.y_center)
    bounds = {v.name: (v.lb, v.ub) for v in model.variables}
    row = next(c for c in model.constraints if c.name == "pred_value")
    return row.rhs + sum(max(-c * bounds[n][0], -c * bounds[n][1])
                         for n, c in row.coeffs if n != "y")


# -- infer requests -------------------------------------------------------


def _check_feasible(problem: Problem, out: Path, lo: float, hi: float,
                    codes: list) -> str | None:
    if codes != [EXIT_OK]:
        return f"exit codes {codes}, expected [0]"
    ver = json.loads((out / "verification.json").read_text())
    failed = [k for k in ("in_interval", "feature_vector_matches_model")
              if ver.get(k) is not True]
    if ver["spec_report"].get("passed") is not True:
        failed.append("spec_report.passed")
    if ver.get("interval") != [lo, hi]:
        failed.append("interval")
    graph = graph_from_json_text((out / "result.json").read_text())
    problems = graph.validate()
    if problems:
        failed.append(f"graph.validate: {problems[:2]}")
    y = to_original(problem.predictor, predict_std(
        problem.predictor, featurize(graph, problem.space).as_floats()))
    tol = 1e-9 * max(1.0, abs(y))
    if not lo - tol <= y <= hi + tol:
        failed.append(f"re-predicted {y} outside [{lo}, {hi}]")
    if abs(y - ver.get("predicted_value", float("nan"))) > tol:
        failed.append("predicted_value")
    report = check_graph_satisfies(problem.spec, graph)
    if not report.passed:
        failed.append(f"spec clauses {[c.name for c in report.failures()]}")
    return "; ".join(failed) or None


def infer_request(rid: str, problem: Problem, lo_std: float, hi_std: float,
                  solver: str, feasible: bool) -> Request:
    req_dir = problem.root / rid
    out = req_dir / "out"
    out.mkdir(parents=True)
    shutil.copyfile(problem.space_path, out / "space.json")
    cfg = req_dir / "config.json"
    write_json(cfg, {
        "spec": str(problem.spec_path),
        "predictor": str(problem.predictor_path),
        "output_dir": str(out),
        "solver_command": solver,
        "solver_timeout": SOLVER_TIMEOUT,
    })
    lo = to_original(problem.predictor, lo_std)
    hi = to_original(problem.predictor, hi_std)
    argv = ["infer", "--config", str(cfg), "--lo", repr(lo), "--hi", repr(hi)]

    def check(codes, _outs):
        if feasible:
            return _check_feasible(problem, out, lo, hi, codes)
        return None if codes == [EXIT_INFEASIBLE] else f"exit codes {codes}, expected [3]"

    return Request(rid, [argv], check, lambda: (out / "model.lp").stat().st_size)


def _infeasible_window(problem: Problem, rng) -> tuple[float, float]:
    lo = reachable_max(problem) + float(rng.uniform(0.05, 0.5))
    return lo, lo + 2 * FIXTURE_WINDOW


def setup_infer_fixtures(call, work: Path, seed: int):
    """Five fixtures, each at a feasible window around its target and at a
    window above what the model can reach, plus the two fixtures the exact
    rational solver handles interactively, solved with it.  The seed
    orders the requests and places the infeasible windows."""
    rng = np.random.default_rng(seed)
    requests = []
    for name, make in FIXTURES.items():
        dataset, spec_doc, target = make()
        p = prepare_problem(call, work / name, dataset, spec_doc, target, 0.1)
        window = (p.y_center - FIXTURE_WINDOW, p.y_center + FIXTURE_WINDOW)
        requests.append(infer_request(f"{name}.feasible", p, *window, "", True))
        requests.append(infer_request(f"{name}.infeasible", p,
                                      *_infeasible_window(p, rng), "", False))
        if name in EXACT_FIXTURES:
            requests.append(infer_request(f"{name}.mini", p, *window, "mini", True))
    # The warm-up is the same HiGHS request whatever the seed, so that
    # set-up does the same work in every run.
    warm = requests[0]
    order = rng.permutation(len(requests))
    return [requests[i] for i in order], warm


def setup_infer_stress(call, work: Path, seed: int):
    """Random molecule families with specifications derived from a member
    and a window around it; the first family also gets an unreachable
    window, used only to warm up."""
    problems = stress_problems(np.random.default_rng(STRESS_SEED),
                               STRESS_COUNT, STRESS_MAX_HEAVY)
    requests = []
    warm = None
    for i, (dataset, spec_doc, target) in enumerate(problems):
        p = prepare_problem(call, work / f"s{i + 1}", dataset, spec_doc, target, 0.07)
        y = p.y_center
        requests.append(infer_request(f"s{i + 1}.feasible", p, y - STRESS_WINDOW,
                                      y + STRESS_WINDOW, "", True))
        if warm is None:
            warm = infer_request("warmup", p, *_infeasible_window(
                p, np.random.default_rng(seed)), "", False)
    order = np.random.default_rng(seed).permutation(len(requests))
    return [requests[i] for i in order], warm


# -- train requests -------------------------------------------------------


def _cv_choice(stdout: str) -> int | None:
    """Index of the first grid row with the highest median R2 in the CV
    table that `train` prints."""
    scores = []
    for line in stdout.splitlines():
        cells = line.split()
        if len(cells) == 3:
            try:
                scores.append(float(cells[2]))
            except ValueError:
                continue
    if not scores:
        return None
    return scores.index(max(scores))


def kkt_violation(x: np.ndarray, y: np.ndarray, w: np.ndarray, b: float,
                  lam: float) -> float:
    """Largest violation of the Lasso optimality conditions, including
    the unpenalized bias (mean residual zero)."""
    n = len(y)
    r = y - x @ w - b
    grad = -(x.T @ r) / n
    viol = np.where(w == 0.0, np.maximum(0.0, np.abs(grad) - lam),
                    np.abs(grad + lam * np.sign(w)))
    return float(max(viol.max(initial=0.0), abs(r.mean())))


class TrainCheck:
    """Checks one featurize + train request against the generated data."""

    def __init__(self, out: Path, names: list[str], graphs, targets: dict, grid):
        self.out = out
        self.grid = grid
        self.names = names
        self.graphs = graphs
        self.targets = targets
        self.features = None
        self.predictor = None

    def _check_features(self, text: str) -> str | None:
        if self.features is not None:
            return None if text == self.features else "features.csv changed between rounds"
        ids, _, x = read_features(text)
        if ids != self.names:
            return "feature ids differ from the dataset records"
        space = space_from_json(json.loads((self.out / "space.json").read_text()))
        expected = np.asarray([featurize(g, space).as_floats() for g in self.graphs])
        if expected.shape != x.shape or not np.array_equal(expected, x):
            return "feature rows differ from featurizing the generated molecules"
        self.features = text
        return None

    def __call__(self, codes, outs) -> str | None:
        if codes != [EXIT_OK, EXIT_OK]:
            return f"exit codes {codes}, expected [0, 0]"
        problem = self._check_features((self.out / "features.csv").read_text())
        if problem:
            return problem
        text = (self.out / "predictor.json").read_text()
        if self.predictor is not None:
            return None if text == self.predictor else "predictor changed between rounds"
        doc = json.loads(text)
        choice = _cv_choice(outs[1])
        if choice is None or self.grid[choice] != doc["lambda"]:
            return f"selected lambda {doc['lambda']} is not the CV table's best"
        _, _, x_raw = read_features(self.features)
        y_raw = np.asarray([self.targets[n] for n in self.names])
        mins, maxs = x_raw.min(axis=0), x_raw.max(axis=0)
        if doc["min"] != mins.tolist() or doc["max"] != maxs.tolist():
            return "normalization range differs from the feature columns"
        if [doc["target_min"], doc["target_max"]] != [y_raw.min(), y_raw.max()]:
            return "target range differs from the targets"
        span = np.where(maxs > mins, maxs - mins, 1.0)
        x = np.where(maxs > mins, (x_raw - mins) / span, 0.0)
        y = (y_raw - y_raw.min()) / (y_raw.max() - y_raw.min())
        viol = kkt_violation(x, y, np.asarray(doc["weights"]), doc["bias"],
                             doc["lambda"])
        if viol > KKT_TOL:
            return f"KKT violation {viol:.3g} above {KKT_TOL}"
        self.predictor = text
        return None


def train_request(rid: str, root: Path, named, targets: dict, grid,
                  executions: int, seed: int) -> Request:
    root.mkdir(parents=True)
    sdf = root / "dataset.sdf"
    sdf.write_text(sdf_text(named))
    tgt = root / "targets.csv"
    tgt.write_text("id,value\n" + "".join(f"{n},{targets[n]!r}\n" for n, _ in named))
    cfg = root / "config.json"
    out = root / "out"
    write_json(cfg, {
        "dataset": str(sdf), "targets": str(tgt), "rho": 2,
        "lambda_grid": list(grid), "cv_executions": executions,
        "output_dir": str(out), "seed": seed,
    })
    argvs = [["featurize", "--config", str(cfg)], ["train", "--config", str(cfg)]]
    check = TrainCheck(out, [n for n, _ in named], [g for _, g in named], targets, grid)
    return Request(rid, argvs, check, lambda: (out / "predictor.json").read_text())


def setup_train_cv(call, work: Path, seed: int):
    """Random molecules with a synthetic property, featurized and then
    trained with a three-value penalty grid; the seed sets the
    cross-validation folds."""
    rng = np.random.default_rng(TRAIN_SEED)
    named = [(f"m{i + 1:04d}", random_molecule(rng, TRAIN_MAX_HEAVY))
             for i in range(TRAIN_MOLECULES)]
    targets = {n: synthetic_property(g, rng) for n, g in named}
    request = train_request("train", work / "train", named, targets,
                            TRAIN_GRID, TRAIN_CV_EXECUTIONS, seed)
    warm = train_request("warmup", work / "warmup", named[:40], targets,
                         TRAIN_GRID[-1:], 1, seed)
    return [request], warm


WORKLOADS = {
    "infer_fixtures": setup_infer_fixtures,
    "infer_stress": setup_infer_stress,
    "train_cv": setup_train_cv,
}
