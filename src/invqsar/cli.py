"""Batch pipeline driver: featurize, train, infer, verify.

Exit codes: 0 success, 1 a verification check failed, 2 usage or input
error, 3 infeasible target, 4 solver or decoder failure.  Exit 2 comes only
from the typed errors of bad input (`INPUT_ERRORS`); any other exception is
a fault of the program and escapes with its traceback.  All subcommands
are deterministic under a fixed seed.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import re
import sys
from dataclasses import dataclass, fields
from functools import cache
from itertools import zip_longest
from pathlib import Path

import numpy as np

from .descriptors import (
    OutOfSpaceError,
    census_vector,
    read_feature_csv,
    space_from_censuses,
    space_from_json,
    space_hash,
    space_to_json_text,
    take_census,
    write_feature_csv,
)
from .graph import graph_from_json_text, graph_to_json_text
from .milp.build import BuildError, build_milp, check_rho, polish_solution
from .milp.model import ModelError, emit_lp
from .milp.decode import DecodeError, decode, solution_feature_values
from .milp.solve import ExternalBackend, SolutionCheckError, SolverFailure, solve
from .regression import (
    CenteredDesign,
    FitError,
    LinearPredictor,
    cross_validate_path,
    lasso_path,
    min_max_scale,
    predictor_from_json_text,
    predictor_to_json_text,
)
from .schema import (
    COUNT, NUMBER, STRING, Field, InputError, Kind, Reader, Table, integer, number)
from .sdf import RecordError, graph_to_sdf, read_sdf
from .topospec import SpecError, check_graph_satisfies, parse_spec

EXIT_OK = 0
EXIT_CHECK = 1
EXIT_USAGE = 2
EXIT_INFEASIBLE = 3
EXIT_SOLVER = 4


class UsageError(Exception):
    pass


# What bad input raises; main turns these, and only these, into exit 2.
INPUT_ERRORS = (UsageError, InputError, SpecError, BuildError, FitError,
                OutOfSpaceError, ModelError)


@dataclass
class ProjectConfig:
    dataset: str = ""
    targets: str = ""
    rho: int = 2
    lambda_grid: tuple[float, ...] = (0.0001, 0.001, 0.01, 0.1)
    cv_executions: int = 10
    spec: str = ""
    predictor: str = ""
    solver_command: str = ""
    solver_timeout: float = 600.0
    output_dir: str = "out"
    seed: int = 0

    @staticmethod
    def load(path: str) -> "ProjectConfig":
        r = Reader("config", UsageError)
        return _CONFIG.read(r, r.loads(_read_text(path)))

    def backend(self) -> ExternalBackend | str:
        if self.solver_command == "mini":
            return "mini"
        if self.solver_command:
            return ExternalBackend(self.solver_command)
        return "highs"


def _penalties(r: Reader, v, path) -> tuple[float, ...]:
    # each penalty is read at the list's path, so a fault names the key
    if type(v) is not list or not v:
        r.fail(path, "must be a non-empty list of numbers")
    return tuple(_PENALTY.read(r, x, path) for x in v)


def _timeout(r: Reader, v, path) -> float:
    # 0 would stop the solver at once, and HiGHS ignores a negative limit
    seconds = NUMBER.read(r, v, path)
    if seconds <= 0:
        r.fail(path, "must be positive")
    return seconds


_PENALTY = number(0)
_CONFIG_KINDS = {"rho": integer(1), "lambda_grid": Kind(_penalties),
                 "cv_executions": integer(1), "solver_timeout": Kind(_timeout),
                 "seed": COUNT}
_CONFIG = Table(
    *(Field(f.name, _CONFIG_KINDS.get(f.name, STRING), f.default)
      for f in fields(ProjectConfig)),
    make=lambda r, path, d: ProjectConfig(**d),
)


def _read_text(path: str) -> str:
    try:
        return Path(path).read_text()
    except FileNotFoundError as exc:
        raise UsageError(f"file not found: {path}") from exc
    except OSError as exc:
        raise UsageError(f"cannot read {path!r}: {exc.strerror}") from exc


def _read_json(path: str):
    return Reader(path, UsageError).loads(_read_text(path))


def _same_descriptors(what: str, names, space) -> None:
    """UsageError at the first of `names` that is not the space's name."""
    for i, pair in enumerate(zip_longest(names, space.descriptor_names), start=1):
        if pair[0] != pair[1]:
            got, want = ("nothing" if n is None else repr(n) for n in pair)
            raise UsageError(f"{what} differs from space.json at descriptor {i}: "
                             f"{got} where the space has {want}")


def run_featurize(cfg: ProjectConfig) -> int:
    # one record at a time: only each record's counts outlive its graph
    # each row's id -> its record number, as the warnings number records
    numbers: dict[str, int] = {}
    censuses = []
    for number, record in enumerate(read_sdf(_read_text(cfg.dataset))):
        if isinstance(record, RecordError):
            print(f"warning: record {record.record} ({record.name}): "
                  f"{record.message}", file=sys.stderr)
            continue
        name, graph = record
        if name in numbers:
            raise UsageError(f"id {name!r} names records {numbers[name]} and "
                             f"{number} of {cfg.dataset}")
        numbers[name] = number
        censuses.append(take_census(graph, cfg.rho).counts())
    if not censuses:
        raise UsageError("no parsable records in the dataset")
    out = Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    space = space_from_censuses(censuses)
    (out / "features.csv").write_text(write_feature_csv(list(numbers), censuses, space))
    (out / "space.json").write_text(space_to_json_text(space))
    print(f"featurized {len(censuses)} graphs, K={space.k}")
    print(f"wrote {out / 'features.csv'} and {out / 'space.json'}")
    return EXIT_OK


def _load_targets(path: str) -> dict[str, float]:
    """id -> finite value from a two-column CSV; ids may be quoted as in
    features.csv.  Blank lines and '#' comment lines are skipped, and so is
    the first other line when it is an 'id,' header, one whose value field
    is not a number; an id may appear once."""
    text = _read_text(path)
    targets: dict[str, float] = {}
    lines: dict[str, int] = {}
    first = True
    for number, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        rec = next(csv.reader([line]))
        header, first = first and line.lower().startswith("id,"), False
        try:
            name, value = rec
            y = float(value)
        except ValueError as exc:
            if header and len(rec) == 2:
                continue
            raise UsageError(f"bad target line {line!r}") from exc
        name = name.strip()
        if not math.isfinite(y):
            raise UsageError(f"target of {name!r} on line {number} of "
                             f"{path} is not a finite number: {value!r}")
        if name in lines:
            raise UsageError(f"target id {name!r} is on lines {lines[name]} and "
                             f"{number} of {path}")
        lines[name] = number
        targets[name] = y
    return targets


def run_train(cfg: ProjectConfig) -> int:
    out = Path(cfg.output_dir)
    ids, names, x_raw = read_feature_csv(_read_text(str(out / "features.csv")))
    if not ids:
        raise UsageError("features.csv has no rows")
    space = space_from_json(_read_json(str(out / "space.json")))
    _same_descriptors("features.csv header", names, space)
    targets = _load_targets(cfg.targets)
    missing = [i for i in ids if i not in targets]
    if missing:
        raise UsageError(f"no target value for ids {missing[:5]}")

    y_raw = np.asarray([targets[i] for i in ids], dtype=float)
    mins = x_raw.min(axis=0)
    maxs = x_raw.max(axis=0)
    x = min_max_scale(x_raw, mins, maxs)
    t_min, t_max = float(y_raw.min()), float(y_raw.max())
    y = min_max_scale(y_raw, t_min, t_max)

    reports = cross_validate_path(
        x, y, cfg.lambda_grid, executions=cfg.cv_executions, seed=cfg.seed
    )
    print(f"{'lambda':>12} {'K_sel':>8} {'median_R2':>10}")
    for report in reports:
        print(f"{report.lam:>12.6g} {report.mean_selected:>8.1f} "
              f"{report.median_r2:>10.4f}")
    # max() keeps the first of equal scores, so ties go to the earlier grid value
    report = max(reports, key=lambda r: r.median_r2)
    lam = report.lam
    # the path CV walks, on all rows, down to the chosen penalty
    *_, fit = lasso_path(CenteredDesign(x), y,
                         sorted((v for v in cfg.lambda_grid if v >= lam), reverse=True))
    predictor = LinearPredictor(
        weights=tuple(float(w) for w in fit.weights),
        bias=float(fit.bias),
        lam=lam,
        descriptor_names=tuple(names),
        mins=tuple(float(v) for v in mins),
        maxs=tuple(float(v) for v in maxs),
        target_min=t_min,
        target_max=t_max,
        space_hash=space_hash(space),
    )
    path = cfg.predictor or str(out / "predictor.json")
    Path(path).write_text(predictor_to_json_text(predictor))
    print(
        f"selected lambda={lam:g} (median R2={report.median_r2:.4f}, "
        f"K'={report.mean_selected:.1f}); wrote {path}"
    )
    return EXIT_OK


def _judge(graph, spec, space, predictor):
    """One census of a valid graph, read three ways: its descriptor values,
    its standardized prediction and its specification report."""
    census = take_census(graph, space.rho)
    fv = census_vector(census, space)
    return (fv.values, predictor.predict_normalized(fv.as_floats()),
            check_graph_satisfies(spec, graph, census))


def run_infer(cfg: ProjectConfig, y_lo: float, y_hi: float) -> int:
    if not (math.isfinite(y_lo) and math.isfinite(y_hi)):
        raise UsageError("target interval bounds must be finite")
    if y_lo > y_hi:
        raise UsageError("empty target interval")
    out = Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    spec = parse_spec(_read_text(cfg.spec))
    space = space_from_json(_read_json(str(out / "space.json")))
    predictor = predictor_from_json_text(
        _read_text(cfg.predictor or str(out / "predictor.json"))
    )
    _same_descriptors("predictor descriptor_names", predictor.descriptor_names, space)
    lo_std = predictor.standardize(y_lo)
    hi_std = predictor.standardize(y_hi)
    model = build_milp(spec, space, predictor, lo_std, hi_std)
    # no answer of an earlier request may outlive this one's model
    for name in ("result.json", "result.sdf", "verification.json", "solve.log"):
        (out / name).unlink(missing_ok=True)
    (out / "model.lp").write_text(emit_lp(model))
    try:
        sol = solve(model, cfg.backend(), time_limit=cfg.solver_timeout,
                    polish=polish_solution)
    except (SolverFailure, SolutionCheckError) as exc:
        why = str(exc)
        # polish makes y the answer's exact prediction; its bound fails when
        # the solver met the window only within its tolerance
        if re.search(r"[:;] y = ", why):
            why += ("; the solver met the target interval only within its "
                    "tolerance, not with the answer's exact prediction")
        print(f"solver failure: {why}", file=sys.stderr)
        return EXIT_SOLVER
    (out / "solve.log").write_text(sol.log)
    if sol.status == "infeasible":
        print("status: infeasible (no graph satisfies the request)")
        return EXIT_INFEASIBLE
    try:
        graph = decode(sol, spec)
    except DecodeError as exc:
        print(f"decode failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    (out / "result.json").write_text(graph_to_json_text(graph))
    (out / "result.sdf").write_text(graph_to_sdf(graph, "inferred"))
    values, y_std, report = _judge(graph, spec, space, predictor)
    y_val = predictor.destandardize(y_std)
    x_match = values == solution_feature_values(sol, space)
    verification = {
        "predicted_value": y_val,
        "predicted_standardized": y_std,
        "interval": [y_lo, y_hi],
        "in_interval": y_lo - 1e-9 <= y_val <= y_hi + 1e-9,
        "feature_vector_matches_model": x_match,
        "spec_report": report.to_json(),
    }
    (out / "verification.json").write_text(json.dumps(verification, indent=2))
    print(f"status: feasible; wrote {out / 'result.json'} and {out / 'result.sdf'}")
    print(f"predicted value: {y_val:g} (interval [{y_lo:g}, {y_hi:g}])")
    print(f"specification check: {'pass' if report.passed else 'FAIL'}")
    if not (verification["in_interval"] and x_match and report.passed):
        print(f"error: verification failed; see {out / 'verification.json'}",
              file=sys.stderr)
        return EXIT_CHECK
    return EXIT_OK


def run_verify(graph_path: str, spec_path: str, predictor_path: str,
               space_path: str) -> int:
    graph = graph_from_json_text(_read_text(graph_path))
    spec = parse_spec(_read_text(spec_path))
    space = space_from_json(_read_json(space_path))
    predictor = predictor_from_json_text(_read_text(predictor_path))
    if predictor.space_hash != space_hash(space):
        raise UsageError("predictor was trained against a different space")
    check_rho(spec, space)
    _same_descriptors("predictor descriptor_names", predictor.descriptor_names, space)
    problems = graph.validate()
    if problems:
        # descriptors are undefined on a graph that breaks its invariants
        print(f"graph invariants: FAIL: {'; '.join(problems[:3])}")
        print(check_graph_satisfies(spec, graph).to_text())
        return EXIT_CHECK
    print("graph invariants: pass")
    _, y_std, report = _judge(graph, spec, space, predictor)
    print(f"predicted value: {predictor.destandardize(y_std):g}")
    print(report.to_text())
    return EXIT_OK if report.passed else EXIT_CHECK


def _joined_bounds(argv: list[str]) -> list[str]:
    """argv with each `--lo`/`--hi` that a float text follows written as
    one `--lo=<text>` argument: argparse takes a following argument that
    starts with '-' for a value only when it looks like -12 or -1.5, so
    `--lo -1e-05` would otherwise be a missing value."""
    out: list[str] = []
    for arg in argv:
        if out and out[-1] in ("--lo", "--hi"):
            try:
                float(arg)
            except ValueError:
                pass
            else:
                out[-1] += "=" + arg
                continue
        out.append(arg)
    return out


@cache
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parsing leaves it
    unchanged, and building it costs ~0.5 ms a call."""
    parser = argparse.ArgumentParser(
        prog="invqsar",
        description="Feature vectors, property prediction and inverse design "
        "of chemical graphs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_feat = sub.add_parser("featurize", help="dataset SDF -> feature CSV + space")
    p_feat.add_argument("--config", required=True)

    p_train = sub.add_parser("train", help="feature CSV + targets -> predictor")
    p_train.add_argument("--config", required=True)

    p_infer = sub.add_parser("infer", help="spec + interval -> chemical graph")
    p_infer.add_argument("--config", required=True)
    p_infer.add_argument("--lo", type=float, required=True,
                         help="interval lower end, original property units")
    p_infer.add_argument("--hi", type=float, required=True,
                         help="interval upper end, original property units")

    p_verify = sub.add_parser("verify", help="re-check a graph against spec+predictor")
    p_verify.add_argument("graph")
    p_verify.add_argument("spec")
    p_verify.add_argument("predictor")
    p_verify.add_argument("space")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(
        _joined_bounds(sys.argv[1:] if argv is None else argv))
    try:
        if args.command == "featurize":
            return run_featurize(ProjectConfig.load(args.config))
        if args.command == "train":
            return run_train(ProjectConfig.load(args.config))
        if args.command == "infer":
            return run_infer(ProjectConfig.load(args.config), args.lo, args.hi)
        return run_verify(args.graph, args.spec, args.predictor, args.space)
    except INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
