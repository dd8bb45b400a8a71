"""Acceptance suite: one test per release criterion, each printing a
pass/fail line.  Tolerances are pinned here, not configured elsewhere.

Run with `pytest tests/test_acceptance.py -v -s` to see the criterion lines.
"""

import itertools
import json
import time
from fractions import Fraction

import numpy as np
import pytest

from invqsar.descriptors import build_space, featurize
from invqsar.milp.build import build_milp, polish_solution
from invqsar.milp.decode import decode, solution_feature_values
from invqsar.milp.model import emit_lp
from invqsar.milp.solve import solve
from invqsar.regression import lasso_fit, cross_validate_path
from invqsar.topospec import check_graph_satisfies, parse_spec

from conftest import (
    ALL_ROUNDTRIP_FIXTURES,
    random_chemical_graph,
    roundtrip_fixture,
)
from lp_reader import parse_lp
from lp_validator import validate_lp
from oracles import (
    brute_force_features,
    constraint_residuals,
    kkt_residuals,
    r_isomorphic,
)
from test_canonical import all_labeled_trees
from test_decode_roundtrip import infeasible_specs
from test_regression import sweep_objectives


def report(number: int, name: str, ok: bool, detail: str = "") -> None:
    verdict = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"\nACCEPTANCE {number} {name}: {verdict}{suffix}")
    assert ok, f"criterion {number} {name}: {detail}"


_SOLVED: dict[str, tuple] = {}


def solved_fixture(name: str, backend):
    key = f"{name}:{'mini' if backend == 'mini' else 'ext'}"
    if key not in _SOLVED:
        fx = roundtrip_fixture(name)
        model = build_milp(fx.spec, fx.space, fx.predictor, fx.y_lo, fx.y_hi)
        start = time.monotonic()
        sol = solve(model, backend, time_limit=600, polish=polish_solution)
        elapsed = time.monotonic() - start
        _SOLVED[key] = (fx, model, sol, elapsed)
    return _SOLVED[key]


def test_criterion_1_descriptor_oracle():
    start = time.monotonic()
    rng = np.random.default_rng(8717)
    graphs = [random_chemical_graph(rng, 12) for _ in range(50)]
    space = build_space(graphs, 2)
    mismatches = 0
    for g in graphs:
        fv = featurize(g, space)
        expected = brute_force_features(g, space)
        for j, (a, b) in enumerate(zip(fv.values, expected)):
            if j == 3:
                if abs(Fraction(a) - Fraction(b)) > Fraction(1, 10**12):
                    mismatches += 1
            elif a != b:
                mismatches += 1
    elapsed = time.monotonic() - start
    report(
        1,
        "descriptor oracle equivalence",
        mismatches == 0 and elapsed < 10.0,
        f"{mismatches} mismatches over 50 graphs in {elapsed:.1f}s",
    )


def test_criterion_2_k_formula():
    bad = []
    for name in ALL_ROUNDTRIP_FIXTURES:
        space = roundtrip_fixture(name).space
        expected = (
            14
            + len(space.lambda_int)
            + len(space.lambda_ex)
            + len(space.gamma_int)
            + len(space.fringe_codes)
            + len(space.ac_lf)
        )
        if space.k != expected:
            bad.append(name)
    report(2, "K formula identity", not bad, f"datasets checked: "
           f"{len(ALL_ROUNDTRIP_FIXTURES)}; failures: {bad}")


def test_criterion_3_canonical_codes():
    start = time.monotonic()
    trees = list(all_labeled_trees(5))
    buckets: dict[bytes, list] = {}
    for t in trees:
        buckets.setdefault(t.canonical_code, []).append(t)
    mismatches = 0
    for members in buckets.values():
        rep = members[0]
        for other in members[1:]:
            if not r_isomorphic(rep, other):
                mismatches += 1
    reps_by_size: dict[int, list] = {}
    for members in buckets.values():
        reps_by_size.setdefault(len(members[0].nodes), []).append(members[0])
    for size_reps in reps_by_size.values():
        for a, b in itertools.combinations(size_reps, 2):
            if r_isomorphic(a, b):
                mismatches += 1
    elapsed = time.monotonic() - start
    report(
        3,
        "canonical-code correctness",
        mismatches == 0 and elapsed < 60.0,
        f"{len(trees)} trees, {len(buckets)} classes, "
        f"{mismatches} mismatches in {elapsed:.1f}s",
    )


def test_criterion_4_lasso_correctness():
    rng = np.random.default_rng(515)
    worst_ls = 0.0
    worst_kkt = 0.0
    monotone = True
    for _ in range(20):
        n = int(rng.integers(25, 60))
        k = int(rng.integers(2, 9))
        x = rng.random((n, k))
        y = x @ (rng.random(k) - 0.3) + 0.2 + 0.05 * rng.random(n)
        fit = lasso_fit(x, y, 0.0, tol=1e-12)
        design = np.hstack([x, np.ones((n, 1))])
        coef, *_ = np.linalg.lstsq(design, y, rcond=None)
        worst_ls = max(
            worst_ls,
            float(np.abs(fit.weights - coef[:k]).max()),
            abs(fit.bias - coef[k]),
        )
        lam = float(rng.choice([0.001, 0.01, 0.1]))
        fit2 = lasso_fit(x, y, lam)
        worst_kkt = max(
            worst_kkt,
            float(kkt_residuals(x, y, fit2.weights, fit2.bias, lam).max()),
        )
        path = sweep_objectives(x, y, lam, fit2.n_sweeps)
        for before, after in zip(path, path[1:]):
            if after > before + 1e-12:
                monotone = False
    report(
        4,
        "lasso correctness",
        worst_ls <= 1e-6 and worst_kkt <= 1e-6 and monotone,
        f"max |ls diff|={worst_ls:.2e}, max KKT={worst_kkt:.2e}, "
        f"monotone={monotone}",
    )


def test_criterion_5_cv_protocol():
    rng = np.random.default_rng(99)
    n, k = 200, 30
    x = rng.random((n, k))
    y = x @ (rng.random(k) + 0.05) + 0.3
    reportcv = cross_validate_path(x, y, [1e-6], executions=10, seed=4)[0]
    report(
        5,
        "cross-validation protocol",
        reportcv.median_r2 >= 0.999 and len(reportcv.fold_r2) == 50,
        f"median R2={reportcv.median_r2:.6f} over {len(reportcv.fold_r2)} trials",
    )


@pytest.mark.parametrize("name", ALL_ROUNDTRIP_FIXTURES)
def test_criterion_6_roundtrip_external(name):
    fx, model, sol, elapsed = solved_fixture(name, "highs")
    ok = sol.status == "optimal" and elapsed <= 600
    detail = [f"solve {elapsed:.1f}s"]
    graph = None
    if ok:
        graph = decode(sol, fx.spec)
        ok = graph.validate() == []
        detail.append("invariants ok" if ok else "graph invalid")
    if ok:
        rep = check_graph_satisfies(fx.spec, graph)
        ok = rep.passed
        detail.append("spec ok" if ok else "spec check failed")
    if ok:
        fv = featurize(graph, fx.space)
        ok = fv.values == solution_feature_values(sol, fx.space)
        detail.append("features exact" if ok else "feature mismatch")
        y = fx.predictor.predict_normalized(fv.as_floats())
        in_interval = fx.y_lo - 1e-4 <= y <= fx.y_hi + 1e-4
        ok = ok and in_interval
        detail.append(f"y={y:.5f}")
    report(6, f"round trip [{name}]", ok, ", ".join(detail))


@pytest.mark.parametrize("name", ["triangle", "square_chord"])
def test_criterion_6_roundtrip_mini(name):
    fx, model, sol, elapsed = solved_fixture(name, "mini")
    ok = sol.status == "optimal"
    detail = [f"mini solve {elapsed:.1f}s"]
    if ok:
        graph = decode(sol, fx.spec)
        fv = featurize(graph, fx.space)
        exact = all(
            Fraction(v) == sol.values[f"x_{j + 1}"]
            for j, v in enumerate(fv.values)
        )
        rep = check_graph_satisfies(fx.spec, graph)
        ok = graph.validate() == [] and exact and rep.passed
        detail.append("exact rational feature match" if exact else "mismatch")
    report(6, f"round trip mini [{name}]", ok, ", ".join(detail))


@pytest.mark.parametrize(
    "key", ["impossible_interior", "banned_fringes", "starved_atoms"]
)
def test_criterion_7_infeasibility(key):
    fx, doc = infeasible_specs()[key]
    spec = parse_spec(json.dumps(doc))
    model = build_milp(spec, fx.space, fx.predictor, fx.y_lo, fx.y_hi)
    start = time.monotonic()
    sol = solve(model, "highs", time_limit=300)
    elapsed = time.monotonic() - start
    report(
        7,
        f"infeasibility soundness [{key}]",
        sol.status == "infeasible" and elapsed <= 300,
        f"status={sol.status} in {elapsed:.1f}s",
    )


def test_criterion_8_emitter_round_trip():
    ok = True
    details = []
    for name in ALL_ROUNDTRIP_FIXTURES:
        fx = roundtrip_fixture(name)
        model = build_milp(fx.spec, fx.space, fx.predictor, fx.y_lo, fx.y_hi)
        text = emit_lp(model)
        if emit_lp(parse_lp(text)) != text:
            ok = False
            details.append(f"{name}: round trip differs")
            continue
        accepted = validate_lp(text)
        if accepted != len(model.constraints):
            ok = False
            details.append(f"{name}: validator accepted {accepted} rows")
    report(
        8,
        "emitter round trip",
        ok,
        "; ".join(details) or f"{len(ALL_ROUNDTRIP_FIXTURES)} models byte-stable",
    )


def test_criterion_9_normalization_residuals():
    worst = Fraction(0)
    checked = 0
    for name in ALL_ROUNDTRIP_FIXTURES:
        fx, model, sol, _ = solved_fixture(name, "highs")
        if sol.status != "optimal":
            continue
        residuals = constraint_residuals(model, sol.values)
        for rname, r in residuals.items():
            if rname.startswith("nm_"):
                worst = max(worst, r)
                checked += 1
    report(
        9,
        "normalization constraint fidelity",
        checked > 0 and worst <= Fraction(1, 10**9),
        f"{checked} rows, worst residual {float(worst):.2e}",
    )
