#!/usr/bin/env python3
"""Randomized end-to-end campaign: random molecule families, derived
specifications, inverse solves, and full verification of every answer.

Each instance derives a specification from a random target molecule,
centers the prediction window on the target, solves the inverse model,
checks that the polished answer meets every row and bound exactly (residual
tolerance 0), decodes it and verifies (a) graph invariants, (b) exact
agreement between the decoded feature vector and the model's descriptor
variables, (c) the prediction window, (d) every specification clause, and
(e) the same specification verdict for a copy of the answer with its vertex
ids permuted at random.  Each verified instance is then solved again at a
window that starts above the largest prediction its model can reach, and
that solve must come back infeasible; the summary counts these by
evidence: an exact row proof made before HiGHS is called, or HiGHS's own
claim.

Usage: python3 scripts/stress_roundtrip.py [--instances 40] [--seed 0] [--max-heavy 11]
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))

from invqsar.decompose import decompose
from invqsar.descriptors import build_space, featurize
from invqsar.milp.build import build_milp, polish_solution
from invqsar.milp.decode import decode, solution_feature_values
from invqsar.milp.model import check_solution
from invqsar.milp.solve import solve
from invqsar.topospec import check_graph_satisfies, parse_spec, spec_from_graph


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--instances", type=int, default=40)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--max-heavy", type=int, default=11)
    args = parser.parse_args()

    from conftest import (random_chemical_graph, reachable_max, relabelled,
                          uniform_predictor)

    rng = np.random.default_rng(args.seed)
    # its own stream, so that the instances do not depend on the relabelling
    relabel_rng = np.random.default_rng([args.seed, 1])
    # and one for the unreachable windows' offsets
    window_rng = np.random.default_rng([args.seed, 2])
    verified = failed = 0
    evidence = {"row proof": 0, "HiGHS claim": 0}
    start = time.monotonic()
    while verified + failed < args.instances:
        family = [
            random_chemical_graph(rng, max_heavy=args.max_heavy)
            for _ in range(5)
        ]
        target = next(
            (g for g in family if len(decompose(g, 2).interior_vertices) >= 2),
            None,
        )
        if target is None:
            continue
        label = f"[{verified + failed + 1:3d}]"
        try:
            space = build_space(family, 2)
            trees = []
            for g in family:
                trees.extend(decompose(g, 2).fringe_trees.values())
            spec = parse_spec(
                json.dumps(spec_from_graph(target, fringe_trees=trees))
            )
            vectors = [featurize(g, space) for g in family]
            predictor = uniform_predictor(space, vectors, weight=0.07)
            fv = featurize(target, space)
            y = predictor.predict_normalized(fv.as_floats())
            model = build_milp(spec, space, predictor, y - 0.02, y + 0.02)
            sol = solve(model, "highs", time_limit=300, polish=polish_solution)
            if sol.status != "optimal":
                raise RuntimeError("unexpected infeasibility")
            residuals = check_solution(model, sol.values, tol=0)
            if residuals:
                raise RuntimeError(f"inexact answer: {residuals[:3]}")
            graph = decode(sol, spec)
            problems = graph.validate()
            fv_dec = featurize(graph, space)
            xs = solution_feature_values(sol, space)
            mismatch = [(j, a, b) for j, (a, b) in enumerate(zip(fv_dec.values, xs))
                        if a != b]
            y_dec = predictor.predict_normalized(fv_dec.as_floats())
            report = check_graph_satisfies(spec, graph)
            moved = check_graph_satisfies(spec, relabelled(graph, relabel_rng))
            if problems or mismatch or not report.passed or not (
                y - 0.0201 <= y_dec <= y + 0.0201
            ) or moved.passed != report.passed:
                raise RuntimeError(
                    f"verification failed: {problems[:2]} {mismatch[:3]} "
                    f"{[c.name for c in report.failures()]} "
                    f"relabelled {[c.name for c in moved.failures()]}"
                )
            # log-uniform in [1e-4, 0.5]: from just past the reachable
            # maximum to far beyond it
            y_out = reachable_max(model) + float(10 ** window_rng.uniform(-4, -0.3))
            out = solve(build_milp(spec, space, predictor, y_out, y_out + 0.04),
                        "highs", time_limit=300)
            if out.status != "infeasible":
                raise RuntimeError(f"window above the reachable maximum at "
                                   f"{y_out:.4f} is {out.status}")
            kind = ("row proof" if out.log.startswith("HiGHS not called")
                    else "HiGHS claim")
            evidence[kind] += 1
            verified += 1
            print(f"{label} ok: target {target.n_heavy()} heavy -> "
                  f"answer {graph.n_heavy()} heavy, y {y_dec:.4f}; "
                  f"unreachable y {y_out:.4f}: {kind}")
        except Exception as exc:  # noqa: BLE001 - campaign report
            failed += 1
            print(f"{label} FAIL: {type(exc).__name__}: {exc}")
    elapsed = time.monotonic() - start
    print(f"\n{verified} verified, {failed} failed in {elapsed:.0f}s; "
          f"unreachable windows infeasible by {evidence['row proof']} row "
          f"proofs and {evidence['HiGHS claim']} HiGHS claims")
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
