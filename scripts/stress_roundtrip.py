#!/usr/bin/env python3
"""Randomized end-to-end campaign: random molecule families, derived
specifications, inverse solves, and full verification of every answer.

Each instance derives a specification from a random target molecule,
centers the prediction window on the target, solves the inverse model
(`solve` checks the polished answer exactly), decodes it and judges it with
`invqsar.cli.judge`, the verdict `infer` and `verify` give: graph
invariants, the model's descriptor values, the prediction window and every
specification clause.  A copy of the answer with its vertex ids permuted at
random must get the same specification verdict.  Each verified instance is
then solved again at a window that starts above the largest prediction its
model can reach, and that solve must come back infeasible; the summary
counts these by evidence: an exact row proof made before HiGHS is called,
or HiGHS's own claim.

Usage: python3 scripts/stress_roundtrip.py [--instances 40] [--seed 0] [--max-heavy 11]
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))

from invqsar.cli import judge
from invqsar.decompose import decompose
from invqsar.milp.build import build_milp, polish_solution
from invqsar.milp.decode import decode
from invqsar.milp.solve import solve
from invqsar.topospec import check_graph_satisfies


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--instances", type=int, default=40)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--max-heavy", type=int, default=11)
    args = parser.parse_args()

    from conftest import (derived_instance, random_chemical_graph,
                          reachable_max, relabelled)

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
            space, spec, predictor, y = derived_instance(target, family, weight=0.07)
            model = build_milp(spec, space, predictor, y - 0.02, y + 0.02)
            sol = solve(model, "highs", time_limit=300, polish=polish_solution)
            if sol.status != "optimal":
                raise RuntimeError("unexpected infeasibility")
            graph = decode(sol, spec)
            window = tuple(predictor.destandardize(v) for v in (y - 0.02, y + 0.02))
            verdict = judge(graph, spec, space, predictor, window, sol)
            moved = check_graph_satisfies(spec, relabelled(graph, relabel_rng))
            if not verdict.passed or moved.passed != verdict.report.passed:
                raise RuntimeError(
                    f"verification failed: {verdict.problems[:2]} in window "
                    f"{verdict.in_interval}, x_j match {verdict.x_match}, "
                    f"{[c.name for c in verdict.report.failures()]} "
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
                  f"answer {graph.n_heavy()} heavy, y {verdict.y_std:.4f}; "
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
