#!/usr/bin/env python3
"""Cross-check the built-in exact solver against in-process HiGHS on a
batch of random small MILPs: the two must agree on feasibility, and every
feasible answer of the exact solver must meet the model with zero
residual.  Trials alternate between general random models and models made
mostly of two-variable equalities, which the exact solver's presolve
substitutes out.  Reports timing and the exact solver's branch-and-bound
nodes and simplex pivots.

Usage: python3 scripts/compare_solvers.py [--trials 20] [--seed 0]
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))

from invqsar.milp.minisolve import solve_exact
from invqsar.milp.model import check_solution
from invqsar.milp.solve import solve


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--trials", type=int, default=20)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    from test_minisolve import random_doubleton_model, random_model

    generators = (("general", random_model), ("pairs", random_doubleton_model))
    rng = np.random.default_rng(args.seed)
    agree = 0
    mini_total = 0.0
    for trial in range(args.trials):
        kind, generate = generators[trial % len(generators)]
        model = generate(rng)
        t0 = time.monotonic()
        mini = solve_exact(model, time_limit=60)
        t_mini = time.monotonic() - t0
        mini_total += t_mini
        t0 = time.monotonic()
        ext = solve(model, "highs")
        t_ext = time.monotonic() - t0
        values = {v.name: mini.values.get(v.name, 0) for v in model.variables}
        same = mini.status == ext.status and (
            mini.status != "optimal" or not check_solution(model, values, tol=0)
        )
        agree += same
        verdict = "ok" if same else "MISMATCH"
        print(
            f"trial {trial:2d} {kind:>7}: {mini.status:>10} "
            f"nodes={mini.nodes:<4d} pivots={mini.pivots:<5d} "
            f"mini {t_mini * 1e3:6.1f}ms highs {t_ext * 1e3:6.1f}ms  {verdict}"
        )
    print(f"\nagreement: {agree}/{args.trials}  mini total {mini_total:.3f}s")
    return 0 if agree == args.trials else 1


if __name__ == "__main__":
    sys.exit(main())
