"""Test helper: an LP-file solver for ExternalBackend command templates.

Reads a CPLEX-LP file with lp_reader.parse_lp, solves it with in-process HiGHS and
writes a CBC-style solution file.

Usage: python3 tests/lp_file_solver.py MODEL.lp OUT.sol
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from invqsar.milp.solve import solve
from lp_reader import parse_lp


def main(lp_path: str, sol_path: str) -> int:
    model = parse_lp(Path(lp_path).read_text())
    sol = solve(model, "highs")
    if sol.status == "infeasible":
        text = "Infeasible - objective value 0\n"
    else:
        lines = ["Optimal - objective value 0"]
        lines += [f"{i} {v.name} {sol.values[v.name]} 0"
                  for i, v in enumerate(model.variables)]
        text = "\n".join(lines) + "\n"
    Path(sol_path).write_text(text)
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
