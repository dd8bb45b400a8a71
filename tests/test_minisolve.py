from fractions import Fraction

import numpy as np
import pytest

from invqsar.milp.minisolve import MiniSolverError, solve_exact
from invqsar.milp.model import (
    BINARY,
    CONTINUOUS,
    EQ,
    GE,
    INTEGER,
    LE,
    MAX,
    MIN,
    MILPModel,
)
from invqsar.milp.solve import solve


def test_feasibility_binary():
    m = MILPModel()
    m.add_var("x", BINARY)
    m.add_var("y", BINARY)
    m.add_constr("c", {"x": 1, "y": 1}, LE, 1)
    m.set_objective(MAX, {"x": 1, "y": 1})
    out = solve_exact(m)
    assert out.status == "optimal"
    assert out.objective == 1


def test_infeasible_toy():
    m = MILPModel()
    m.add_var("x", CONTINUOUS, 0, 10)
    m.add_constr("a", {"x": 1}, GE, 1)
    m.add_constr("b", {"x": 1}, LE, 0)
    assert solve_exact(m).status == "infeasible"


def test_exact_fractional_optimum():
    m = MILPModel()
    m.add_var("x", CONTINUOUS, 0, 2)
    m.add_var("y", CONTINUOUS, 0, 2)
    m.add_constr("e", {"x": 2, "y": 4}, EQ, 5)
    m.set_objective(MIN, {"x": 1, "y": 1})
    out = solve_exact(m)
    assert out.objective == Fraction(5, 4)
    assert out.values["y"] == Fraction(5, 4)


def test_pure_integer_feasibility_stops_on_first():
    m = MILPModel()
    for i in range(6):
        m.add_var(f"b{i}", BINARY)
    m.add_constr("sum", {f"b{i}": 1 for i in range(6)}, EQ, 3)
    out = solve_exact(m)
    assert out.status == "optimal"
    assert sum(out.values[f"b{i}"] for i in range(6)) == 3


def test_requires_finite_bounds():
    m = MILPModel()
    m.add_var("x", CONTINUOUS)  # ub defaults to +inf
    m.add_constr("c", {"x": 1}, LE, 5)
    with pytest.raises(MiniSolverError):
        solve_exact(m)


def test_timeout_status():
    # deliberately bushy feasibility problem with tiny node budget
    m = MILPModel()
    for i in range(16):
        m.add_var(f"b{i}", BINARY)
    m.add_constr("odd", {f"b{i}": 2 for i in range(16)}, EQ, 15)
    out = solve_exact(m, node_limit=3)
    assert out.status in ("timeout", "infeasible")


def random_model(rng: np.random.Generator) -> MILPModel:
    n = int(rng.integers(2, 7))
    m = MILPModel()
    kinds = rng.choice([BINARY, INTEGER, CONTINUOUS], size=n, p=[0.5, 0.3, 0.2])
    for i, kind in enumerate(kinds):
        if kind == BINARY:
            m.add_var(f"v{i}", BINARY)
        else:
            lb = int(rng.integers(-3, 1))
            ub = int(rng.integers(1, 6))
            m.add_var(f"v{i}", kind, lb, ub)
    for r in range(int(rng.integers(1, 6))):
        row = rng.integers(-4, 5, size=n)
        if not row.any():
            row[0] = 1
        sense = [LE, GE, EQ][int(rng.integers(0, 3))]
        terms = {f"v{i}": int(c) for i, c in enumerate(row) if c}
        m.add_constr(f"c{r}", terms, sense, int(rng.integers(-6, 10)))
    cost = rng.integers(-5, 6, size=n)
    sense = MIN if rng.random() < 0.5 else MAX
    m.set_objective(sense, {f"v{i}": int(c) for i, c in enumerate(cost) if c})
    return m


def test_cross_solver_agreement():
    """Mini-solver optimum equals the external solver's on random models."""
    rng = np.random.default_rng(314)
    backend = "highs"
    compared = 0
    for _ in range(20):
        m = random_model(rng)
        mini = solve_exact(m, time_limit=60)
        ext = solve(m, backend)
        assert mini.status in ("optimal", "infeasible")
        assert ext.status == mini.status
        if mini.status == "optimal":
            assert abs(float(mini.objective) - ext.objective) < 1e-6
            compared += 1
    assert compared >= 5  # most random models should be feasible


def test_solutions_exact_to_zero_tolerance():
    """Feasible answers from the exact solver satisfy every row with zero
    residual, not merely within a tolerance."""
    from invqsar.milp.model import check_solution

    rng = np.random.default_rng(2718)
    exact_checked = 0
    for _ in range(25):
        m = random_model(rng)
        out = solve_exact(m, time_limit=30)
        if out.status != "optimal":
            continue
        values = dict(out.values)
        for v in m.variables:
            values.setdefault(v.name, Fraction(0))
        assert check_solution(m, values, tol=0.0) == []
        exact_checked += 1
    assert exact_checked >= 8
