import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from conftest import roundtrip_fixture
from invqsar.milp.build import build_milp
from invqsar.milp.model import BINARY, CONTINUOUS, EQ, GE, INTEGER, LE, MILPModel
from invqsar.milp.solve import (
    ExternalBackend,
    SolutionCheckError,
    SolverFailure,
    Solution,
    parse_solution_text,
    solve,
)


def small_model():
    """x + y = 2.5 with x binary and y <= 2: the only point is (1, 3/2)."""
    m = MILPModel()
    m.add_var("x", BINARY)
    m.add_var("y", CONTINUOUS, 0, 2)
    m.add_constr("c1", {"x": 1, "y": 1}, EQ, 2.5)
    return m


def test_external_backend_round_trip():
    """emit_lp -> LP file -> a real solver -> solution file -> parse."""
    script = Path(__file__).with_name("lp_file_solver.py")
    backend = ExternalBackend(
        f'"{sys.executable}" "{script}" {{input}} {{output}}', timeout=60
    )
    sol = solve(small_model(), backend)
    assert sol.status == "optimal"
    assert sol.int_value("x") == 1
    assert sol.values["y"] == Fraction(3, 2)


def test_highs_time_limit_is_failure():
    fx = roundtrip_fixture("hetero")
    model = build_milp(fx.spec, fx.space, fx.predictor, fx.y_lo, fx.y_hi)
    with pytest.raises(SolverFailure, match="Time limit"):
        solve(model, "highs", time_limit=0)


def test_mini_backend():
    sol = solve(small_model(), "mini")
    assert sol.status == "optimal"
    assert sol.values == {"x": 1, "y": Fraction(3, 2)}


def test_infeasible_is_status_not_error():
    m = MILPModel()
    m.add_var("x", CONTINUOUS, 0, 1)
    m.add_constr("a", {"x": 1}, GE, 2)
    for backend in ("mini", "highs"):
        assert solve(m, backend).status == "infeasible"


def test_highs_rounds_integer_bounds_inward():
    """v1 is an integer in [1/3, 2.55].  Given that fractional bound as it
    is, HiGHS answers v1 = 1/3 and the residual check rejects the answer;
    rounded inward to [1, 2] it finds the integral point v1 = 1."""
    m = MILPModel()
    m.add_var("v0", CONTINUOUS, -3, 3.5)
    m.add_var("v1", INTEGER, 1 / 3, 2.55)
    m.add_constr("c0", {"v0": 11 / 3, "v1": 1}, EQ, 3.5)
    m.add_constr("c1", {"v0": 4, "v1": 10 / 3}, LE, 7)
    for backend in ("mini", "highs"):
        sol = solve(m, backend)
        assert sol.status == "optimal"
        assert sol.int_value("v1") in (1, 2)


def test_highs_integer_without_integral_bound_values_is_infeasible():
    m = MILPModel()
    m.add_var("x", INTEGER, 0.2, 0.8)
    m.add_var("y", CONTINUOUS, 0, 1)
    m.add_constr("c", {"x": 1, "y": 1}, LE, 1)
    sol = solve(m, "highs")
    assert sol.status == "infeasible"
    assert "no integer lies in the bounds of x" in sol.log


def test_highs_solve_error_is_retried_without_presolve():
    """HiGHS with presolve stops on this model with status 4, "Solve
    error"; the presolve-off pass proves it infeasible, as mini does."""
    m = MILPModel()
    m.add_var("v0", INTEGER, 1, 3)
    m.add_var("v1", BINARY)
    m.add_var("v2", INTEGER, -1, 5)
    m.add_var("v3", BINARY)
    m.add_constr("c0", {"v2": -2, "v3": 3.64}, LE, 7)
    m.add_constr("c1", {"v0": 4, "v1": -7 / 3, "v3": 2.07}, EQ, 8.58)
    for backend in ("mini", "highs"):
        assert solve(m, backend).status == "infeasible"


def _fake_milp(monkeypatch, statuses, pause=0.0):
    """Replace scipy's milp with a stub that answers the given statuses in
    turn, each after `pause` seconds, and returns the options of every
    call."""
    import scipy.optimize
    calls = []

    def milp(c, constraints=None, integrality=None, bounds=None, options=None):
        calls.append(dict(options))
        time.sleep(pause)
        return scipy.optimize.OptimizeResult(
            status=statuses[len(calls) - 1], message="stub", x=None)

    monkeypatch.setattr(scipy.optimize, "milp", milp)
    return calls


def test_highs_presolve_off_pass_gets_the_time_left(monkeypatch):
    calls = _fake_milp(monkeypatch, [4, 2], pause=0.05)
    assert solve(small_model(), "highs", time_limit=10.0).status == "infeasible"
    assert [c.get("presolve", True) for c in calls] == [True, False]
    assert calls[0]["time_limit"] == 10.0
    assert 0 < calls[1]["time_limit"] <= 10.0 - 0.05


def test_highs_presolve_off_pass_without_time_left_is_failure(monkeypatch):
    calls = _fake_milp(monkeypatch, [2, 2], pause=0.05)
    with pytest.raises(SolverFailure, match="time limit"):
        solve(small_model(), "highs", time_limit=0.01)
    assert len(calls) == 1


def test_highs_presolve_off_pass_without_a_limit(monkeypatch):
    calls = _fake_milp(monkeypatch, [2, 2])
    assert solve(small_model(), "highs").status == "infeasible"
    assert calls == [{}, {"presolve": False}]


def test_parse_cbc_style():
    text = (
        "Optimal - objective value 12.5\n"
        "0 x 1 0\n"
        "1 y 0.5 0\n"
    )
    sol = parse_solution_text(text)
    assert sol.status == "optimal"
    assert sol.values == {"x": 1, "y": Fraction(1, 2)}


def test_parse_ignores_objective_value():
    """A solver's objective value in the file changes nothing."""
    rows = "0 x 1 0\n1 y 0.5 0\n"
    zero = parse_solution_text("Optimal - objective value 0\n" + rows)
    for value in ("12.5", "-3e7", "inf"):
        sol = parse_solution_text(f"Optimal - objective value {value}\n" + rows)
        assert (sol.status, sol.values) == (zero.status, zero.values)


def test_parse_name_value_style():
    text = (
        "# Objective value = 3\n"
        "x 1\n"
        "y 2.25\n"
    )
    sol = parse_solution_text(text)
    assert sol.status == "optimal"
    assert sol.values["x"] == 1
    assert sol.values["y"] == Fraction(9, 4)


def test_parse_infeasible_header():
    sol = parse_solution_text("Infeasible - objective value 0\n")
    assert sol.status == "infeasible"


def test_bad_solution_file():
    with pytest.raises(SolverFailure):
        parse_solution_text("")
    with pytest.raises(SolverFailure):
        parse_solution_text("x 1 2 3 4 5\n")
    with pytest.raises(SolverFailure, match="not a number"):
        parse_solution_text("x abc\n")
    with pytest.raises(SolverFailure, match="not a number"):
        parse_solution_text("Optimal - objective value 1\n0 x abc 0\n")


def test_command_template_failure():
    backend = ExternalBackend("false {input} {output}", timeout=10)
    with pytest.raises(SolverFailure):
        solve(small_model(), backend)
    unclosed = ExternalBackend('solver "{input} {output}', timeout=10)
    with pytest.raises(SolverFailure, match="cannot split"):
        solve(small_model(), unclosed)


def test_command_timeout():
    backend = ExternalBackend('sh -c "sleep 30; cp {input} {output}"', timeout=0.3)
    with pytest.raises(SolverFailure, match="exceeded"):
        solve(small_model(), backend)


def test_lying_solver_caught():
    """A solver that claims feasibility with wrong values must be rejected."""
    backend = ExternalBackend(
        'sh -c "printf \'Optimal - objective value 99\\n0 x 7 0\\n1 y 0 0\\n\' > {output}"',
        timeout=10,
    )
    with pytest.raises(SolutionCheckError):
        solve(small_model(), backend)


def test_missing_values_default_to_zero():
    m = MILPModel()
    m.add_var("x", CONTINUOUS, 0, 1)
    m.add_var("slackish", CONTINUOUS, 0, 1)
    m.add_constr("c", {"x": 1}, LE, 1)
    backend = ExternalBackend(
        'sh -c "printf \'Optimal - objective value 0\\n0 x 0 0\\n\' > {output}"',
        timeout=10,
    )
    sol = solve(m, backend)
    assert sol.values["slackish"] == 0
