import os
import subprocess
import sys
import time
import warnings
from fractions import Fraction
from pathlib import Path

import pytest

from conftest import ALL_ROUNDTRIP_FIXTURES, reachable_max, roundtrip_fixture
from invqsar.milp.build import build_milp
from invqsar.milp.model import (BINARY, CONTINUOUS, EQ, GE, INTEGER, LE, MILPModel,
                                 check_solution)
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
    backend = ExternalBackend(f'"{sys.executable}" "{script}" {{input}} {{output}}')
    sol = solve(small_model(), backend, time_limit=60)
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
    assert calls == [{"mip_heuristic_run_feasibility_jump": False},
                     {"mip_heuristic_run_feasibility_jump": False,
                      "presolve": False}]


# A child process with C stdio buffered, as it is without
# PYTHONUNBUFFERED: a fake milp writes to fd 1 directly and, after HiGHS
# returns, through printf's buffer.
STRAY_PROBE = """
import ctypes, os, sys
sys.path[:0] = sys.argv[1:3]
import scipy.optimize
from invqsar.milp.solve import solve
from test_solve import small_model

real = scipy.optimize.milp
printf = ctypes.CDLL(None).printf
printf.argtypes, printf.restype = [ctypes.c_char_p], ctypes.c_int

def chatty(*args, **kwargs):
    os.write(1, b"stray line from fd 1\\n")
    res = real(*args, **kwargs)
    printf(b"stray line from C stdio\\n")
    return res

scipy.optimize.milp = chatty
print("before", flush=True)
sol = solve(small_model(), "highs")
print("after", flush=True)
sys.stderr.write(sol.status + "\\n" + sol.log)
"""


def test_highs_stray_stdout_goes_to_the_log():
    """What HiGHS writes to fd 1 itself, directly or through C stdio's
    buffer, lands in the solution's log and not in the caller's stdout."""
    here = Path(__file__).resolve().parent
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    done = subprocess.run(
        [sys.executable, "-c", STRAY_PROBE, str(here.parent / "src"), str(here)],
        capture_output=True, text=True, env=env, timeout=120)
    assert done.stdout == "before\nafter\n", done.stdout + done.stderr
    assert done.stderr.startswith("optimal\nHiGHS status=0")
    assert done.stderr.endswith("stray line from fd 1\nstray line from C stdio\n")


def _fixture_model(name):
    fx = roundtrip_fixture(name)
    return build_milp(fx.spec, fx.space, fx.predictor, fx.y_lo, fx.y_hi)


def test_highs_takes_every_option_without_a_warning():
    """A real HiGHS solve raises no warning: scipy's notice that it passes
    the feasibility-jump option on verbatim is silenced, and HiGHS knows
    the option (a HiGHS that does not would warn here)."""
    model = _fixture_model("triangle")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert solve(model, "highs").status == "optimal"


def test_highs_without_the_feasibility_jump_option_still_solves(monkeypatch):
    """On a HiGHS that lacks the option, scipy warns, drops it and solves."""
    from scipy.optimize import OptimizeWarning
    from scipy.optimize._highspy import _highs_options

    real = _highs_options.HighsOptionsManager

    class WithoutFeasibilityJump:
        def __init__(self):
            self._real = real()

        def get_option_type(self, name):
            if name == "mip_heuristic_run_feasibility_jump":
                return -1
            return self._real.get_option_type(name)

    monkeypatch.setattr(_highs_options, "HighsOptionsManager",
                        WithoutFeasibilityJump)
    with pytest.warns(OptimizeWarning, match="mip_heuristic_run_feasibility_jump"):
        assert solve(_fixture_model("triangle"), "highs").status == "optimal"


def _refused_milp(monkeypatch):
    """Replace scipy's milp with a stub that fails the test if called."""
    import scipy.optimize

    def milp(*args, **kwargs):
        raise AssertionError("HiGHS was called")

    monkeypatch.setattr(scipy.optimize, "milp", milp)


@pytest.mark.parametrize("name", ALL_ROUNDTRIP_FIXTURES)
def test_unreachable_window_is_proven_before_highs(name, monkeypatch):
    """A window above the reachable maximum fails the prediction row over
    the variable bounds alone, so the pre-check proves it without HiGHS."""
    fx = roundtrip_fixture(name)
    y_max = reachable_max(build_milp(fx.spec, fx.space, fx.predictor,
                                     fx.y_lo, fx.y_hi))
    model = build_milp(fx.spec, fx.space, fx.predictor, y_max + 0.05, y_max + 0.07)
    _refused_milp(monkeypatch)
    sol = solve(model, "highs")
    assert sol.status == "infeasible"
    assert sol.log == ("HiGHS not called: row pred_value cannot be met within "
                       "the variable bounds\n")


@pytest.mark.parametrize("sense, sign", [(LE, 1), (GE, -1), (EQ, 1)])
def test_precheck_is_never_stricter_than_the_residual_check(sense, sign, monkeypatch):
    """r: x + 2n <= rhs with x in [1, 2] and the integer n in [0.5, 2],
    rounded to [1, 2].  Its least activity is 3, sum|a_j| is 3, so the
    pre-check claims r only when rhs < 3 - tol*(1 + 3).  Just above that
    the residual check accepts x = n = 1 - tol, so HiGHS must be asked;
    just below, no HiGHS.  The >= row is the mirror image and the = row
    meets the same low side."""
    tol = Fraction(1, 10**6)
    for rhs, claimed in ((3 - 3.5e-6, False), (3 - 4.5e-6, True)):
        m = MILPModel()
        m.add_var("x", CONTINUOUS, 1, 2)
        m.add_var("n", INTEGER, 0.5, 2)
        m.add_constr("r", {"x": sign, "n": 2 * sign}, sense, sign * rhs)
        if not claimed:
            assert check_solution(m, {"x": 1 - tol, "n": 1 - tol}) == []
            calls = _fake_milp(monkeypatch, [2, 2])
            assert solve(m, "highs").status == "infeasible"
            assert len(calls) == 2
        else:
            _refused_milp(monkeypatch)
            sol = solve(m, "highs")
            assert sol.status == "infeasible"
            assert "row r cannot be met" in sol.log


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


def test_parse_infeasible_header():
    sol = parse_solution_text("Infeasible - objective value 0\n")
    assert sol.status == "infeasible"


def test_bad_solution_file():
    """Only the CBC-style file is read: any other header, or a row that is
    not 'index name value reduced-cost', is a solver failure."""
    for text, needle in [
        ("", "empty solution file"),
        ("x 1\ny 2.25\n", "unknown solution status 'x 1'"),
        ("# infeasible\n", "unknown solution status '# infeasible'"),
        ("Unbounded - objective value 0\n", "unknown solution status"),
        ("Optimal - objective value 0\nx 1\n", "cannot parse solution line 'x 1'"),
        ("Optimal - objective value 0\n0 x 1\n", "cannot parse solution line"),
        ("Optimal - objective value 0\nx y 1 0\n", "cannot parse solution line"),
        ("Optimal - objective value 0\n0 x 1 0 7\n", "cannot parse solution line"),
        ("Optimal - objective value 1\n0 x abc 0\n", "not a number"),
    ]:
        with pytest.raises(SolverFailure, match=needle):
            parse_solution_text(text)


def _writer(text: str) -> ExternalBackend:
    """A backend whose solver writes `text` as its solution file."""
    return ExternalBackend(f"sh -c \"printf '{text}' > {{output}}\"")


@pytest.mark.parametrize("text, needle", [
    ("Unbounded - objective value 0\\n", "unknown solution status"),
    ("Optimal - objective value 0\\n0 x 1 0\\n1 y 1.5\\n", "cannot parse"),
    ("Stopped on time - objective value 0\\n", "time or node limit"),
], ids=["unbounded", "short_row", "stopped"])
def test_external_answer_without_a_point_is_solver_failure(text, needle):
    """An answer whose file is not the CBC-style format fails even when
    its values meet the model; Unbounded is no answer to a model without
    an objective, and Stopped is a limit reached."""
    with pytest.raises(SolverFailure, match=needle):
        solve(small_model(), _writer(text), time_limit=10)


def test_command_template_failure():
    backend = ExternalBackend("false {input} {output}")
    with pytest.raises(SolverFailure):
        solve(small_model(), backend, time_limit=10)
    unclosed = ExternalBackend('solver "{input} {output}')
    with pytest.raises(SolverFailure, match="cannot split"):
        solve(small_model(), unclosed, time_limit=10)


def test_command_timeout():
    backend = ExternalBackend('sh -c "sleep 30; cp {input} {output}"')
    with pytest.raises(SolverFailure, match="exceeded 0.3s"):
        solve(small_model(), backend, time_limit=0.3)


def test_lying_solver_caught():
    """A solver that claims feasibility with wrong values must be rejected."""
    backend = _writer("Optimal - objective value 99\\n0 x 7 0\\n1 y 0 0\\n")
    with pytest.raises(SolutionCheckError):
        solve(small_model(), backend, time_limit=10)


def test_missing_values_default_to_zero():
    m = MILPModel()
    m.add_var("x", CONTINUOUS, 0, 1)
    m.add_var("slackish", CONTINUOUS, 0, 1)
    m.add_constr("c", {"x": 1}, LE, 1)
    sol = solve(m, _writer("Optimal - objective value 0\\n0 x 0 0\\n"), time_limit=10)
    assert sol.values["slackish"] == 0
