"""Solver backends and solution handling.

Three backends: HiGHS called in-process on a sparse matrix built from the
model, the built-in exact mini-solver, and an external solver invoked
through a command template with {input} and {output} placeholders (LP file
in, CBC-style solution file out).  `solve` gives every backend the same
time limit and reads every backend's infeasible and stopped answers in one
place.  Every returned solution is re-checked against the model (row
residuals, bounds, integrality, to 1e-6, or exactly once polished) before
it is handed to callers; a failed check is a hard error, not a warning.
Models have no objective, so an answer is any feasible point and no
backend reports an objective value.
"""

from __future__ import annotations

import ctypes
import math
import os
import re
import shlex
import subprocess
import sys
import tempfile
import time
import warnings
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

from .minisolve import MiniSolverError, solve_exact
from .model import (CHECK_TOL, CONTINUOUS, GE, LE, MILPModel, check_solution,
                    emit_lp)

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
TIMEOUT = "timeout"


# CHECK_TOL exactly, as the residual check reads it
_EXACT_TOL = Fraction(repr(CHECK_TOL))

# its fflush(None) writes out every C stdio buffer, HiGHS's stdout among them
_LIBC = ctypes.CDLL(None)


class SolverFailure(RuntimeError):
    """A solver crashed, stopped before an answer or wrote garbage."""


class SolutionCheckError(RuntimeError):
    """A claimed-feasible solution violates the model.  After
    `polish_solution`, a violated bound of the prediction y means the solver
    met the target window only within its tolerance; any other violation is
    an emitter or parser bug."""

    def __init__(self, message: str, problems: list[str] | None = None) -> None:
        super().__init__(message)
        self.problems = problems or []  # check_solution's list, if it made one


@dataclass
class Solution:
    status: str
    values: dict[str, Fraction] = field(default_factory=dict)
    log: str = ""

    def int_value(self, name: str) -> int:
        v = self.values[name]
        nearest = round(v)
        if abs(v - nearest) > _EXACT_TOL:
            raise SolutionCheckError(f"{name} = {float(v)} is not integral")
        return int(nearest)


@dataclass(frozen=True)
class ExternalBackend:
    """Command template with {input}/{output} placeholders, e.g.
    'cbc {input} solve solu {output}'."""

    command: str

    def run(self, lp_text: str, time_limit: float | None = None) -> tuple[str, str]:
        """Returns (solution file text, solver log); a solver still running
        after time_limit seconds is killed."""
        with tempfile.TemporaryDirectory(prefix="invqsar_milp_") as tmp:
            lp_path = Path(tmp) / "model.lp"
            sol_path = Path(tmp) / "model.sol"
            lp_path.write_text(lp_text)
            cmd = self.command.format(input=str(lp_path), output=str(sol_path))
            try:
                argv = shlex.split(cmd)
            except ValueError as exc:
                raise SolverFailure(f"cannot split solver command: {exc}") from exc
            try:
                proc = subprocess.run(
                    argv,
                    capture_output=True,
                    text=True,
                    timeout=time_limit,
                )
            except subprocess.TimeoutExpired as exc:
                raise SolverFailure(
                    f"external solver exceeded {time_limit}s"
                ) from exc
            log = (proc.stdout or "") + (proc.stderr or "")
            if proc.returncode != 0:
                raise SolverFailure(
                    f"external solver exited with {proc.returncode}: {log[-2000:]}"
                )
            if not sol_path.exists():
                raise SolverFailure("external solver wrote no solution file")
            return sol_path.read_text(), log


# a header's first word, lowered -> the status it reports
_HEADERS = {"optimal": OPTIMAL, "infeasible": INFEASIBLE, "stopped": TIMEOUT}


def parse_solution_text(text: str) -> Solution:
    """Parse a CBC-style solution file: a header whose first word is
    Optimal, Infeasible or Stopped (the rest, such as '- objective value
    V', is ignored), then one 'index name value reduced-cost' row per
    variable.  Any other header, or a row that does not parse, is a
    SolverFailure."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise SolverFailure("empty solution file")
    status = _HEADERS.get(lines[0].split()[0].lower())
    if status is None:
        raise SolverFailure(f"unknown solution status {lines[0].strip()!r}")
    values: dict[str, Fraction] = {}
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 4 or not parts[0].lstrip("*").isdigit():
            raise SolverFailure(f"cannot parse solution line {ln!r}")
        try:
            values[parts[1]] = Fraction(parts[2])
        except ValueError as exc:
            raise SolverFailure(
                f"solution value {parts[2]!r} is not a number") from exc
    return Solution(status, values)


def _unmeetable_row(model: MILPModel, rows, bounds) -> str | None:
    """The name of the first row of `model` that no point the residual
    check accepts can meet, or None.  `rows` and `bounds` are the model's
    LinearConstraint and its Bounds with integer bounds rounded inward, as
    HiGHS gets them.

    The check accepts a value up to CHECK_TOL outside its bounds and a row
    violated by up to CHECK_TOL, so a <= row is claimed only when its
    minimum activity over the box widened by tol exceeds rhs + tol, that
    is amin - tol*sum|a_j| > rhs + tol; a >= row by the mirror image, and
    an = row by either.  Every bound is finite (`MILPModel.add_var`), so
    every activity is.  A float pass over the arrays picks the rows within
    tol of a claim; the verdict on each comes from ints and Fractions."""
    import numpy as np

    a = rows.A
    cols, starts = a.indices, a.indptr[:-1]
    lo, hi = bounds.lb[cols], bounds.ub[cols]
    up = a.data > 0
    amin = np.add.reduceat(np.where(up, a.data * lo, a.data * hi), starts)
    amax = np.add.reduceat(np.where(up, a.data * hi, a.data * lo), starts)
    width = CHECK_TOL * np.add.reduceat(np.abs(a.data), starts)
    # a one-sided row's missing side is infinite and picks nothing
    picked = np.flatnonzero((amin - width > rows.ub) | (amax + width < rows.lb))
    if not len(picked):
        return None
    for r in picked.tolist():
        terms = slice(a.indptr[r], a.indptr[r + 1])
        coefs = [Fraction(c) for c in a.data[terms].tolist()]
        js = a.indices[terms]
        # each term's bound at the low and at the high end of its activity
        low, high = zip(*((lb, ub) if c > 0 else (ub, lb) for c, lb, ub in
                          zip(coefs, bounds.lb[js].tolist(),
                              bounds.ub[js].tolist())))
        width_r = _EXACT_TOL * sum(map(abs, coefs))
        rhs, sense = Fraction(model.row_rhs[r]), model.row_senses[r]
        if sense != GE and _dot(coefs, low) - width_r > rhs + _EXACT_TOL:
            return model.row_names[r]
        if sense != LE and _dot(coefs, high) + width_r < rhs - _EXACT_TOL:
            return model.row_names[r]
    return None


def _dot(coefs: list[Fraction], bounds) -> Fraction:
    return sum(c * Fraction(b) for c, b in zip(coefs, bounds))


# Set on every HiGHS pass.  Feasibility jump (Luteberget & Sartor, Math.
# Prog. Comp. 2023) is a local search over violated rows, which stalls on
# these equality-dense models.  scipy's milp passes a HighsOptions field it
# does not know to HiGHS as it is, with a RuntimeWarning; a HiGHS without
# the option warns and ignores it.
HIGHS_OPTIONS = {"mip_heuristic_run_feasibility_jump": False}
_PASSED_VERBATIM = re.escape(
    f"Unrecognized options detected: {set(HIGHS_OPTIONS)}")


def solve_highs(model: MILPModel, time_limit: float | None = None) -> Solution:
    """Solve with HiGHS in-process, with these options:

    - `time_limit`, enforced inside HiGHS and shared by both passes;
    - `presolve: False` on a second pass, made only after a status of
      infeasible or "Solve error", which presolve can reach falsely on
      badly scaled models;
    - `mip_heuristic_run_feasibility_jump: False` on both passes: on the
      benchmark's 10 models and a 40-instance stress campaign, turning it
      off changed no node or LP iteration count; it supplied one incumbent
      of 50, which root-node evaluation finds without it, and took 5-53 ms
      of a call (BENCH_31_infer_fixtures.json).
    No MIP gap is set: with a zero cost any feasible point closes it.

    Returns an optimal or infeasible Solution (values not yet checked) and
    raises SolverFailure on any other outcome, time limit included.  An
    integer variable's bounds are rounded inward first, so HiGHS never
    answers with an integer at a fractional bound.  HiGHS is not called
    when the rounded box holds no integer of some variable, or when a row
    cannot be met within it (`_unmeetable_row`): either is an exact proof
    of infeasibility."""
    # imported here: scipy.optimize costs ~0.6 s, which only this path pays
    from scipy.optimize import Bounds, LinearConstraint, milp
    from scipy.sparse import csr_array

    variables = model.variables
    integral = [v.kind != CONTINUOUS for v in variables]
    lbs = [math.ceil(v.lb) if i else v.lb for v, i in zip(variables, integral)]
    ubs = [math.floor(v.ub) if i else v.ub for v, i in zip(variables, integral)]
    for v, lb, ub in zip(variables, lbs, ubs):
        if lb > ub:
            return Solution(INFEASIBLE, log=(
                f"HiGHS not called: no integer lies in the bounds of {v.name}\n"))

    senses, rhs = model.row_senses, model.row_rhs
    lo = [-math.inf if s == LE else r for s, r in zip(senses, rhs)]
    hi = [math.inf if s == GE else r for s, r in zip(senses, rhs)]
    a = csr_array((model.data, model.indices, model.indptr),
                  shape=(len(senses), len(variables)))
    constraints = [LinearConstraint(a, lo, hi)] if senses else []
    bounds = Bounds(lbs, ubs)
    unmet = _unmeetable_row(model, constraints[0], bounds) if senses else None
    if unmet is not None:
        return Solution(INFEASIBLE, log=(
            f"HiGHS not called: row {unmet} cannot be met within the "
            f"variable bounds\n"))

    options = dict(HIGHS_OPTIONS)
    if time_limit is not None:
        options["time_limit"] = time_limit

    stray: list[str] = []

    def attempt(**extra):
        # HiGHS prints some lines to fd 1 itself; they go to the log, not
        # into the caller's stdout
        sys.stdout.flush()
        with tempfile.TemporaryFile() as out, warnings.catch_warnings():
            warnings.filterwarnings("ignore", _PASSED_VERBATIM, RuntimeWarning)
            saved = os.dup(1)
            os.dup2(out.fileno(), 1)
            try:
                return milp(
                    [0.0] * len(variables),
                    constraints=constraints,
                    integrality=integral,
                    bounds=bounds,
                    options={**options, **extra},
                )
            finally:
                _LIBC.fflush(None)
                os.dup2(saved, 1)
                os.close(saved)
                out.seek(0)
                stray.append(out.read().decode(errors="replace"))

    start = time.monotonic()
    res = attempt()
    if res.status in (2, 4):
        # badly scaled models can trip presolve into a false infeasibility
        # or a "Solve error"; only trust the claim, or give up, when the
        # conservative pass agrees.  That pass gets the time that is left.
        extra = {"presolve": False}
        if time_limit is not None:
            extra["time_limit"] = time_limit - (time.monotonic() - start)
            if extra["time_limit"] <= 0:
                raise SolverFailure(
                    f"HiGHS used its time limit of {time_limit:g} s before the "
                    f"presolve-off pass could check: {res.message}")
        res = attempt(**extra)
    log = (f"HiGHS status={res.status} nodes={res.get('mip_node_count')} "
           f"gap={res.get('mip_gap')}: {res.message}\n" + "".join(stray))
    if res.status == 2:
        return Solution(INFEASIBLE, log=log)
    if res.status != 0:
        raise SolverFailure(f"HiGHS stopped without an answer: {res.message}")
    # shortest round-trip decimals keep the exact check's rationals small;
    # an integral float below 1e16 prints as its exact digits, so it is
    # the int it holds
    values = {v.name: Fraction(int(x)) if x.is_integer() and abs(x) < 1e16
              else Fraction(repr(x))
              for v, x in zip(variables, res.x.tolist())}
    return Solution(OPTIMAL, values, log=log)


def solve(
    model: MILPModel,
    backend: ExternalBackend | str,
    time_limit: float | None = None,
    polish=None,
) -> Solution:
    """Find a feasible point of the model and return it as a Solution that
    passed the residual check (absolute tolerance 1e-6, none once polished).

    backend is 'highs' (in-process HiGHS), 'mini' (built-in exact solver)
    or an ExternalBackend; time_limit, in seconds, binds each of them.
    Infeasibility is a status, not an error; a backend that stops at a
    limit before an answer is a SolverFailure.  An optional polish
    callable (model, solution) may clean the raw values in place before
    verification (for example exact recomputation of dependent continuous
    variables); a polished answer must then meet every row, bound and
    integrality exactly."""
    if backend == "highs":
        sol = solve_highs(model, time_limit)
    elif backend == "mini":
        try:
            outcome = solve_exact(model, time_limit=time_limit)
        except MiniSolverError as exc:
            raise SolverFailure(f"mini-solver failed: {exc}") from exc
        sol = Solution(outcome.status, dict(outcome.values), log=(
            f"mini-solver nodes={outcome.nodes} pivots={outcome.pivots}"))
    elif isinstance(backend, str):
        raise ValueError(f"unknown backend {backend!r}")
    else:
        sol_text, log = backend.run(emit_lp(model), time_limit)
        sol = parse_solution_text(sol_text)
        sol.log = log
    if sol.status == INFEASIBLE:
        return Solution(INFEASIBLE, log=sol.log)
    if sol.status == TIMEOUT:
        # the mini-solver's one-line log tells a slow LP from no LP
        detail = f" ({sol.log})" if backend == "mini" else ""
        raise SolverFailure("solver stopped at a time or node limit before "
                            "an answer" + detail)
    zero = Fraction(0)
    for v in model.variables:
        sol.values.setdefault(v.name, zero)
    if polish is not None:
        polish(model, sol)
    tol = CHECK_TOL if polish is None else 0
    problems = check_solution(model, sol.values, tol)
    if problems:
        raise SolutionCheckError(
            "solution fails verification: " + "; ".join(problems[:10]), problems)
    return sol
