"""Solver backends and solution handling.

Three backends: HiGHS called in-process on a sparse matrix built from the
model, the built-in exact mini-solver, and an external solver invoked
through a command template with {input} and {output} placeholders (LP file
in, solution file out, wall-clock timeout).  Every returned solution is
re-checked against the model (row residuals, bounds, integrality, to 1e-6)
before it is handed to callers; a failed check is a hard error, not a
warning.  Models have no objective, so an answer is any feasible point and
no backend reports an objective value.
"""

from __future__ import annotations

import math
import shlex
import subprocess
import tempfile
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

from .minisolve import MiniSolverError, solve_exact
from .model import CONTINUOUS, GE, LE, MILPModel, check_solution, emit_lp

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
TIMEOUT = "timeout"


class SolverFailure(RuntimeError):
    """A solver crashed, stopped before an answer or wrote garbage."""


class SolutionCheckError(RuntimeError):
    """A claimed-feasible solution violates the model: emitter/parser bug."""


@dataclass
class Solution:
    status: str
    values: dict[str, Fraction] = field(default_factory=dict)
    log: str = ""

    def int_value(self, name: str) -> int:
        v = self.values[name]
        nearest = round(v)
        if abs(v - nearest) > Fraction(1, 10**6):
            raise SolutionCheckError(f"{name} = {float(v)} is not integral")
        return int(nearest)

    def float_value(self, name: str) -> float:
        return float(self.values[name])


@dataclass(frozen=True)
class ExternalBackend:
    """Command template with {input}/{output} placeholders, e.g.
    'cbc {input} solve solu {output}'."""

    command: str
    timeout: float = 600.0

    def run(self, lp_text: str) -> tuple[str, str]:
        """Returns (solution file text, solver log)."""
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
                    timeout=self.timeout,
                )
            except subprocess.TimeoutExpired as exc:
                raise SolverFailure(
                    f"external solver exceeded {self.timeout}s"
                ) from exc
            log = (proc.stdout or "") + (proc.stderr or "")
            if proc.returncode != 0:
                raise SolverFailure(
                    f"external solver exited with {proc.returncode}: {log[-2000:]}"
                )
            if not sol_path.exists():
                raise SolverFailure("external solver wrote no solution file")
            return sol_path.read_text(), log


def _to_fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except ValueError as exc:
        raise SolverFailure(f"solution value {text!r} is not a number") from exc


def parse_solution_text(text: str) -> Solution:
    """Auto-detect and parse a solution file.

    Supported formats: the CBC style ('Optimal - objective value V' header
    followed by 'index name value reduced-cost' rows) and bare 'name value'
    pairs with optional '#' comments (a comment naming 'infeasible' marks
    the answer infeasible).  Any objective value in the file is ignored."""
    lines = [ln.rstrip("\n") for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise SolverFailure("empty solution file")
    head = lines[0].strip()
    lowered = head.lower()
    if lowered.startswith(("optimal", "infeasible", "unbounded", "stopped")):
        status = OPTIMAL if lowered.startswith("optimal") else INFEASIBLE
        if lowered.startswith("stopped"):
            status = TIMEOUT
        values: dict[str, Fraction] = {}
        for ln in lines[1:]:
            parts = ln.split()
            if len(parts) >= 3 and parts[0].lstrip("*").isdigit():
                values[parts[1]] = _to_fraction(parts[2])
            elif len(parts) == 2:
                values[parts[0]] = _to_fraction(parts[1])
        return Solution(status, values)
    # name/value pairs
    status = OPTIMAL
    values = {}
    for ln in lines:
        stripped = ln.strip()
        if stripped.startswith("#"):
            if "infeasible" in stripped.lower():
                status = INFEASIBLE
            continue
        parts = stripped.split()
        if len(parts) != 2:
            raise SolverFailure(f"cannot parse solution line {ln!r}")
        values[parts[0]] = _to_fraction(parts[1])
    return Solution(status, values)


def solve_highs(model: MILPModel, time_limit: float | None = None) -> Solution:
    """Solve with HiGHS in-process; the time limit is enforced inside HiGHS,
    and covers both passes when an answer is checked with presolve off.

    Returns an optimal or infeasible Solution (values not yet checked) and
    raises SolverFailure on any other outcome, time limit included.  An
    integer variable's bounds are rounded inward first, so HiGHS never
    answers with an integer at a fractional bound."""
    # imported here: scipy.optimize costs ~0.6 s, which only this path pays
    from scipy.optimize import Bounds, LinearConstraint, milp
    from scipy.sparse import csr_array

    variables = model.variables
    index = {v.name: i for i, v in enumerate(variables)}
    integral = [v.kind != CONTINUOUS for v in variables]
    lbs = [math.ceil(v.lb) if i else v.lb for v, i in zip(variables, integral)]
    ubs = [math.floor(v.ub) if i else v.ub for v, i in zip(variables, integral)]
    for v, lb, ub in zip(variables, lbs, ubs):
        if lb > ub:
            return Solution(INFEASIBLE, log=(
                f"HiGHS not called: no integer lies in the bounds of {v.name}\n"))

    rows = model.constraints
    indptr, indices, data, lo, hi = [0], [], [], [], []
    for con in rows:
        for name, coef in con.coeffs:
            indices.append(index[name])
            data.append(coef)
        indptr.append(len(indices))
        lo.append(-math.inf if con.sense == LE else con.rhs)
        hi.append(math.inf if con.sense == GE else con.rhs)
    a = csr_array((data, indices, indptr), shape=(len(rows), len(variables)))
    constraints = [LinearConstraint(a, lo, hi)] if rows else []

    # no MIP gap option: with a zero cost any feasible point closes the gap
    options = {} if time_limit is None else {"time_limit": time_limit}

    def attempt(**extra):
        return milp(
            [0.0] * len(variables),
            constraints=constraints,
            integrality=integral,
            bounds=Bounds(lbs, ubs),
            options={**options, **extra},
        )

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
           f"gap={res.get('mip_gap')}: {res.message}\n")
    if res.status == 2:
        return Solution(INFEASIBLE, log=log)
    if res.status != 0:
        raise SolverFailure(f"HiGHS stopped without an answer: {res.message}")
    # shortest round-trip decimals keep the exact check's rationals small
    values = {v.name: Fraction(repr(float(x))) for v, x in zip(variables, res.x)}
    return Solution(OPTIMAL, values, log=log)


def solve(
    model: MILPModel,
    backend: ExternalBackend | str = "mini",
    time_limit: float | None = None,
    polish=None,
) -> Solution:
    """Find a feasible point of the model and return it as a Solution that
    passed the residual check (absolute tolerance 1e-6).

    backend is 'highs' (in-process HiGHS), 'mini' (built-in exact solver)
    or an ExternalBackend.  Infeasibility is a status, not an error.  An
    optional polish callable (model, solution) may clean the raw values in
    place before verification (for example exact recomputation of
    dependent continuous variables)."""
    if backend == "highs":
        sol = solve_highs(model, time_limit)
        if sol.status == INFEASIBLE:
            return sol
    elif backend == "mini":
        try:
            outcome = solve_exact(model, time_limit=time_limit)
        except MiniSolverError as exc:
            raise SolverFailure(f"mini-solver failed: {exc}") from exc
        log = f"mini-solver nodes={outcome.nodes} pivots={outcome.pivots}"
        if outcome.status == "infeasible":
            return Solution(INFEASIBLE, log=log)
        if outcome.status == "timeout":
            raise SolverFailure("mini-solver hit its time or node limit")
        sol = Solution(OPTIMAL, dict(outcome.values), log=log)
    elif isinstance(backend, str):
        raise ValueError(f"unknown backend {backend!r}")
    else:
        if time_limit is not None:
            backend = ExternalBackend(backend.command, time_limit)
        sol_text, log = backend.run(emit_lp(model))
        sol = parse_solution_text(sol_text)
        sol.log = log
        if sol.status == INFEASIBLE:
            return Solution(INFEASIBLE, log=log)
        if sol.status == TIMEOUT:
            raise SolverFailure("external solver stopped before completion")
    for v in model.variables:
        sol.values.setdefault(v.name, Fraction(0))
    if polish is not None:
        polish(model, sol)
    problems = check_solution(model, sol.values)
    if problems:
        raise SolutionCheckError(
            "solution fails verification: " + "; ".join(problems[:10])
        )
    return sol
