"""Mixed-integer linear feasibility model container, CPLEX-LP text emission
and exact residual checks.

A model has variables and rows but no objective: the inverse problem asks
for any point in the target window.  The LP text still carries an empty
`Minimize` section, since LP readers require one.

Emission is deterministic: two builds from the same inputs produce
byte-identical text.  Every coefficient is written with shortest
round-trip float formatting, so the text carries the model exactly.

The residual check is exact.  Most rows have integral coefficients and
right-hand sides, and after polishing every integer variable is integral,
so those rows are summed in Python ints; the rest (normalization,
prediction and mass rows, fractional values) are summed in Fractions.
"""

from __future__ import annotations

import math
import re
from collections.abc import Mapping
from dataclasses import dataclass, field
from fractions import Fraction

BINARY = "binary"
INTEGER = "integer"
CONTINUOUS = "continuous"

_NAME_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")

LE = "<="
GE = ">="
EQ = "="


class ModelError(ValueError):
    pass


def fmt_num(v: float) -> str:
    if v != v or math.isinf(v):
        raise ModelError(f"cannot emit non-finite coefficient {v}")
    if v == int(v) and abs(v) < 1e15:
        return str(int(v))
    return repr(v)


@dataclass(frozen=True)
class Var:
    name: str
    kind: str
    lb: float
    ub: float


@dataclass(frozen=True)
class Constraint:
    name: str
    coeffs: tuple[tuple[str, float], ...]
    sense: str
    rhs: float


@dataclass
class MILPModel:
    name: str = "model"
    metadata: dict[str, str] = field(default_factory=dict)
    _vars: dict[str, Var] = field(default_factory=dict)
    _constrs: list[Constraint] = field(default_factory=list)
    _constr_names: set[str] = field(default_factory=set)

    # -- construction -----------------------------------------------------

    def add_var(self, name: str, kind: str = CONTINUOUS,
                lb: float = 0.0, ub: float = math.inf) -> str:
        if not _NAME_RE.match(name):
            raise ModelError(f"bad variable name {name!r}")
        if name in self._vars:
            raise ModelError(f"duplicate variable {name!r}")
        if kind not in (BINARY, INTEGER, CONTINUOUS):
            raise ModelError(f"unknown variable kind {kind!r}")
        if kind == BINARY:
            lb = max(0.0, float(lb))
            ub = min(1.0, float(ub))
        lb, ub = float(lb), float(ub)
        if math.isnan(lb) or math.isnan(ub):
            raise ModelError(f"variable {name} has a NaN bound")
        if lb > ub:
            raise ModelError(f"variable {name}: lower bound {lb} above upper {ub}")
        if kind in (BINARY, INTEGER) and (math.isinf(lb) or math.isinf(ub)):
            raise ModelError(f"integer variable {name} must have finite bounds")
        self._vars[name] = Var(name, kind, lb, ub)
        return name

    def add_constr(self, name: str, coeffs, sense: str, rhs: float) -> str:
        if not _NAME_RE.match(name):
            raise ModelError(f"bad constraint name {name!r}")
        if name in self._constr_names:
            raise ModelError(f"duplicate constraint {name!r}")
        if sense not in (LE, GE, EQ):
            raise ModelError(f"bad sense {sense!r}")
        items = list(coeffs.items()) if isinstance(coeffs, Mapping) else list(coeffs)
        seen: set[str] = set()
        cleaned: list[tuple[str, float]] = []
        for var, c in items:
            if var not in self._vars:
                raise ModelError(f"constraint {name} references unknown {var!r}")
            if var in seen:
                raise ModelError(f"constraint {name} repeats variable {var!r}")
            seen.add(var)
            c = float(c)
            if c != 0.0:
                if not math.isfinite(c):
                    raise ModelError(f"constraint {name} has coefficient {c} on {var}")
                cleaned.append((var, c))
        if not cleaned:
            raise ModelError(f"constraint {name} has no nonzero terms")
        rhs = float(rhs)
        if not math.isfinite(rhs):
            raise ModelError(f"constraint {name} has right-hand side {rhs}")
        self._constrs.append(Constraint(name, tuple(cleaned), sense, rhs))
        self._constr_names.add(name)
        return name

    # -- access ------------------------------------------------------------

    @property
    def variables(self) -> tuple[Var, ...]:
        return tuple(self._vars.values())

    @property
    def constraints(self) -> tuple[Constraint, ...]:
        return tuple(self._constrs)

    def var(self, name: str) -> Var:
        return self._vars[name]

    def has_var(self, name: str) -> bool:
        return name in self._vars

    def n_integer(self) -> int:
        return sum(1 for v in self._vars.values() if v.kind != CONTINUOUS)

    def fix_var(self, name: str, value: float) -> None:
        old = self._vars[name]
        self._vars[name] = Var(old.name, old.kind, float(value), float(value))


def emit_lp(model: MILPModel) -> str:
    """Serialize to CPLEX LP text with deterministic ordering."""
    out: list[str] = []
    out.append(f"\\ model {model.name}")
    for key in sorted(model.metadata):
        out.append(f"\\ meta {key} {model.metadata[key]}")
    out.append("Minimize")
    out.append(" obj:")
    out.append("Subject To")
    # coefficient -> its term prefixes as a row's first term and as a later
    # one ("- 1 " and " - 1 ", "0.5 " and " + 0.5 "), each formatted once
    prefixes: dict[float, tuple[str, str]] = {}
    for con in model.constraints:
        terms = []
        for var, c in con.coeffs:
            pair = prefixes.get(c)
            if pair is None:
                mag = fmt_num(abs(c))
                pair = prefixes[c] = ((f"- {mag} ", f" - {mag} ") if c < 0
                                      else (f"{mag} ", f" + {mag} "))
            terms.append(pair[1] + var if terms else pair[0] + var)
        out.append(f" {con.name}: {''.join(terms)} {con.sense} {fmt_num(con.rhs)}")
    out.append("Bounds")
    # every variable is listed so declaration order survives a round trip
    for v in model.variables:
        if math.isinf(v.lb) and math.isinf(v.ub):
            out.append(f" {v.name} free")
        elif math.isinf(v.ub):
            out.append(f" {v.name} >= {fmt_num(v.lb)}")
        elif math.isinf(v.lb):
            out.append(f" {v.name} <= {fmt_num(v.ub)}")
        else:
            out.append(f" {fmt_num(v.lb)} <= {v.name} <= {fmt_num(v.ub)}")
    generals = [v.name for v in model.variables if v.kind == INTEGER]
    binaries = [v.name for v in model.variables if v.kind == BINARY]
    if generals:
        out.append("Generals")
        out.extend(f" {name}" for name in generals)
    if binaries:
        out.append("Binaries")
        out.extend(f" {name}" for name in binaries)
    out.append("End")
    return "\n".join(out) + "\n"


# -- exact residual checking ----------------------------------------------


def check_solution(
    model: MILPModel,
    values: Mapping[str, Fraction],
    tol: float = 1e-6,
) -> list[str]:
    """All violations above tol (non-negative), in exact arithmetic: bounds
    and integrality first, and the rows only if every value passed those.

    Each row's signed violation is `lhs - rhs` for <=, `rhs - lhs` for >=
    and `|lhs - rhs|` for =.  An integral value is held as an int; a row
    whose coefficients and right-hand side are integral floats and whose
    values are all integral is summed in ints, every other row and value
    in Fractions.  Both give the same exact verdict and message."""
    if tol < 0:
        raise ValueError(f"tolerance {tol} is negative")
    problems: list[str] = []
    ftol = Fraction(repr(tol)) if isinstance(tol, float) else Fraction(tol)
    ints: dict[str, int] = {}
    for v in model.variables:
        if v.name not in values:
            problems.append(f"missing value for {v.name}")
            continue
        val = values[v.name]
        n = val.numerator if val.denominator == 1 else None
        if n is not None:
            ints[v.name] = n
        # an int compares with a float bound exactly, so an integral value
        # inside its bounds needs no Fraction; it is integral, too
        if ((n is None or n < v.lb) and not math.isinf(v.lb)
                and val < Fraction(v.lb) - ftol):
            problems.append(f"{v.name} = {float(val)} below lower bound {v.lb}")
        if ((n is None or n > v.ub) and not math.isinf(v.ub)
                and val > Fraction(v.ub) + ftol):
            problems.append(f"{v.name} = {float(val)} above upper bound {v.ub}")
        if (n is None and v.kind in (BINARY, INTEGER)
                and abs(val - round(val)) > ftol):
            problems.append(f"{v.name} = {float(val)} is not integral")
    if problems:
        return problems
    for con in model.constraints:
        lhs = 0
        integral = con.rhs.is_integer()
        if integral:
            for name, c in con.coeffs:
                n = ints.get(name)
                if n is None or not c.is_integer():
                    integral = False
                    break
                lhs += int(c) * n
        if integral:
            rhs = int(con.rhs)
        else:
            lhs = sum(Fraction(c) * values[name] for name, c in con.coeffs)
            rhs = Fraction(con.rhs)
        if con.sense == LE:
            resid = lhs - rhs
        elif con.sense == GE:
            resid = rhs - lhs
        else:
            resid = abs(lhs - rhs)
        # most rows hold with resid <= 0, and an int compared with 0 makes
        # no Fraction
        if resid > 0 and resid > ftol:
            problems.append(f"constraint {con.name} violated by {float(resid)}")
    return problems
