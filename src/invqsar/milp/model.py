"""Mixed-integer linear feasibility model store, CPLEX-LP text emission
and exact residual checks.

A model has variables and rows but no objective: the inverse problem asks
for any point in the target window.  The LP text still carries an empty
`Minimize` section, since LP readers require one.

The model is an indexed store.  `add_var` gives each variable the next
column index and finite bounds (it and `fix_var` reject any other bound).
`add_constr` checks a row, resolves each term's variable name to its
column once, and appends the row in compressed sparse row form:
`indices` and `data` hold every row's column indices and float
coefficients, row r's terms are positions `indptr[r]:indptr[r + 1]`, and
`row_names`, `row_senses` and `row_rhs` hold the rest.  HiGHS gets these
lists as they are; the LP emitter, the residual check, the solution polish
and the exact solver read rows by column index (`rows()`).  `variables`
gives the stored `Var` records; `constraints` and `constraint(name)` make
`Constraint` records, with the terms as (name, coefficient) pairs, when
asked for.

Emission is deterministic: two builds from the same inputs produce
byte-identical text.  Every coefficient is written with shortest
round-trip float formatting, so the text carries the model exactly.

The residual check is exact.  Most rows have integral coefficients and
right-hand sides, and after polishing every integer variable is integral,
so those rows are summed in Python ints; each of the rest (normalization,
prediction and mass rows, fractional values) is summed as one int over the
least common denominator of its terms.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Iterator, Mapping
from fractions import Fraction
from typing import NamedTuple

BINARY = "binary"
INTEGER = "integer"
CONTINUOUS = "continuous"

LE = "<="
GE = ">="
EQ = "="

# the residual check's default absolute tolerance, which solve() applies
# to every answer
CHECK_TOL = 1e-6


class ModelError(ValueError):
    pass


def fmt_num(v: float) -> str:
    """A finite float as LP text: an int when integral, else repr."""
    if v == int(v) and abs(v) < 1e15:
        return str(int(v))
    return repr(v)


class Var(NamedTuple):
    name: str
    kind: str
    lb: float
    ub: float


class Constraint(NamedTuple):
    name: str
    coeffs: tuple[tuple[str, float], ...]
    sense: str
    rhs: float


class MILPModel:
    """The indexed store (see the module docstring).  The row lists are
    read-only outside `add_constr`, which appends to all of them."""

    def __init__(self, name: str = "model") -> None:
        self.name = name
        self.metadata: dict[str, str] = {}
        self._vars: list[Var] = []
        self._col: dict[str, int] = {}  # variable name -> column index
        self._row: dict[str, int] = {}  # row name -> row index
        self.row_names: list[str] = []
        self.row_senses: list[str] = []
        self.row_rhs: list[float] = []
        self.indptr: list[int] = [0]
        self.indices: list[int] = []
        self.data: list[float] = []

    # -- construction -----------------------------------------------------

    def add_var(self, name: str, kind: str = CONTINUOUS,
                lb: float = 0.0, ub: float = math.inf) -> str:
        """The default upper bound suits only a binary: its bounds are
        clamped to [0, 1], and no variable may keep an infinite one."""
        # an ASCII identifier is exactly [A-Za-z_][A-Za-z0-9_]*
        if not (name.isascii() and name.isidentifier()):
            raise ModelError(f"bad variable name {name!r}")
        if name in self._col:
            raise ModelError(f"duplicate variable {name!r}")
        if kind not in (BINARY, INTEGER, CONTINUOUS):
            raise ModelError(f"unknown variable kind {kind!r}")
        var = _checked_var(name, kind, lb, ub)
        self._col[name] = len(self._vars)
        self._vars.append(var)
        return name

    def add_constr(self, name: str, coeffs, sense: str, rhs: float) -> str:
        """Append the row sum(coeffs) <sense> rhs.  coeffs is a mapping or
        a sequence of (variable name, coefficient) pairs; zero coefficients
        are dropped.  Each term is checked in order, and the first faulty
        one is reported; a rejected row leaves the model unchanged."""
        if not (name.isascii() and name.isidentifier()):
            raise ModelError(f"bad constraint name {name!r}")
        if name in self._row:
            raise ModelError(f"duplicate constraint {name!r}")
        if sense not in (LE, GE, EQ):
            raise ModelError(f"bad sense {sense!r}")
        col, isfinite = self._col, math.isfinite
        seen: set[int] = set()
        cols: list[int] = []
        vals: list[float] = []
        items = getattr(coeffs, "items", None)
        for var, c in coeffs if items is None else items():
            j = col.get(var)
            if j is None:
                raise ModelError(f"constraint {name} references unknown {var!r}")
            if j in seen:
                raise ModelError(f"constraint {name} repeats variable {var!r}")
            seen.add(j)
            c = float(c)
            if c != 0.0:
                if not isfinite(c):
                    raise ModelError(f"constraint {name} has coefficient {c} on {var}")
                cols.append(j)
                vals.append(c)
        if not cols:
            raise ModelError(f"constraint {name} has no nonzero terms")
        rhs = float(rhs)
        if not isfinite(rhs):
            raise ModelError(f"constraint {name} has right-hand side {rhs}")
        self._row[name] = len(self.row_names)
        self.row_names.append(name)
        self.row_senses.append(sense)
        self.row_rhs.append(rhs)
        self.indices += cols
        self.data += vals
        self.indptr.append(len(self.indices))
        return name

    # -- access ------------------------------------------------------------

    @property
    def variables(self) -> tuple[Var, ...]:
        return tuple(self._vars)

    def rows(self) -> Iterator[tuple[str, int, int, str, float]]:
        """Each row as (name, start, end, sense, rhs); its terms are
        positions start:end of `indices` and `data`."""
        return zip(self.row_names, self.indptr, self.indptr[1:],
                   self.row_senses, self.row_rhs)

    @property
    def constraints(self) -> tuple[Constraint, ...]:
        names = [v.name for v in self._vars]
        terms = list(zip(map(names.__getitem__, self.indices), self.data))
        return tuple(Constraint(name, tuple(terms[start:end]), sense, rhs)
                     for name, start, end, sense, rhs in self.rows())

    def exact_data(self) -> list[int | Fraction]:
        """The exact value of each entry of `data`: an int when it is
        integral, else a Fraction.  Each distinct coefficient is converted
        once."""
        exact = {c: int(c) if c.is_integer() else Fraction(c) for c in set(self.data)}
        return list(map(exact.__getitem__, self.data))

    def constraint(self, name: str) -> Constraint:
        r = self._row[name]
        start, end = self.indptr[r], self.indptr[r + 1]
        variables = self._vars
        terms = tuple((variables[j].name, c) for j, c in
                      zip(self.indices[start:end], self.data[start:end]))
        return Constraint(name, terms, self.row_senses[r], self.row_rhs[r])

    def has_constr(self, name: str) -> bool:
        return name in self._row

    def var(self, name: str) -> Var:
        return self._vars[self._col[name]]

    def has_var(self, name: str) -> bool:
        return name in self._col

    def n_integer(self) -> int:
        return sum(1 for v in self._vars if v.kind != CONTINUOUS)

    def fix_var(self, name: str, value: float) -> None:
        j = self._col[name]
        self._vars[j] = _checked_var(name, self._vars[j].kind, value, value)


def _checked_var(name: str, kind: str, lb: float, ub: float) -> Var:
    """The variable with float bounds, a binary's clamped to [0, 1]; NaN,
    crossing and infinite bounds raise ModelError, in that order."""
    lb, ub = float(lb), float(ub)
    if math.isnan(lb) or math.isnan(ub):
        raise ModelError(f"variable {name} has a NaN bound")
    if kind == BINARY:
        lb = max(0.0, lb)
        ub = min(1.0, ub)
    if lb > ub:
        raise ModelError(f"variable {name}: lower bound {lb} above upper {ub}")
    if math.isinf(lb) or math.isinf(ub):
        what = "variable" if kind == CONTINUOUS else "integer variable"
        raise ModelError(f"{what} {name} must have finite bounds")
    return Var(name, kind, lb, ub)


def emit_lp(model: MILPModel) -> str:
    """Serialize to CPLEX LP text with deterministic ordering."""
    out = [f"\\ model {model.name}"]
    out += [f"\\ meta {key} {model.metadata[key]}" for key in sorted(model.metadata)]
    out += ["Minimize", " obj:", "Subject To"]
    # rhs values and bounds are mostly 0, 1 or a small int: each distinct
    # one is formatted once
    num = functools.cache(fmt_num)

    variables = model.variables
    names = [v.name for v in variables]
    # every term as it follows another one (" + 0.5 x", " - 1 y"), with
    # each distinct coefficient formatted once
    signed = {c: f" - {fmt_num(-c)} " if c < 0 else f" + {fmt_num(c)} "
              for c in set(model.data)}
    terms = [signed[c] + names[j] for j, c in zip(model.indices, model.data)]
    for name, start, end, sense, rhs in model.rows():
        # a row's first term drops the " + " or the space before "- "
        first = terms[start]
        first = first[3:] if first[1] == "+" else first[1:]
        out.append(f" {name}: {first}{''.join(terms[start + 1:end])} "
                   f"{sense} {num(rhs)}")
    out.append("Bounds")
    # every variable is listed so declaration order survives a round trip
    out.extend(f" {num(v.lb)} <= {v.name} <= {num(v.ub)}" for v in variables)
    generals = [v.name for v in variables if v.kind == INTEGER]
    binaries = [v.name for v in variables if v.kind == BINARY]
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
    tol: float = CHECK_TOL,
) -> list[str]:
    """All violations above tol (non-negative), in exact arithmetic: bounds
    and integrality first, and the rows only if every value passed those.

    Each row's signed violation is `lhs - rhs` for <=, `rhs - lhs` for >=
    and `|lhs - rhs|` for =.  An integral value is held as an int; a row
    whose coefficients and right-hand side are integral floats and whose
    values are all integral is summed in ints, every other row as one int
    over the least common denominator of its terms.  Both give the same
    exact verdict and message."""
    if tol < 0:
        raise ValueError(f"tolerance {tol} is negative")
    problems: list[str] = []
    ftol = Fraction(repr(tol)) if isinstance(tol, float) else Fraction(tol)
    variables = model.variables
    ints: list[int | None] = []  # by column: the value if integral
    for v in variables:
        if v.name not in values:
            problems.append(f"missing value for {v.name}")
            continue
        val = values[v.name]
        n = val.numerator if val.denominator == 1 else None
        ints.append(n)
        # an int compares with a float bound exactly, so an integral value
        # inside its bounds needs no Fraction; it is integral, too
        if (n is None or n < v.lb) and val < Fraction(v.lb) - ftol:
            problems.append(f"{v.name} = {float(val)} below lower bound {v.lb}")
        if (n is None or n > v.ub) and val > Fraction(v.ub) + ftol:
            problems.append(f"{v.name} = {float(val)} above upper bound {v.ub}")
        if (n is None and v.kind in (BINARY, INTEGER)
                and abs(val - round(val)) > ftol):
            problems.append(f"{v.name} = {float(val)} is not integral")
    if problems:
        return problems
    vals = [values[v.name] for v in variables]
    indices, coefs = model.indices, model.exact_data()
    tol_num, tol_den = ftol.numerator, ftol.denominator
    # each term's product in ints when its coefficient and value are integral
    products = [c * n if n is not None and type(c) is int else None
                for c, n in zip(coefs, map(ints.__getitem__, indices))]
    for name, start, end, sense, rhs in model.rows():
        terms = products[start:end]
        if rhs.is_integer() and None not in terms:
            lhs = sum(terms)
            rhs = int(rhs)
            den = 1
        else:
            # one integer sum over the least common denominator
            nums, dens = [], []
            for j, c in zip(indices[start:end], coefs[start:end]):
                v = vals[j]
                nums.append(c.numerator * v.numerator)
                dens.append(c.denominator * v.denominator)
            rhs, rhs_den = rhs.as_integer_ratio()
            den = math.lcm(rhs_den, *dens)
            lhs = sum(n * (den // d) for n, d in zip(nums, dens))
            rhs *= den // rhs_den
        # the residual is resid / den
        if sense == LE:
            resid = lhs - rhs
        elif sense == GE:
            resid = rhs - lhs
        else:
            resid = abs(lhs - rhs)
        if resid * tol_den > tol_num * den:
            problems.append(
                f"constraint {name} violated by {float(Fraction(resid, den))}")
    return problems
