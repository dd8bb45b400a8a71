"""Built-in exact MILP feasibility solver: rational depth-first branch and
bound over LP relaxations.

All arithmetic is exact, so feasibility and infeasibility conclusions
carry no rounding error.  Integral values (most coefficients,
every integer bound, the integer-scaled tableau rows) are Python ints, and
a `Fraction` is made only where a value is fractional; every division goes
through `Fraction`, since `int / int` would give a float.  Keeping rational
arithmetic off the paths that do not need it follows Applegate, Cook, Dash
& Espinoza, "Exact solutions to linear programming problems" (2007).
Returned values are Fractions, and every variable starts in a finite box
(`MILPModel.add_var` rejects an infinite bound).  Intended for models up to
a few hundred integer variables; larger models go to in-process HiGHS, the
CLI's default backend.

Models have no objective, so the search looks for any integral point.  Per
node: bound propagation and elimination presolve, then a phase-1
bounded-variable simplex that finds a point of the reduced LP relaxation
or proves it empty, then branching on a fractional integer variable.  The
search stops at the first integral point, or proves that none exists once
every node is closed.  Only the root presolves the whole model: a child
presolves its parent's reduced problem with the one new branching bound,
and an answer is restored through the node's own reduction and then each
ancestor's, innermost first.  When the parent's presolve eliminated the
branching column, the child presolves the whole model again, with every
branching bound above it.

Presolve fixes columns with equal bounds, turns one-column rows into
bounds, drops rows that cannot be violated, and eliminates columns: a
column in one row only, and one column of each two-column equality
a*x_j + b*x_k = r, which is substituted out of every other row as
x_k = (r - a*x_j)/b while its bounds move onto x_j (doubleton
aggregation: Andersen & Andersen, "Presolving in linear programming",
1995; Achterberg, Bixby, Gu, Rothberg & Weninger, "Presolve reductions in
mixed integer programming", 2020).  A continuous x_k goes when the row
has one; an integer x_k only when b = +-1 and a, r and x_j are integral,
so every integral x_j gives an integral x_k.  Eliminated columns are
restored in reverse order from the LP point.  A row is tested for
redundancy again only after its coefficients or a bound of one of its
columns changed.

Bound propagation is event-driven (Savelsbergh 1994; Achterberg 2007,
sec. 7.1): a row is revisited only after a bound of one of its variables
moved, and a continuous bound moves only by a step over 5% of its domain
width.  A row's activity bounds are summed on its first visit and kept
current as bounds move, not summed again at each visit.  After an
elimination round only the rows of the columns whose bounds moved are
revisited.  This is a relaxation choice: stopping early leaves an LP
relaxation looser but never cuts off a feasible point, so every answer
stays exact.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass, field
from fractions import Fraction
from math import ceil, floor, gcd, lcm

from .model import CONTINUOUS, LE, GE, MILPModel

# An exact value: an int when integral, else a Fraction.
Num = int | Fraction

BIG = 10**30
# simplex iterations allowed per LP relaxation
SIMPLEX_ITERATION_LIMIT = 50_000


def _exact(x: float) -> Num:
    """The exact value of a float, as an int when it is integral."""
    return int(x) if x.is_integer() else Fraction(x)


def _quotient(a: Num, b: Num) -> Num:
    """a / b exactly, as an int when b divides a."""
    q = Fraction(a, b)
    return q.numerator if q.denominator == 1 else q


class SolverTimeout(Exception):
    """The deadline passed; `pivots` counts those of an interrupted LP."""

    def __init__(self, pivots: int = 0):
        super().__init__(pivots)
        self.pivots = pivots


class MiniSolverError(Exception):
    pass


@dataclass
class PVar:
    name: str
    lb: Num
    ub: Num
    is_int: bool


@dataclass
class PRow:
    coeffs: dict[int, Num]
    lo: Num | None  # None = -inf
    hi: Num | None  # None = +inf


@dataclass
class Problem:
    variables: list[PVar]
    rows: list[PRow]

    @staticmethod
    def from_model(model: MILPModel) -> "Problem":
        # every model variable has finite bounds (MILPModel.add_var)
        pvars = [PVar(v.name, _exact(v.lb), _exact(v.ub), v.kind != CONTINUOUS)
                 for v in model.variables]
        indices, exact = model.indices, model.exact_data()
        rows = []
        for _, start, end, sense, rhs in model.rows():
            coeffs = dict(zip(indices[start:end], exact[start:end]))
            rhs = _exact(rhs)
            if sense == LE:
                rows.append(PRow(coeffs, None, rhs))
            elif sense == GE:
                rows.append(PRow(coeffs, rhs, None))
            else:
                rows.append(PRow(coeffs, rhs, rhs))
        return Problem(pvars, rows)


@dataclass
class SolveOutcome:
    status: str  # optimal | infeasible | timeout
    values: dict[str, Fraction] = field(default_factory=dict)
    nodes: int = 0
    pivots: int = 0  # simplex pivots summed over all nodes


# -- presolve ----------------------------------------------------------------


class _Infeasible(Exception):
    pass


def _activity_bounds(row: PRow, lbs, ubs):
    amin = 0
    amax = 0
    for j, c in row.coeffs.items():
        if c > 0:
            amin += c * lbs[j]
            amax += c * ubs[j]
        else:
            amin += c * ubs[j]
            amax += c * lbs[j]
    return amin, amax


# A continuous bound moves only by more than 1/CONTINUOUS_STEPS of its
# domain width.
CONTINUOUS_STEPS = 20


def _tighten_ub(v: PVar, limit: Num) -> bool:
    if v.is_int:
        limit = floor(limit)
    elif (v.ub - limit) * CONTINUOUS_STEPS <= v.ub - v.lb:
        return False
    if limit >= v.ub:
        return False
    v.ub = limit
    return True


def _tighten_lb(v: PVar, limit: Num) -> bool:
    if v.is_int:
        limit = ceil(limit)
    elif (limit - v.lb) * CONTINUOUS_STEPS <= v.ub - v.lb:
        return False
    if limit <= v.lb:
        return False
    v.lb = limit
    return True


def _propagate(
    variables: list[PVar], rows: list[PRow], moved: set[int] | None = None
) -> set[int]:
    """Tighten variable bounds in place from row activities and return the
    columns whose bounds moved; raises _Infeasible when some row cannot be
    met within the bounds.

    Event driven: every row is visited once in row order, and again only
    after a bound of one of its variables moved.  With `moved`, the
    columns whose bounds changed since the rows were last propagated, only
    their rows are visited first.  Continuous bounds move only by steps
    over 1/CONTINUOUS_STEPS of their width, and at most 10 * len(rows) row
    visits are made in all, so slowly converging cycles of continuous
    bounds stop early.  Stopping early only leaves the bounds looser;
    every bound kept is implied by the rows.

    A row's activity bounds are summed on its first visit and then kept
    current: a bound of x_j that moves by delta shifts one of them by
    c * delta in every visited row that holds x_j."""
    for v in variables:
        if v.lb > v.ub:
            raise _Infeasible
    col_rows: list[list[int]] = [[] for _ in variables]
    for r, row in enumerate(rows):
        for j in row.coeffs:
            col_rows[j].append(r)
    lbs = [v.lb for v in variables]
    ubs = [v.ub for v in variables]
    if moved is None:
        queue = deque(range(len(rows)))
    else:
        queue = deque(sorted({r for j in moved for r in col_rows[j]}))
    queued = [False] * len(rows)
    for r in queue:
        queued[r] = True
    # activity bounds of each visited row (None until its first visit)
    amins: list[Num | None] = [None] * len(rows)
    amaxs: list[Num] = [0] * len(rows)
    tightened: set[int] = set()
    visits = 10 * len(rows)
    while queue and visits:
        visits -= 1
        r = queue.popleft()
        queued[r] = False
        row = rows[r]
        amin, amax = amins[r], amaxs[r]
        if amin is None:
            amin, amax = amins[r], amaxs[r] = _activity_bounds(row, lbs, ubs)
        hi_slack = None if row.hi is None else row.hi - amin
        lo_slack = None if row.lo is None else amax - row.lo
        if (hi_slack is not None and hi_slack < 0) or (
            lo_slack is not None and lo_slack < 0
        ):
            raise _Infeasible
        for j, c in row.coeffs.items():
            v = variables[j]
            lb, ub = v.lb, v.ub
            # moving x_j across its domain shifts the activity by reach;
            # a side whose slack covers that cannot tighten x_j
            reach = abs(c) * (ub - lb)
            changed = False
            if hi_slack is not None and reach > hi_slack:
                if c > 0:
                    changed = _tighten_ub(v, lb + _quotient(hi_slack, c))
                else:
                    changed = _tighten_lb(v, ub + _quotient(hi_slack, c))
            if lo_slack is not None and reach > lo_slack:
                if c > 0:
                    changed |= _tighten_lb(v, ub - _quotient(lo_slack, c))
                else:
                    changed |= _tighten_ub(v, lb - _quotient(lo_slack, c))
            if not changed:
                continue
            if v.lb > v.ub:
                raise _Infeasible
            dlb, dub = v.lb - lbs[j], v.ub - ubs[j]
            lbs[j], ubs[j] = v.lb, v.ub
            tightened.add(j)
            for s in col_rows[j]:
                if amins[s] is not None:
                    cs = rows[s].coeffs[j]
                    if cs > 0:
                        amins[s] += cs * dlb
                        amaxs[s] += cs * dub
                    else:
                        amins[s] += cs * dub
                        amaxs[s] += cs * dlb
                if not queued[s]:
                    queued[s] = True
                    queue.append(s)
    return tightened


# Elimination rounds per node.  A round removes what the previous one
# exposed, and a chain of two-variable equalities loses one link per
# round, so this is sized well above the longest chain of the fixtures.
PRESOLVE_ROUNDS = 200

# Kinds of an eliminated column, undone in reverse order.
SINGLETON = 0  # in one row only: picked inside that row's range
PAIR = 1  # defined by an equality with one other column


@dataclass
class _Reduced:
    variables: list[PVar]
    rows: list[PRow]
    fixed: dict[int, Num]
    eliminated: list[tuple]
    keep: list[int]


def _pair_victim(row: PRow, variables: list[PVar], occurrences) -> tuple | None:
    """For an equality a*x_j + b*x_k = r, the (k, j) to substitute out by
    x_k = (r - a*x_j) / b, or None.  A continuous x_k is always eligible;
    an integer x_k only when b = +-1 and a, r and x_j are integral, so that
    every integral x_j gives an integral x_k.  Of two candidates the column
    in fewer rows goes, as it fills in fewer rows, and on a tie the later
    one (on square_chord the root LP then takes 101 pivots, not 137)."""
    (j1, c1), (j2, c2) = row.coeffs.items()
    eligible = [
        (occurrences[k], -k, k, j)
        for k, b, j, a in ((j1, c1, j2, c2), (j2, c2, j1, c1))
        if not variables[k].is_int
        or (
            abs(b) == 1
            and variables[j].is_int
            and a.denominator == 1
            and row.lo.denominator == 1
        )
    ]
    return min(eligible)[2:] if eligible else None


def _presolve(problem: Problem, bounds, deadline: float | None = None) -> _Reduced:
    variables = []
    for i, v in enumerate(problem.variables):
        lb, ub = v.lb, v.ub
        if i in bounds:
            blb, bub = bounds[i]
            lb, ub = max(lb, blb), min(ub, bub)
        variables.append(PVar(v.name, lb, ub, v.is_int))
    rows = [PRow(dict(r.coeffs), r.lo, r.hi) for r in problem.rows]
    # The rows each column is in.  Substitution adds columns to rows, and
    # every fill-in is appended here; a row a column has left stays
    # listed, and its coefficient lookup then finds nothing.
    col_rows: list[list[int]] = [[] for _ in variables]
    for r, row in enumerate(rows):
        for j in row.coeffs:
            col_rows[j].append(r)
    live = list(range(len(rows)))

    _propagate(variables, rows)

    fixed: dict[int, Num] = {}
    eliminated: list[tuple] = []
    gone: set[int] = set()
    # rows to test for redundancy: those whose coefficients, or the bounds
    # of whose columns, changed since their last test
    dirty = [True] * len(rows)
    for _ in range(PRESOLVE_ROUNDS):
        if deadline is not None and time.monotonic() > deadline:
            raise SolverTimeout
        changed = False
        # columns whose bounds a singleton row or a pair moved
        shifted: set[int] = set()
        # columns that shared a row with an eliminated column
        moved: set[int] = set()
        for i, v in enumerate(variables):
            if i in gone or v.lb != v.ub:
                continue
            fixed[i] = v.lb
            gone.add(i)
            changed = True
            for r in col_rows[i]:
                row = rows[r]
                c = row.coeffs.pop(i, None)
                if c is not None and v.lb:
                    if row.lo is not None:
                        row.lo -= c * v.lb
                    if row.hi is not None:
                        row.hi -= c * v.lb

        kept: list[int] = []
        occurrences: dict[int, int] = {}
        lbs = [v.lb for v in variables]
        ubs = [v.ub for v in variables]
        for r in live:
            row = rows[r]
            if not row.coeffs:
                if (row.lo is not None and row.lo > 0) or (
                    row.hi is not None and row.hi < 0
                ):
                    raise _Infeasible
                changed = True
                continue
            if len(row.coeffs) == 1:
                ((j, c),) = row.coeffs.items()
                v = variables[j]
                lo = None if row.lo is None else _quotient(row.lo, c)
                hi = None if row.hi is None else _quotient(row.hi, c)
                if c < 0:
                    lo, hi = hi, lo
                if lo is not None:
                    if v.is_int:
                        lo = ceil(lo)
                    if lo > v.lb:
                        v.lb = lo
                        shifted.add(j)
                if hi is not None:
                    if v.is_int:
                        hi = floor(hi)
                    if hi < v.ub:
                        v.ub = hi
                        shifted.add(j)
                if v.lb > v.ub:
                    raise _Infeasible
                changed = True
                continue
            if dirty[r]:
                dirty[r] = False
                amin, amax = _activity_bounds(row, lbs, ubs)
                lo_slack = row.lo is None or amin >= row.lo
                hi_slack = row.hi is None or amax <= row.hi
                if lo_slack and hi_slack:
                    changed = True
                    continue
            kept.append(r)
            for j in row.coeffs:
                occurrences[j] = occurrences.get(j, 0) + 1
        live = kept

        for r in live:
            row = rows[r]
            victim = None
            for j, c in row.coeffs.items():
                if occurrences.get(j, 0) != 1:
                    continue
                v = variables[j]
                if v.is_int:
                    if abs(c) != 1:
                        continue
                    ok = all(
                        variables[jj].is_int and row.coeffs[jj].denominator == 1
                        for jj in row.coeffs
                        if jj != j
                    )
                    ok = ok and (row.lo is None or row.lo.denominator == 1)
                    ok = ok and (row.hi is None or row.hi.denominator == 1)
                    if not ok:
                        continue
                victim = (j, c)
                break
            if victim is None:
                continue
            j, c = victim
            v = variables[j]
            rest = {jj: cc for jj, cc in row.coeffs.items() if jj != j}
            new_lo = None if row.lo is None else row.lo - max(c * v.lb, c * v.ub)
            new_hi = None if row.hi is None else row.hi - min(c * v.lb, c * v.ub)
            eliminated.append(
                (SINGLETON, j, c, row.lo, row.hi, dict(rest), v.lb, v.ub, v.is_int)
            )
            gone.add(j)
            row.coeffs = rest
            row.lo, row.hi = new_lo, new_hi
            dirty[r] = True
            moved.update(rest)
            changed = True

        # Two-variable equalities a*x_j + b*x_k = r: x_k := (r - a*x_j)/b in
        # every other row, and x_k's bounds move onto x_j.  Pairs that share
        # no column go in one round.
        used: set[int] = set()
        defining: set[int] = set()
        for r in live:
            row = rows[r]
            if row.lo is None or row.lo != row.hi or len(row.coeffs) != 2:
                continue
            if not used.isdisjoint(row.coeffs):
                continue
            pick = _pair_victim(row, variables, occurrences)
            if pick is None:
                continue
            k, j = pick
            used.update(row.coeffs)
            defining.add(r)
            a, b, rhs = row.coeffs[j], row.coeffs[k], row.lo
            for s in col_rows[k]:
                other = rows[s]
                c = other.coeffs.pop(k, None)
                if c is None or s == r:
                    continue
                shift = _quotient(c * rhs, b)
                if other.lo is not None:
                    other.lo -= shift
                if other.hi is not None:
                    other.hi -= shift
                cj = other.coeffs.get(j)
                if cj is None:
                    col_rows[j].append(s)
                    cj = 0
                cj -= _quotient(c * a, b)
                if cj:
                    other.coeffs[j] = cj
                else:
                    del other.coeffs[j]
                dirty[s] = True
            vk, vj = variables[k], variables[j]
            ends = (_quotient(rhs - b * vk.lb, a), _quotient(rhs - b * vk.ub, a))
            lo, hi = min(ends), max(ends)
            if vj.is_int:
                lo, hi = ceil(lo), floor(hi)
            if lo > vj.lb:
                vj.lb = lo
                shifted.add(j)
            if hi < vj.ub:
                vj.ub = hi
                shifted.add(j)
            if vj.lb > vj.ub:
                raise _Infeasible
            eliminated.append((PAIR, k, j, a, b, rhs))
            gone.add(k)
            moved.add(j)
            changed = True
        if defining:
            live = [r for r in live if r not in defining]

        if not changed:
            break
        # propagate from the rows of both, then test again for redundancy
        # the rows of every column whose bounds moved
        shifted |= _propagate(variables, [rows[r] for r in live], moved | shifted)
        for j in shifted:
            for r in col_rows[j]:
                dirty[r] = True

    keep = [i for i in range(len(variables)) if i not in gone]
    remap = {orig: new for new, orig in enumerate(keep)}
    red_vars = [variables[i] for i in keep]
    red_rows = []
    for r in live:
        row = rows[r]
        if not row.coeffs:
            if (row.lo is not None and row.lo > 0) or (
                row.hi is not None and row.hi < 0
            ):
                raise _Infeasible
            continue
        red_rows.append(
            PRow({remap[j]: c for j, c in row.coeffs.items()}, row.lo, row.hi)
        )
    return _Reduced(red_vars, red_rows, fixed, eliminated, keep)


def _undo_presolve(red: _Reduced, red_values) -> dict[int, Num]:
    values: dict[int, Num] = dict(red.fixed)
    for new, orig in enumerate(red.keep):
        values[orig] = red_values[new]
    for step in reversed(red.eliminated):
        if step[0] == PAIR:
            _, k, j, a, b, rhs = step
            values[k] = _quotient(rhs - a * values[j], b)
            continue
        _, j, c, lo, hi, rest, lb, ub, is_int = step
        rest_val = sum(cc * values[jj] for jj, cc in rest.items())
        lo_x = None if lo is None else _quotient(lo - rest_val, c)
        hi_x = None if hi is None else _quotient(hi - rest_val, c)
        if c < 0:
            lo_x, hi_x = hi_x, lo_x
        cand_lo = lb if lo_x is None else max(lb, lo_x)
        cand_hi = ub if hi_x is None else min(ub, hi_x)
        if cand_lo > cand_hi:
            raise MiniSolverError("internal error: singleton undo infeasible")
        val = cand_lo
        if is_int and val.denominator != 1:
            # prefer an integral value when the interval allows one;
            # a fractional pick is branched on later like any other
            rounded = ceil(val)
            if rounded <= cand_hi:
                val = rounded
        values[j] = val
    return values


# -- exact bounded-variable simplex ------------------------------------------

AT_LB = 0
AT_UB = 1


class _Simplex:
    """Phase-1 primal simplex with variable bounds on an exact tableau: it
    drives the artificial columns to zero, which finds a point of the LP,
    or stops with a positive sum, which proves the LP infeasible.

    Tableau rows are int vectors; a common row scale cancels out of every
    ratio, so rows are kept only up to scale (gcd-reduced).  The phase-1
    cost row is kept incrementally across pivots as ints over one common
    positive denominator.  Bounds and values are ints where integral and
    Fractions otherwise; the ratio test compares steps as integer cross
    products, and every value division goes through `Fraction`.
    """

    def __init__(self, red: _Reduced, deadline: float | None):
        self.deadline = deadline
        n = len(red.variables)
        m = len(red.rows)
        self.n_struct = n
        self.m = m
        self.lb: list[Num] = [v.lb for v in red.variables]
        self.ub: list[Num] = [v.ub for v in red.variables]
        # slack column per row carries the row range
        for row in red.rows:
            self.lb.append(row.lo if row.lo is not None else -BIG)
            self.ub.append(row.hi if row.hi is not None else BIG)
        # sparse integer rows (scale-free): column -> coefficient
        self.rows_num: list[dict[int, int]] = []
        ncols = n + m
        for r, row in enumerate(red.rows):
            denom = 1
            for c in row.coeffs.values():
                denom = lcm(denom, c.denominator)
            vec = {
                j: c.numerator * (denom // c.denominator)
                for j, c in row.coeffs.items()
                if c
            }
            vec[n + r] = -denom
            self.rows_num.append(vec)
        self.ncols = ncols
        self.basis: list[int] = list(range(n, n + m))
        self.in_basis: list[bool] = [False] * ncols
        for j in self.basis:
            self.in_basis[j] = True
        self.status = [AT_LB] * ncols
        self.values: list[Num] = [0] * ncols
        for j in range(n):
            self.values[j] = self.lb[j]
        self._set_basics_from_nonbasics()
        # phase-1 cost row kept as integers over one common positive denominator
        self.z_num: list[int] = [0] * ncols
        self.z_den: int = 1
        self.iterations = 0
        self.pivots = 0
        self.degenerate_streak = 0

    def _set_basics_from_nonbasics(self) -> None:
        for r in range(self.m):
            vec = self.rows_num[r]
            b = self.basis[r]
            total = 0
            for j, a in vec.items():
                if j != b and not self.in_basis[j]:
                    total += a * self.values[j]
            self.values[b] = _quotient(-total, vec[b])

    def add_artificials(self) -> list[int]:
        """Clamp basic slacks into range via artificial columns; returns
        the artificial column indices."""
        arts: list[int] = []
        for r in range(self.m):
            b = self.basis[r]
            val = self.values[b]
            if self.lb[b] <= val <= self.ub[b]:
                continue
            target = self.lb[b] if val < self.lb[b] else self.ub[b]
            # append artificial column a with row coefficient chosen so that
            # moving the slack to its bound leaves the artificial at |gap| >= 0
            gap = target - val  # slack must change by gap
            col = self.ncols
            # row holds sum_j vec[j] x_j = 0; with the slack moved to its
            # bound the artificial must absorb -vec[b]*gap, so its
            # coefficient is -vec[b]*sign(gap) and its value |gap|
            vec_b = self.rows_num[r][b]
            coef = -vec_b if gap > 0 else vec_b
            self.rows_num[r][col] = coef
            self.lb.append(0)
            self.ub.append(BIG)
            self.status.append(AT_LB)
            self.in_basis.append(False)
            self.values.append(abs(gap))
            # swap: artificial becomes basic, slack goes nonbasic at target
            self.basis[r] = col
            self.in_basis[col] = True
            self.in_basis[b] = False
            self.status[b] = AT_LB if target == self.lb[b] else AT_UB
            self.values[b] = target
            self.ncols += 1
            arts.append(col)
        return arts

    def set_phase1_costs(self) -> None:
        """Reduced costs of the phase-1 cost, the sum of the artificial
        columns, while every artificial is basic."""
        first_art = self.n_struct + self.m
        z: list[Num] = [0] * self.ncols
        for vec, b in zip(self.rows_num, self.basis):
            if b >= first_art:
                for j, a in vec.items():
                    if j != b:
                        z[j] += Fraction(-a, vec[b])
        den = lcm(*(f.denominator for f in z))
        self.z_den = den
        self.z_num = [f.numerator * (den // f.denominator) for f in z]

    def _normalize_zrow(self) -> None:
        g = self.z_den
        for a in self.z_num:
            if a:
                g = gcd(g, a)
                if g == 1:
                    return
        if g > 1:
            self.z_den //= g
            self.z_num = [a // g for a in self.z_num]

    def _pivot(self, pr: int, pc: int) -> None:
        rows_num = self.rows_num
        prow = rows_num[pr]
        piv = prow[pc]
        if piv == 0:
            raise MiniSolverError("zero pivot")
        self.pivots += 1
        zc = self.z_num[pc]
        if zc != 0:
            # z - (zc / piv) * prow over z_den * piv, with the common factor
            # of zc and piv taken out and the denominator kept positive
            g = gcd(piv, zc)
            scale, factor = piv // g, zc // g
            if scale < 0:
                scale, factor = -scale, -factor
            new_z = [a * scale for a in self.z_num] if scale != 1 else self.z_num
            for j, b in prow.items():
                new_z[j] -= factor * b
            self.z_num = new_z
            self.z_den *= scale
            if self.z_den.bit_length() > 256:
                self._normalize_zrow()
        others = [(j, b) for j, b in prow.items() if j != pc]
        for r, vec in enumerate(rows_num):
            if r == pr:
                continue
            factor = vec.pop(pc, 0)
            if factor == 0:
                continue
            # piv * vec - factor * prow, less the common factor of piv and
            # factor, then reduced by the gcd of its entries
            g = gcd(piv, factor)
            scale, factor = piv // g, factor // g
            new = {j: a * scale for j, a in vec.items()} if scale != 1 else vec
            for j, b in others:
                nv = new.get(j, 0) - factor * b
                if nv:
                    new[j] = nv
                else:
                    del new[j]
            g = gcd(*new.values())
            if g > 1:
                new = {j: a // g for j, a in new.items()}
            rows_num[r] = new
        leaving = self.basis[pr]
        self.basis[pr] = pc
        self.in_basis[leaving] = False
        self.in_basis[pc] = True
        self.z_num[pc] = 0

    def _ratio_test(self, pc: int, direction: int):
        """Longest step of column pc in `direction` that keeps every basic
        variable in its bounds, and the row that blocks it (None when the
        column reaches its own other bound first).  Ties go to the lowest
        basic column.

        Each candidate step gap * |d| / |num| is kept as an integer pair
        (p, q) with q > 0 and compared by cross products."""
        lb, ub, values, basis = self.lb, self.ub, self.values, self.basis
        width = ub[pc] - lb[pc]
        best_p, best_q = width.numerator, width.denominator
        best_row = None
        best_b = -1
        for r, vec in enumerate(self.rows_num):
            num = vec.get(pc)
            if not num:
                continue
            b = basis[r]
            d = vec[b]
            # x_b moves by -num / d per unit of x_pc: down to its lower
            # bound when num * d * direction > 0, else up to its upper one
            if num * d * direction > 0:
                top, base = values[b], lb[b]
            else:
                top, base = ub[b], values[b]
            gap_n = top.numerator * base.denominator - base.numerator * top.denominator
            p = gap_n * abs(d)
            q = top.denominator * base.denominator * abs(num)
            left = p * best_q
            right = best_p * q
            if left < right or (left == right and best_row is not None and b < best_b):
                best_p, best_q = p, q
                best_row = r
                best_b = b
        if best_p < 0:
            return 0, best_row
        return _quotient(best_p, best_q), best_row

    def optimize(self) -> None:
        """Minimize the current zrow cost from the current point."""
        lb, ub, values, basis = self.lb, self.ub, self.values, self.basis
        in_basis, status = self.in_basis, self.status
        while True:
            self.iterations += 1
            if self.iterations > SIMPLEX_ITERATION_LIMIT:
                raise MiniSolverError("simplex iteration limit exceeded")
            if self.deadline is not None and time.monotonic() > self.deadline:
                raise SolverTimeout(self.pivots)
            bland = self.degenerate_streak > 30
            chosen = None
            best_score = 0
            z = self.z_num
            for j in range(self.ncols):
                if in_basis[j] or lb[j] == ub[j]:
                    continue
                rc = z[j]
                if rc < 0 and status[j] == AT_LB:
                    score, direction = -rc, 1
                elif rc > 0 and status[j] == AT_UB:
                    score, direction = rc, -1
                else:
                    continue
                if bland:
                    chosen = (j, direction)
                    break
                if score > best_score:
                    best_score = score
                    chosen = (j, direction)
            if chosen is None:
                return
            pc, direction = chosen
            t, block = self._ratio_test(pc, direction)
            if t >= BIG:
                raise MiniSolverError("unbounded LP relaxation")
            self.degenerate_streak = 0 if t > 0 else self.degenerate_streak + 1
            if t > 0:
                # x_b += -num / d * direction * t, as one Fraction per row
                step_n = direction * t.numerator
                step_d = t.denominator
                for r, vec in enumerate(self.rows_num):
                    num = vec.get(pc)
                    if num:
                        b = basis[r]
                        v = values[b]
                        d = vec[b] * step_d
                        values[b] = _quotient(
                            v.numerator * d - num * step_n * v.denominator,
                            v.denominator * d,
                        )
            values[pc] = values[pc] + direction * t
            if block is None:
                status[pc] = AT_UB if direction > 0 else AT_LB
                continue
            leaving = basis[block]
            vec = self.rows_num[block]
            hit_ub = vec[pc] * vec[leaving] * direction < 0
            status[leaving] = AT_UB if hit_ub else AT_LB
            values[leaving] = ub[leaving] if hit_ub else lb[leaving]
            self._pivot(block, pc)


def _solve_lp(red: _Reduced, deadline):
    """Exact phase-1 LP solve; returns (a point of the LP or None when it
    is infeasible, simplex pivots)."""
    spx = _Simplex(red, deadline)
    arts = spx.add_artificials()
    if arts:
        spx.set_phase1_costs()
        spx.optimize()
        if sum(spx.values[a] for a in arts) > 0:
            return None, spx.pivots
    return spx.values[:len(red.variables)], spx.pivots


# -- branch and bound ---------------------------------------------------------


def solve_exact(
    model: MILPModel,
    time_limit: float | None = None,
    node_limit: int = 200_000,
) -> SolveOutcome:
    """Exact rational depth-first branch and bound over the model.

    Returns the first integral point found ("optimal"), "infeasible" once
    every node is closed without one, or "timeout" at the time or node
    limit."""
    root = Problem.from_model(model)
    deadline = None if time_limit is None else time.monotonic() + time_limit

    int_indices = [i for i, v in enumerate(root.variables) if v.is_int]
    nodes = 0
    pivots = 0
    # A node: the problem it presolves, the reductions that problem came
    # through (outermost first), the branching bound on it, and every
    # branching bound above it in root indices.
    stack: list[tuple] = [(root, (), {}, {})]

    while stack:
        if deadline is not None and time.monotonic() > deadline:
            return SolveOutcome("timeout", nodes=nodes, pivots=pivots)
        if nodes >= node_limit:
            return SolveOutcome("timeout", nodes=nodes, pivots=pivots)
        problem, chain, bounds, root_bounds = stack.pop()
        nodes += 1
        try:
            red = _presolve(problem, bounds, deadline)
            red_values, lp_pivots = _solve_lp(red, deadline)
        except _Infeasible:
            continue
        except SolverTimeout as stop:
            return SolveOutcome("timeout", nodes=nodes, pivots=pivots + stop.pivots)
        pivots += lp_pivots
        if red_values is None:
            continue
        chain += (red,)
        values = red_values
        for step in reversed(chain):
            values = _undo_presolve(step, values)
        frac_var = next((i for i in int_indices if values[i].denominator != 1), None)
        if frac_var is None:
            named = {root.variables[i].name: Fraction(v) for i, v in values.items()}
            return SolveOutcome("optimal", named, nodes, pivots)
        val = values[frac_var]
        v = root.variables[frac_var]
        lo, hi = root_bounds.get(frac_var, (v.lb, v.ub))
        down = {**root_bounds, frac_var: (lo, floor(val))}
        up = {**root_bounds, frac_var: (ceil(val), hi)}
        # the root index of each column of the reduced problem
        cols = range(len(root.variables))
        for step in chain:
            cols = [cols[k] for k in step.keep]
        if frac_var in cols:
            col = cols.index(frac_var)
            w = red.variables[col]
            child = Problem(red.variables, red.rows)
            stack.append((child, chain, {col: (ceil(val), w.ub)}, up))
            stack.append((child, chain, {col: (w.lb, floor(val))}, down))
        else:
            stack.append((root, (), up, up))
            stack.append((root, (), down, down))

    return SolveOutcome("infeasible", nodes=nodes, pivots=pivots)
