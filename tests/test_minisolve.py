import copy
import itertools
from dataclasses import replace
from fractions import Fraction
from math import ceil, floor
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from invqsar.milp import minisolve
from invqsar.milp.build import build_milp
from invqsar.milp.minisolve import (
    PAIR,
    Problem,
    PRow,
    PVar,
    _Infeasible,
    _presolve,
    _propagate,
    _solve_lp,
    solve_exact,
)
from invqsar.milp.model import (
    BINARY,
    CONTINUOUS,
    EQ,
    GE,
    INTEGER,
    LE,
    MILPModel,
    check_solution,
)
from invqsar.milp.solve import solve, solve_highs

import oracles
from conftest import roundtrip_fixture


def exact_answer(m: MILPModel, values) -> dict:
    """The solver's values with omitted variables at 0, after checking that
    they are Fractions that meet every row, bound and integrality exactly."""
    assert all(type(v) is Fraction for v in values.values())
    values = dict(values)
    for v in m.variables:
        values.setdefault(v.name, Fraction(0))
    assert check_solution(m, values, tol=0.0) == []
    return values


def test_feasibility_binary():
    m = MILPModel()
    m.add_var("x", BINARY)
    m.add_var("y", BINARY)
    m.add_constr("c", {"x": 1, "y": 1}, GE, 2)
    out = solve_exact(m)
    assert out.status == "optimal"
    assert exact_answer(m, out.values) == {"x": 1, "y": 1}


def test_infeasible_toy():
    m = MILPModel()
    m.add_var("x", CONTINUOUS, 0, 10)
    m.add_constr("a", {"x": 1}, GE, 1)
    m.add_constr("b", {"x": 1}, LE, 0)
    assert solve_exact(m).status == "infeasible"


def test_exact_fractional_point():
    m = MILPModel()
    m.add_var("x", CONTINUOUS, 0, 2)
    m.add_var("y", CONTINUOUS, 0, 2)
    m.add_constr("e", {"x": 2, "y": 4}, EQ, 5)
    out = solve_exact(m)
    assert out.status == "optimal"
    values = exact_answer(m, out.values)
    assert 2 * values["x"] + 4 * values["y"] == 5


def test_pure_integer_feasibility_stops_on_first():
    m = MILPModel()
    for i in range(6):
        m.add_var(f"b{i}", BINARY)
    m.add_constr("sum", {f"b{i}": 1 for i in range(6)}, EQ, 3)
    out = solve_exact(m)
    assert out.status == "optimal"
    assert sum(out.values[f"b{i}"] for i in range(6)) == 3


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
    return m


def test_cross_solver_agreement():
    """The mini-solver and HiGHS agree on feasibility of random models, and
    every mini answer is exact."""
    rng = np.random.default_rng(314)
    feasible = 0
    for _ in range(20):
        m = random_model(rng)
        mini = solve_exact(m, time_limit=60)
        ext = solve(m, "highs")
        assert mini.status in ("optimal", "infeasible")
        assert ext.status == mini.status
        if mini.status == "optimal":
            exact_answer(m, mini.values)
            feasible += 1
    assert feasible >= 5  # most random models should be feasible


def test_solutions_exact_to_zero_tolerance():
    """Feasible answers from the exact solver satisfy every row with zero
    residual, not merely within a tolerance."""
    rng = np.random.default_rng(2718)
    exact_checked = 0
    for _ in range(25):
        m = random_model(rng)
        out = solve_exact(m, time_limit=30)
        if out.status != "optimal":
            continue
        exact_answer(m, out.values)
        exact_checked += 1
    assert exact_checked >= 8


def fractional(rng: np.random.Generator, lo: int, hi: int) -> float:
    """k/d in [lo, hi] with d a half, a third or a hundredth (like the
    prediction row's decimals) or 1."""
    d = int(rng.choice([1, 2, 3, 100]))
    return int(rng.integers(lo * d, hi * d + 1)) / d


def random_fractional_model(rng: np.random.Generator) -> MILPModel:
    """Like random_model, with fractional coefficients, right-hand sides
    and bounds (integer variables included), and more continuous
    variables."""
    n = int(rng.integers(2, 7))
    m = MILPModel()
    kinds = rng.choice([BINARY, INTEGER, CONTINUOUS], size=n, p=[0.3, 0.3, 0.4])
    for i, kind in enumerate(kinds):
        if kind == BINARY:
            m.add_var(f"v{i}", BINARY)
        else:
            m.add_var(f"v{i}", kind, fractional(rng, -3, 1), fractional(rng, 1, 5))
    for r in range(int(rng.integers(1, 6))):
        terms = {f"v{i}": c for i in range(n) if (c := fractional(rng, -4, 4))}
        if not terms:
            terms = {"v0": 1}
        sense = [LE, GE, EQ][int(rng.integers(0, 3))]
        m.add_constr(f"c{r}", terms, sense, fractional(rng, -6, 9))
    return m


def test_fractional_models_stay_exact():
    """With fractional data the exact solver agrees with HiGHS on
    feasibility, its answers satisfy every row with zero residual, and
    every value it returns is a Fraction (no int or float leaks out of the
    int/Fraction arithmetic)."""
    rng = np.random.default_rng(1618)
    statuses = []
    for _ in range(30):
        m = random_fractional_model(rng)
        mini = solve_exact(m, time_limit=60)
        ext = solve(m, "highs")
        assert mini.status in ("optimal", "infeasible")
        assert ext.status == mini.status
        statuses.append(mini.status)
        if mini.status == "optimal":
            exact_answer(m, mini.values)
    assert statuses.count("optimal") >= 10
    assert "infeasible" in statuses


def test_highs_precheck_claims_are_exact(monkeypatch):
    """Every model that solve_highs calls infeasible without calling HiGHS
    is infeasible by the exact solver too.  HiGHS is a stand-in here,
    since only the pre-check's claims are judged."""
    import scipy.optimize
    monkeypatch.setattr(scipy.optimize, "milp", lambda *args, **kwargs:
                        scipy.optimize.OptimizeResult(status=2, message="stub"))
    rng = np.random.default_rng(5)
    claims = 0
    for _ in range(2000):
        m = random_fractional_model(rng)
        if solve_highs(m).log.startswith("HiGHS not called"):
            claims += 1
            assert solve_exact(m, time_limit=60).status == "infeasible"
    assert claims >= 300


def random_doubleton_model(rng: np.random.Generator) -> MILPModel:
    """A small model made mostly of two-variable equalities a*x + b*y = r:
    integer pairs with unit and non-unit coefficients, continuous and mixed
    pairs, chains through shared variables, and fractional right-hand
    sides, plus a few wider rows.  Every row holds at a planted point,
    except that about one model in three has one equality with a random
    right-hand side, so both statuses occur.  Fractions are dyadic, so the
    float model HiGHS reads holds exactly the values the exact solver
    reads."""
    n = int(rng.integers(4, 9))
    m = MILPModel()
    kinds = rng.choice([BINARY, INTEGER, CONTINUOUS], size=n, p=[0.1, 0.55, 0.35])
    point = {}
    for i, kind in enumerate(kinds):
        lb, ub = (0, 1) if kind == BINARY else (int(rng.integers(-8, 1)),
                                                int(rng.integers(1, 11)))
        m.add_var(f"v{i}", kind, lb, ub)
        step = 4 if kind == CONTINUOUS else 1
        point[f"v{i}"] = int(rng.integers(lb * step, ub * step + 1)) / step
    coefs = [1, -1, 1, -1, 1, -1, 2, -2, 3, 0.5, -0.25]

    def row(size):
        names = [f"v{int(i)}" for i in rng.choice(n, size=size, replace=False)]
        terms = {name: float(rng.choice(coefs)) for name in names}
        return terms, sum(c * point[name] for name, c in terms.items())

    pairs = int(rng.integers(2, n))
    wrong = int(rng.integers(0, pairs)) if rng.random() < 0.35 else None
    for r in range(pairs):
        terms, rhs = row(2)
        if r == wrong:
            rhs = int(rng.integers(-6, 7)) / int(rng.choice([1, 2, 4]))
        m.add_constr(f"p{r}", terms, EQ, rhs)
    for r in range(int(rng.integers(1, 4))):
        terms, at_point = row(int(rng.integers(3, n + 1)))
        slack = int(rng.integers(1, 5))
        if rng.random() < 0.5:
            m.add_constr(f"w{r}", terms, LE, at_point + slack)
        else:
            m.add_constr(f"w{r}", terms, GE, at_point - slack)
    return m


def pair_steps(model: MILPModel) -> list[tuple]:
    """The two-variable equalities the root presolve substitutes out."""
    try:
        red = _presolve(Problem.from_model(model), {})
    except _Infeasible:
        return []
    return [step for step in red.eliminated if step[0] == PAIR]


def test_doubleton_models_agree_with_highs():
    """On models rich in two-variable equalities the exact solver agrees
    with HiGHS on feasibility, its answers are exact, and the root
    presolve substitutes out integer and continuous columns alike, an
    integer one only through a unit coefficient with an integral partner,
    coefficient and right-hand side."""
    rng = np.random.default_rng(2020)
    statuses = []
    substituted = {True: 0, False: 0}
    for _ in range(120):
        m = random_doubleton_model(rng)
        variables = Problem.from_model(m).variables
        for _, k, j, a, b, rhs in pair_steps(m):
            if variables[k].is_int:
                assert abs(b) == 1 and variables[j].is_int
                assert a.denominator == 1 and rhs.denominator == 1
            substituted[variables[k].is_int] += 1
        mini = solve_exact(m, time_limit=60)
        ext = solve(m, "highs")
        assert mini.status in ("optimal", "infeasible")
        assert ext.status == mini.status
        statuses.append(mini.status)
        if mini.status == "optimal":
            exact_answer(m, mini.values)
    assert statuses.count("optimal") >= 60
    assert statuses.count("infeasible") >= 15
    assert substituted[True] >= 15 and substituted[False] >= 30


def test_integer_with_non_unit_coefficient_is_not_substituted():
    """In 2x + 3y = 12 over integers neither column may go, since an
    integral value of one does not make the other integral; in z - 2w = 1
    only z may go, and next to a continuous column only that one goes."""
    m = MILPModel()
    for name in "xyzw":
        m.add_var(name, INTEGER, 0, 10)
    m.add_var("c", CONTINUOUS, 0, 20)
    m.add_constr("two_three", {"x": 2, "y": 3}, EQ, 12)
    m.add_constr("unit", {"z": 1, "w": -2}, EQ, 1)
    m.add_constr("mixed", {"x": 1, "c": 0.5}, EQ, 6)
    m.add_constr("links", {"x": 1, "y": 1, "z": 1, "w": 1, "c": 1}, LE, 20)
    m.add_constr("again", {"x": 1, "y": -1, "z": 2, "w": -1, "c": -1}, GE, -6)
    red = _presolve(Problem.from_model(m), {})
    assert [m.variables[step[1]].name for step in red.eliminated] == ["z", "c"]
    assert [m.variables[i].name for i in red.keep] == ["x", "y", "w"]
    assert [(v.lb, v.ub) for v in red.variables] == [(0, 6), (0, 4), (0, 4)]
    out = solve_exact(m)
    assert out.status == "optimal"
    exact_answer(m, out.values)


def test_pair_moves_the_bounds_onto_the_kept_column():
    """x - k = 0 with k in [0, 99]: x keeps k's bounds exactly, also where
    propagation would skip a step under 5% of x's width; with 2y - k = 1
    and y integral, y's bound is rounded inward."""
    m = MILPModel()
    m.add_var("x", CONTINUOUS, 0, 100)
    m.add_var("k", CONTINUOUS, 0, 99)
    m.add_var("y", INTEGER, -20, 20)
    m.add_var("h", CONTINUOUS, -4, 99 / 4)
    m.add_constr("tie", {"x": 1, "k": -1}, EQ, 0)
    m.add_constr("half", {"y": 2, "h": -1}, EQ, 1)
    m.add_constr("a", {"x": 1, "k": 1, "y": -1, "h": 1}, LE, 199)
    m.add_constr("b", {"x": 1, "y": 1, "h": -1}, GE, 5)
    red = _presolve(Problem.from_model(m), {})
    assert [m.variables[step[1]].name for step in red.eliminated] == ["k", "h"]
    bounds = {v.name: (v.lb, v.ub) for v in red.variables}
    assert bounds == {"x": (0, 99), "y": (-1, 12)}


@st.composite
def propagation_case(draw):
    """Small bounded model with integer coefficients; a variable is integer
    or continuous, and continuous ones are sampled on a grid of step 1/2."""
    n = draw(st.integers(min_value=1, max_value=4))
    variables = []
    for i in range(n):
        lb = draw(st.integers(min_value=-2, max_value=1))
        ub = draw(st.integers(min_value=lb, max_value=3))
        variables.append(PVar(f"v{i}", Fraction(lb), Fraction(ub), draw(st.booleans())))
    coef = st.integers(min_value=-3, max_value=3)
    rows = []
    for _ in range(draw(st.integers(min_value=1, max_value=4))):
        coeffs = {j: Fraction(c) for j in range(n) if (c := draw(coef))}
        if not coeffs:
            coeffs = {0: Fraction(1)}
        rhs = Fraction(draw(st.integers(min_value=-12, max_value=12)), 2)
        sense = draw(st.sampled_from(["le", "ge", "eq"]))
        rows.append(PRow(coeffs, None if sense == "le" else rhs,
                         None if sense == "ge" else rhs))
    return variables, rows


def feasible_points(variables, rows):
    """Every feasible point with integer variables at integers and
    continuous ones on the half-integer grid."""
    scales = [1 if v.is_int else 2 for v in variables]
    axes = [
        [Fraction(k, s) for k in range(int(v.lb * s), int(v.ub * s) + 1)]
        for v, s in zip(variables, scales)
    ]
    for point in itertools.product(*axes):
        if all(
            (row.lo is None or act >= row.lo) and (row.hi is None or act <= row.hi)
            for row in rows
            for act in [sum(c * point[j] for j, c in row.coeffs.items())]
        ):
            yield point


@settings(max_examples=150, deadline=None)
@given(propagation_case())
def test_propagation_keeps_every_feasible_point(case):
    """Propagation only removes points that violate some row: every
    feasible point stays inside the tightened bounds, and infeasibility is
    claimed only when there is no feasible point."""
    variables, rows = case
    points = list(feasible_points(variables, rows))
    try:
        _propagate(variables, rows)
    except _Infeasible:
        assert not points
        return
    for point in points:
        for v, x in zip(variables, point):
            assert v.lb <= x <= v.ub, (v, x)
    for v in variables:
        if v.is_int:
            assert v.lb.denominator == v.ub.denominator == 1


@settings(max_examples=300, deadline=None)
@given(propagation_case(), st.data())
def test_propagation_matches_the_summing_oracle(case, data):
    """Keeping each row's activity bounds current gives what summing them
    at every visit gives: the same bounds, the same tightened columns and
    the same infeasibility claims, with and without `moved`."""
    variables, rows = case
    moved = data.draw(st.none() | st.sets(st.integers(0, len(variables) - 1)))
    outcomes = []
    for run in (_propagate, oracles.propagate):
        copies = [replace(v) for v in variables]
        try:
            tightened = run(copies, rows, moved)
        except _Infeasible:
            tightened = "infeasible"
        outcomes.append((tightened, [(v.lb, v.ub) for v in copies]))
    assert outcomes[0] == outcomes[1]


@pytest.mark.parametrize("sense", ["le", "eq"])
def test_propagation_stops_on_converging_continuous_cycle(sense):
    """x - y/2 <= 1 and y - x/2 <= 1 pull each other's upper bound toward
    the fixed point (2, 2) by a shrinking step every visit; as equalities
    both bounds close in on it and no step ever gets small relative to the
    width.  Propagation must stop anyway and keep (2, 2)."""
    lo = Fraction(1) if sense == "eq" else None
    variables = [
        PVar("x", Fraction(0), Fraction(100), False),
        PVar("y", Fraction(0), Fraction(100), False),
        PVar("z", Fraction(0), Fraction(10), True),
    ]
    rows = [
        PRow({0: Fraction(1), 1: Fraction(-1, 2)}, lo, Fraction(1)),
        PRow({1: Fraction(1), 0: Fraction(-1, 2)}, lo, Fraction(1)),
        PRow({2: Fraction(1), 0: Fraction(-1)}, None, Fraction(0)),
    ]
    _propagate(variables, rows)
    x, y, z = variables
    assert x.lb <= 2 <= x.ub and y.lb <= 2 <= y.ub
    assert x.ub < 3 and y.ub < 3  # the cycle did tighten
    assert (z.lb, z.ub) == (0, 2)


# -- branch and bound over the parent's reduced problem ------------------------


def assert_agrees_with_the_oracle(m: MILPModel) -> str:
    """solve_exact and the search that presolves the whole model at every
    node reach the same status, and every answer of either is exact."""
    mini = solve_exact(m, time_limit=60)
    root = oracles.solve_exact_from_root(m, time_limit=60)
    assert mini.status == root.status
    assert mini.status in ("optimal", "infeasible")
    if mini.status == "optimal":
        exact_answer(m, mini.values)
        exact_answer(m, root.values)
    return mini.status


def test_search_agrees_with_the_from_root_oracle():
    """Over seeded random models, integral and fractional, the search that
    presolves each child from its parent's reduced problem reaches the
    status that re-presolving the whole model at every node reaches."""
    statuses = []
    for generate, seed in ((random_model, 3001), (random_fractional_model, 3002)):
        rng = np.random.default_rng(seed)
        for _ in range(300):
            statuses.append(assert_agrees_with_the_oracle(generate(rng)))
    assert statuses.count("optimal") >= 200 and statuses.count("infeasible") >= 200


@st.composite
def small_milp(draw):
    """A model of one to five columns and one to four rows, with integral
    or half-integral bounds, coefficients and right-hand sides."""
    half = st.integers(min_value=-8, max_value=8).map(lambda k: k / 2)
    m = MILPModel()
    n = draw(st.integers(min_value=1, max_value=5))
    for i in range(n):
        kind = draw(st.sampled_from([BINARY, INTEGER, CONTINUOUS]))
        if kind == BINARY:
            m.add_var(f"v{i}", BINARY)
        else:
            lb = draw(st.integers(min_value=-6, max_value=2)) / 2
            m.add_var(f"v{i}", kind, lb, lb + draw(st.integers(0, 8)) / 2)
    for r in range(draw(st.integers(min_value=1, max_value=4))):
        terms = {f"v{i}": c for i in range(n) if (c := draw(half))}
        sense = draw(st.sampled_from([LE, GE, EQ]))
        m.add_constr(f"c{r}", terms or {"v0": 1}, sense, draw(half))
    return m


@settings(max_examples=300, deadline=None)
@given(small_milp())
def test_search_agrees_with_the_from_root_oracle_on_drawn_models(m):
    assert_agrees_with_the_oracle(m)


def spy(monkeypatch, name, record):
    """Wrap minisolve.<name> so that each call is passed to record first."""
    original = getattr(minisolve, name)

    def wrapper(*args, **kwargs):
        record(*args, **kwargs)
        return original(*args, **kwargs)

    monkeypatch.setattr(minisolve, name, wrapper)


def test_branch_on_a_column_the_parent_eliminated(monkeypatch):
    """x in x + y = 2 is a singleton column, so the root presolve
    eliminates it and the root LP point y = 3/2 restores it as x = 1/2.
    x is the first fractional integer column but no column of the root's
    reduced problem, so its children presolve the whole model again with
    x's branching bound."""
    m = MILPModel()
    m.add_var("x", INTEGER, 0, 3)
    m.add_var("y", INTEGER, 0, 3)
    m.add_var("c", CONTINUOUS, 0, 1)
    m.add_var("d", CONTINUOUS, 0, 1)
    m.add_constr("pair", {"x": 1, "y": 1}, EQ, 2)
    m.add_constr("cover", {"y": 2, "c": 1, "d": 1}, GE, 3)
    m.add_constr("cap", {"c": 1, "d": 1}, LE, 1.5)
    calls = []
    spy(monkeypatch, "_presolve", lambda problem, bounds, deadline=None:
        calls.append((problem, dict(bounds))))
    out = solve_exact(m)
    assert out.status == "optimal"
    assert exact_answer(m, out.values)["x"] == 0
    root = calls[0][0]
    assert [(problem is root, bounds) for problem, bounds in calls] == [
        (True, {}), (True, {0: (0, 0)})]
    assert out.status == oracles.solve_exact_from_root(m).status


def test_answer_restored_through_a_chain_of_reductions(monkeypatch):
    """-2 v0 + 3 v1 + 4 v2 + 4 v3 - 3 v4 = 2 over binaries branches three
    levels deep before its answer, which is restored through the final
    node's reduction and then through each of its ancestors'."""
    m = MILPModel()
    for i in range(5):
        m.add_var(f"v{i}", BINARY)
    m.add_constr("c0", {"v0": -2, "v1": 3, "v2": 4, "v3": 4, "v4": -3}, EQ, 2)
    restorations = []
    spy(monkeypatch, "_solve_lp", lambda red, deadline: restorations.append([]))
    spy(monkeypatch, "_undo_presolve",
        lambda red, values: restorations[-1].append(red))
    out = solve_exact(m)
    assert out.status == "optimal"
    assert exact_answer(m, out.values) == {
        "v0": 1, "v1": 0, "v2": 0, "v3": 1, "v4": 0}
    last = restorations[-1]
    assert len(last) >= 4 and len(set(map(id, last))) == len(last)
    assert out.nodes >= 4


def test_presolving_a_child_leaves_the_parent_reduction_unchanged():
    """Both children of a node presolve its reduced problem, the second
    after the first, so presolving one must not touch the parent's
    `_Reduced`: checked on the square_chord model and on random models."""
    fx = roundtrip_fixture("square_chord")
    models = [build_milp(fx.spec, fx.space, fx.predictor, fx.y_lo, fx.y_hi)]
    rng = np.random.default_rng(3003)
    models += [random_model(rng) for _ in range(150)]
    branched = 0
    for m in models:
        try:
            red = _presolve(Problem.from_model(m), {})
        except _Infeasible:
            continue
        point, _ = _solve_lp(red, None)
        if point is None:
            continue
        snapshot = copy.deepcopy(red)
        child = Problem(red.variables, red.rows)
        for col, v in enumerate(red.variables):
            if not v.is_int or point[col].denominator == 1:
                continue
            for bound in ((v.lb, floor(point[col])), (ceil(point[col]), v.ub)):
                try:
                    _presolve(child, {col: bound})
                except _Infeasible:
                    pass
                assert red == snapshot
            branched += 1
    assert branched >= 20


def test_square_chord_presolves_the_whole_model_once(monkeypatch):
    """square_chord takes two nodes; only the root propagates over every
    row of the model, and node 2 presolves the root's reduced problem."""
    fx = roundtrip_fixture("square_chord")
    m = build_milp(fx.spec, fx.space, fx.predictor, fx.y_lo, fx.y_hi)
    full_passes = []
    spy(monkeypatch, "_propagate", lambda variables, rows, moved=None:
        full_passes.append(len(rows)) if moved is None else None)
    out = solve_exact(m)
    assert (out.status, out.nodes, out.pivots) == ("optimal", 2, 105)
    assert full_passes.count(len(m.constraints)) == 1
    assert len(full_passes) == 2


def test_time_limit_binds_presolve(monkeypatch):
    """A deadline that passes during a node's presolve ends the search
    there: no LP is solved after it."""
    clock = [0.0]
    monkeypatch.setattr(minisolve, "time", SimpleNamespace(monotonic=lambda: clock[0]))

    def expire(*args):
        clock[0] = 10.0

    spy(monkeypatch, "_propagate", expire)
    lp_calls = []
    spy(monkeypatch, "_solve_lp", lambda red, deadline: lp_calls.append(red))
    m = MILPModel()
    for name in "xyz":
        m.add_var(name, INTEGER, 0, 5)
    m.add_constr("a", {"x": 2, "y": 3, "z": 1}, EQ, 7)
    m.add_constr("b", {"x": 1, "y": -1, "z": 2}, GE, 1)
    out = solve_exact(m, time_limit=1.0)
    assert (out.status, out.nodes) == ("timeout", 1)
    assert lp_calls == []
