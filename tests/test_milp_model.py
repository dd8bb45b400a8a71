import math
import re
from fractions import Fraction

import pytest

from invqsar.milp.model import (
    BINARY,
    CONTINUOUS,
    EQ,
    GE,
    INTEGER,
    LE,
    MILPModel,
    ModelError,
    check_solution,
    emit_lp,
)

import oracles
from conftest import ALL_ROUNDTRIP_FIXTURES, roundtrip_fixture
from invqsar.milp.build import build_milp, polish_solution
from invqsar.milp.solve import solve
from lp_reader import parse_lp
from lp_validator import LpFormatError, validate_lp
from oracles import constraint_residuals


def toy_model():
    m = MILPModel(name="toy")
    m.metadata["origin"] = "unit-test"
    m.add_var("x", BINARY)
    m.add_var("y", INTEGER, 0, 7)
    m.add_var("z", CONTINUOUS, -1.5, 2.5)
    m.add_constr("cap", {"x": 1, "y": 2}, LE, 5)
    m.add_constr("tie", {"y": 1, "z": -4}, EQ, 0.25)
    m.add_constr("floor", {"z": 3}, GE, -4)
    return m


def test_golden_emission():
    expected = """\\ model toy
\\ meta origin unit-test
Minimize
 obj:
Subject To
 cap: 1 x + 2 y <= 5
 tie: 1 y - 4 z = 0.25
 floor: 3 z >= -4
Bounds
 0 <= x <= 1
 0 <= y <= 7
 -1.5 <= z <= 2.5
Generals
 y
Binaries
 x
End
"""
    assert emit_lp(toy_model()) == expected


def test_round_trip_byte_identical():
    text = emit_lp(toy_model())
    model2 = parse_lp(text)
    assert emit_lp(model2) == text
    # twice more for good measure
    assert emit_lp(parse_lp(emit_lp(model2))) == text


def test_built_model_has_empty_objective_section():
    """A feasibility model still writes the objective section LP readers
    require, with no terms."""
    fx = roundtrip_fixture("triangle")
    for model in (build_milp(fx.spec, fx.space),
                  build_milp(fx.spec, fx.space, fx.predictor, fx.y_lo, fx.y_hi)):
        lines = emit_lp(model).splitlines()
        head = lines.index("Minimize")
        assert lines[head + 1:head + 3] == [" obj:", "Subject To"]


def test_reader_rejects_objective():
    text = emit_lp(toy_model()).replace(" obj:", " obj: 1 x")
    with pytest.raises(ModelError, match="not empty"):
        parse_lp(text)


def test_round_trip_preserves_numbers_exactly():
    m = MILPModel()
    m.add_var("a", CONTINUOUS, 0, 10)
    weird = [0.1, 1 / 3, 2e-7, 123456.789, 46.666666666666664]
    for i, c in enumerate(weird):
        m.add_constr(f"r{i}", {"a": c}, LE, c * 2)
    text = emit_lp(m)
    m2 = parse_lp(text)
    for con, con2 in zip(m.constraints, m2.constraints):
        assert con.coeffs == con2.coeffs
        assert con.rhs == con2.rhs


def test_independent_validator_accepts():
    assert validate_lp(emit_lp(toy_model())) == 3


def test_validator_rejects_junk():
    with pytest.raises(LpFormatError):
        validate_lp("Minimize\n obj: x\nEnd\n")  # missing Subject To
    with pytest.raises(LpFormatError):
        validate_lp(
            "Minimize\n obj: x\nSubject To\n c1: x ?? 4\nEnd\n"
        )


def test_name_collision():
    m = MILPModel()
    m.add_var("x", BINARY)
    with pytest.raises(ModelError):
        m.add_var("x", BINARY)
    m.add_constr("c", {"x": 1}, LE, 1)
    with pytest.raises(ModelError):
        m.add_constr("c", {"x": 1}, LE, 2)


def test_unbounded_integer_rejected():
    m = MILPModel()
    with pytest.raises(ModelError):
        m.add_var("n", INTEGER, 0, math.inf)


def test_nan_bound_rejected():
    m = MILPModel()
    with pytest.raises(ModelError, match="NaN"):
        m.add_var("x", CONTINUOUS, math.nan, 1)
    with pytest.raises(ModelError, match="NaN"):
        m.add_var("y", CONTINUOUS, 0, math.nan)
    # a binary's bounds are clamped to [0, 1], but not from a NaN
    for bounds in ((math.nan, math.nan), (math.nan, 1), (0, math.nan)):
        with pytest.raises(ModelError, match="variable b has a NaN bound"):
            m.add_var("b", BINARY, *bounds)
    assert m.variables == ()


def test_name_with_trailing_newline_rejected():
    """A trailing newline would end a row of the LP text early."""
    m = MILPModel()
    with pytest.raises(ModelError) as err:
        m.add_var("x\n", BINARY)
    assert str(err.value) == "bad variable name 'x\\n'"
    m.add_var("x", BINARY)
    assert [v.name for v in m.variables] == ["x"]


def test_row_name_with_trailing_newline_rejected():
    m = MILPModel()
    m.add_var("x", BINARY)
    with pytest.raises(ModelError) as err:
        m.add_constr("c\n", {"x": 1}, GE, 1)
    assert str(err.value) == "bad constraint name 'c\\n'"
    assert m.constraints == ()


@pytest.mark.parametrize("name", ["", "_", "1a", "a-b", "x\n", "é", "class",
                                  "v" * 5000 + "_9"])
def test_names_are_checked_against_the_lp_name_pattern(name):
    """add_var and add_constr accept exactly the names that match
    [A-Za-z_][A-Za-z0-9_]*, and reject the rest with the pinned messages."""
    valid = re.fullmatch(r"[A-Za-z_][A-Za-z0-9_]*", name) is not None
    m = MILPModel()
    m.add_var("x", BINARY)
    for add, kind in ((lambda: m.add_var(name, BINARY), "variable"),
                      (lambda: m.add_constr(name, {"x": 1}, LE, 1), "constraint")):
        if valid:
            assert add() == name
        else:
            with pytest.raises(ModelError) as err:
                add()
            assert str(err.value) == f"bad {kind} name {name!r}"


@pytest.mark.parametrize("coeff, rhs", [
    (math.inf, 1), (-math.inf, 1), (math.nan, 1),
    (1, math.inf), (1, -math.inf), (1, math.nan),
])
def test_non_finite_row_rejected(coeff, rhs):
    m = MILPModel()
    m.add_var("x", CONTINUOUS, 0, 1)
    with pytest.raises(ModelError, match="constraint bad_row"):
        m.add_constr("bad_row", {"x": coeff}, LE, rhs)
    assert m.constraints == ()


def test_unknown_variable_rejected():
    m = MILPModel()
    m.add_var("x", BINARY)
    with pytest.raises(ModelError):
        m.add_constr("c", {"ghost": 1}, LE, 1)


# (name, kind, lb, ub) -> the exact message; the first fault in the order
# name, duplicate, kind, NaN, crossing bounds, infinite bound wins.  A
# binary's bounds are clamped to [0, 1] first, so they are never infinite.
ADD_VAR_FAULTS = [
    (("1x", BINARY, 0, 1), "bad variable name '1x'"),
    (("", CONTINUOUS, 0, 1), "bad variable name ''"),
    (("x y", CONTINUOUS, 0, 1), "bad variable name 'x y'"),
    (("x", CONTINUOUS, 0, 1), "duplicate variable 'x'"),
    (("x", "real", math.nan, math.nan), "duplicate variable 'x'"),
    (("k", "real", 0, 1), "unknown variable kind 'real'"),
    (("k", "real", math.nan, -1), "unknown variable kind 'real'"),
    (("n", CONTINUOUS, math.nan, 1), "variable n has a NaN bound"),
    (("n", INTEGER, 0, math.nan), "variable n has a NaN bound"),
    (("n", INTEGER, math.nan, math.inf), "variable n has a NaN bound"),
    (("c", CONTINUOUS, 2, 1), "variable c: lower bound 2.0 above upper 1.0"),
    (("c", BINARY, 2, 5), "variable c: lower bound 2.0 above upper 1.0"),
    (("c", INTEGER, 2, -math.inf),
     "variable c: lower bound 2.0 above upper -inf"),
    (("n", INTEGER, 0, math.inf), "integer variable n must have finite bounds"),
    (("n", INTEGER, -math.inf, 0), "integer variable n must have finite bounds"),
    (("x1", CONTINUOUS, 0, math.inf), "variable x1 must have finite bounds"),
    (("x1", CONTINUOUS, -math.inf, 0), "variable x1 must have finite bounds"),
    (("x1", CONTINUOUS, -math.inf, math.inf),
     "variable x1 must have finite bounds"),
]


@pytest.mark.parametrize("args, message", ADD_VAR_FAULTS)
def test_add_var_fault_messages(args, message):
    m = MILPModel()
    m.add_var("x", BINARY)
    with pytest.raises(ModelError) as err:
        m.add_var(*args)
    assert str(err.value) == message
    assert [v.name for v in m.variables] == ["x"]


# (kind, value) -> the exact message of fix_var on the variable v of that
# kind, whose bounds it leaves as they were
FIX_VAR_FAULTS = [
    ((CONTINUOUS, math.inf), "variable v must have finite bounds"),
    ((CONTINUOUS, -math.inf), "variable v must have finite bounds"),
    ((INTEGER, math.inf), "integer variable v must have finite bounds"),
    ((INTEGER, -math.inf), "integer variable v must have finite bounds"),
    ((BINARY, math.inf), "variable v: lower bound inf above upper 1.0"),
    ((BINARY, -math.inf), "variable v: lower bound 0.0 above upper -inf"),
    ((BINARY, 2), "variable v: lower bound 2.0 above upper 1.0"),
    ((CONTINUOUS, math.nan), "variable v has a NaN bound"),
]


@pytest.mark.parametrize("args, message", FIX_VAR_FAULTS)
def test_fix_var_fault_messages(args, message):
    kind, value = args
    m = MILPModel()
    m.add_var("v", kind, -1, 1)
    before = m.var("v")
    with pytest.raises(ModelError) as err:
        m.fix_var("v", value)
    assert str(err.value) == message
    assert m.var("v") == before
    m.fix_var("v", 1)
    assert m.var("v") == ("v", kind, 1.0, 1.0)


INF, NAN = math.inf, math.nan

# (name, terms, sense, rhs) -> the exact message, in a model with the
# variables x and y and the row c.  The checks run in the order name,
# duplicate, sense, then each term in turn (unknown, repeated, non-finite
# coefficient), then no nonzero terms, then the right-hand side; the first
# faulty term in order wins.
ADD_CONSTR_FAULTS = [
    (("1c", [("x", 1)], LE, 1), "bad constraint name '1c'"),
    (("d-e", [("x", 1)], LE, 1), "bad constraint name 'd-e'"),
    (("1c", [("ghost", INF)], "<", NAN), "bad constraint name '1c'"),
    (("c", [("x", 1)], LE, 1), "duplicate constraint 'c'"),
    (("c", [("ghost", 1)], "<", NAN), "duplicate constraint 'c'"),
    (("d", [("x", 1)], "<", 1), "bad sense '<'"),
    (("d", [("ghost", 1)], "==", NAN), "bad sense '=='"),
    (("d", [("ghost", 1)], LE, 1), "constraint d references unknown 'ghost'"),
    (("d", [("x", 1), ("ghost", 1), ("x", 1)], LE, 1),
     "constraint d references unknown 'ghost'"),
    (("d", [("x", 1), ("x", 1), ("ghost", 1)], LE, 1),
     "constraint d repeats variable 'x'"),
    (("d", [("x", 1), ("y", 2), ("x", INF)], LE, 1),
     "constraint d repeats variable 'x'"),
    (("d", [("x", 0), ("x", 1)], LE, 1), "constraint d repeats variable 'x'"),
    (("d", [("x", INF), ("ghost", 1)], LE, 1),
     "constraint d has coefficient inf on x"),
    (("d", [("x", 1), ("y", -INF)], LE, 1),
     "constraint d has coefficient -inf on y"),
    (("d", [("y", NAN), ("x", 1)], LE, NAN),
     "constraint d has coefficient nan on y"),
    (("d", [("x", 0), ("y", 0.0)], EQ, 1), "constraint d has no nonzero terms"),
    (("d", [], GE, NAN), "constraint d has no nonzero terms"),
    (("d", {"x": 0}, GE, INF), "constraint d has no nonzero terms"),
    (("d", [("x", 1)], LE, INF), "constraint d has right-hand side inf"),
    (("d", {"x": 1, "y": 0}, GE, -INF), "constraint d has right-hand side -inf"),
    (("d", [("x", 1)], EQ, NAN), "constraint d has right-hand side nan"),
]


@pytest.mark.parametrize("args, message", ADD_CONSTR_FAULTS)
def test_add_constr_fault_messages(args, message):
    m = MILPModel()
    m.add_var("x", BINARY)
    m.add_var("y", CONTINUOUS, 0, 1)
    m.add_constr("c", [("y", 1)], GE, 0)
    before = emit_lp(m)
    with pytest.raises(ModelError) as err:
        m.add_constr(*args)
    assert str(err.value) == message
    assert emit_lp(m) == before


def test_fingerprint_deterministic():
    assert emit_lp(toy_model()) == emit_lp(toy_model())


def test_residual_checker():
    m = toy_model()
    good = {"x": Fraction(1), "y": Fraction(2), "z": Fraction(7, 16)}
    assert check_solution(m, good) == []
    bad = {"x": Fraction(1), "y": Fraction(3), "z": Fraction(7, 16)}
    problems = check_solution(m, bad)
    assert any("tie" in p for p in problems)
    frac = {"x": Fraction(1, 2), "y": Fraction(2), "z": Fraction(7, 16)}
    assert any("not integral" in p for p in check_solution(m, frac))
    out = {"x": Fraction(1), "y": Fraction(9), "z": Fraction(7, 16)}
    assert any("above upper bound" in p for p in check_solution(m, out))


def test_residuals_signed():
    m = MILPModel()
    m.add_var("x", CONTINUOUS, 0, 10)
    m.add_constr("le", {"x": 1}, LE, 4)
    res = constraint_residuals(m, {"x": Fraction(5)})
    assert res["le"] == 1
    res = constraint_residuals(m, {"x": Fraction(3)})
    assert res["le"] == -1


from hypothesis import given, settings, strategies as st


@st.composite
def random_lp_model(draw):
    n_vars = draw(st.integers(min_value=1, max_value=6))
    m = MILPModel(name="fuzz")
    kinds = [
        draw(st.sampled_from([BINARY, INTEGER, CONTINUOUS])) for _ in range(n_vars)
    ]
    finite = st.floats(
        min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
    )
    for i, kind in enumerate(kinds):
        if kind == BINARY:
            m.add_var(f"v{i}", BINARY)
        else:
            lo = draw(finite)
            hi = draw(finite.filter(lambda x: x >= lo))
            m.add_var(f"v{i}", kind, min(lo, hi), max(lo, hi))
    for r in range(draw(st.integers(min_value=1, max_value=5))):
        support = draw(
            st.lists(
                st.integers(min_value=0, max_value=n_vars - 1),
                min_size=1,
                max_size=n_vars,
                unique=True,
            )
        )
        coeffs = {
            f"v{i}": draw(finite.filter(lambda x: x != 0.0)) for i in support
        }
        m.add_constr(
            f"c{r}", coeffs, draw(st.sampled_from([LE, GE, EQ])), draw(finite)
        )
    return m


@settings(max_examples=80, deadline=None)
@given(random_lp_model())
def test_emit_parse_round_trip_property(model):
    text = emit_lp(model)
    again = emit_lp(parse_lp(text))
    assert again == text
    validate_lp(text)


# -- the int/Fraction check against the all-Fraction oracle ------------------

# integral, halves, thirds and near-1 numbers: the int path takes only the
# first kind, so every draw mixes both paths
check_numbers = st.one_of(
    st.integers(-6, 6).map(float),
    st.integers(-12, 12).map(lambda k: k / 2),
    st.integers(-9, 9).map(lambda k: k / 3),
    st.sampled_from([1 + 1e-5, 1 - 1e-5, -1 + 1e-5]),
)
value_offsets = st.sampled_from([
    Fraction(0), Fraction(1), Fraction(-1), Fraction(2), Fraction(1, 2),
    Fraction(-1, 3), Fraction(1, 10**6), Fraction(-1, 10**6),
    Fraction(10**6 + 1, 10**12), Fraction(-10**6 - 1, 10**12),
])


@st.composite
def model_and_values(draw):
    m = MILPModel(name="check")
    for i in range(draw(st.integers(1, 5))):
        kind = draw(st.sampled_from([BINARY, INTEGER, CONTINUOUS]))
        lo = draw(check_numbers)
        hi = lo + abs(draw(check_numbers))
        if kind == BINARY:
            lo, hi = 0, 1
        m.add_var(f"v{i}", kind, lo, hi)
    values = {}
    for v in m.variables:
        if draw(st.integers(0, 60)) == 0:
            continue  # missing value
        lo, hi = Fraction(v.lb), Fraction(v.ub)
        inside = lo + (hi - lo) * draw(st.sampled_from([0, Fraction(1, 3), 1]))
        if v.kind != CONTINUOUS and math.ceil(lo) <= hi:
            inside = Fraction(draw(st.integers(math.ceil(lo), math.floor(hi))))
        near = draw(st.sampled_from([lo, hi])) + draw(value_offsets)
        # mostly feasible values, so the rows get checked
        values[v.name] = draw(st.sampled_from(
            [inside] * 3 + [near, Fraction(round(near))]))
    names = [v.name for v in m.variables]
    for r in range(draw(st.integers(1, 4))):
        support = draw(st.lists(st.sampled_from(names), min_size=1,
                                max_size=len(names), unique=True))
        coeffs = {n: draw(check_numbers.filter(bool)) for n in support}
        rhs = draw(check_numbers)
        if all(n in values for n in support) and draw(st.booleans()):
            # a row that holds, or nearly: rhs rounded from the exact lhs
            rhs = float(sum(Fraction(c) * values[n] for n, c in coeffs.items()))
        m.add_constr(f"c{r}", coeffs, draw(st.sampled_from([LE, GE, EQ])), rhs)
    return m, values


@settings(max_examples=400, deadline=None)
@given(model_and_values(), st.sampled_from([0, 0.0, 1e-6]))
def test_check_solution_matches_fraction_oracle(drawn, tol):
    model, values = drawn
    assert check_solution(model, values, tol) == oracles.check_solution(
        model, values, tol)


def perturbed(model, values):
    """A copy with one binary flipped and one continuous value moved by 1/3."""
    out = dict(values)
    binaries = [v.name for v in model.variables if v.kind == BINARY]
    flip = binaries[len(binaries) // 2]
    out[flip] = 1 - out[flip]
    moved = next(v.name for v in model.variables
                 if v.kind == CONTINUOUS and out[v.name] + 1 <= v.ub)
    out[moved] += Fraction(1, 3)
    return out


@pytest.mark.parametrize("name", ALL_ROUNDTRIP_FIXTURES)
def test_check_solution_matches_oracle_on_solver_answers(name):
    fx = roundtrip_fixture(name)
    model = build_milp(fx.spec, fx.space, fx.predictor, fx.y_lo, fx.y_hi)
    backends = ("highs", "mini") if fx.mini_ok else ("highs",)
    for backend in backends:
        sol = solve(model, backend, time_limit=600, polish=polish_solution)
        assert sol.status == "optimal"
        for values in (sol.values, perturbed(model, sol.values)):
            for tol in (0, 1e-6):
                want = oracles.check_solution(model, values, tol)
                assert check_solution(model, values, tol) == want
        assert want  # the perturbed copy breaks a row


def test_check_continuous_bound_tolerance_is_exact():
    m = MILPModel()
    m.add_var("x", CONTINUOUS, 2, 5)
    edge = Fraction(1, 10**6)
    assert check_solution(m, {"x": 2 - edge}) == []
    assert check_solution(m, {"x": 5 + edge}) == []
    tiny = Fraction(1, 10**12)
    assert check_solution(m, {"x": 2 - edge - tiny}) == [
        f"x = {float(2 - edge - tiny)} below lower bound 2.0"]
    assert check_solution(m, {"x": 5 + edge + tiny}) == [
        f"x = {float(5 + edge + tiny)} above upper bound 5.0"]
    with pytest.raises(ValueError, match="negative"):
        check_solution(m, {"x": Fraction(3)}, tol=-1e-9)


def test_check_compares_big_integers_with_float_bounds_exactly():
    m = MILPModel()
    m.add_var("n", INTEGER, 0, 2.0**53)
    # float(2**53 + 1) == 2**53, so a float comparison would pass it
    problems = check_solution(m, {"n": Fraction(2**53 + 1)})
    assert problems == [f"n = {float(2**53)} above upper bound {2.0**53}"]
    assert check_solution(m, {"n": Fraction(2**53)}) == []


def test_check_sums_integer_rows_beyond_float_precision():
    m = MILPModel()
    m.add_var("x", INTEGER, 0, 2.0**60)
    m.add_var("y", INTEGER, 0, 2.0**60)
    m.add_constr("big", {"x": 1, "y": 1}, EQ, 2.0**54)
    assert check_solution(m, {"x": Fraction(2**53 + 1),
                              "y": Fraction(2**53 - 1)}) == []
    # 2**54 + 1 rounds to 2**54 in floats
    assert check_solution(m, {"x": Fraction(2**53 + 1),
                              "y": Fraction(2**53)}) == [
        "constraint big violated by 1.0"]
