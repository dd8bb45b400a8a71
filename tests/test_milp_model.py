import math
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
    constraint_residuals,
    emit_lp,
)

from conftest import roundtrip_fixture
from invqsar.milp.build import build_milp
from lp_reader import parse_lp
from lp_validator import LpFormatError, validate_lp


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


def test_unknown_variable_rejected():
    m = MILPModel()
    m.add_var("x", BINARY)
    with pytest.raises(ModelError):
        m.add_constr("c", {"ghost": 1}, LE, 1)


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
