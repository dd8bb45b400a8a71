"""End-to-end: build, solve, decode, then verify against featurize and the
specification checker.  These runs are the strongest consistency oracle in
the suite: the decoded graph's feature vector must reproduce the model's
descriptor variables coordinate for coordinate."""

import copy
import json
import re
from collections import Counter
from dataclasses import replace
from fractions import Fraction
from functools import cache

import pytest

from invqsar.cli import judge
from invqsar.decompose import decompose
from invqsar.descriptors import featurize
from invqsar.milp.build import bond_slots, build_milp, polish_solution
from invqsar.milp.decode import DecodeError, decode, solution_feature_values
from invqsar.milp.model import check_solution, emit_lp
from invqsar.milp.solve import Solution, solve
from invqsar.topospec import check_graph_satisfies, parse_spec, spec_to_json_text

from conftest import ALL_ROUNDTRIP_FIXTURES, ring, roundtrip_fixture
from lp_reader import parse_lp
from lp_validator import validate_lp


def assert_one_bond_per_used_slot(sol, spec, graph):
    """The decoded graph's interior bonds are the used bond slots, one each,
    with multiplicity b<slot>; the model's bdint_m counts those of
    multiplicity m, so bdint_1 + bdint_2 + bdint_3 is their number."""
    used = [s for s in bond_slots(spec) if sol.int_value(s.used) == 1]
    interior = decompose(graph, spec.rho).interior_edges
    assert len(interior) == len(used)
    assert Counter(e.mult for e in interior) == Counter(
        sol.int_value(f"b{s.name}") for s in used)
    tally = {m: sol.int_value(f"bdint_{m}") for m in (1, 2, 3)}
    assert tally == {m: sum(e.mult == m for e in interior) for m in (1, 2, 3)}
    assert sum(tally.values()) == len(interior)


def run_roundtrip(fx, backend):
    model = build_milp(fx.spec, fx.space, fx.predictor, fx.y_lo, fx.y_hi)
    sol = solve(model, backend, time_limit=600, polish=polish_solution)
    assert sol.status == "optimal", f"{fx.name}: expected feasible"
    assert check_solution(model, sol.values, tol=0) == []
    graph = decode(sol, fx.spec)
    assert graph.validate() == []
    assert_one_bond_per_used_slot(sol, fx.spec, graph)
    fv = featurize(graph, fx.space)
    xs = solution_feature_values(sol, fx.space)
    for j, (have, want) in enumerate(zip(fv.values, xs)):
        assert have == want, (
            f"{fx.name}: descriptor {fx.space.descriptor_names[j]} "
            f"{have} != model {want}"
        )
    verdict = judge(graph, fx.spec, fx.space, fx.predictor, fx.interval, sol)
    assert verdict.passed, verdict.to_json()
    return model, sol, graph


@pytest.mark.parametrize("name", ALL_ROUNDTRIP_FIXTURES)
def test_roundtrip_external(name):
    fx = roundtrip_fixture(name)
    run_roundtrip(fx, "highs")


@pytest.mark.parametrize(
    "name", [n for n in ALL_ROUNDTRIP_FIXTURES if roundtrip_fixture(n).mini_ok]
)
def test_roundtrip_mini(name):
    fx = roundtrip_fixture(name)
    run_roundtrip(fx, "mini")


@pytest.mark.parametrize("name", ALL_ROUNDTRIP_FIXTURES)
def test_roundtrip_sparse_predictor(name):
    """A predictor that weighs one descriptor in four: the model holds a
    normalized copy only of those, and its answer still decodes to a graph
    whose census matches every descriptor variable."""
    fx = copy.copy(roundtrip_fixture(name))
    weights = tuple(0.1 if j % 4 == 0 else 0.0 for j in range(fx.space.k))
    fx.predictor = replace(fx.predictor, weights=weights)
    y = fx.predictor.predict_normalized(
        featurize(fx.target, fx.space).as_floats())
    fx.y_lo, fx.y_hi = y - 0.01, y + 0.01
    model, _, _ = run_roundtrip(fx, "highs")
    weighed = {str(j) for j, w in enumerate(weights, start=1) if w}
    names = [v.name for v in model.variables] + [
        c.name for c in model.constraints]
    normalized = {m[2] for n in names
                  if (m := re.fullmatch(r"(xd|xhat|nm_d|nm_lo|nm_hi)_(\d+)", n))}
    assert normalized and normalized <= weighed


@pytest.mark.parametrize("name", ALL_ROUNDTRIP_FIXTURES)
def test_emitted_lp_round_trip_and_validates(name):
    fx = roundtrip_fixture(name)
    model = build_milp(fx.spec, fx.space, fx.predictor, fx.y_lo, fx.y_hi)
    text = emit_lp(model)
    assert emit_lp(parse_lp(text)) == text
    assert validate_lp(text) == len(model.constraints)


def infeasible_specs():
    fx = roundtrip_fixture("triangle")
    base = json.loads(
        __import__("invqsar.topospec", fromlist=["spec_to_json_text"])
        .spec_to_json_text(fx.spec)
    )
    # interior demand beyond what the seed can generate
    impossible_interior = dict(base, n_int_lb=5, n_int_ub=5, t_tree=0, t_leaf=0)
    # every fringe tree banned
    banned = json.loads(json.dumps(base))
    for rec in banned["fringe_trees"]:
        rec["fc_ub"] = 0
    # atom budget below the seed size
    starved = dict(base, n_lb=1)
    starved = json.loads(json.dumps(starved))
    starved["na_ub"] = {"C": 2}
    return {
        "impossible_interior": (fx, impossible_interior),
        "banned_fringes": (fx, banned),
        "starved_atoms": (fx, starved),
    }


@pytest.mark.parametrize("key", ["impossible_interior", "banned_fringes",
                                 "starved_atoms"])
def test_infeasible_specs(key):
    fx, doc = infeasible_specs()[key]
    spec = parse_spec(json.dumps(doc))
    model = build_milp(spec, fx.space, fx.predictor, fx.y_lo, fx.y_hi)
    for backend in ("highs", "mini"):
        sol = solve(model, backend, time_limit=300)
        assert sol.status == "infeasible"


def test_decode_rejects_nonsense():
    fx = roundtrip_fixture("triangle")
    with pytest.raises(DecodeError):
        decode(Solution("infeasible"), fx.spec)


@cache
def _fault_answer(name, path_len=None):
    """(spec, polished answer) of a round-trip fixture.  With `path_len`,
    expanded_path's path edge carries exactly that many bonds and at least
    one leaf path, and the model has no predictor."""
    fx = roundtrip_fixture(name)
    spec, window = fx.spec, (fx.predictor, fx.y_lo, fx.y_hi)
    if path_len is not None:
        doc = json.loads(spec_to_json_text(spec))
        doc["seed"]["edges"][0].update(len_lb=path_len, len_ub=path_len, branch_lb=1)
        spec, window = parse_spec(json.dumps(doc)), ()
    sol = solve(build_milp(spec, fx.space, *window), "highs", time_limit=600,
                polish=polish_solution)
    assert sol.status == "optimal"
    assert_one_bond_per_used_slot(sol, spec, decode(sol, spec))
    return spec, sol


def _unchosen_fringe(spec, sol):
    """A fringe tree seed vertex 1 did not choose, chosen as well."""
    return next(n for n in sorted(sol.values)
                if n.startswith("dfrC_1_") and sol.values[n] == 0), 1


def _unused_leaf_root(spec, sol):
    """The T slot a leaf path hangs at, made unused."""
    t_c_tilde = len(spec.seed.leafable)
    return next(f"vT_{i}" for i in range(1, spec.t_tree + 1)
                if sol.int_value(f"vT_{i}") == 1
                and sol.int_value(f"dclrF_{t_c_tilde + i}") == 1), 0


@pytest.mark.parametrize("answer, corrupt, needle", [
    (("expanded_path",), _unchosen_fringe, "2 fringe trees selected"),
    (("expanded_path",), lambda spec, sol: ("aC_1", 2), "element code 2"),
    (("hetero",), lambda spec, sol: ("aC_1", 3 - sol.int_value("aC_1")),
     "disagrees with fringe root"),
    (("two_rings",), lambda spec, sol: ("bC_2", 0), "multiplicity 0"),
    (("expanded_path", 4), lambda spec, sol: ("chiT_2", 0), "not a contiguous run"),
    (("expanded_path", 4), lambda spec, sol: ("eT_3", 0), "missing chain edge"),
    (("expanded_path", 3), _unused_leaf_root, "unused slot T"),
], ids=["second-fringe", "element-out-of-range", "element-not-root",
        "unbonded-slot", "split-run", "missing-chain-edge", "leaf-at-unused-slot"])
def test_decode_rejects_a_corrupted_answer(answer, corrupt, needle):
    """One wrong value in a polished answer is a DecodeError naming it."""
    spec, sol = _fault_answer(*answer)
    name, value = corrupt(spec, sol)
    assert sol.values[name] != value
    bad = Solution(sol.status, {**sol.values, name: Fraction(value)})
    with pytest.raises(DecodeError, match=needle):
        decode(bad, spec)


def test_roundtrip_with_charged_nitrogen():
    """Ion charges flow through fringe constants, valence rows and decode."""
    from conftest import fringe_menu_json
    from invqsar.descriptors import build_space
    from invqsar.graph import build_graph
    from conftest import ring, uniform_predictor

    def ammonium_ring(n):
        atoms = [(1, "N", 1)] + [(i, "C") for i in range(2, n + 1)]
        bonds = [(i, i % n + 1, 1) for i in range(1, n + 1)]
        return build_graph(atoms, bonds, add_hydrogens=True)

    target = ammonium_ring(5)
    dataset = [ring(5), ring(6), ammonium_ring(5), ammonium_ring(6)]
    space = build_space(dataset, 2)
    vectors = [__import__("invqsar.descriptors", fromlist=["featurize"]).featurize(g, space) for g in dataset]
    predictor = uniform_predictor(space, vectors)
    psis = fringe_menu_json(dataset)
    doc = {
        "version": 1, "rho": 2, "n_lb": 4, "n_star": 8,
        "n_int_lb": 4, "n_int_ub": 6,
        "seed": {
            "vertices": [
                {"id": 1, "elements": ["N"]},
                {"id": 2, "elements": ["C"]},
                {"id": 3, "elements": ["C"]},
            ],
            "edges": [
                {"tail": 1, "head": 2, "len_lb": 1, "len_ub": 2},
                {"tail": 1, "head": 3, "len_lb": 1, "len_ub": 2},
                {"tail": 2, "head": 3, "len_lb": 1, "len_ub": 2},
            ],
        },
        "lambda_int": ["C", "N"], "lambda_ex": ["H"],
        "fringe_trees": psis,
    }
    spec = parse_spec(json.dumps(doc))
    fv = featurize(target, space)
    y = predictor.predict_normalized(fv.as_floats())
    model = build_milp(spec, space, predictor, y - 0.01, y + 0.01)
    sol = solve(model, "highs", polish=polish_solution)
    assert sol.status == "optimal"
    g = decode(sol, spec)
    assert g.validate() == []
    charges = [v.charge for v in g.vertices if v.charge]
    assert charges == [1]  # exactly one cationic site
    fv_dec = featurize(g, space)
    assert fv_dec.values == solution_feature_values(sol, space)
    assert check_graph_satisfies(spec, g).passed


def test_roundtrip_with_forced_double_bond():
    """Bond-multiplicity bounds on a seed edge force an interior double
    bond, which must survive decode and the configuration tallies."""
    from conftest import fringe_menu_json, ring, uniform_predictor
    from invqsar.descriptors import build_space
    from invqsar.graph import build_graph

    def cyclohexene():
        atoms = [(i, "C") for i in range(1, 7)]
        bonds = [(1, 2, 2)] + [(i, i % 6 + 1, 1) for i in range(2, 7)]
        return build_graph(atoms, bonds, add_hydrogens=True)

    target = cyclohexene()
    dataset = [ring(6), ring(5), cyclohexene(), ring(4)]
    space = build_space(dataset, 2)
    vectors = [featurize(g, space) for g in dataset]
    predictor = uniform_predictor(space, vectors)
    psis = fringe_menu_json(dataset)
    doc = {
        "version": 1, "rho": 2, "n_lb": 4, "n_star": 8,
        "n_int_lb": 4, "n_int_ub": 6,
        "seed": {
            "vertices": [
                {"id": 1, "elements": ["C"]},
                {"id": 2, "elements": ["C"]},
                {"id": 3, "elements": ["C"]},
            ],
            "edges": [
                {"tail": 1, "head": 2, "len_lb": 1, "len_ub": 1,
                 "bond2_lb": 1, "bond2_ub": 1},
                {"tail": 1, "head": 3, "len_lb": 1, "len_ub": 3},
                {"tail": 2, "head": 3, "len_lb": 1, "len_ub": 3},
            ],
        },
        "lambda_int": ["C"], "lambda_ex": ["H"],
        "fringe_trees": psis,
    }
    spec = parse_spec(json.dumps(doc))
    fv = featurize(target, space)
    y = predictor.predict_normalized(fv.as_floats())
    model = build_milp(spec, space, predictor, y - 0.01, y + 0.01)
    sol = solve(model, "highs", polish=polish_solution)
    assert sol.status == "optimal"
    g = decode(sol, spec)
    assert g.validate() == []
    assert sol.int_value("bdint_2") >= 1
    doubles = [e for e in g.edges if e.mult == 2]
    assert doubles
    fv_dec = featurize(g, space)
    assert fv_dec.values == solution_feature_values(sol, space)
    assert check_graph_satisfies(spec, g).passed


def test_roundtrip_leaf_path_on_path_interior():
    """A branch lower bound on a stretchable edge forces a hanging path
    rooted at one of the carved path's interior slots."""
    fx = roundtrip_fixture("expanded_path")
    doc = json.loads(
        __import__("invqsar.topospec", fromlist=["spec_to_json_text"])
        .spec_to_json_text(fx.spec)
    )
    doc["seed"]["edges"][0]["branch_lb"] = 1  # the path-class edge
    spec = parse_spec(json.dumps(doc))
    model = build_milp(spec, fx.space)
    sol = solve(model, "highs")
    assert sol.status == "optimal"
    t_tilde = len(spec.seed.leafable)
    t_colors = [
        c
        for c in range(t_tilde + 1, t_tilde + spec.t_tree + 1)
        if sol.int_value(f"dclrF_{c}") == 1
    ]
    assert t_colors, "no leaf path rooted on a path slot"
    g = decode(sol, spec)
    assert g.validate() == []
    fv_dec = featurize(g, fx.space)
    xs = solution_feature_values(sol, fx.space)
    assert all(abs(a - b) <= 1e-6 for a, b in zip(fv_dec.as_floats(), xs))
    report = check_graph_satisfies(spec, g)
    assert report.passed, report.to_text()


def test_roundtrip_multivalent_sulfur():
    """Distinct valence variants of one symbol flow through element
    assignment, the valence rows and decode."""
    from conftest import fringe_menu_json, ring, uniform_predictor
    from invqsar.descriptors import build_space
    from invqsar.graph import build_graph

    def sulfone_ring(n):
        # ring with one S(6) carrying two exocyclic double-bonded oxygens
        atoms = [(1, "S(6)")] + [(i, "C") for i in range(2, n + 1)]
        atoms += [(n + 1, "O"), (n + 2, "O")]
        bonds = [(i, i % n + 1, 1) for i in range(1, n + 1)]
        bonds += [(1, n + 1, 2), (1, n + 2, 2)]
        return build_graph(atoms, bonds, add_hydrogens=True)

    def thioether_ring(n):
        atoms = [(1, "S")] + [(i, "C") for i in range(2, n + 1)]
        bonds = [(i, i % n + 1, 1) for i in range(1, n + 1)]
        return build_graph(atoms, bonds, add_hydrogens=True)

    target = sulfone_ring(5)
    dataset = [ring(5), ring(6), thioether_ring(5), thioether_ring(6),
               sulfone_ring(5), sulfone_ring(6)]
    space = build_space(dataset, 2)
    vectors = [featurize(g, space) for g in dataset]
    predictor = uniform_predictor(space, vectors)
    psis = fringe_menu_json(dataset)
    doc = {
        "version": 1, "rho": 2, "n_lb": 5, "n_star": 10,
        "n_int_lb": 5, "n_int_ub": 7,
        "seed": {
            "vertices": [
                {"id": 1, "elements": ["S", "S(6)"]},
                {"id": 2, "elements": ["C"]},
                {"id": 3, "elements": ["C"]},
            ],
            "edges": [
                {"tail": 1, "head": 2, "len_lb": 1, "len_ub": 2},
                {"tail": 1, "head": 3, "len_lb": 1, "len_ub": 2},
                {"tail": 2, "head": 3, "len_lb": 1, "len_ub": 3},
            ],
        },
        "lambda_int": ["C", "S", "S(6)"], "lambda_ex": ["H", "O"],
        "fringe_trees": psis,
    }
    spec = parse_spec(json.dumps(doc))
    fv = featurize(target, space)
    y = predictor.predict_normalized(fv.as_floats())
    model = build_milp(spec, space, predictor, y - 0.01, y + 0.01)
    sol = solve(model, "highs", polish=polish_solution)
    assert sol.status == "optimal"
    g = decode(sol, spec)
    assert g.validate() == []
    sulfurs = [v.element.token for v in g.vertices if v.element.symbol == "S"]
    assert sulfurs, "expected a sulfur atom in the decoded molecule"
    fv_dec = featurize(g, space)
    assert fv_dec.values == solution_feature_values(sol, space)
    assert check_graph_satisfies(spec, g).passed
