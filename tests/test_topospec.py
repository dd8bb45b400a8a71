import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

from invqsar.topospec import (
    FIXED,
    FLEXIBLE,
    OPTIONAL,
    PATH,
    SpecError,
    check_graph_satisfies,
    classify_edge,
    parse_spec,
    spec_from_graph,
    spec_to_json,
    spec_to_json_text,
)

from invqsar.descriptors import take_census

from conftest import (
    ALL_ROUNDTRIP_FIXTURES,
    chain,
    fringe_menu_json,
    hydrogen_tree_entry,
    perfbench_inputs,
    random_chemical_graph,
    relabelled,
    ring,
    roundtrip_fixture,
    triangle_spec_doc,
)


def minimal_spec(**overrides):
    doc = triangle_spec_doc(fringe_menu_json([ring(3), ring(6)]))
    doc.update(overrides)
    return doc


def test_edge_classes():
    assert classify_edge(1, 1) == FIXED
    assert classify_edge(0, 1) == OPTIONAL
    assert classify_edge(1, 4) == FLEXIBLE
    assert classify_edge(2, 4) == PATH
    with pytest.raises(SpecError):
        classify_edge(0, 3)


def test_minimal_triangle_spec():
    spec = parse_spec(json.dumps(minimal_spec()))
    assert spec.seed.k_c == 0
    assert spec.seed.rank == 1
    assert spec.seed.t_c == 3


def test_path_edge_indexing():
    doc = minimal_spec()
    doc["seed"]["edges"] = [
        {"tail": 1, "head": 2, "len_lb": 1, "len_ub": 1},
        {"tail": 2, "head": 3, "len_lb": 2, "len_ub": 4},
        {"tail": 1, "head": 3, "len_lb": 1, "len_ub": 2},
        {"tail": 2, "head": 3, "len_lb": 0, "len_ub": 1},
    ]
    doc["n_int_ub"] = 6
    spec = parse_spec(json.dumps(doc))
    classes = [e.cls for e in spec.seed.edges]
    # ordering: path first, then flexible, optional, fixed
    assert classes == [PATH, FLEXIBLE, OPTIONAL, FIXED]
    assert spec.seed.k_c == 2
    assert [e.index for e in spec.seed.edges] == [1, 2, 3, 4]


def test_round_trip_identity():
    doc = minimal_spec()
    doc["seed"]["vertices"][0]["leaf_path"] = True
    doc["na_ub"] = {"C": 7}
    doc["ac_lf"] = [{"a": "C", "b": "C", "mult": 1, "lb": 0, "ub": 3}]
    spec = parse_spec(json.dumps(doc))
    text = spec_to_json_text(spec)
    spec2 = parse_spec(text)
    assert spec_to_json_text(spec2) == text


def test_validation_errors():
    with pytest.raises(SpecError, match="n_int_lb"):
        parse_spec(json.dumps(minimal_spec(n_int_lb=1)))
    with pytest.raises(SpecError, match="len_lb above"):
        doc = minimal_spec()
        doc["seed"]["edges"][0] = {"tail": 1, "head": 2, "len_lb": 3, "len_ub": 2}
        parse_spec(json.dumps(doc))
    with pytest.raises(SpecError, match="tail < head"):
        doc = minimal_spec()
        doc["seed"]["edges"][0] = {"tail": 2, "head": 1, "len_lb": 1, "len_ub": 1}
        parse_spec(json.dumps(doc))
    with pytest.raises(SpecError, match="unknown element"):
        parse_spec(json.dumps(minimal_spec(lambda_int=["Qq"])))
    with pytest.raises(SpecError, match="connected"):
        doc = minimal_spec()
        doc["seed"]["edges"][2]["len_lb"] = 0
        doc["seed"]["edges"][1]["len_lb"] = 0
        doc["seed"]["edges"][1]["len_ub"] = 1
        doc["seed"]["edges"][2]["len_ub"] = 1
        parse_spec(json.dumps(doc))
    with pytest.raises(SpecError, match="not valid JSON"):
        parse_spec("{nope")


def test_checker_accepts_matching_ring():
    # seed edges stretchable to length 2 embed a hexagon on a triangle seed
    doc = minimal_spec(n_int_ub=6, n_star=10)
    for e in doc["seed"]["edges"]:
        e["len_ub"] = 2
    spec = parse_spec(json.dumps(doc))
    report = check_graph_satisfies(spec, ring(6))
    assert report.passed, report.to_text()
    report3 = check_graph_satisfies(spec, ring(3))
    assert report3.passed


def test_checker_flags_interior_bound():
    doc = minimal_spec(n_int_ub=5, n_star=10)
    for e in doc["seed"]["edges"]:
        e["len_ub"] = 2
    spec = parse_spec(json.dumps(doc))
    report = check_graph_satisfies(spec, ring(6))
    assert not report.passed
    assert [c.name for c in report.failures()] == ["interior_count"]


def test_checker_rejects_empty_interior():
    spec = parse_spec(json.dumps(minimal_spec()))
    report = check_graph_satisfies(spec, chain(["C", "C"]))
    failures = {c.name for c in report.failures()}
    assert "interior_count" in failures or "seed_embedding" in failures


def test_checker_rejects_wrong_shape():
    # path graph cannot host a triangle seed
    spec = parse_spec(json.dumps(minimal_spec(n_star=12, n_int_ub=6)))
    report = check_graph_satisfies(spec, chain(["C"] * 7))
    assert not report.passed
    assert any(c.name == "seed_embedding" for c in report.failures())


def test_checker_element_menu():
    doc = minimal_spec()
    doc["seed"]["vertices"][0]["elements"] = ["N"]
    doc["lambda_int"] = ["C", "N"]
    spec = parse_spec(json.dumps(doc))
    report = check_graph_satisfies(spec, ring(3))
    assert not report.passed  # no nitrogen anywhere in the ring
    assert any(c.name == "seed_embedding" for c in report.failures())


def test_checker_leaf_path_permission():
    # pendant chain needs a permitted vertex
    target = ring(4, pendant=3)
    dataset = [ring(4), ring(6), target]
    psis = fringe_menu_json(dataset)
    doc = {
        "version": 1, "rho": 2, "n_lb": 4, "n_star": 12,
        "n_int_lb": 3, "n_int_ub": 7,
        "seed": {
            "vertices": [
                {"id": 1, "elements": ["C"], "leaf_path": False},
                {"id": 2, "elements": ["C"]},
                {"id": 3, "elements": ["C"]},
                {"id": 4, "elements": ["C"]},
            ],
            "edges": [
                {"tail": 1, "head": 2, "len_lb": 1, "len_ub": 1},
                {"tail": 2, "head": 3, "len_lb": 1, "len_ub": 1},
                {"tail": 3, "head": 4, "len_lb": 1, "len_ub": 1},
                {"tail": 1, "head": 4, "len_lb": 1, "len_ub": 1},
            ],
        },
        "lambda_int": ["C"], "lambda_ex": ["C", "H"],
        "fringe_trees": psis,
    }
    spec = parse_spec(json.dumps(doc))
    report = check_graph_satisfies(spec, target)
    assert not report.passed  # leaf path exists but nothing permits it
    doc["seed"]["vertices"][0]["leaf_path"] = True
    spec2 = parse_spec(json.dumps(doc))
    assert check_graph_satisfies(spec2, target).passed


@pytest.mark.parametrize("name", ALL_ROUNDTRIP_FIXTURES)
def test_checker_reuses_only_a_census_at_the_spec_rho(name):
    """A census handed to the checker gives the report the checker would
    compute itself; one taken with another branch parameter is not used."""
    fx = roundtrip_fixture(name)
    g, spec = fx.target, fx.spec
    expected = check_graph_satisfies(spec, g).to_json()
    assert expected["passed"]
    for rho in (spec.rho, spec.rho - 1, spec.rho + 1):
        assert check_graph_satisfies(spec, g, take_census(g, rho)).to_json() == expected


def _edit(path, value):
    """An edit of a spec document that sets (or, with DELETE, removes) the
    value at path, a tuple of keys and list indices."""
    def apply(doc):
        *parents, last = path
        for key in parents:
            doc = doc[key]
        if value is DELETE:
            del doc[last]
        else:
            doc[last] = value
    return apply


DELETE = object()


def _drop_fringe_entry(psi):
    def apply(doc):
        doc["fringe_trees"] = [f for f in doc["fringe_trees"] if f["id"] != psi]
        doc["fringe_assignment"]["edge"].remove(psi)
    return apply


def _every_seed_vertex(**values):
    def apply(doc):
        for v in doc["seed"]["vertices"]:
            v.update(values)
    return apply


# One edit per clause of the expanded_path fixture's spec, breaking that
# clause under every seed embedding of the fixture's target (a 4-ring with
# a 3-carbon chain, whose ring vertices carry psi4).  A fringe tree outside
# the catalog also stops the embedding search.
CLAUSE_BREAKS = {
    "element_sets": (_edit(("lambda_ex",), ["H"]), []),
    "element_counts": (_edit(("na_ub",), {"C": 6}), []),
    "degree_bounds": (_edit(("deg_ub",), [12, 12, 12, 0]), []),
    "fringe_catalog": (_drop_fringe_entry("psi4"), ["seed_embedding"]),
    "fringe_counts": (_edit(("fringe_trees", 0, "fc_lb"), 12), []),
    "leaf_edge_bounds": (
        _edit(("ac_lf",), [{"a": "C", "b": "C", "mult": 1, "lb": 2}]), []),
    "fringe_menus": (_edit(("fringe_assignment", "edge"), []), []),
    "height_bounds": (_every_seed_vertex(height_lb=1), []),
    "leaf_branch_bounds": (_every_seed_vertex(leaf_path=True, leaf_path_lb=1), []),
    "bond_bounds": (_edit(("seed", "edges", 0, "bond2_lb"), 1), []),
    "mass_avg": (_edit(("mass_avg_ub",), 10.5), []),
}


@pytest.mark.parametrize("clause", CLAUSE_BREAKS)
def test_each_clause_fails_alone(clause):
    edit, also = CLAUSE_BREAKS[clause]
    fx = roundtrip_fixture("expanded_path")
    doc = spec_to_json(fx.spec)
    edit(doc)
    report = check_graph_satisfies(parse_spec(json.dumps(doc)), fx.target)
    assert [c.name for c in report.failures()] == [clause, *also], report.to_text()


@pytest.mark.parametrize("tokens", [["O", "C", "C", "N"], ["N", "C", "C", "O"]])
def test_location_clauses_hold_under_some_embedding(tokens):
    """Seed vertex 1 must carry the nitrogen, seed vertex 2 the oxygen: the
    molecule passes whichever of its two carbons is numbered first."""
    g = chain(tokens)
    psis = fringe_menu_json([g], rho=1)
    by_element = {v["element"]: f["id"] for f in psis for v in f["vertices"]
                  if v["element"] in ("N", "O")}
    doc = {
        "version": 1, "rho": 1, "n_lb": 2, "n_star": 6,
        "n_int_lb": 2, "n_int_ub": 2,
        "seed": {"vertices": [{"id": 1, "elements": ["C"]},
                              {"id": 2, "elements": ["C"]}],
                 "edges": [{"tail": 1, "head": 2, "len_lb": 1, "len_ub": 1}]},
        "lambda_int": ["C"], "lambda_ex": ["H", "N", "O"],
        "fringe_trees": psis,
        "fringe_assignment": {"vertex": {"1": [by_element["N"]],
                                         "2": [by_element["O"]]}},
    }
    report = check_graph_satisfies(parse_spec(json.dumps(doc)), g)
    assert report.passed, report.to_text()


def test_verdict_does_not_depend_on_vertex_numbering():
    """Random molecules whose seed vertex 1 may carry only the first fringe
    tree keep their verdict when their vertex ids are permuted."""
    rng = np.random.default_rng(3)
    checked = 0
    while checked < 100:
        g = random_chemical_graph(rng, max_heavy=10)
        if len(take_census(g, 2).decomposition.interior_vertices) < 2:
            continue
        doc = spec_from_graph(g)
        doc["fringe_assignment"] = {"vertex": {"1": ["psi1"]}}
        spec = parse_spec(json.dumps(doc))
        expected = check_graph_satisfies(spec, g).passed
        for _ in range(3):
            assert check_graph_satisfies(spec, relabelled(g, rng)).passed == expected
        checked += 1


# -- the strict schema --------------------------------------------------------


# One case per fault class: the edit and the path the error must name.
SPEC_FAULTS = {
    "edge-without-tail": (_edit(("seed", "edges", 0, "tail"), DELETE),
                          "seed.edges[0].tail"),
    "fringe-tree-without-id": (_edit(("fringe_trees", 0, "id"), DELETE),
                               "fringe_trees[0].id"),
    "ac_lf-without-a": (_edit(("ac_lf",), [{"b": "C", "mult": 1}]), "ac_lf[0].a"),
    "ac_lf-repeat": (_edit(("ac_lf",), [{"a": "C", "b": "C", "mult": 1, "ub": 3},
                                        {"a": "C", "b": "C", "mult": 1, "lb": 1}]),
                     "ac_lf[1]"),
    "vertices-object": (_edit(("seed", "vertices"), {}), "seed.vertices"),
    "seed-list": (_edit(("seed",), []), "seed"),
    "na_lb-list": (_edit(("na_lb",), [1]), "na_lb"),
    "fringe_assignment-list": (_edit(("fringe_assignment",), []), "fringe_assignment"),
    "len_ub-fraction": (_edit(("seed", "edges", 0, "len_ub"), 2.9),
                        "seed.edges[0].len_ub"),
    "rho-string": (_edit(("rho",), "2"), "rho"),
    "deg_lb-string": (_edit(("deg_lb",), "0000"), "deg_lb"),
    "lambda_int-string": (_edit(("lambda_int",), "C"), "lambda_int"),
    "leaf_path-string": (_edit(("seed", "vertices", 0, "leaf_path"), "no"),
                         "seed.vertices[0].leaf_path"),
    "mass_avg_ub-nan": (_edit(("mass_avg_ub",), float("nan")), "mass_avg_ub"),
    "n_lb-negative": (_edit(("n_lb",), -5), "n_lb"),
    "fc_ub-negative": (_edit(("fringe_trees", 0, "fc_ub"), -1),
                       "fringe_trees[0].fc_ub"),
    "unknown-key": (_edit(("n_start",), 8), "n_start"),
    "tree-order-fraction": (_edit(("fringe_trees", 2, "edges", 0, "order"), 1.5),
                            "fringe_trees[2].edges[0].order"),
    "tree-without-root": (_edit(("fringe_trees", 1, "root"), DELETE),
                          "fringe_trees[1].root"),
    "tree-root-string": (_edit(("fringe_trees", 1, "root"), "1"),
                         "fringe_trees[1].root"),
    "n_star-bool": (_edit(("n_star",), True), "n_star"),
    "element-token-spaces": (_edit(("lambda_int",), [" C "]), "lambda_int[0]"),
    "element-valence-spaces": (_edit(("lambda_ex",), ["C", "H", "S( 6)"]),
                               "lambda_ex[2]"),
}


@pytest.mark.parametrize("name", SPEC_FAULTS)
def test_spec_fault_names_its_path(name):
    edit, path = SPEC_FAULTS[name]
    # the triangle spec with a menu of three fringe trees
    doc = triangle_spec_doc(fringe_menu_json(
        [ring(3), ring(4, pendant=1), ring(5, pendant=2)]))
    parse_spec(json.dumps(doc))
    edit(doc)
    with pytest.raises(SpecError) as caught:
        parse_spec(json.dumps(doc))
    assert repr(path) in str(caught.value)
    assert str(caught.value).startswith("malformed specification")


@pytest.mark.parametrize("edges, faults", [
    # hydrogen 2 bonds to three atoms: C1-H2, H2-C3 and H2=C4
    ([(1, 2, 1), (2, 3, 1), (2, 4, 2)], [2]),
    # a leaf hydrogen on a double bond
    ([(1, 2, 2), (1, 3, 1), (3, 4, 1)], [2]),
], ids=["hydrogen_with_children", "hydrogen_on_double_bond"])
def test_menu_hydrogen_must_be_a_single_bonded_leaf(edges, faults):
    """A fringe-tree entry whose hydrogen has a child or a bond of order
    other than 1 is a specification fault that names the entry."""
    doc = triangle_spec_doc(fringe_menu_json([ring(3), ring(6)]))
    doc["lambda_ex"] = ["C", "H"]
    doc["fringe_trees"].append(hydrogen_tree_entry("bad", edges))
    with pytest.raises(SpecError) as caught:
        parse_spec(json.dumps(doc))
    assert str(caught.value) == "; ".join(
        f"fringe tree bad: hydrogen {h} is not a leaf on a single bond"
        for h in faults)
    doc["fringe_trees"][-1] = hydrogen_tree_entry("good", [(1, 2, 1), (1, 3, 1),
                                                            (3, 4, 2)])
    parse_spec(json.dumps(doc))


def test_spec_faults_keep_their_clause_messages():
    """Values of the right type that break a clause are collected into one
    message; an edge off the vertex set is one of them, not a KeyError."""
    doc = minimal_spec(n_lb=9, deg_lb=[0, 0, 5, 0], deg_ub=[1, 1, 1, 1])
    doc["seed"]["edges"][0].update(tail=1, head=9)
    with pytest.raises(SpecError) as caught:
        parse_spec(json.dumps(doc))
    message = str(caught.value)
    for part in ("n_lb above n_star", "deg bounds cross",
                 "edge (1,9) off the vertex set"):
        assert part in message


def _demo_spec_doc():
    path = Path(__file__).resolve().parents[1] / "scripts" / "run_demo.py"
    spec = importlib.util.spec_from_file_location("run_demo", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return spec_to_json(module.demo_spec(module.demo_dataset()))


def _round_trip_docs():
    docs = {name: lambda name=name: spec_to_json(roundtrip_fixture(name).spec)
            for name in ALL_ROUNDTRIP_FIXTURES}
    for i in range(5):
        docs[f"stress{i}"] = lambda i=i: perfbench_inputs().stress_problems(
            np.random.default_rng(1), 5, 8)[i][1]
    for i, g in enumerate([ring(6), ring(4, pendant=3), ring(5, pendant=1)]):
        docs[f"from_graph{i}"] = lambda g=g: spec_from_graph(g)
    docs["from_graph_random"] = lambda: spec_from_graph(next(
        g for g in (random_chemical_graph(np.random.default_rng(s), 10)
                    for s in range(100))
        if len(take_census(g, 2).decomposition.interior_vertices) >= 2))
    docs["run_demo"] = _demo_spec_doc
    return docs


ROUND_TRIP_DOCS = _round_trip_docs()


@pytest.mark.parametrize("name", ROUND_TRIP_DOCS)
def test_spec_json_round_trip(name):
    spec = parse_spec(json.dumps(ROUND_TRIP_DOCS[name]()))
    text = spec_to_json_text(spec)
    again = parse_spec(text)
    assert again == spec
    assert spec_to_json_text(again) == text


def _three_tree_doc():
    """The triangle spec with a menu of three fringe trees, of which only
    psi1 is taller than 1."""
    return triangle_spec_doc(fringe_menu_json(
        [ring(3), ring(4, pendant=1), ring(5, pendant=2)]))


def _seed_vertex(i, **values):
    return lambda doc: doc["seed"]["vertices"][i].update(values)


def _seed_edge(i, **values):
    return lambda doc: doc["seed"]["edges"][i].update(values)


def _no_interior_elements(doc):
    doc["lambda_int"] = []
    for v in doc["seed"]["vertices"]:
        v["elements"] = []


# one edit of _three_tree_doc -> the exact message: every clause problem
# that parse_spec collects after the schema read
SPEC_CLAUSE_FAULTS = {
    "n_int_lb_below_2": (_edit(("n_int_lb",), 1), "n_int_lb=1 outside [2, n_star]"),
    "n_int_lb_above_n_int_ub": (_edit(("n_int_lb",), 4), "n_int_lb above n_int_ub"),
    "n_lb_above_n_star": (_edit(("n_lb",), 9), "n_lb above n_star"),
    "empty_lambda_int": (_no_interior_elements, "lambda_int must not be empty"),
    "vertex_ids_skip": (_seed_vertex(1, id=5),
                        "seed vertex ids must be consecutive from 1 (at 2)"),
    "leaf_path_lb_unpermitted": (
        _seed_vertex(0, leaf_path_lb=1),
        "seed vertex 1: leaf_path_lb requires leaf_path permission"),
    "vertex_heights_cross": (_seed_vertex(2, height_lb=2, height_ub=1),
                             "seed vertex 3: height_lb above height_ub"),
    "vertex_element_outside": (_seed_vertex(0, elements=["N"]),
                               "seed vertex 1 allows element N outside lambda_int"),
    "edge_off_vertex_set": (_seed_edge(0, head=9), "edge (1,9) off the vertex set"),
    "edge_reversed": (_seed_edge(0, tail=2, head=1),
                      "edge (2,1) must be directed tail < head"),
    "edge_lengths_cross": (_seed_edge(0, len_lb=3, len_ub=2),
                           "edge (1,2): len_lb above len_ub"),
    "edge_class_ambiguous": (_seed_edge(0, len_lb=0, len_ub=3),
                             "ambiguous edge class for length bounds [0,3]"),
    "seed_disconnected": (
        lambda doc: doc["seed"].update(edges=doc["seed"]["edges"][:1]),
        "seed graph must stay connected without its optional edges"),
    "na_cross": (lambda doc: doc.update(na_lb={"C": 5}, na_ub={"C": 4}),
                 "na bounds for C cross"),
    "na_int_cross": (lambda doc: doc.update(na_int_lb={"C": 3}, na_int_ub={"C": 2}),
                     "na_int bounds for C cross"),
    "deg_cross": (_edit(("deg_lb",), [0, 0, 9, 0]), "deg bounds cross"),
    "fringe_taller_than_rho": (_edit(("rho",), 1),
                               "fringe tree psi1 has height 2 > rho"),
    "duplicate_fringe_ids": (_edit(("fringe_trees", 1, "id"), "psi1"),
                             "duplicate fringe tree ids"),
    "no_fringe_tree": (_edit(("fringe_trees",), []),
                       "at least one fringe tree is required"),
    "assignment_unknown_vertex": (
        _edit(("fringe_assignment",), {"vertex": {"9": ["psi1"]}}),
        "fringe assignment for unknown seed vertex 9"),
    "assignment_unknown_tree": (
        _edit(("fringe_assignment",), {"vertex": {"1": ["psi9"]}}),
        "fringe assignment names unknown tree 'psi9'"),
    "edge_set_unknown_tree": (
        _edit(("fringe_assignment",), {"edge": ["psi1", "psi9"]}),
        "edge fringe set names unknown tree 'psi9'"),
    "ac_lf_cross": (_edit(("ac_lf",), [{"a": "C", "b": "C", "mult": 1,
                                        "lb": 3, "ub": 2}]),
                    "ac_lf bounds for C_C_1 cross"),
}


@pytest.mark.parametrize("case", SPEC_CLAUSE_FAULTS)
def test_spec_clause_fault_messages(case):
    """Each edit breaks one clause of a valid document, and parse_spec
    names it with its pinned message."""
    edit, message = SPEC_CLAUSE_FAULTS[case]
    doc = _three_tree_doc()
    parse_spec(json.dumps(doc))
    edit(doc)
    with pytest.raises(SpecError) as caught:
        parse_spec(json.dumps(doc))
    assert str(caught.value) == message
