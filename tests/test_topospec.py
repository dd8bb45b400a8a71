import json

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
    spec_to_json_text,
)

from invqsar.descriptors import take_census

from conftest import (
    ALL_ROUNDTRIP_FIXTURES,
    fringe_menu_json,
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
    assert spec.seed.k_tilde == 0
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
    assert spec.seed.k_tilde == 1
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
    from conftest import chain

    spec = parse_spec(json.dumps(minimal_spec()))
    report = check_graph_satisfies(spec, chain(["C", "C"]))
    failures = {c.name for c in report.failures()}
    assert "interior_count" in failures or "seed_embedding" in failures


def test_checker_rejects_wrong_shape():
    # path graph cannot host a triangle seed
    from conftest import chain

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
