"""Specification templates derived from example molecules, and a randomized
end-to-end campaign over them: derive, solve, decode, verify."""

import json

import numpy as np
import pytest

from invqsar.decompose import decompose
from invqsar.descriptors import build_space, featurize
from invqsar.milp.build import build_milp, polish_solution
from invqsar.milp.decode import decode, solution_feature_values
from invqsar.milp.solve import solve
from invqsar.topospec import (
    SpecError,
    check_graph_satisfies,
    parse_spec,
    spec_from_graph,
)

from invqsar.graph import build_graph

from conftest import chain, random_chemical_graph, ring, uniform_predictor


def test_hand_examples_satisfy_their_own_spec():
    for g in (ring(6), ring(4, pendant=3), ring(5, pendant=1), ring(3)):
        spec = parse_spec(json.dumps(spec_from_graph(g)))
        report = check_graph_satisfies(spec, g)
        assert report.passed, report.to_text()


def test_requires_interior():
    with pytest.raises(SpecError):
        spec_from_graph(chain(["C", "C"]))


def test_random_molecules_satisfy_their_own_spec():
    rng = np.random.default_rng(424242)
    checked = 0
    while checked < 60:
        g = random_chemical_graph(rng, max_heavy=12)
        if len(decompose(g, 2).interior_vertices) < 2:
            continue
        checked += 1
        spec = parse_spec(json.dumps(spec_from_graph(g)))
        report = check_graph_satisfies(spec, g)
        assert report.passed, report.to_text()


def test_menu_widening_covers_elements():
    base = ring(5)
    donor = random_chemical_graph(np.random.default_rng(7), max_heavy=9)
    trees = list(decompose(base, 2).fringe_trees.values())
    trees += list(decompose(donor, 2).fringe_trees.values())
    doc = spec_from_graph(base, fringe_trees=trees)
    lam_ex = set(doc["lambda_ex"])
    for tree in trees:
        assert set(tree.nonroot_element_counts) <= lam_ex


def test_randomized_inverse_campaign():
    """Derive a spec from a random molecule, center the target window on
    it, and verify the full solve-decode-check loop."""
    rng = np.random.default_rng(1234)
    backend = "highs"
    verified = 0
    while verified < 8:
        family = [random_chemical_graph(rng, max_heavy=10) for _ in range(4)]
        target = next(
            (g for g in family if len(decompose(g, 2).interior_vertices) >= 2),
            None,
        )
        if target is None:
            continue
        space = build_space(family, 2)
        trees = []
        for g in family:
            trees.extend(decompose(g, 2).fringe_trees.values())
        spec = parse_spec(
            json.dumps(spec_from_graph(target, fringe_trees=trees))
        )
        vectors = [featurize(g, space) for g in family]
        predictor = uniform_predictor(space, vectors, weight=0.07)
        fv = featurize(target, space)
        y = predictor.predict_normalized(fv.as_floats())
        model = build_milp(spec, space, predictor, y - 0.02, y + 0.02)
        sol = solve(model, backend, time_limit=300, polish=polish_solution)
        assert sol.status == "optimal", "target satisfies the spec, so a " \
            "solution must exist"
        graph = decode(sol, spec)
        assert graph.validate() == []
        fv_dec = featurize(graph, space)
        assert fv_dec.values == solution_feature_values(sol, space)
        y_dec = predictor.predict_normalized(fv_dec.as_floats())
        assert y - 0.0201 <= y_dec <= y + 0.0201
        assert check_graph_satisfies(spec, graph).passed
        verified += 1


def _round_trip(target, family):
    """Derive target's spec with the family's fringe trees as its menu,
    check that target meets it, and solve, decode and verify a window of
    +-0.01 around target's prediction.  Returns the spec and the solution."""
    space = build_space(family, 2)
    trees = []
    for g in family:
        trees.extend(decompose(g, 2).fringe_trees.values())
    spec = parse_spec(json.dumps(spec_from_graph(target, fringe_trees=trees)))
    assert check_graph_satisfies(spec, target).passed
    vectors = [featurize(g, space) for g in family]
    predictor = uniform_predictor(space, vectors)
    fv = featurize(target, space)
    y = predictor.predict_normalized(fv.as_floats())
    model = build_milp(spec, space, predictor, y - 0.01, y + 0.01)
    sol = solve(model, "highs", polish=polish_solution)
    assert sol.status == "optimal"
    graph = decode(sol, spec)
    assert graph.validate() == []
    fv_dec = featurize(graph, space)
    assert fv_dec.values == solution_feature_values(sol, space)
    assert check_graph_satisfies(spec, graph).passed
    return spec, sol


def test_acyclic_target_roundtrip():
    """Tree-shaped molecules work end to end: a chain's interior is a path
    seed whose outer vertices demand full-height fringe trees."""
    family = [chain(["C"] * n) for n in (5, 6, 7, 8)]
    _, sol = _round_trip(chain(["C"] * 7), family)
    assert sol.int_value("rank") == 0


def test_fused_rings_make_parallel_seed_edges():
    """Fused ring systems contract to seeds with parallel stretchable
    edges between the shared vertices; the round trip survives them."""
    atoms = [(i, "C") for i in range(1, 11)]
    bonds = [(1, 2, 1), (2, 3, 1), (3, 4, 1), (4, 5, 1), (5, 6, 1), (6, 1, 1),
             (5, 7, 1), (7, 8, 1), (8, 9, 1), (9, 10, 1), (10, 6, 1)]
    target = build_graph(atoms, bonds, add_hydrogens=True)
    spec, _ = _round_trip(target, [target, ring(6), ring(5)])
    pairs = [(e.tail, e.head) for e in spec.seed.edges]
    assert len(pairs) > len(set(pairs))  # parallel seed edges present


def test_branched_hanging_tree_joins_the_seed():
    """An interior tree that branches off a ring (vertex 7 with two arms
    8-9-10 and 11-12-13; at rho 2 atoms 7, 8 and 11 are interior) cannot be
    a leaf path, so its vertices become seed vertices."""
    atoms = [(i, "C") for i in range(1, 14)]
    bonds = [(i, i % 6 + 1, 1) for i in range(1, 7)]
    bonds += [(1, 7, 1), (7, 8, 1), (8, 9, 1), (9, 10, 1), (7, 11, 1), (11, 12, 1),
              (12, 13, 1)]
    target = build_graph(atoms, bonds, add_hydrogens=True)
    spec, _ = _round_trip(target, [target, ring(6), ring(5, pendant=2)])
    assert spec.seed.t_c == 5  # ring anchor and the ring's far side, 7, 8, 11
    assert not any(v.leaf_path_allowed for v in spec.seed.vertices)
