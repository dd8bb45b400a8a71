import hashlib
import json
import math
import re
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from invqsar.descriptors import build_space, featurize, take_census
from invqsar.graph import build_graph
from invqsar.milp.build import (
    EPSILON,
    VARIABLE_FAMILIES,
    Build,
    BuildError,
    build_milp,
    polish_solution,
)
from invqsar.milp.decode import decode
from invqsar.milp.model import CHECK_TOL, check_solution, emit_lp
from invqsar.milp.solve import SolutionCheckError, solve, solve_highs
from invqsar.topospec import check_graph_satisfies, parse_spec, spec_to_json

from conftest import (
    ALL_ROUNDTRIP_FIXTURES,
    fringe_menu_json,
    perfbench_inputs,
    ring,
    roundtrip_fixture,
    triangle_spec_doc,
    uniform_predictor,
)


def triangle_setup(**spec_overrides):
    dataset = [ring(3), ring(5), ring(6)]
    space = build_space(dataset, 2)
    doc = triangle_spec_doc(fringe_menu_json(dataset))
    doc.update(spec_overrides)
    spec = parse_spec(json.dumps(doc))
    return dataset, space, spec


def test_family_coverage():
    """Each constraint family contributes rows when its index set is
    populated."""
    names: list[str] = []
    counts: dict[str, int] = {}
    # union over fixtures so every edge class and slot kind is populated
    for fixture_name in ("expanded_path", "two_rings", "square_chord"):
        fx = roundtrip_fixture(fixture_name)
        model = build_milp(fx.spec, fx.space, fx.predictor, 0.0, 1.0)
        for con in model.constraints:
            names.append(con.name)
            prefix = con.name.split("_")[0]
            counts[prefix] = counts.get(prefix, 0) + 1
    for family in ("co", "lp", "fr", "dg", "mt", "av", "bb", "dl", "nm", "pred"):
        assert counts.get(family, 0) >= 1, f"family {family} contributed no rows"
    # finer-grained coverage: every sub-family applicable to these fixtures
    wanted = [
        "co_rank", "co_onehot", "co_code", "co_count", "co_chain", "co_either",
        "co_drop", "co_need", "co_fix", "co_outdeg", "co_indeg", "co_prefix",
        "lp_onehot", "lp_code", "lp_count", "lp_chain", "lp_branch",
        "lp_branches", "lp_interior_size",
        "fr_pick", "fr_degex", "fr_hyddeg", "fr_eledeg", "fr_height",
        "fr_tallend", "fr_heavy_count", "fr_count", "fr_ac", "fr_chC",
        "fr_chT", "fr_argmax", "fr_sigsel",
        "dg_ct", "dg_tc", "dg_intC", "dg_intT", "dg_intF", "dg_splitC",
        "dg_leafC", "dg_onehot", "dg_value", "dg_ionehot", "dg_ivalue",
        "dg_sonehot", "dg_svalue", "dg_tally", "dg_itally",
        "mt_gate", "mt_onehot", "mt_value", "mt_root", "mt_first", "mt_last",
        "mt_side", "mt_bd",
        "av_first", "av_last", "av_leaf", "av_onehot", "av_code", "av_root",
        "av_menu", "av_valC", "av_valT", "av_valF", "av_na", "av_naint",
        "av_naex", "av_natotal", "av_mass", "av_atoms", "av_avg",
        "bb_mark", "bb_cap", "bb_path",
        "dl_cs", "dl_first", "dl_last", "dl_lphead", "dl_fs", "dl_ls",
        "dl_ec_and", "dl_ec_cover", "dl_x",
        "nm_d", "nm_lo", "nm_hi", "pred_value",
    ]
    for stem in wanted:
        assert any(n == stem or n.startswith(stem + "_") or n.startswith(stem)
                   for n in names), f"no rows from sub-family {stem}"


def test_build_determinism():
    fx = roundtrip_fixture("triangle")
    m1 = build_milp(fx.spec, fx.space, fx.predictor, 0.1, 0.9)
    m2 = build_milp(fx.spec, fx.space, fx.predictor, 0.1, 0.9)
    assert emit_lp(m1) == emit_lp(m2)


def test_triangle_rank_fixed():
    _, space, spec = triangle_setup()
    model = build_milp(spec, space)
    sol = solve(model, "mini")
    assert sol.status == "optimal"
    assert sol.int_value("rank") == 1
    for e in spec.seed.edges:
        assert sol.int_value(f"eC_{e.index}") == 1


def test_path_color_count_bounds():
    dataset = [ring(3), ring(5), ring(6)]
    space = build_space(dataset, 2)
    doc = triangle_spec_doc(fringe_menu_json(dataset), n_int_ub=5)
    doc["seed"]["edges"][0] = {"tail": 1, "head": 2, "len_lb": 2, "len_ub": 3}
    spec = parse_spec(json.dumps(doc))
    model = build_milp(spec, space)
    v = model.var("clrT_1")
    assert (v.lb, v.ub) == (1.0, 2.0)


def test_optional_edge_drop_reduces_rank():
    fx = roundtrip_fixture("square_chord")
    model = build_milp(fx.spec, fx.space)
    # chord forced in: rank 2; chord forced out: rank 1
    chord = next(e for e in fx.spec.seed.edges if e.cls == "optional")
    m_in = build_milp(fx.spec, fx.space)
    m_in.fix_var(f"eC_{chord.index}", 1)
    sol_in = solve(m_in, "highs")
    assert sol_in.int_value("rank") == 2
    m_out = build_milp(fx.spec, fx.space)
    m_out.fix_var(f"eC_{chord.index}", 0)
    sol_out = solve(m_out, "highs")
    assert sol_out.int_value("rank") == 1
    g = decode(sol_out, fx.spec)
    from invqsar.graph import rank as graph_rank

    assert graph_rank(g) == 1


def test_interior_cap_kills_slots():
    # n_int_ub equal to the seed size forces every T and F slot off
    fx = roundtrip_fixture("expanded_path")
    doc = json.loads(
        __import__("invqsar.topospec", fromlist=["spec_to_json_text"])
        .spec_to_json_text(fx.spec)
    )
    doc["n_int_ub"] = 3
    doc["n_int_lb"] = 3
    doc["t_tree"] = 2
    doc["t_leaf"] = 2
    doc["seed"]["edges"][0] = {"tail": 1, "head": 2, "len_lb": 1, "len_ub": 1}
    spec = parse_spec(json.dumps(doc))
    model = build_milp(spec, fx.space)
    sol = solve(model, "highs")
    assert sol.status == "optimal"
    for i in (1, 2):
        assert sol.int_value(f"vT_{i}") == 0
        assert sol.int_value(f"vF_{i}") == 0


def test_fringe_count_cap():
    dataset = [ring(3), ring(5), ring(6)]
    space = build_space(dataset, 2)
    psis = fringe_menu_json(dataset)
    assert len(psis) == 1
    psis[0]["fc_ub"] = 0  # the only fringe tree is banned
    doc = triangle_spec_doc(psis)
    spec = parse_spec(json.dumps(doc))
    model = build_milp(spec, space)
    assert solve(model, "mini").status == "infeasible"


def test_mass_accounting():
    fx = roundtrip_fixture("triangle")
    model = build_milp(fx.spec, fx.space)
    model.fix_var("nG", 3)
    sol = solve(model, "mini")
    g = decode(sol, fx.spec)
    mass = sum(v.element.mass_star for v in g.vertices)
    assert sol.int_value("Mass") == mass
    n_atoms = g.n_atoms()
    assert abs(float(sol.values["msbar"]) - mass / n_atoms) < 1e-6


def test_bond_bound_blocks_triples():
    fx = roundtrip_fixture("hetero")
    model = build_milp(fx.spec, fx.space)
    sol = solve(model, "highs")
    assert sol.status == "optimal"
    assert sol.int_value("bdint_3") == 0  # no triple-bond shapes in the menu


def test_normalization_endpoints():
    # stretchable triangle spec so the atom count can reach the dataset max
    dataset = [ring(3), ring(5), ring(6)]
    space = build_space(dataset, 2)
    doc = triangle_spec_doc(fringe_menu_json(dataset), n_int_ub=6)
    for e in doc["seed"]["edges"]:
        e["len_ub"] = 2
    spec = parse_spec(json.dumps(doc))
    vectors = [featurize(g, space) for g in dataset]
    predictor = uniform_predictor(space, vectors)
    eps = EPSILON
    lo, hi = predictor.mins[0], predictor.maxs[0]
    # force n to the dataset min and max and inspect the normalized copy
    m_min = build_milp(spec, space, predictor, -10, 10)
    m_min.fix_var("x_1", lo)
    sol = solve(m_min, "highs")
    assert abs(float(sol.values["xhat_1"])) <= eps
    m_max = build_milp(spec, space, predictor, -10, 10)
    m_max.fix_var("x_1", hi)
    sol = solve(m_max, "highs")
    assert 1 - eps - 1e-9 <= float(sol.values["xhat_1"]) <= 1 + eps + 1e-9


def test_prediction_interval_errors():
    fx = roundtrip_fixture("triangle")
    with pytest.raises(BuildError, match="empty target interval"):
        build_milp(fx.spec, fx.space, fx.predictor, 0.9, 0.1)
    other = roundtrip_fixture("hetero")
    with pytest.raises(BuildError, match="different space"):
        build_milp(fx.spec, fx.space, other.predictor, 0.1, 0.9)


def test_mass_avg_bound_is_the_spec_value():
    """msbar and x_4 are bounded by mass_avg_ub itself, not its ceiling: the
    triangle spec's only molecule averages 140/3, so 46.5 leaves no answer."""
    _, space, spec = triangle_setup(mass_avg_ub=46.5)
    model = build_milp(spec, space)
    assert model.var("msbar").ub == model.var("x_4").ub == 46.5
    assert solve(model, "highs").status == "infeasible"


# the space of a triangle, a methyl triangle and an aziridine: interior C
# and N, exterior C and H, trees psi1 (methyl root), psi2 (CH2) and psi3 (NH)
_DATASET = [ring(3), ring(3, pendant=1),
            build_graph([(1, "N"), (2, "C"), (3, "C")],
                        [(1, 2, 1), (2, 3, 1), (3, 1, 1)], add_hydrogens=True)]
_MENU = fringe_menu_json(_DATASET)
_ETHYL = dict(fringe_menu_json([ring(4, pendant=2)])[0], id="ethyl")
# (spec changes, space changes, message)
SPEC_OUTSIDE_SPACE = {
    "interior-element": ({"lambda_int": ["C", "N", "O"]}, {},
                         "interior element O is not in the descriptor space"),
    "exterior-element": ({"lambda_ex": ["C", "H", "O"]}, {},
                         "exterior element O is not in the descriptor space"),
    "fringe-tree": ({"fringe_trees": _MENU + [_ETHYL]}, {},
                    "fringe tree ethyl is not in the descriptor space"),
    "root-element": ({"lambda_int": ["C"]}, {},
                     "fringe tree psi3 root element N outside the interior elements"),
    "tree-exterior-element": ({"lambda_ex": ["H"]}, {},
                              "fringe tree psi1 uses exterior element C outside lambda_ex"),
    "rho": ({"rho": 1}, {},
            "specification rho 1 differs from the descriptor space's rho 2"),
    "leaf-edge-configuration": ({}, {"ac_lf": ()},
                                "fringe tree psi1 contains leaf-edge configuration "
                                "C_C_1 outside the descriptor space"),
}


@pytest.mark.parametrize("case", SPEC_OUTSIDE_SPACE)
def test_spec_outside_the_space_is_a_build_error(case):
    """A spec that names an element, tree or leaf edge the space cannot
    index, a menu tree its own element sets exclude, or another rho, has
    no model."""
    spec_changes, space_changes, message = SPEC_OUTSIDE_SPACE[case]
    doc = triangle_spec_doc(_MENU)
    doc.update({"lambda_int": ["C", "N"], "lambda_ex": ["C", "H"], **spec_changes})
    space = replace(build_space(_DATASET, 2), **space_changes)
    with pytest.raises(BuildError) as info:
        build_milp(parse_spec(json.dumps(doc)), space)
    assert str(info.value) == message


def test_variable_bounds_match_contract():
    fx = roundtrip_fixture("expanded_path")
    model = build_milp(fx.spec, fx.space)
    assert (model.var("nintG").lb, model.var("nintG").ub) == (
        fx.spec.n_int_lb,
        fx.spec.n_int_ub,
    )
    assert (model.var("nG").lb, model.var("nG").ub) == (fx.spec.n_lb, fx.spec.n_star)
    for i in range(1, fx.spec.t_tree + 1):
        v = model.var(f"chiT_{i}")
        assert (v.lb, v.ub) == (0, fx.spec.seed.k_c)
        assert (model.var(f"eledegT_{i}").lb, model.var(f"eledegT_{i}").ub) == (-3, 3)
        assert model.var(f"hT_{i}").ub == fx.spec.rho
        assert model.var(f"bexT_{i}").ub == 4
        assert model.var(f"degexT_{i}").ub == 3


def _contradiction_model():
    """expanded_path without T slots, which its path edge of length 2..3
    needs: the builder writes the contradiction row never_clrT_1_range."""
    fx = roundtrip_fixture("expanded_path")
    doc = spec_to_json(fx.spec)
    doc["t_tree"] = 0
    return build_milp(parse_spec(json.dumps(doc)), fx.space)


def test_unroutable_colored_edge_names_its_contradiction():
    model = _contradiction_model()
    assert [c.name for c in model.constraints if c.name.startswith("never_")] == [
        "never_clrT_1_range"]
    sol = solve(model, "highs")
    assert sol.status == "infeasible"
    assert sol.log == ("HiGHS not called: row never_clrT_1_range cannot be "
                       "met within the variable bounds\n")


def _edited_model(fixture, edit):
    """The model of a fixture's spec after edit(doc), with no predictor."""
    fx = roundtrip_fixture(fixture)
    doc = spec_to_json(fx.spec)
    edit(doc)
    spec = parse_spec(json.dumps(doc))
    return spec, fx.space, build_milp(spec, fx.space)


def _never_rows(model):
    return [name for name in model.row_names if name.startswith("never_")]


def test_in_space_leaf_edge_bound_is_a_range_row():
    """A spec bound on a leaf-edge configuration of the space bounds its
    tally aclf_<idx>, and the decoded graph keeps it."""
    spec, space, model = _edited_model("expanded_path", lambda doc: doc.update(
        ac_lf=[{"a": "C", "b": "C", "mult": 1, "lb": 2, "ub": 3}]))
    assert [a.label for a in space.ac_lf] == ["C_C_1"]
    bounds = [model.constraint(name) for name in model.row_names
              if name.startswith("fr_acrange_")]
    assert bounds == [("fr_acrange_1_lo", (("aclf_1", 1.0),), ">=", 2.0),
                      ("fr_acrange_1_hi", (("aclf_1", 1.0),), "<=", 3.0)]
    assert _never_rows(model) == []
    sol = solve(model, "highs", polish=polish_solution)
    assert sol.status == "optimal"
    g = decode(sol, spec)
    (config,) = space.ac_lf
    assert 2 <= take_census(g, spec.rho).leaf_edges[config] <= 3
    report = check_graph_satisfies(spec, g)
    assert report.passed, report.to_text()


# an edit of a fixture's spec whose requirement no graph meets -> the one
# contradiction row the builder writes for it
CONTRADICTIONS = {
    # a required leaf-edge configuration outside the space, named by its
    # position in the spec's ac_lf list
    "ac_lf_outside_space": ("expanded_path", lambda doc: doc.update(ac_lf=[
        {"a": "C", "b": "C", "mult": 1, "lb": 0, "ub": 2},
        {"a": "N", "b": "C", "mult": 2, "lb": 1, "ub": 2}]), "never_ac_lf_2"),
    # more copies of fringe tree 2 than interior vertices: Build.ivar
    "fc_lb_above_n_int_ub": ("expanded_path", lambda doc: doc["fringe_trees"][1]
                             .update(fc_lb=doc["n_int_ub"] + 1), "never_fc_2_bounds"),
    # a double bond on a fixed seed edge counts at most once: Build.rng
    "bond2_lb_on_direct_edge": ("triangle", lambda doc: doc["seed"]["edges"][0]
                                .update(bond2_lb=2), "never_bb_direct_1_2"),
}


@pytest.mark.parametrize("case", CONTRADICTIONS)
def test_contradiction_rows_are_proved_before_highs(case):
    fixture, edit, row = CONTRADICTIONS[case]
    _, _, model = _edited_model(fixture, edit)
    assert _never_rows(model) == [row]
    sol = solve(model, "highs")
    assert sol.status == "infeasible"
    assert sol.log == (f"HiGHS not called: row {row} cannot be met within the "
                       "variable bounds\n")


def test_every_variable_belongs_to_a_cataloged_family():
    """The first family a variable's name matches gives its kind, in the
    pinned models and in a model with a contradiction row."""
    compiled = [(re.compile(f"^{pat}$"), kind) for pat, kind, _ in VARIABLE_FAMILIES]
    models = [_contradiction_model()]
    for _, spec, space, predictor, y_lo, y_hi in _pinned_models():
        models += [build_milp(spec, space),
                   build_milp(spec, space, predictor, y_lo, y_hi)]
    for model in models:
        for v in model.variables:
            kind = next((kind for rex, kind in compiled if rex.match(v.name)), None)
            assert kind == v.kind, (v.name, v.kind, kind)


def test_height_lower_bound_forces_leaf_path():
    """A hanging-tree height demand above rho can only be met by growing a
    leaf path of the right length at that vertex."""
    fx = roundtrip_fixture("expanded_path")
    doc = json.loads(
        __import__("invqsar.topospec", fromlist=["spec_to_json_text"])
        .spec_to_json_text(fx.spec)
    )
    doc["seed"]["vertices"][0]["height_lb"] = 4  # rho=2, so 2 path vertices
    spec = parse_spec(json.dumps(doc))
    model = build_milp(spec, fx.space)
    sol = solve(model, "highs")
    assert sol.status == "optimal"
    assert sol.int_value("dclrF_1") == 1
    assert sol.int_value("clrF_1") == 2
    g = decode(sol, spec)
    from invqsar.topospec import check_graph_satisfies

    report = check_graph_satisfies(spec, g)
    assert report.passed, report.to_text()


def test_height_exact_fringe_demand():
    """height bounds [2,2] at a vertex without a leaf path pin its fringe
    tree to height exactly 2."""
    fx = roundtrip_fixture("expanded_path")
    doc = json.loads(
        __import__("invqsar.topospec", fromlist=["spec_to_json_text"])
        .spec_to_json_text(fx.spec)
    )
    doc["seed"]["vertices"][1]["height_lb"] = 2
    doc["seed"]["vertices"][1]["height_ub"] = 2
    spec = parse_spec(json.dumps(doc))
    model = build_milp(spec, fx.space)
    sol = solve(model, "highs")
    assert sol.status == "optimal"
    assert sol.int_value("hC_2") == 2
    g = decode(sol, spec)
    from invqsar.decompose import decompose

    d = decompose(g, 2)
    assert d.fringe_trees[2].height == 2


def test_edge_height_bounds_on_path_interior():
    """Height demands on a path's interior vertices: an upper bound of 0
    forces bare fringes; a lower bound of 1 forces a taller tree."""
    fx = roundtrip_fixture("expanded_path")
    base = json.loads(
        __import__("invqsar.topospec", fromlist=["spec_to_json_text"])
        .spec_to_json_text(fx.spec)
    )
    # the path edge is listed first (class order); cap its tree heights
    capped = json.loads(json.dumps(base))
    capped["seed"]["edges"][0]["height_ub"] = 0
    spec = parse_spec(json.dumps(capped))
    model = build_milp(spec, fx.space)
    sol = solve(model, "highs")
    assert sol.status == "optimal"
    g = decode(sol, spec)
    from invqsar.decompose import decompose

    d = decompose(g, 2)
    # interior path slots decode to ids t_c + i
    for i in range(1, spec.t_tree + 1):
        if sol.int_value(f"vT_{i}") and sol.int_value(f"chiT_{i}") == 1:
            root = spec.seed.t_c + i
            assert d.fringe_trees[root].height == 0
            assert sol.int_value(f"dclrF_{len(spec.seed.leafable) + i}") == 0

    raised = json.loads(json.dumps(base))
    raised["seed"]["edges"][0]["height_lb"] = 1
    spec2 = parse_spec(json.dumps(raised))
    model2 = build_milp(spec2, fx.space)
    sol2 = solve(model2, "highs")
    assert sol2.status == "optimal"
    g2 = decode(sol2, spec2)
    d2 = decompose(g2, 2)
    tallest = 0
    for i in range(1, spec2.t_tree + 1):
        if sol2.int_value(f"vT_{i}") and sol2.int_value(f"chiT_{i}") == 1:
            root = spec2.seed.t_c + i
            height = d2.fringe_trees[root].height
            c = len(spec2.seed.leafable) + i
            if sol2.int_value(f"dclrF_{c}"):
                height = sol2.int_value(f"clrF_{c}") + 2
            tallest = max(tallest, height)
    assert tallest >= 1
    assert check_graph_satisfies(spec2, g2).passed


def test_branch_cap_zero_blocks_leaf_paths_on_path():
    """branch_ub = 0 on a stretchable edge bans hanging paths along it."""
    fx = roundtrip_fixture("expanded_path")
    doc = json.loads(
        __import__("invqsar.topospec", fromlist=["spec_to_json_text"])
        .spec_to_json_text(fx.spec)
    )
    doc["seed"]["edges"][0]["branch_ub"] = 0
    spec = parse_spec(json.dumps(doc))
    model = build_milp(spec, fx.space)
    sol = solve(model, "highs")
    assert sol.status == "optimal"
    for e in spec.seed.edges:
        if e.cls not in ("path", "flexible"):
            continue
        for i in range(1, spec.t_tree + 1):
            assert sol.int_value(f"bl_{e.index}_{i}") == 0
    # no leaf color may sit on a slot of the capped path
    t_tilde = len(spec.seed.leafable)
    for i in range(1, spec.t_tree + 1):
        if sol.int_value(f"chiT_{i}") == 1:  # slot belongs to the capped edge
            assert sol.int_value(f"dclrF_{t_tilde + i}") == 0


def test_bare_fringe_menu_pins_heavy_count_to_interior():
    """With only hydrogen-dressed single-atom fringe trees on offer, every
    heavy atom is interior."""
    fx = roundtrip_fixture("triangle")
    assert all(
        f.tree.n_nonroot_heavy == 0 for f in fx.spec.fringe_entries
    )
    model = build_milp(fx.spec, fx.space)
    sol = solve(model, "mini")
    assert sol.int_value("nG") == sol.int_value("nintG")


def test_prediction_reduces_to_normalized_interval():
    """A unit-weight zero-bias predictor turns the target window into a
    window on one normalized descriptor."""
    from invqsar.regression import LinearPredictor
    from invqsar.descriptors import space_hash

    dataset = [ring(3), ring(5), ring(6)]
    space = build_space(dataset, 2)
    doc = triangle_spec_doc(fringe_menu_json(dataset), n_int_ub=6)
    for e in doc["seed"]["edges"]:
        e["len_ub"] = 2
    spec = parse_spec(json.dumps(doc))
    vectors = [featurize(g, space) for g in dataset]
    base = uniform_predictor(space, vectors)
    weights = [0.0] * space.k
    weights[0] = 1.0  # heavy-atom count only
    predictor = LinearPredictor(
        weights=tuple(weights), bias=0.0, lam=0.0,
        descriptor_names=space.descriptor_names,
        mins=base.mins, maxs=base.maxs,
        target_min=0.0, target_max=1.0, space_hash=space_hash(space),
    )
    # n ranges over 3..6 normalized to 0..1; ask for the middle third
    model = build_milp(spec, space, predictor, 0.2, 0.8)
    sol = solve(model, "highs")
    assert sol.status == "optimal"
    xhat = float(sol.values["xhat_1"])
    assert 0.2 - 1e-6 <= xhat <= 0.8 + 1e-6
    assert sol.int_value("x_1") in (4, 5)  # normalized 1/3 and 2/3


# sha256 of emit_lp(build_milp(...)) without and with a predictor.  HiGHS
# time on the stress set swings 2-5x under any change to the LP text, so a
# change meant to keep the model must keep these digests.
PINNED_LP_DIGESTS = {
    "triangle": (
        "ff2c2f02f6dde5c8b0779870d373b725bd43b2908d7c600300cc8f64175867dc",
        "a6723c676325d80edd14ffc2c0ff942fa4d098a4b061e1c8f5f124ad5e18ad07",
    ),
    "square_chord": (
        "a3ba6f610af96ab0757bd563061d0fa762f8b5e1d3e26bd4fb19da2938e7be64",
        "e053b210fef8dcb583b2328f205aab71108be85b6224ea779b7c4b676e46a83c",
    ),
    "expanded_path": (
        "5882807ac3bd1ccf44f01fd47d4cce7fd0b7e261a3bdf1cb8396796deaec706d",
        "7ab8f660e386a8c8647204eee952da8f4011616ac3d8d3ce38798fa18fba7f3e",
    ),
    "hetero": (
        "dacad8b875c6877612755e9d32e8a600345fc38fbbd0dc88ae2fc4260856f0a5",
        "bf08d73047b793bc72397cfba1591e255361f677815c78b4ca4dc2fe6da6a615",
    ),
    "two_rings": (
        "00e096833a0294c6b9e62ab8943c3c184ff83875857c8a397bb046e21f92fda1",
        "f122aef1368bfa4234dc7c8c11ebb4ca289f605b1bac459d6791b0141e7a2e8b",
    ),
    "stress1": (
        "3a22679fec3ab9c897576e2b44c37132ffe84defe6b65621b3da7d65cc776a80",
        "3540909e524e4ce56daff3906a1b01fa7d41050f1aed1efcaa212bff7261f903",
    ),
    "stress2": (
        "e0fdbfd87f554bcdfd67ae663a58d978571837b8bed4607fec126abea7d6d09c",
        "3758e37ea8f4893580a07d956ba796011d74821e5a49f41d69ec828e8a12a10b",
    ),
    "stress3": (
        "a2edfd7b3e4ac90bc659f98db80375ea50569713aa1e8539cd1dd92e1fac54be",
        "977b202e9484ee836dd103ccb72dd87a1ac8026818cbdbe43bc4922ac7582520",
    ),
    "stress4": (
        "69346322719f4f8ef8e1331905b16f87e171490b88deeaee61252a03f08aa1a3",
        "7f85be05811100fc776be441dd4ca2c05bbfe4be468600f699f2966411218e49",
    ),
    "stress5": (
        "b0a90e1470d725112d6ac9a99f2a1961989556bf1c7484279a901bd04b8cf5b1",
        "cb04c3c0bb6a7f7c98ad2a1794861be47b7215640b2f691bcc0c792615ec9041",
    ),
}


def _pinned_models():
    """(name, spec, space, predictor, y_lo, y_hi): the five round-trip
    fixtures and the benchmark's stress set at +-0.02 around the target."""
    for name in ALL_ROUNDTRIP_FIXTURES:
        fx = roundtrip_fixture(name)
        yield name, fx.spec, fx.space, fx.predictor, fx.y_lo, fx.y_hi
    problems = perfbench_inputs().stress_problems(np.random.default_rng(1), 5, 8)
    for i, (dataset, spec_doc, target) in enumerate(problems, start=1):
        space = build_space(dataset, 2)
        vectors = [featurize(g, space) for g in dataset]
        predictor = uniform_predictor(space, vectors, weight=0.07)
        y = predictor.predict_normalized(featurize(target, space).as_floats())
        spec = parse_spec(json.dumps(spec_doc))
        yield f"stress{i}", spec, space, predictor, y - 0.02, y + 0.02


def test_lp_text_is_pinned():
    digests = {}
    for name, spec, space, predictor, y_lo, y_hi in _pinned_models():
        digests[name] = tuple(
            hashlib.sha256(emit_lp(model).encode()).hexdigest()
            for model in (
                build_milp(spec, space),
                build_milp(spec, space, predictor, y_lo, y_hi),
            )
        )
    assert digests == PINNED_LP_DIGESTS


def test_only_a_nonzero_minimum_is_nudged():
    """`nm_d_j` holds x_j - xd_j = lo_j with lo_j the training minimum one
    ulp down, except that a zero minimum stays exactly 0.0, so no pinned
    model's LP text holds the subnormal 5e-324."""
    zeros = 0
    for name, spec, space, predictor, y_lo, y_hi in _pinned_models():
        model = build_milp(spec, space, predictor, y_lo, y_hi)
        assert "5e-324" not in emit_lp(model), name
        for j, (w, lo, hi) in enumerate(
            zip(predictor.weights, predictor.mins, predictor.maxs), start=1
        ):
            if w == 0.0 or lo == hi:
                continue
            rhs = model.constraint(f"nm_d_{j}").rhs
            if lo == 0.0:
                zeros += 1
                assert rhs == 0.0 and math.copysign(1.0, rhs) == 1.0, (name, j)
            else:
                assert rhs == math.nextafter(lo, -math.inf), (name, j)
    assert zeros >= 10


# sha256 of the arrays solve_highs hands to HiGHS for the models above:
# the constraint matrix (CSR data, indices and row starts), the row bounds,
# the integrality flags and the variable bounds.  These are what HiGHS
# solves, so a change to the model store that keeps them keeps every answer
# and every HiGHS time.
PINNED_HIGHS_INPUT_DIGESTS = {
    "triangle": (
        "5366767b7c9ed38f8254739fba1326c7996b9a2267c549ae655449bf03aa137b",
        "982279a1b5eb38991352897070511a88455891f58415f99e813d3a2a0a118763",
    ),
    "square_chord": (
        "cf6ba0f5b33df10cd455109036b50887fcd31221340c440d10c3d467f042c5b1",
        "962321a8b9ed3658391f71df6d1d500164cd099b80e89a6871edefa2e8751cb0",
    ),
    "expanded_path": (
        "04be22b2bef68fcab2bc890580e61e212bfb6aa217d5aa79c4da5a386fddc37e",
        "42b778d8c53448a28ea82a9908f83784784c2dabf8d6da727a5f3226b812a917",
    ),
    "hetero": (
        "7d63cd4546a887af25c5aa247976953136f721e6bd48e9cf45158f1b38c56a08",
        "885948f8f2b00d24afaedc3d7cead3d7a65d159ab1df641adf6bbe4df04a660e",
    ),
    "two_rings": (
        "7a7d4e62bb75cb786008d3f5894b3e28f67c5b9c718b985795f7b397182aad90",
        "7600094c7a60c77273b781a2128a9a1f2f98a1ff7813a560b1b8640e20e1181c",
    ),
    "stress1": (
        "9082ee3180e46541af69e488a25889924c2c2787f5b220df1e9fdd98bc3f874d",
        "c646682595d6d9e5375db002caddeede5e6ee691a057a516282cbee6d9e6ce51",
    ),
    "stress2": (
        "da356efd7cc5fd294de317b20447ed0b36a3455db381a776b54099a8a6e42b2d",
        "7656aafab93705f969364105b58e68dea388a5c855d1a7d2830a9befd0d20827",
    ),
    "stress3": (
        "dd66ebf210d4b9d8671f2c9846b06b64251e98bda49e2dd9b2298f5f4e6190a4",
        "fb8f21fb60442dfb95b5155582bd18b4efca0390aab68d4128d97e271c566b72",
    ),
    "stress4": (
        "4ba386898d5b5a93b4f8f6a8be8454a5022c42d7db9d3587480533c600ef57b5",
        "9f963df0002e0787dc304b85516851dc9925252e967b664d1c2cb602df7e7c75",
    ),
    "stress5": (
        "161f8fd1024bd78a95f9cd2a7d08abb2bdb85678eb98711ed2b5d084d6b85f4f",
        "34f57f8504a86e33c5cb31cf5d4dd2059b7a98ba7ec02c4a22cdeb0edddcba53",
    ),
}


def _highs_input_digest(model, monkeypatch) -> str:
    """Run solve_highs against a stand-in for scipy's milp that records
    its input and answers "infeasible"."""
    import scipy.optimize
    seen = []

    def milp(c, constraints=None, integrality=None, bounds=None, options=None):
        seen.append((constraints, integrality, bounds))
        return scipy.optimize.OptimizeResult(status=2, message="stub", x=None)

    monkeypatch.setattr(scipy.optimize, "milp", milp)
    assert solve_highs(model).status == "infeasible"
    (con,), integrality, bounds = seen[0]
    a = con.A
    h = hashlib.sha256(repr(a.shape).encode())
    for arr, dtype in ((a.data, "f8"), (a.indices, "i8"), (a.indptr, "i8"),
                       (con.lb, "f8"), (con.ub, "f8"), (integrality, "i1"),
                       (bounds.lb, "f8"), (bounds.ub, "f8")):
        h.update(np.asarray(arr, dtype=dtype).tobytes())
    return h.hexdigest()


def test_highs_input_is_pinned(monkeypatch):
    digests = {}
    for name, spec, space, predictor, y_lo, y_hi in _pinned_models():
        digests[name] = tuple(
            _highs_input_digest(model, monkeypatch)
            for model in (
                build_milp(spec, space),
                build_milp(spec, space, predictor, y_lo, y_hi),
            )
        )
    assert digests == PINNED_HIGHS_INPUT_DIGESTS


@pytest.mark.parametrize("name", ["expanded_path", "two_rings"])
def test_a_window_only_the_slack_reaches_fails_the_check(name):
    """A window above the answer's exact prediction, reached only through
    the normalization sandwiches' slack: HiGHS meets it by moving the
    normalized copies inside their sandwiches, polish_solution puts them
    back at the centres and y at the exact prediction, and the residual
    check names y."""
    fx = roundtrip_fixture(name)
    sol = solve(build_milp(fx.spec, fx.space, fx.predictor, fx.y_lo, fx.y_hi),
                "highs", polish=polish_solution)
    assert sol.status == "optimal"
    values = sol.values
    # the most the sandwiches let y rise: each copy moves EPSILON times
    # its centre, xd / span, either way
    slack = sum(abs(Fraction(w)) * Fraction(EPSILON) * values[f"xhat_{j}"]
                for j, w in enumerate(fx.predictor.weights, start=1) if w)
    assert slack / 4 > Fraction(CHECK_TOL)
    model = build_milp(fx.spec, fx.space, fx.predictor,
                       float(values["y"] + slack / 4),
                       float(values["y"] + slack / 2))
    with pytest.raises(SolutionCheckError, match=r"\by = .* below lower bound"):
        solve(model, "highs", polish=polish_solution)
