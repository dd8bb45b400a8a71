import json
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from invqsar.descriptors import (
    FeatureVector,
    OutOfSpaceError,
    build_space,
    featurize,
    read_feature_csv,
    space_from_json,
    space_hash,
    space_to_json,
    space_to_json_text,
    take_census,
    write_feature_csv,
)
from invqsar.graph import ChemicalGraph, build_graph
from invqsar.regression import min_max_scale
from invqsar.schema import InputError

from conftest import chain, random_chemical_graph, ring
import oracles
from oracles import brute_force_features


def test_cyclohexane_by_hand():
    g = ring(6)
    space = build_space([g], 2)
    assert space.k == 14 + 1 + 1 + 1 + 1 + 0
    fv = featurize(g, space)
    names = space.descriptor_names
    vals = dict(zip(names, fv.values))
    assert vals["n_heavy"] == 6
    assert vals["rank"] == 1
    assert vals["n_interior"] == 6
    assert vals["mass_avg"] == Fraction(6 * 120 + 12 * 10, 18)
    assert vals["deg2"] == 6
    assert vals["deg_int2"] == 6
    assert vals["ec_C2_C2_1"] == 6
    assert vals["fc_1"] == 6
    assert vals["bonds2_int"] == 0


def test_ethane_interior_empty():
    eth = chain(["C", "C"])
    space = build_space([eth, ring(6)], 2)
    fv = featurize(eth, space)
    vals = dict(zip(space.descriptor_names, fv.values))
    assert vals["n_interior"] == 0
    assert all(v == 0 for n, v in vals.items() if n.startswith("deg_int"))
    assert all(v == 0 for n, v in vals.items() if n.startswith("na_int"))
    # the C-C bond is a leaf edge counted once
    assert vals["ac_C_C_1"] == 1


def test_build_space_requires_data():
    with pytest.raises(ValueError):
        build_space([], 2)


def test_out_of_space_element():
    space = build_space([ring(6)], 2)
    clorinated = build_graph(
        [(1, "C"), (2, "Cl")] + [(i, "C") for i in range(3, 7)],
        [(1, 2, 1)] + [(1, 3, 1), (3, 4, 1), (4, 5, 1), (5, 6, 1), (6, 1, 1)],
        add_hydrogens=True,
    )
    with pytest.raises(OutOfSpaceError):
        featurize(clorinated, space)


def test_k_formula_identity():
    rng = np.random.default_rng(5)
    datasets = [
        [ring(6)],
        [ring(6), chain(["C", "O", "C"])],
        [random_chemical_graph(rng, 10) for _ in range(8)],
    ]
    for dataset in datasets:
        space = build_space(dataset, 2)
        assert space.k == 14 + len(space.lambda_int) + len(space.lambda_ex) + len(
            space.gamma_int
        ) + len(space.fringe_codes) + len(space.ac_lf)
    # published-size arithmetic: 14 + 9 + 33 + 8 = 64 descriptors
    assert 64 - 14 - 9 - 33 == 8


def test_matches_brute_force_oracle():
    rng = np.random.default_rng(101)
    graphs = [random_chemical_graph(rng, 12) for _ in range(50)]
    space = build_space(graphs, 2)
    for g in graphs:
        fv = featurize(g, space)
        expected = brute_force_features(g, space)
        for a, b in zip(fv.values, expected):
            if isinstance(a, Fraction) or isinstance(b, Fraction):
                assert abs(Fraction(a) - Fraction(b)) <= Fraction(1, 10**12)
            else:
                assert a == b


def test_sum_invariants():
    rng = np.random.default_rng(17)
    graphs = [random_chemical_graph(rng, 12) for _ in range(30)]
    space = build_space(graphs, 2)
    off = space.offsets
    for g in graphs:
        fv = featurize(g, space)
        vals = fv.values
        isolated = 1 if g.n_heavy() == 1 else 0
        assert sum(vals[4:8]) == vals[0] - isolated
        # a lone interior vertex has interior degree 0 and is not tallied
        lone = 1 if vals[2] == 1 else 0
        assert sum(vals[8:12]) == vals[2] - lone
        fc_block = vals[off["fc"]: off["fc"] + len(space.fringe_codes)]
        assert sum(fc_block) == vals[2]


def test_permutation_invariance():
    rng = np.random.default_rng(23)
    for _ in range(10):
        g = random_chemical_graph(rng, 9)
        space = build_space([g], 2)
        ids = [v.id for v in g.vertices]
        perm = dict(zip(ids, rng.permutation(ids).tolist()))
        g2 = ChemicalGraph(
            tuple(
                type(v)(perm[v.id], v.element, v.charge) for v in g.vertices
            ),
            tuple(type(e)(perm[e.u], perm[e.v], e.mult) for e in g.edges),
        )
        assert featurize(g, space).values == featurize(g2, space).values


def test_normalize_basics():
    mins, maxs = (0, 2, 5), (10, 2, 9)
    fv = FeatureVector((0, 2, 7))
    out = min_max_scale(fv.as_floats(), mins, maxs).tolist()
    assert out == [0.0, 0.0, 0.5]
    fv = FeatureVector((10, 2, 9))
    assert min_max_scale(fv.as_floats(), mins, maxs).tolist() == [1.0, 0.0, 1.0]
    # a matrix is scaled column by column, a constant column to 0
    rows = [[0, 2, 7], [10, 2, 9]]
    assert min_max_scale(rows, mins, maxs).tolist() == [
        [0.0, 0.0, 0.5], [1.0, 0.0, 1.0]]


@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=50), min_size=3, max_size=3))
def test_normalize_denormalize_round_trip(values):
    mins, maxs = (0, 1, 3), (50, 60, 3)
    xhat = min_max_scale(FeatureVector(tuple(values)).as_floats(), mins, maxs)
    for v, s, lo, hi in zip(values, xhat, mins, maxs):
        if lo == hi:
            assert s == 0.0
        else:
            assert abs(lo + s * (hi - lo) - v) < 1e-12


def test_csv_round_trip():
    dataset = [ring(6), ring(5), chain(["C", "C", "C", "O"])]
    space = build_space(dataset, 2)
    vectors = [featurize(g, space) for g in dataset]
    text = write_feature_csv(["a", "b", "c"], vectors, space)
    ids, names, rows = read_feature_csv(text)
    assert ids == ["a", "b", "c"]
    assert tuple(names) == space.descriptor_names
    for fv, row in zip(vectors, rows):
        assert row == [float(v) for v in fv.values]
    # determinism
    assert text == write_feature_csv(["a", "b", "c"], vectors, space)


_CSV_SPACE = build_space([ring(6)], 2)

_csv_ids = st.one_of(
    st.text(alphabet=st.sampled_from('ab0 ,"\'é中µ#'), max_size=8),
    st.text(max_size=8),
)
_csv_values = st.one_of(
    st.just(0),
    st.integers(min_value=0, max_value=50),
    st.integers(min_value=-(10**30), max_value=10**30),
    st.integers().map(Fraction),
    st.fractions(max_denominator=10**6),
)


@settings(deadline=None)
@given(st.lists(
    st.tuples(_csv_ids, st.lists(_csv_values, min_size=_CSV_SPACE.k,
                                 max_size=_CSV_SPACE.k)),
    max_size=3))
def test_feature_csv_matches_oracle_bytes(rows):
    ids = [gid for gid, _ in rows]
    vectors = [FeatureVector(tuple(values)) for _, values in rows]
    assert (write_feature_csv(ids, vectors, _CSV_SPACE)
            == oracles.write_feature_csv(ids, vectors, _CSV_SPACE))


@pytest.mark.parametrize("dataset", [
    [ring(6)],
    [ring(6), ring(4, pendant=2), chain(["C", "N", "C"])],
], ids=["one-ring", "mixed"])
def test_space_json_text_layout(dataset):
    space = build_space(dataset, 2)
    doc = space_to_json(space)
    text = space_to_json_text(space)
    assert json.loads(text) == doc
    lines = text.splitlines()
    # each top-level key on its own line, in sorted order
    assert [json.loads(line.split(":")[0]) for line in lines
            if line.startswith('  "')] == sorted(doc)
    # each catalog entry on its own line
    entries = [json.loads(line.strip().rstrip(",")) for line in lines
               if line.startswith("    ")]
    assert entries == [e for key in sorted(doc) if isinstance(doc[key], list)
                       for e in doc[key]]
    # a document in the earlier indent=2 layout reads to the same space
    old = space_from_json(json.loads(json.dumps(doc, indent=2, sort_keys=True)))
    new = space_from_json(json.loads(text))
    assert old == new
    assert space_hash(old) == space_hash(new) == space_hash(space)


def test_space_json_round_trip():
    dataset = [ring(6), ring(4, pendant=2), chain(["C", "N", "C"])]
    space = build_space(dataset, 2)
    doc = space_to_json(space)
    space2 = space_from_json(json.loads(json.dumps(doc)))
    assert space_hash(space) == space_hash(space2)
    assert space2.descriptor_names == space.descriptor_names
    g = dataset[1]
    assert featurize(g, space2).values == featurize(g, space).values


def test_leaf_edge_both_degree_one():
    eth = chain(["C", "O"])
    counts = take_census(eth, 2).leaf_edges
    assert len(counts) == 1
    ((cfg, n),) = counts.items()
    assert n == 1
    assert (cfg.a.token, cfg.b.token) == ("C", "O")


def _tree(doc: dict, i: int) -> dict:
    return doc["fringe_trees"][i]["tree"]


@pytest.mark.parametrize("edit, needle", [
    (lambda doc: doc["fringe_trees"][0]["tree"].pop("root"),
     "descriptor space is missing key 'fringe_trees[0].tree.root'"),
    (lambda doc: doc["fringe_trees"][1]["tree"]["edges"][0].update(order=1.0),
     "descriptor space key 'fringe_trees[1].tree.edges[0].order' must be an integer"),
    (lambda doc: doc["fringe_trees"][0].update(code="(C,0[])"),
     "descriptor space key 'fringe_trees[0].code' does not match its tree"),
    (lambda doc: doc["gamma_int"][0]["mu"].__setitem__(1, 5),
     "descriptor space key 'gamma_int[0].mu' is invalid"),
    (lambda doc: doc["ac_lf"][0].update(mult=2, a="H"),
     "descriptor space key 'ac_lf[0]' is invalid"),
    (lambda doc: doc.update(rho=0), "descriptor space key 'rho' must be at least 1"),
    (lambda doc: _tree(doc, 0)["vertices"][0].update(isotope=13),
     "descriptor space key 'fringe_trees[0].tree.vertices[0].isotope' is unknown"),
    (lambda doc: _tree(doc, 0)["vertices"][0].update(valence=7),
     "descriptor space key 'fringe_trees[0].tree.vertices[0].valence' must be in [1, 6]"),
    (lambda doc: _tree(doc, 0)["vertices"][0].update(charge=4),
     "descriptor space key 'fringe_trees[0].tree.vertices[0].charge' must be in [-3, 3]"),
    (lambda doc: _tree(doc, 0)["vertices"][0].update(element="Zz"),
     "descriptor space key 'fringe_trees[0].tree.vertices[0].element' is invalid: "
     "unknown element symbol 'Zz'"),
    (lambda doc: _tree(doc, 0).update(root=99),
     "descriptor space key 'fringe_trees[0].tree.root' must be the id of a vertex"),
    (lambda doc: _tree(doc, 1)["edges"][0].update(u="0"),
     "descriptor space key 'fringe_trees[1].tree.edges[0].u' must be an integer"),
    (lambda doc: _tree(doc, 0).update(vertices={}),
     "descriptor space key 'fringe_trees[0].tree.vertices' must be a list"),
    (lambda doc: _tree(doc, 1)["edges"][0].pop("order"),
     "descriptor space is missing key 'fringe_trees[1].tree.edges[0].order'"),
    # the two hydrogens of a CH2 tree, joined: a cycle
    (lambda doc: _tree(doc, 1)["edges"].append({"u": 7, "v": 8, "order": 1}),
     "descriptor space key 'fringe_trees[1].tree' is invalid: "
     "fringe tree must be a connected tree"),
], ids=["tree-root", "tree-order", "code", "gamma-degree", "ac-valence", "rho",
        "vertex-key", "valence", "charge", "element", "root-id", "edge-u",
        "vertices-object", "edge-order-missing", "cycle"])
def test_space_faults_name_their_path(edit, needle):
    doc = space_to_json(build_space([ring(6), ring(4, pendant=2)], 2))
    edit(doc)
    with pytest.raises(InputError) as caught:
        space_from_json(doc)
    assert str(caught.value).startswith(needle)


def test_space_fringe_tree_edge_may_point_to_the_root():
    """A tree edge written child -> parent is read and re-oriented; the
    tree keeps its canonical code."""
    doc = space_to_json(build_space([ring(6), ring(4, pendant=2)], 2))
    edge = _tree(doc, 0)["edges"][1]
    edge["u"], edge["v"] = edge["v"], edge["u"]
    space = space_from_json(doc)
    want = space_from_json(space_to_json(build_space([ring(6), ring(4, pendant=2)], 2)))
    assert space.fringe_codes == want.fringe_codes
    tree = space.fringe_examples[0]
    assert tree.canonical_code == want.fringe_examples[0].canonical_code
    assert (edge["u"], edge["v"], 1) not in tree.edges
    assert (edge["v"], edge["u"], 1) in tree.edges


@pytest.mark.parametrize(
    "catalog", ["lambda_int", "lambda_ex", "gamma_int", "fringe_trees", "ac_lf"])
def test_space_catalog_entry_repeats_are_rejected(catalog):
    """A catalog entry listed twice would give two descriptor columns for
    one count; the repeat is a fault at its index."""
    doc = space_to_json(build_space([ring(6), ring(4, pendant=2), chain(["C", "O"])], 2))
    entries = doc[catalog]
    entries.insert(1, entries[0])
    with pytest.raises(InputError) as caught:
        space_from_json(doc)
    assert str(caught.value) == (
        f"descriptor space key '{catalog}[1]' repeats an earlier entry")


def test_space_fringe_tree_repeat_is_found_by_code():
    """The same fringe tree with its vertices numbered differently is still
    a repeat."""
    doc = space_to_json(build_space([ring(6), ring(4, pendant=2)], 2))
    tree = max(doc["fringe_trees"], key=lambda t: len(t["tree"]["vertices"]))
    renumbered = json.loads(json.dumps(tree))
    ids = [v["id"] for v in renumbered["tree"]["vertices"]]
    shift = {i: i + 100 for i in ids}
    for v in renumbered["tree"]["vertices"]:
        v["id"] = shift[v["id"]]
    for e in renumbered["tree"]["edges"]:
        e["u"], e["v"] = shift[e["u"]], shift[e["v"]]
    renumbered["tree"]["root"] = shift[renumbered["tree"]["root"]]
    doc["fringe_trees"].append(renumbered)
    with pytest.raises(InputError, match=r"'fringe_trees\[\d+\]' repeats"):
        space_from_json(doc)
