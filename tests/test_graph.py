import copy
import dataclasses
import pickle

import pytest

from invqsar.decompose import TREE, decompose, tree_to_json
from invqsar.elements import ElementSpec, make_element, parse_element, UnknownElementError
from invqsar.graph import (
    ChemicalGraph,
    Edge,
    InvalidGraphError,
    Vertex,
    build_graph,
    graph_from_json,
    graph_to_json,
    rank,
)
from invqsar.schema import InputError, Reader

from conftest import chain, ring


def test_element_tokens():
    assert make_element("C").valence == 4
    assert make_element("C").mass_star == 120
    assert make_element("H").mass_star == 10
    assert parse_element("S(6)").valence == 6
    assert parse_element("S(6)").token == "S(6)"
    assert parse_element("S").token == "S"
    with pytest.raises(UnknownElementError):
        parse_element("Xx")


@pytest.mark.parametrize("token", [" C ", "C ", "\tC", "S( 6)", "S(6 )", "S(+6)", "S()"])
def test_element_tokens_are_taken_as_they_are(token):
    with pytest.raises(UnknownElementError):
        parse_element(token)


def test_element_variants_are_shared():
    assert make_element("C") is make_element("C", 4) is parse_element("C")
    assert parse_element("S(6)") is make_element("S", 6)
    assert make_element("S") is not make_element("S", 6)
    with pytest.raises(dataclasses.FrozenInstanceError):
        make_element("C").valence = 2


def test_element_built_directly_equals_the_shared_one():
    """An ElementSpec made by hand compares, orders and hashes as the
    shared instance, so dict and set lookups mix the two; a copy made by
    dataclasses.replace, copy or pickle works out its own token and hash."""
    for shared in (make_element("C"), make_element("S", 6), make_element("H")):
        built = ElementSpec(shared.symbol, shared.valence, shared.mass_star)
        assert built is not shared
        assert built == shared and hash(built) == hash(shared)
        assert not built < shared and not shared < built
        assert (built.token, built.is_hydrogen) == (shared.token, shared.is_hydrogen)
        assert {shared: 1}[built] == 1 and built in {shared}
        assert {built: 1}[shared] == 1 and shared in {built}
        assert {(True, built): 2}[(True, shared)] == 2
        assert len({built, shared}) == 1
        for copied in (copy.deepcopy(built), pickle.loads(pickle.dumps(built))):
            assert copied == shared and hash(copied) == hash(shared)
    six = dataclasses.replace(make_element("S"), valence=6)
    assert six == make_element("S", 6) and hash(six) == hash(make_element("S", 6))
    assert six.token == "S(6)" and six in {make_element("S", 6)}
    assert repr(six) == "ElementSpec(symbol='S', valence=6, mass_star=320)"
    assert sorted([six, make_element("S", 4), make_element("S")]) == [
        make_element("S"), make_element("S", 4), six]


def test_element_errors_survive_sharing():
    make_element("C")
    for _ in range(2):
        with pytest.raises(UnknownElementError):
            make_element("Xx")
        with pytest.raises(UnknownElementError):
            make_element("Xx", 4)
        for bad in (0, 7, 2.5, "4"):
            with pytest.raises(ValueError, match="valence"):
                make_element("C", bad)


def test_ethane_valid():
    g = chain(["C", "C"])
    assert g.validate() == []
    assert g.n_heavy() == 2
    assert g.n_atoms() == 8


def test_valence_violation_detected():
    # 5-coordinate carbon
    atoms = [Vertex(i, make_element("C")) for i in range(1, 7)]
    edges = [Edge(1, j, 1) for j in range(2, 7)]
    hydrogens = []
    next_id = 7
    for j in range(2, 7):
        for _ in range(3):
            hydrogens.append(Vertex(next_id, make_element("H")))
            edges.append(Edge(j, next_id, 1))
            next_id += 1
    g = ChemicalGraph(tuple(atoms + hydrogens), tuple(edges))
    assert any("valence condition" in p for p in g.validate())


def test_hydrogen_must_be_pendant():
    g = ChemicalGraph(
        (Vertex(1, make_element("H")), Vertex(2, make_element("H"))),
        (Edge(1, 2, 1),),
    )
    assert g.validate() == []  # H2 is a legal if odd molecule
    bad = ChemicalGraph(
        (
            Vertex(1, make_element("O")),
            Vertex(2, make_element("H")),
            Vertex(3, make_element("H")),
        ),
        (Edge(1, 2, 1), Edge(1, 3, 1)),
    )
    assert bad.validate() == []


@pytest.mark.parametrize("make, message", [
    (lambda: Vertex(1, make_element("C"), 4), "charge 4 outside [-3,3]"),
    (lambda: Vertex(1, make_element("C"))._replace(charge=-4), "charge -4 outside [-3,3]"),
    (lambda: Edge(2, 2, 1), "self-loop at vertex 2"),
    (lambda: Edge(1, 2, 1)._replace(v=1), "self-loop at vertex 1"),
    (lambda: Edge(1, 2, 0), "bond multiplicity 0 outside [1,3]"),
    (lambda: Edge._make((1, 2, 4)), "bond multiplicity 4 outside [1,3]"),
], ids=["charge", "replaced-charge", "self-loop", "replaced-self-loop", "mult",
        "made-mult"])
def test_vertex_and_edge_records_check_every_build(make, message):
    """Vertex and Edge are tuples; each way of building one runs its checks,
    and a built one cannot be changed."""
    with pytest.raises(InvalidGraphError) as info:
        make()
    assert str(info.value) == message
    v = Vertex(1, make_element("C"))
    with pytest.raises(AttributeError):
        v.charge = 1
    assert pickle.loads(pickle.dumps(v)) == v and copy.deepcopy(v) == v


def test_parallel_edges_rejected():
    with pytest.raises(InvalidGraphError):
        ChemicalGraph(
            (Vertex(1, make_element("C")), Vertex(2, make_element("C"))),
            (Edge(1, 2, 1), Edge(2, 1, 1)),
        ).adjacency


def test_duplicate_vertex_ids_reported():
    c = make_element("C")
    g = ChemicalGraph((Vertex(1, c), Vertex(2, c), Vertex(2, c)), (Edge(1, 2, 1),))
    assert g.validate() == ["duplicate vertex ids"]


def test_suppress_hydrogens_counts():
    g = chain(["C", "C"])
    view = g.suppressed
    assert len(view.vertex_ids) == 2
    assert len(view.edges) == 1
    assert len(view.hydrogens[1]) == 3
    assert len(view.hydrogens[2]) == 3

    water = build_graph([(1, "O")], [], add_hydrogens=True)
    view = water.suppressed
    assert len(view.vertex_ids) == 1
    assert len(view.edges) == 0
    assert len(view.hydrogens[1]) == 2

    hexane = ring(6)
    view = hexane.suppressed
    assert len(view.vertex_ids) == 6
    assert len(view.edges) == 6


def test_rank():
    assert rank(chain(["C", "C", "C", "C"])) == 0
    assert rank(ring(6)) == 1
    # two cycles sharing one edge: |V|=6, |E|=7
    g = build_graph(
        [(i, "C") for i in range(1, 7)],
        [(1, 2, 1), (2, 3, 1), (3, 4, 1), (4, 1, 1), (4, 5, 1), (5, 6, 1), (6, 1, 1)],
        add_hydrogens=True,
    )
    assert rank(g) == 2


def test_rank_requires_connected():
    g = ChemicalGraph(
        tuple(
            [Vertex(1, make_element("O")), Vertex(2, make_element("O"))]
            + [Vertex(i, make_element("H")) for i in range(3, 7)]
        ),
        (Edge(1, 3, 1), Edge(1, 4, 1), Edge(2, 5, 1), Edge(2, 6, 1)),
    )
    with pytest.raises(InvalidGraphError):
        rank(g)


def test_json_round_trip():
    g = build_graph([(1, "C"), (2, "N", 1), (3, "O", -1)],
                    [(1, 2, 1), (2, 3, 1)], add_hydrogens=True)
    doc = graph_to_json(g)
    g2 = graph_from_json(doc)
    assert graph_to_json(g2) == doc
    assert g2.validate() == []


def test_charged_valence():
    # ammonium-like: N+ with 4 bonds
    g = build_graph([(1, "N", 1)], [], add_hydrogens=True)
    assert g.validate() == []
    assert sum(1 for v in g.vertices if v.element.is_hydrogen) == 4


def _graph_doc():
    return graph_to_json(build_graph([(1, "C"), (2, "O")], [(1, 2, 2)],
                                     add_hydrogens=True))


@pytest.mark.parametrize("edit, path", [
    (lambda doc: doc["edges"][0].update(order=1.5), "edges[0].order"),
    (lambda doc: doc["vertices"][0].update(id=True), "vertices[0].id"),
    (lambda doc: doc.update(vertices={}), "vertices"),
    (lambda doc: doc["vertices"][1].update(charge=4), "vertices[1].charge"),
    (lambda doc: doc["vertices"][1].update(element="Qq"), "vertices[1].element"),
    (lambda doc: doc["edges"][1].update(v=doc["edges"][1]["u"]), "edges[1]"),
    (lambda doc: doc["edges"][0].update(weight=1), "edges[0].weight"),
], ids=["order-fraction", "id-bool", "vertices-object", "charge-range",
        "unknown-element", "self-loop", "unknown-key"])
def test_graph_document_faults_name_their_path(edit, path):
    doc = _graph_doc()
    edit(doc)
    with pytest.raises(InputError) as caught:
        graph_from_json(doc)
    assert str(caught.value).startswith(f"graph document key {path!r}")


@pytest.mark.parametrize("root, problem", [
    (None, "is missing key 'root'"),
    ("1", "key 'root' must be an integer"),
    (99, "key 'root' must be the id of a vertex"),
])
def test_tree_root_faults_are_typed(root, problem):
    doc = tree_to_json(decompose(ring(3), 2).fringe_trees[1])
    if root is None:
        del doc["root"]
    else:
        doc["root"] = root
    with pytest.raises(InputError, match=problem):
        TREE.read(Reader("fringe tree", InputError), doc)


def test_tree_with_a_cycle_is_rejected():
    """Each non-root vertex has one parent, yet two of them form a cycle
    the root cannot reach: not a fringe tree."""
    doc = {"root": 1, "vertices": [{"id": i, "element": "C"} for i in (1, 2, 3)],
           "edges": [{"u": 2, "v": 3, "order": 1}, {"u": 3, "v": 2, "order": 1}]}
    with pytest.raises(InputError, match="fringe tree is invalid"):
        TREE.read(Reader("fringe tree", InputError), doc)
