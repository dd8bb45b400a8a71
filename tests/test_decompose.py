import pytest
from hypothesis import given, settings, strategies as st

from invqsar.decompose import (
    TREE,
    RootedFringeTree,
    decompose,
    peel_heights,
    tree_to_json,
    INF_HEIGHT,
)
from invqsar.graph import build_graph
from invqsar.schema import InputError, Reader

import oracles
from conftest import (
    ALL_ROUNDTRIP_FIXTURES, chain, mol_block, perfbench_inputs, random_chemical_graph,
    ring, roundtrip_fixture, sdf_records)
import numpy as np


def test_cyclohexane_decomposition():
    g = ring(6)
    d = decompose(g, 2)
    assert sorted(d.interior_vertices) == [1, 2, 3, 4, 5, 6]
    assert len(d.fringe_trees) == 6
    for t in d.fringe_trees.values():
        assert t.height == 0
        assert sum(e.is_hydrogen for _, e, _ in t.nodes) == 2
        assert t.n_nonroot_heavy == 0


def test_path_of_five():
    g = chain(["C"] * 5)
    heights = peel_heights(g)
    assert [heights[i] for i in range(1, 6)] == [0, 1, 2, 1, 0]
    d = decompose(g, 2)
    assert sorted(d.interior_vertices) == [3]
    t = d.fringe_trees[3]
    assert t.n_nonroot_heavy == 4
    assert t.height == 2


def test_single_atom_exterior_only():
    g = build_graph([(1, "C")], [], add_hydrogens=True)
    d = decompose(g, 2)
    assert not d.interior_vertices
    assert not d.fringe_trees


def test_partition_property():
    rng = np.random.default_rng(7)
    for _ in range(40):
        g = random_chemical_graph(rng, max_heavy=10)
        d = decompose(g, 2)
        kinds = {"interior": 0, "exterior": 0, "hydrogen": 0}
        for v in g.vertices:
            if v.element.is_hydrogen:
                kinds["hydrogen"] += 1
            elif v.id in d.interior_vertices:
                kinds["interior"] += 1
            else:
                kinds["exterior"] += 1
        assert sum(kinds.values()) == g.n_atoms()
        assert kinds["interior"] == len(d.interior_vertices)
        in_trees = sum(len(t.nodes) - 1 for t in d.fringe_trees.values())
        if d.interior_vertices:
            assert in_trees == kinds["exterior"] + kinds["hydrogen"]


def test_fringe_heights_bounded():
    rng = np.random.default_rng(11)
    for _ in range(40):
        g = random_chemical_graph(rng, max_heavy=10)
        for rho in (1, 2, 3):
            d = decompose(g, rho)
            for t in d.fringe_trees.values():
                assert t.height <= rho


def _counts(t):
    """The seven counts the model builder reads, as the tree gives them."""
    return {name: getattr(t, name) for name in (
        "root_heavy_children", "root_hydrogen_children", "beta_root", "n_nonroot_heavy",
        "nonroot_element_counts", "nonroot_heavy_degree_counts", "leaf_edge_configs")}


def _check_fringe_trees(g, rho):
    """decompose(g, rho)'s codes, taken from the peel walk, and its trees,
    built on request, against the oracles: the codes in root order, each
    tree's nodes, edges, code, height and counts, and the code and counts
    of the same tree rebuilt from its node and edge lists."""
    d = decompose(g, rho)
    want = oracles.fringe_trees(g, rho)
    shapes = {root: oracles.fringe_tree_shape(t) for root, t in want.items()}
    assert d.fringe_codes == tuple(shapes[root][0] for root in sorted(want))
    assert list(d.fringe_trees) == sorted(want)
    for root, t in d.fringe_trees.items():
        assert sorted(t.nodes) == sorted(want[root].nodes)
        assert sorted(t.edges) == sorted(want[root].edges)
        assert (t.canonical_code, t.height) == shapes[root] == oracles.fringe_tree_shape(t)
        counts = oracles.fringe_tree_counts(want[root])
        assert _counts(t) == counts == oracles.fringe_tree_counts(t)
        rebuilt = RootedFringeTree(root, t.nodes, t.edges)
        assert rebuilt.canonical_code == shapes[root][0]
        assert _counts(rebuilt) == counts
    return d


def test_fringe_trees_match_the_oracle_recursion():
    """Over 200 random molecules at rho 1, 2 and 3: peeling heights, the
    walk's codes and the trees built on request agree with the oracles'
    plain recursions.  No tree is higher than rho, and a tree's height is
    1 + the largest peeling height among its root's exterior neighbours,
    which is why decompose needs no height check."""
    inputs = perfbench_inputs()
    rng = np.random.default_rng(21)
    trees = 0
    for _ in range(200):
        g = inputs.random_molecule(rng, 12)
        heights = peel_heights(g)
        assert heights == oracles._peel(oracles._heavy_adjacency(g)[1])
        for rho in (1, 2, 3):
            d = _check_fringe_trees(g, rho)
            for root, t in d.fringe_trees.items():
                below = [heights[w] for w, _ in g.suppressed.adjacency[root]
                         if w not in d.interior_vertices]
                assert t.height == max((1 + h for h in below), default=0) <= rho
                trees += 1
    assert trees > 600


def test_fringe_trees_with_a_file_hydrogen():
    """A hydrogen the SDF lists itself, ahead of the heavy atoms, sits in
    its tree beside the hydrogens the reader adds."""
    # H1 on C2, which hangs off the ring C3-C4-C5 and carries O6
    text = mol_block("file_h", ["H", "C", "C", "C", "C", "O"],
                     [(1, 2, 1), (2, 3, 1), (3, 4, 1), (4, 5, 1), (5, 3, 1), (2, 6, 1)])
    ((_, g),), errors = sdf_records(text)
    assert not errors
    for rho in (1, 2, 3):
        d = _check_fringe_trees(g, rho)
        assert any(nid == 1 for t in d.fringe_trees.values() for nid, _, _ in t.nodes)
    d = decompose(g, 2)
    assert d.fringe_codes[0] == (
        b"(C,0[1:(C,0[1:(H,0[]);1:(H,0[]);1:(O,0[1:(H,0[])])]);1:(H,0[])])")
    # the layout spec_from_graph writes: heavy nodes breadth-first, then
    # each one's hydrogens in bond order (the reader's from id 7 on)
    t = d.fringe_trees[3]
    assert [nid for nid, _, _ in t.nodes] == [3, 2, 6, 8, 1, 7, 13]
    assert t.edges == ((3, 2, 1), (2, 6, 1), (3, 8, 1), (2, 1, 1), (2, 7, 1), (6, 13, 1))


def test_fringe_trees_with_a_charged_hydrogen():
    """A hydrogen of charge -1 (valence 2) on a tail carbon codes as its
    own entry, sorted after the run of neutral hydrogen leaves."""
    g = build_graph([(1, "C"), (2, "C"), (3, "C"), (4, "C"), (5, "H(2)", -1)],
                    [(1, 2, 1), (2, 3, 1), (3, 1, 1), (1, 4, 1), (4, 5, 1)],
                    add_hydrogens=True)
    assert g.validate() == []
    for rho in (1, 2, 3):
        _check_fringe_trees(g, rho)
    assert decompose(g, 1).fringe_codes[0] == (
        b"(C,0[1:(C,0[1:(H,0[]);1:(H,0[]);1:(H(2),-1[])]);1:(H,0[])])")


def test_fringe_scalars():
    # propyl tail: C1 interior root with chain C2-C3 and 2 hydrogens
    g = ring(4, pendant=3)
    d = decompose(g, 2)
    t = d.fringe_trees[5]
    assert t.height == 2
    assert t.root_heavy_children == 1
    assert t.root_hydrogen_children == 2
    assert t.beta_root == 3
    assert t.n_nonroot_heavy == 2
    assert t.nonroot_element_counts["C"] == 2
    assert t.nonroot_heavy_degree_counts == {2: 1, 1: 1}
    assert t.leaf_edge_configs == {("C", "C", 1): 1}
    assert _counts(t) == oracles.fringe_tree_counts(t)


@pytest.mark.parametrize("name", ALL_ROUNDTRIP_FIXTURES)
def test_spec_menu_trees_match_the_oracle_recursion(name):
    """Every tree on a round-trip fixture's spec menu, as read from its
    TREE record: code, height and the seven counts by plain recursion."""
    for f in roundtrip_fixture(name).spec.fringe_entries:
        assert (f.tree.canonical_code, f.tree.height) == oracles.fringe_tree_shape(f.tree)
        assert _counts(f.tree) == oracles.fringe_tree_counts(f.tree)


def test_rho_validation():
    with pytest.raises(ValueError):
        decompose(ring(6), 0)


def test_never_peeled_on_cycle():
    heights = peel_heights(ring(6))
    assert all(h == INF_HEIGHT for h in heights.values())


def test_tree_json_round_trip():
    g = ring(6, pendant=2)
    d = decompose(g, 2)
    for t in d.fringe_trees.values():
        doc = tree_to_json(t)
        t2 = TREE.read(Reader("fringe tree", InputError), doc)
        assert t2.canonical_code == t.canonical_code


def test_tree_edge_may_point_to_the_root():
    """A tree edge written child -> parent gives C5 a second parent and C6
    none, so the record is no out-tree: it is read as a graph and oriented
    away from the root, breadth-first, and keeps its canonical code."""
    t = decompose(ring(4, pendant=2), 2).fringe_trees[1]
    doc = tree_to_json(t)
    edge = doc["edges"][1]
    edge["u"], edge["v"] = edge["v"], edge["u"]
    tree = TREE.read(Reader("fringe tree", InputError), doc)
    assert tree.canonical_code == t.canonical_code
    assert (edge["u"], edge["v"], 1) not in tree.edges
    assert (edge["v"], edge["u"], 1) in tree.edges
    assert [nid for nid, _, _ in tree.nodes] == [1, 5, 7, 6, 14, 15, 16, 17, 18]
    assert tree.edges == ((1, 5, 1), (1, 7, 1), (5, 6, 1), (5, 14, 1), (5, 15, 1),
                          (6, 16, 1), (6, 17, 1), (6, 18, 1))


def _edge(u, v):
    return {"u": u, "v": v, "order": 1}


@pytest.mark.parametrize("edit, problem", [
    # C6 gets a second parent, the root: a cycle
    (lambda doc: doc["edges"].append(_edge(1, 6)), "fringe tree must be a connected tree"),
    # a vertex that no edge reaches
    (lambda doc: doc["vertices"].append(
        {"id": 30, "element": "C", "valence": 4, "charge": 0}),
     "fringe tree must be a connected tree"),
    # an extra edge from an id that is not a vertex
    (lambda doc: doc["edges"].append(_edge(99, 6)), "edge (99,6) references unknown vertex"),
    # C6's one parent edge comes from an id that is not a vertex
    (lambda doc: doc["edges"][1].update(u=99), "edge (99,6) references unknown vertex"),
], ids=["second_parent", "unreached_vertex", "extra_edge_from_no_vertex",
        "parent_is_no_vertex"])
def test_tree_record_that_is_no_tree_is_rejected(edit, problem):
    """A record whose edges do not reach every vertex exactly once from
    the root is read as a graph; when that graph is no tree, the record
    is rejected with the graph's fault."""
    doc = tree_to_json(decompose(ring(4, pendant=2), 2).fringe_trees[1])
    edit(doc)
    with pytest.raises(InputError) as err:
        TREE.read(Reader("fringe tree", InputError), doc)
    assert str(err.value) == f"fringe tree is invalid: {problem}"


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10**9))
def test_decompose_deterministic(seed):
    rng = np.random.default_rng(seed)
    g = random_chemical_graph(rng, max_heavy=8)
    d1 = decompose(g, 2)
    d2 = decompose(g, 2)
    assert d1.interior_vertices == d2.interior_vertices
    assert {r: t.canonical_code for r, t in d1.fringe_trees.items()} == {
        r: t.canonical_code for r, t in d2.fringe_trees.items()
    }


def test_rank_matches_back_edge_count_on_random_graphs():
    # independent oracle: non-tree edges of a depth-first forest
    rng = np.random.default_rng(97)
    from invqsar.graph import rank

    for _ in range(100):
        g = random_chemical_graph(rng, max_heavy=11)
        view = g.suppressed
        seen, back = set(), 0
        for start in view.vertex_ids:
            if start in seen:
                continue
            seen.add(start)
            stack = [start]
            visited_edges = set()
            while stack:
                u = stack.pop()
                for w, _ in view.adjacency[u]:
                    key = (min(u, w), max(u, w))
                    if key in visited_edges:
                        continue
                    visited_edges.add(key)
                    if w in seen:
                        back += 1
                    else:
                        seen.add(w)
                        stack.append(w)
        assert rank(g) == back


def test_interior_subgraph_connected():
    rng = np.random.default_rng(131)
    for _ in range(60):
        g = random_chemical_graph(rng, max_heavy=12)
        d = decompose(g, 2)
        if len(d.interior_vertices) <= 1:
            continue
        adj = {v: set() for v in d.interior_vertices}
        for e in d.interior_edges:
            adj[e.u].add(e.v)
            adj[e.v].add(e.u)
        start = next(iter(d.interior_vertices))
        seen = {start}
        stack = [start]
        while stack:
            u = stack.pop()
            for w in adj[u]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        assert seen == d.interior_vertices
