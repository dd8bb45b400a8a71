"""Canonical fringe codes versus brute-force root-preserving isomorphism."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from invqsar.decompose import RootedFringeTree
from invqsar.elements import make_element
from invqsar.graph import InvalidGraphError

from oracles import r_isomorphic

C = make_element("C")
O = make_element("O")
H = make_element("H")
TOKENS = {"C": C, "O": O, "H": H}


def tree_from_parents(parents, labels, mults=None, charges=None):
    n = len(labels)
    mults = mults or [1] * (n - 1)
    charges = charges or [0] * n
    nodes = tuple((i, TOKENS[labels[i]], charges[i]) for i in range(n))
    edges = tuple((parents[i - 1], i, mults[i - 1]) for i in range(1, n))
    return RootedFringeTree(0, nodes, edges)


def all_labeled_trees(max_n):
    """Every rooted tree on vertices 0..n-1 (parent[i] < i) with every
    labeling over {C, O, H}."""
    for n in range(1, max_n + 1):
        parent_choices = [range(i) for i in range(1, n)]
        for parents in itertools.product(*parent_choices):
            for labels in itertools.product("COH", repeat=n):
                yield tree_from_parents(list(parents), list(labels))


def test_label_permutation_invariance():
    t1 = tree_from_parents([0, 0, 1], ["C", "O", "H", "C"])
    # same shape, children listed in the other order
    nodes = ((0, C, 0), (1, H, 0), (2, O, 0), (3, C, 0))
    edges = ((0, 2, 1), (0, 1, 1), (2, 3, 1))
    t2 = RootedFringeTree(0, nodes, edges)
    assert t1.canonical_code == t2.canonical_code


def test_distinct_hydrogen_counts():
    two_h = tree_from_parents([0, 0], ["C", "H", "H"])
    three_h = tree_from_parents([0, 0, 0], ["C", "H", "H", "H"])
    assert two_h.canonical_code != three_h.canonical_code


def test_multiplicity_and_charge_matter():
    base = tree_from_parents([0], ["C", "O"])
    double = tree_from_parents([0], ["C", "O"], mults=[2])
    charged = tree_from_parents([0], ["C", "O"], charges=[0, -1])
    codes = {
        base.canonical_code,
        double.canonical_code,
        charged.canonical_code,
    }
    assert len(codes) == 3


def test_exhaustive_small_trees_against_brute_force():
    """Code equality must coincide with brute-force isomorphism for every
    rooted labeled tree with up to 4 vertices (the 5-vertex sweep runs in
    the acceptance suite)."""
    trees = list(all_labeled_trees(4))
    buckets = {}
    for t in trees:
        buckets.setdefault(t.canonical_code, []).append(t)
    # equal code -> isomorphic to the bucket representative
    for members in buckets.values():
        rep = members[0]
        for other in members[1:]:
            assert r_isomorphic(rep, other)
    # different codes -> not isomorphic (representatives suffice)
    reps = [members[0] for members in buckets.values()]
    by_size = {}
    for rep in reps:
        by_size.setdefault(len(rep.nodes), []).append(rep)
    for size_reps in by_size.values():
        for a, b in itertools.combinations(size_reps, 2):
            assert not r_isomorphic(a, b)


@st.composite
def random_tree(draw):
    n = draw(st.integers(min_value=1, max_value=7))
    parents = [draw(st.integers(min_value=0, max_value=i - 1)) for i in range(1, n)]
    labels = [draw(st.sampled_from("COH"))]
    for i in range(1, n):
        leaf = all(p != i for p in parents)
        labels.append(draw(st.sampled_from("COH" if leaf else "CO")))
    mults = [draw(st.integers(min_value=1, max_value=2)) for _ in range(n - 1)]
    return parents, labels, mults


@settings(max_examples=120, deadline=None)
@given(random_tree(), st.randoms(use_true_random=False))
def test_code_invariant_under_child_shuffle(spec, rnd):
    parents, labels, mults = spec
    t = tree_from_parents(parents, labels, mults)
    # rebuild with shuffled edge insertion order
    order = list(range(len(parents)))
    rnd.shuffle(order)
    edges = tuple(
        (parents[i], i + 1, mults[i]) for i in order
    )
    t2 = RootedFringeTree(0, t.nodes, edges)
    assert t.canonical_code == t2.canonical_code
    assert r_isomorphic(t, t2)


def test_equivalence_relation_on_random_sample():
    rng = np.random.default_rng(3)
    sample = []
    for _ in range(80):
        n = int(rng.integers(1, 6))
        parents = [int(rng.integers(0, i)) for i in range(1, n)]
        labels = [str(rng.choice(["C", "O", "H"]))]
        for i in range(1, n):
            is_leaf = all(p != i for p in parents)
            labels.append(str(rng.choice(["C", "O", "H"] if is_leaf else ["C", "O"])))
        sample.append(tree_from_parents(parents, labels))
    for a in sample[:30]:
        for b in sample[:30]:
            same_code = a.canonical_code == b.canonical_code
            assert same_code == r_isomorphic(a, b)


@pytest.mark.parametrize("edges", [
    ((0, 1, 1), (1, 2, 1), (2, 1, 1)),  # a loop below the root
    ((0, 1, 1), (1, 0, 1)),             # back to the root
], ids=["inner_loop", "root_loop"])
def test_tree_whose_edges_loop_is_rejected(edges):
    """Edges that loop back make no out-tree: its code and height raise
    InvalidGraphError instead of walking the loop for ever."""
    nodes = tuple((i, C, 0) for i in range(3))
    for prop in ("canonical_code", "height"):
        with pytest.raises(InvalidGraphError, match="not an out-tree"):
            getattr(RootedFringeTree(0, nodes, edges), prop)


@pytest.mark.parametrize("edges", [
    ((0, 1, 1), (0, 2, 1), (1, 2, 1)),  # node 2 has two parents
    ((0, 1, 1),),                       # no edge reaches node 2
    ((0, 1, 1), (9, 2, 1)),             # node 2's parent is no node
    ((0, 1, 1), (0, 2, 1), (9, 1, 1)),  # an extra edge from no node
    ((0, 1, 1), (0, 2, 1), (0, 9, 1)),  # an edge to no node
], ids=["two_parents", "unreached", "foreign_parent", "extra_foreign_edge",
        "foreign_child"])
def test_tree_that_is_no_out_tree_is_rejected(edges):
    """Every property read from the walk holds one rule: the edges reach
    each node exactly once from the root, or InvalidGraphError."""
    nodes = tuple((i, C, 0) for i in range(3))
    for prop in ("walk", "canonical_code", "height", "root_heavy_children",
                 "root_hydrogen_children", "beta_root", "n_nonroot_heavy",
                 "nonroot_heavy_degree_counts", "leaf_edge_configs"):
        with pytest.raises(InvalidGraphError, match="fringe tree at 0 is not an out-tree"):
            getattr(RootedFringeTree(0, nodes, edges), prop)
