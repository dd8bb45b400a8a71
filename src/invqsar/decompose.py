"""Interior/exterior decomposition of a chemical graph and rooted fringe trees.

The heavy-atom graph is peeled: leaves get height 0, then the new leaves
height 1, and so on; vertices on cycles (never peeled) get infinite height.
With branch parameter rho, the interior is every heavy vertex of height at
least rho; each interior vertex roots one fringe tree consisting of its
attached exterior descendants and all their hydrogens.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .elements import ElementSpec
from .graph import GRAPH, ChemicalGraph, Edge, InvalidGraphError
from .schema import INTEGER, Field, Reader, Table

INF_HEIGHT = 10**9


def peel_heights(g: ChemicalGraph) -> dict[int, int]:
    """Peeling height of every heavy vertex (INF_HEIGHT on cycles)."""
    view = g.suppressed
    deg = {v: view.degree(v) for v in view.vertex_ids}
    height = {v: INF_HEIGHT for v in view.vertex_ids}
    alive = set(view.vertex_ids)
    rnd = 0
    while alive:
        peel = [v for v in alive if deg[v] <= 1]
        if not peel:
            break
        for v in peel:
            height[v] = rnd
            alive.discard(v)
        for v in peel:
            for w, _ in view.adjacency[v]:
                if w in alive:
                    deg[w] -= 1
        rnd += 1
    return height


@dataclass(frozen=True)
class RootedFringeTree:
    """A fringe tree: interior root plus exterior descendants and hydrogens.

    Edges are directed parent -> child.  Scalars used by the feature vector
    and the model builder are exposed as cached properties.
    """

    root: int
    nodes: tuple[tuple[int, ElementSpec, int], ...]  # (id, element, charge)
    edges: tuple[tuple[int, int, int], ...]  # (parent, child, mult)

    @cached_property
    def node_map(self) -> dict[int, tuple[ElementSpec, int]]:
        return {nid: (elem, chg) for nid, elem, chg in self.nodes}

    @cached_property
    def children(self) -> dict[int, tuple[tuple[int, int], ...]]:
        ch: dict[int, list[tuple[int, int]]] = {nid: [] for nid, _, _ in self.nodes}
        for p, c, m in self.edges:
            ch[p].append((c, m))
        return {k: tuple(v) for k, v in ch.items()}

    @cached_property
    def canonical_code(self) -> bytes:
        return _canonical_code(self, self.root)

    @cached_property
    def height(self) -> int:
        """Height of the hydrogen-suppressed tree."""

        def go(nid: int) -> int:
            hs = [
                1 + go(c)
                for c, _ in self.children[nid]
                if not self.node_map[c][0].is_hydrogen
            ]
            return max(hs, default=0)

        return go(self.root)

    @cached_property
    def root_element(self) -> ElementSpec:
        return self.node_map[self.root][0]

    @cached_property
    def root_charge(self) -> int:
        return self.node_map[self.root][1]

    @cached_property
    def root_heavy_children(self) -> int:
        return sum(
            1 for c, _ in self.children[self.root]
            if not self.node_map[c][0].is_hydrogen
        )

    @cached_property
    def root_hydrogen_children(self) -> int:
        return sum(
            1 for c, _ in self.children[self.root]
            if self.node_map[c][0].is_hydrogen
        )

    @cached_property
    def beta_root(self) -> int:
        return sum(m for _, m in self.children[self.root])

    @cached_property
    def n_nonroot_heavy(self) -> int:
        return sum(
            1 for nid, elem, _ in self.nodes
            if nid != self.root and not elem.is_hydrogen
        )

    @cached_property
    def nonroot_element_counts(self) -> dict[str, int]:
        """Element token -> frequency among non-root nodes (hydrogen included)."""
        counts: dict[str, int] = {}
        for nid, elem, _ in self.nodes:
            if nid == self.root:
                continue
            counts[elem.token] = counts.get(elem.token, 0) + 1
        return counts

    @cached_property
    def heavy_degree(self) -> dict[int, int]:
        """Heavy-neighbour count of each heavy node within the tree."""
        deg = {}
        parent: dict[int, int] = {}
        for p, c, _ in self.edges:
            parent[c] = p
        for nid, elem, _ in self.nodes:
            if elem.is_hydrogen:
                continue
            d = sum(
                1 for c, _ in self.children[nid]
                if not self.node_map[c][0].is_hydrogen
            )
            if nid != self.root and not self.node_map[parent[nid]][0].is_hydrogen:
                d += 1
            deg[nid] = d
        return deg

    @cached_property
    def nonroot_heavy_degree_counts(self) -> dict[int, int]:
        """Suppressed degree d -> count over non-root heavy nodes."""
        counts: dict[int, int] = {}
        for nid, d in self.heavy_degree.items():
            if nid == self.root:
                continue
            counts[d] = counts.get(d, 0) + 1
        return counts

    @cached_property
    def leaf_edge_configs(self) -> dict[tuple[str, str, int], int]:
        """Adjacency configuration (leaf element, parent element, mult) ->
        count over leaf edges of the suppressed tree (leaf end non-root)."""
        parent_of: dict[int, tuple[int, int]] = {}
        for p, c, m in self.edges:
            parent_of[c] = (p, m)
        counts: dict[tuple[str, str, int], int] = {}
        for nid, d in self.heavy_degree.items():
            if nid == self.root or d != 1:
                continue
            p, m = parent_of[nid]
            key = (self.node_map[nid][0].token, self.node_map[p][0].token, m)
            counts[key] = counts.get(key, 0) + 1
        return counts


def _canonical_code(t: RootedFringeTree, nid: int) -> bytes:
    elem, chg = t.node_map[nid]
    entries = []
    for c, m in t.children[nid]:
        celem, cchg = t.node_map[c]
        # a leaf, such as every hydrogen, is written here without a call
        code = (_canonical_code(t, c) if t.children[c]
                else b"(%s,%d[])" % (celem.token.encode(), cchg))
        entries.append((celem.sort_key(), cchg, m, code))
    entries.sort()
    inner = b";".join(b"%d:" % m + code for _, _, m, code in entries)
    return b"(%s,%d[" % (elem.token.encode(), chg) + inner + b"])"


def tree_to_json(t: RootedFringeTree) -> dict:
    """Serialize with the graph interchange schema plus a root marker."""
    return {
        "root": t.root,
        "vertices": [
            {"id": nid, "element": elem.symbol, "valence": elem.valence, "charge": chg}
            for nid, elem, chg in t.nodes
        ],
        "edges": [{"u": p, "v": c, "order": m} for p, c, m in t.edges],
    }


def _tree(r: Reader, path, d: dict) -> RootedFringeTree:
    """The fringe tree of a TREE record, in its given node order and edge
    orientation when these form an out-tree from the root."""
    root, nodes, edges = d["root"], d["vertices"], d["edges"]
    others = [nid for nid, _, _ in nodes if nid != root]
    if len(others) == len(nodes):
        r.fail((path, "root"), "must be the id of a vertex")
    if sorted(child for _, child, _ in edges) == sorted(others):
        # one parent per vertex but the root: a tree if all are reached
        children: dict[int, list[int]] = {}
        for parent, child, _ in edges:
            children.setdefault(parent, []).append(child)
        reached = [root]
        for u in reached:
            reached.extend(children.pop(u, ()))
        if len(set(reached)) == len(nodes):
            return RootedFringeTree(root, nodes, edges)
    return r.make(path, fringe_tree_from_graph, GRAPH.make(r, path, d), root)


TREE = Table(Field("root", INTEGER), *GRAPH.fields, make=_tree, write=tree_to_json)


def fringe_tree_from_graph(g: ChemicalGraph, root: int) -> RootedFringeTree:
    """Orient a tree-shaped chemical graph away from the given root."""
    if len(g.edges) != len(g.vertices) - 1 or not g.connected:
        raise InvalidGraphError("fringe tree must be a connected tree")
    nodes = []
    edges = []
    seen = {root}
    order = [root]
    i = 0
    while i < len(order):
        u = order[i]
        i += 1
        for w, m in g.adjacency[u]:
            if w not in seen:
                seen.add(w)
                order.append(w)
                edges.append((u, w, m))
    for nid in order:
        v = g.vertex_map[nid]
        nodes.append((nid, v.element, v.charge))
    return RootedFringeTree(root, tuple(nodes), tuple(edges))


@dataclass(frozen=True)
class TwoLayeredDecomposition:
    rho: int
    graph: ChemicalGraph
    interior_vertices: frozenset[int]
    interior_edges: tuple[Edge, ...]
    fringe_trees: dict[int, RootedFringeTree]

    @cached_property
    def interior_adjacency(self) -> dict[int, tuple[tuple[int, int], ...]]:
        """Interior vertex (ascending) -> (interior neighbour, multiplicity),
        in interior-edge order."""
        adj: dict[int, list[tuple[int, int]]] = {
            v: [] for v in sorted(self.interior_vertices)
        }
        for e in self.interior_edges:
            adj[e.u].append((e.v, e.mult))
            adj[e.v].append((e.u, e.mult))
        return {k: tuple(v) for k, v in adj.items()}


def decompose(g: ChemicalGraph, rho: int) -> TwoLayeredDecomposition:
    """Split g into interior and fringe trees with branch parameter rho."""
    if rho < 1:
        raise ValueError("rho must be at least 1")
    view = g.suppressed
    height = peel_heights(g)
    interior = frozenset(v for v in view.vertex_ids if height[v] >= rho)
    interior_edges = tuple(
        e for e in view.edges if e.u in interior and e.v in interior
    )

    fringe_trees: dict[int, RootedFringeTree] = {}
    claimed: set[int] = set()
    for root in sorted(interior):
        edges: list[tuple[int, int, int]] = []
        order = [root]
        seen = {root}
        i = 0
        while i < len(order):
            u = order[i]
            i += 1
            for w, m in view.adjacency[u]:
                if w in interior or w in seen:
                    continue
                if w in claimed:
                    raise InvalidGraphError(
                        f"exterior vertex {w} reachable from two interior roots"
                    )
                seen.add(w)
                claimed.add(w)
                order.append(w)
                edges.append((u, w, m))
        tree_nodes: list[tuple[int, ElementSpec, int]] = []
        for nid in order:
            v = g.vertex_map[nid]
            tree_nodes.append((nid, v.element, v.charge))
        for nid in order:
            for h, m in view.hydrogens[nid]:
                vtx = g.vertex_map[h]
                tree_nodes.append((h, vtx.element, vtx.charge))
                edges.append((nid, h, m))
        tree = RootedFringeTree(root, tuple(tree_nodes), tuple(edges))
        if tree.height > rho:
            raise InvalidGraphError(
                f"fringe tree at {root} has height {tree.height} > rho={rho}"
            )
        fringe_trees[root] = tree

    return TwoLayeredDecomposition(
        rho=rho,
        graph=g,
        interior_vertices=interior,
        interior_edges=interior_edges,
        fringe_trees=fringe_trees,
    )
