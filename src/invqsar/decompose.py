"""Interior/exterior decomposition of a chemical graph and rooted fringe trees.

The heavy-atom graph is peeled: leaves get height 0, then the new leaves
height 1, and so on; vertices on cycles (never peeled) get infinite height.
With branch parameter rho, the interior is every heavy vertex of height at
least rho; each interior vertex roots one fringe tree consisting of its
attached exterior descendants and all their hydrogens.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter
from collections.abc import Mapping
from dataclasses import dataclass
from functools import cached_property

from .elements import ElementSpec, make_element
from .graph import GRAPH, ChemicalGraph, Edge, InvalidGraphError
from .schema import INTEGER, Field, Reader, Table

INF_HEIGHT = 10**9

_HYDROGEN = make_element("H")
# the sort entry of a hydrogen leaf of charge 0 on a single bond
_H_LEAF = ("H", 1, 0, 1, b"1:(H,0[])")


def peel_heights(g: ChemicalGraph) -> dict[int, int]:
    """Peeling height of every heavy vertex (INF_HEIGHT on cycles)."""
    adjacency = g.suppressed.adjacency
    deg = {v: len(nbrs) for v, nbrs in adjacency.items()}
    height = dict.fromkeys(adjacency, INF_HEIGHT)
    peel = [v for v, d in deg.items() if d <= 1]
    rnd = 0
    while peel:
        for v in peel:
            height[v] = rnd
        # a vertex is peeled in the round after its degree falls to 1
        nxt = []
        for v in peel:
            for w, _ in adjacency[v]:
                if height[w] == INF_HEIGHT:
                    deg[w] -= 1
                    if deg[w] == 1:
                        nxt.append(w)
        peel = nxt
        rnd += 1
    return height


@dataclass(frozen=True)
class RootedFringeTree:
    """A fringe tree: interior root plus exterior descendants and hydrogens.

    Edges are directed parent -> child.  Scalars used by the model builder
    and the specification checker are exposed as cached properties.
    """

    root: int
    nodes: tuple[tuple[int, ElementSpec, int], ...]  # (id, element, charge)
    edges: tuple[tuple[int, int, int], ...]  # (parent, child, mult)

    @cached_property
    def node_map(self) -> dict[int, tuple[ElementSpec, int]]:
        return {nid: (elem, chg) for nid, elem, chg in self.nodes}

    @cached_property
    def walk(self) -> tuple[dict[int, list[tuple[int, int]]], list[int]]:
        """Each inner node's (child, mult) list in edge order, and the root
        and the inner nodes breadth-first.  Raises InvalidGraphError unless
        the edges reach every node exactly once from the root: n - 1 edges,
        none into the root and none from an id that is not a node."""
        kids: dict[int, list[tuple[int, int]]] = {}
        for p, c, m in self.edges:
            kids.setdefault(p, []).append((c, m))
        order = [self.root]
        reached = {self.root}
        for u in order:
            for c, _ in kids.get(u, ()):
                if c not in reached:
                    reached.add(c)
                    if c in kids:
                        order.append(c)
        if not (len(self.nodes) == len(self.edges) + 1 == len(reached)
                and reached == self.node_map.keys()):
            raise InvalidGraphError(f"fringe tree at {self.root} is not an out-tree")
        return kids, order

    @cached_property
    def canonical_code(self) -> bytes:
        """See _fringe_code: equal codes mean isomorphic rooted trees."""
        kids, order = self.walk
        return _fringe_code(order, kids, {node[0]: node for node in self.nodes})

    @cached_property
    def height(self) -> int:
        """Height of the hydrogen-suppressed tree: the depth of its deepest
        heavy node below the root along heavy nodes."""
        kids, order = self.walk
        depth = {self.root: 0}
        for u in order:
            if u in depth:
                for c, _ in kids.get(u, ()):
                    if not self.node_map[c][0].is_hydrogen:
                        depth[c] = depth[u] + 1
        return max(depth.values())

    @cached_property
    def root_element(self) -> ElementSpec:
        return self.node_map[self.root][0]

    @cached_property
    def root_charge(self) -> int:
        return self.node_map[self.root][1]

    @cached_property
    def root_hydrogen_children(self) -> int:
        kids = self.walk[0].get(self.root, ())
        return sum(1 for c, _ in kids if self.node_map[c][0].is_hydrogen)

    @cached_property
    def root_heavy_children(self) -> int:
        return len(self.walk[0].get(self.root, ())) - self.root_hydrogen_children

    @cached_property
    def beta_root(self) -> int:
        return sum(m for _, m in self.walk[0].get(self.root, ()))

    @cached_property
    def n_nonroot_heavy(self) -> int:
        return sum(self.nonroot_heavy_degree_counts.values())

    @cached_property
    def nonroot_element_counts(self) -> dict[str, int]:
        """Element token -> frequency among non-root nodes (hydrogen included)."""
        return Counter(elem.token for nid, elem, _ in self.nodes if nid != self.root)

    @cached_property
    def nonroot_heavy_degree_counts(self) -> dict[int, int]:
        """Suppressed degree d -> count over non-root heavy nodes."""
        return self._degree_census[0]

    @cached_property
    def leaf_edge_configs(self) -> dict[tuple[str, str, int], int]:
        """Adjacency configuration (leaf element, parent element, mult) ->
        count over leaf edges of the suppressed tree (leaf end non-root)."""
        return self._degree_census[1]

    @cached_property
    def _degree_census(self) -> tuple[Counter, Counter]:
        """nonroot_heavy_degree_counts and leaf_edge_configs, in node order,
        from one pass over the edges into non-root heavy nodes."""
        node = self.node_map
        degree = {nid: 0 for nid, elem, _ in self.nodes
                  if nid != self.root and not elem.is_hydrogen}
        up = {}  # each one's (parent, mult)
        for p, kids in self.walk[0].items():
            for c, m in kids:
                if c in degree:
                    up[c] = (p, m)
                    if not node[p][0].is_hydrogen:
                        degree[c] += 1
                        if p in degree:
                            degree[p] += 1
        leaves = Counter((node[nid][0].token, node[up[nid][0]][0].token, up[nid][1])
                         for nid, d in degree.items() if d == 1)
        return Counter(degree.values()), leaves


def _fringe_code(
    order: list[int],
    kids: dict[int, list[tuple[int, int]]],
    vertex: Mapping[int, tuple[int, ElementSpec, int]],
) -> bytes:
    """The canonical code of the tree rooted at order[0].  `order` holds the
    root and every node with children, each after its parent; `kids` gives
    each node's (child, mult) list, and `vertex` each node's (id, element,
    charge).

    A code is the node's token and charge, then its children's `mult:code`
    sorted by child element, charge, multiplicity and code, built bottom-up.
    A hydrogen leaf of charge 0 on a single bond always codes as
    `1:(H,0[])`, so such leaves are counted and their run is put into each
    sorted child list where it belongs."""
    code: dict[int, bytes] = {}
    for u in reversed(order):
        entries = []
        n_h = 0
        for c, m in kids.get(u, ()):
            _, celem, cchg = vertex[c]
            if celem is _HYDROGEN and m == 1 and cchg == 0 and c not in kids:
                n_h += 1
                continue
            sub = code.get(c) or b"(%s,%d[])" % (celem.token.encode(), cchg)
            entries.append((celem.symbol, celem.valence, cchg, m, b"%d:%s" % (m, sub)))
        entries.sort()
        if n_h:
            at = bisect_left(entries, _H_LEAF)
            entries[at:at] = [_H_LEAF] * n_h
        _, elem, chg = vertex[u]
        code[u] = b"(%s,%d[%s])" % (
            elem.token.encode(), chg, b";".join([e[4] for e in entries]))
    return code[order[0]]


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
    if all(nid != root for nid, _, _ in nodes):
        r.fail((path, "root"), "must be the id of a vertex")
    t = RootedFringeTree(root, nodes, edges)
    try:
        t.walk  # holds the out-tree rule
    except InvalidGraphError:
        return r.make(path, fringe_tree_from_graph, GRAPH.make(r, path, d), root)
    return t


# a fringe-tree record is a graph record plus its root
TREE = Table(Field("root", INTEGER), *GRAPH.fields, make=_tree, write=tree_to_json)


def fringe_tree_from_graph(g: ChemicalGraph, root: int) -> RootedFringeTree:
    """Orient a tree-shaped chemical graph away from the given root.  Edge
    endpoints are checked (by `adjacency`) before the tree shape, so an
    edge from an unknown id is named as such."""
    adjacency = g.adjacency
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
        for w, m in adjacency[u]:
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
    # each interior root's fringe-tree code, roots in ascending order
    fringe_codes: tuple[bytes, ...]
    # the peel walk: each fringe-tree heavy node -> its (child, mult) list,
    # heavy children first, then its hydrogens
    walk: dict[int, list[tuple[int, int]]]

    @cached_property
    def fringe_trees(self) -> dict[int, RootedFringeTree]:
        """Interior root (ascending) -> its fringe tree, built from the walk
        on request: the heavy nodes breadth-first, then each one's
        hydrogens.  Each tree holds the code the walk gave it."""
        walk, vertex = self.walk, self.graph.vertex_map
        trees: dict[int, RootedFringeTree] = {}
        for root, code in zip(sorted(self.interior_vertices), self.fringe_codes):
            order = [root]
            edges = []
            for u in order:
                for c, m in walk[u]:
                    if c in walk:
                        order.append(c)
                        edges.append((u, c, m))
            edges += [(u, c, m) for u in order for c, m in walk[u] if c not in walk]
            # one edge into each node but the root, heavy nodes first
            nodes = tuple([(nid, vertex[nid].element, vertex[nid].charge)
                           for nid in [root] + [c for _, c, _ in edges]])
            t = RootedFringeTree(root, nodes, tuple(edges))
            t.__dict__["canonical_code"] = code  # fill the cached property
            trees[root] = t
        return trees

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
    """Split g into interior and fringe trees with branch parameter rho.

    No exterior vertex hangs off two interior vertices, and no fringe tree
    is higher than rho.  Both follow from the peeling.  An exterior vertex
    x is peeled in round h(x) < rho, when at most one neighbour is left.
    So no path through exterior vertices joins two vertices of height
    >= rho: its earliest-peeled inner vertex would still have two.  And as
    x's parent outlives it, h(x) is the height of the subtree below x, so
    a tree is 1 + max h(x) <= rho high over its root's exterior neighbours.

    Each tree's code comes from the walk that finds it; the trees
    themselves are built only when fringe_trees is read."""
    if rho < 1:
        raise ValueError("rho must be at least 1")
    view = g.suppressed
    adjacency, hydrogens, vertex = view.adjacency, view.hydrogens, g.vertex_map
    height = peel_heights(g)
    interior = frozenset(v for v, h in height.items() if h >= rho)
    interior_edges = tuple(
        e for e in view.edges if e.u in interior and e.v in interior
    )

    walk: dict[int, list[tuple[int, int]]] = {}
    codes = []
    for root in sorted(interior):
        order = [root]
        for u in order:
            hu = height[u]
            # an exterior vertex's children are the exterior neighbours
            # peeled before it; its parent, peeled later, is skipped
            kids = walk[u] = [(w, m) for w, m in adjacency[u]
                              if w not in interior and height[w] < hu]
            order += [w for w, _ in kids]
            kids += hydrogens[u]
        codes.append(_fringe_code(order, walk, vertex))

    return TwoLayeredDecomposition(
        rho=rho,
        graph=g,
        interior_vertices=interior,
        interior_edges=interior_edges,
        fringe_codes=tuple(codes),
        walk=walk,
    )
