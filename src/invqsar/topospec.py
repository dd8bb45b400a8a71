"""Topological specifications: seed graph plus interior/chemical bounds.

A specification constrains target graphs through a seed multigraph whose
edges expand into single edges or paths (classed by their length bounds),
leaf paths hanging from permitted vertices, fringe-tree menus per location,
and count bounds (elements, degrees, bonds, fringe shapes, leaf-edge
configurations).  The JSON schema is the field tables below (SPEC and its
record tables), which the README's specification table mirrors.

check_graph_satisfies verifies a concrete chemical graph against every
clause directly on its two-layered decomposition.  The location clauses
(fringe menus, height, leaf-branch and bond bounds) are judged under a
homeomorphic embedding of the seed graph: a graph satisfies a
specification when some embedding meets every location clause, and a
failing report shows them under the first embedding found.  A failing
bounds clause names each value outside its bounds as
`<label>: <value> not in [<lo>,<hi>]`.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, field, fields
from functools import cached_property
from operator import attrgetter, itemgetter

from .decompose import TREE, RootedFringeTree, tree_to_json
from .descriptors import AdjacencyConfiguration, GraphCensus, take_census
from .elements import ElementSpec
from .graph import ChemicalGraph
from .schema import (
    BOOLEAN,
    COUNT,
    ELEMENT,
    INTEGER,
    STRING,
    Field,
    Kind,
    Reader,
    Table,
    integer,
    list_of,
    map_of,
    number,
    optional,
)

SCHEMA_VERSION = 1

# edge classes by length bounds
FIXED = "fixed"  # length exactly 1
OPTIONAL = "optional"  # length 0 or 1
FLEXIBLE = "flexible"  # length 1 or a path of length >= 2
PATH = "path"  # a path of length >= 2


class SpecError(ValueError):
    pass


@dataclass(frozen=True)
class SeedVertex:
    index: int  # 1-based position
    elements: tuple[ElementSpec, ...]
    leaf_path_allowed: bool
    leaf_path_lb: int
    height_lb: int
    height_ub: int


@dataclass(frozen=True)
class SeedEdge:
    index: int  # 1-based position in class order
    tail: int
    head: int
    cls: str
    len_lb: int
    len_ub: int
    branch_lb: int
    branch_ub: int
    height_lb: int
    height_ub: int
    bond2_lb: int
    bond2_ub: int
    bond3_lb: int
    bond3_ub: int


def classify_edge(len_lb: int, len_ub: int) -> str:
    if len_lb == 1 and len_ub == 1:
        return FIXED
    if len_lb == 0 and len_ub == 1:
        return OPTIONAL
    if len_lb == 1 and len_ub >= 2:
        return FLEXIBLE
    if len_lb >= 2 and len_ub >= len_lb:
        return PATH
    raise SpecError(f"ambiguous edge class for length bounds [{len_lb},{len_ub}]")


@dataclass(frozen=True)
class SeedGraph:
    vertices: tuple[SeedVertex, ...]
    edges: tuple[SeedEdge, ...]  # ordered: path, flexible, optional, fixed

    @property
    def t_c(self) -> int:
        return len(self.vertices)

    @property
    def m_c(self) -> int:
        return len(self.edges)

    @cached_property
    def k_c(self) -> int:
        return sum(1 for e in self.edges if e.cls in (PATH, FLEXIBLE))

    @cached_property
    def rank(self) -> int:
        return self.m_c - self.t_c + 1

    @cached_property
    def leafable(self) -> tuple[int, ...]:
        """1-based positions of vertices allowed to root a leaf path."""
        return tuple(v.index for v in self.vertices if v.leaf_path_allowed)

    def edges_of_class(self, *classes: str) -> tuple[SeedEdge, ...]:
        return tuple(e for e in self.edges if e.cls in classes)

    def validate(self) -> list[str]:
        problems = []
        # connectivity without optional edges (decode soundness)
        adj: dict[int, set[int]] = {v.index: set() for v in self.vertices}
        for e in self.edges:
            if e.cls != OPTIONAL:
                adj[e.tail].add(e.head)
                adj[e.head].add(e.tail)
        if self.vertices:
            stack, found = [1], {1}
            while stack:
                u = stack.pop()
                for w in adj[u]:
                    if w not in found:
                        found.add(w)
                        stack.append(w)
            if len(found) != self.t_c:
                problems.append(
                    "seed graph must stay connected without its optional edges"
                )
        return problems


@dataclass(frozen=True)
class FringeEntry:
    psi_id: str
    tree: RootedFringeTree
    fc_lb: int
    fc_ub: int


@dataclass(frozen=True)
class AcBound:
    config: AdjacencyConfiguration
    lb: int
    ub: int


@dataclass(frozen=True)
class TopologicalSpecification:
    rho: int
    seed: SeedGraph
    n_lb: int
    n_star: int
    n_int_lb: int
    n_int_ub: int
    t_tree: int
    t_leaf: int
    lambda_int: tuple[ElementSpec, ...]
    lambda_ex: tuple[ElementSpec, ...]
    na_lb: dict[str, int]
    na_ub: dict[str, int]
    na_int_lb: dict[str, int]
    na_int_ub: dict[str, int]
    deg_lb: tuple[int, int, int, int]
    deg_ub: tuple[int, int, int, int]
    fringe_entries: tuple[FringeEntry, ...]
    fringe_vertex_sets: dict[int, tuple[str, ...]]  # seed position -> psi ids
    fringe_edge_set: tuple[str, ...]
    ac_bounds: tuple[AcBound, ...]
    mass_avg_ub: float | None = None

    @cached_property
    def fringe_by_id(self) -> dict[str, FringeEntry]:
        return {f.psi_id: f for f in self.fringe_entries}

    @property
    def c_f(self) -> int:
        """Number of leaf-path colors: permitted seed vertices + path slots."""
        return len(self.seed.leafable) + self.t_tree

    def na_bounds(self, token: str) -> tuple[int, int]:
        hydrogen_default = 3 * self.n_star if token == "H" else self.n_star
        return self.na_lb.get(token, 0), self.na_ub.get(token, hydrogen_default)

    def na_int_bounds(self, token: str) -> tuple[int, int]:
        return self.na_int_lb.get(token, 0), self.na_int_ub.get(token, self.n_star)

    def fringe_set_for_vertex(self, pos: int) -> tuple[str, ...]:
        return self.fringe_vertex_sets.get(
            pos, tuple(f.psi_id for f in self.fringe_entries)
        )


# -- the specification document -------------------------------------------------
# One table per record kind drives parse_spec and spec_to_json; the README's
# field table lists the same keys.


_n_star = itemgetter("n_star")
_n_int_ub = itemgetter("n_int_ub")


def _none(scope) -> dict:
    return {}


def _slots(scope) -> int:
    return max(0, scope["n_int_ub"] - len(scope["seed"]["vertices"]))


def _fringe_ids(scope) -> tuple[str, ...]:
    return tuple(f.psi_id for f in scope["fringe_trees"])


def _position(r: Reader, key: str, path) -> int:
    if not (key.isascii() and key.isdigit()):
        r.fail(path, "must be a seed vertex number")
    return int(key)


_TOKENS = list_of(ELEMENT)
ELEMENT_SET = Kind(lambda r, v, path: tuple(sorted(_TOKENS.read(r, v, path))),
                   _TOKENS.write)
ELEMENT_COUNTS = map_of(Kind(lambda r, v, path: ELEMENT.read(r, v, path).token), COUNT)

SEED_VERTEX = Table(
    Field("id", optional(INTEGER), None, attr="index"),
    Field("elements", ELEMENT_SET, ()),
    Field("leaf_path", BOOLEAN, False, attr="leaf_path_allowed"),
    Field("leaf_path_lb", COUNT, 0),
    Field("height_lb", COUNT, 0),
    Field("height_ub", COUNT, _n_star),
)
SEED_EDGE = Table(
    Field("tail", INTEGER),
    Field("head", INTEGER),
    Field("len_lb", COUNT, 1),
    Field("len_ub", COUNT, lambda scope: scope["len_lb"]),
    Field("branch_lb", COUNT, 0),
    Field("branch_ub", COUNT, lambda scope: max(0, scope["len_ub"] - 1)),
    Field("height_lb", COUNT, 0),
    Field("height_ub", COUNT, _n_star),
    Field("bond2_lb", COUNT, 0),
    Field("bond2_ub", COUNT, _n_int_ub),
    Field("bond3_lb", COUNT, 0),
    Field("bond3_ub", COUNT, _n_int_ub),
)
SEED = Table(Field("vertices", list_of(SEED_VERTEX), ()),
             Field("edges", list_of(SEED_EDGE), ()))
FRINGE_ENTRY = Table(
    Field("id", STRING, attr="psi_id"),
    Field("fc_lb", COUNT, 0),
    Field("fc_ub", COUNT, _n_star),
    *TREE.fields,
    make=lambda r, path, d: FringeEntry(
        d["id"], TREE.make(r, path, d), d["fc_lb"], d["fc_ub"]),
    write=lambda f: {"id": f.psi_id, "fc_lb": f.fc_lb, "fc_ub": f.fc_ub,
                     **tree_to_json(f.tree)},
)
AC_BOUND = Table(
    Field("a", ELEMENT, attr="config.a"),
    Field("b", ELEMENT, attr="config.b"),
    Field("mult", integer(1, 3), attr="config.mult"),
    Field("lb", COUNT, 0),
    Field("ub", COUNT, _n_star),
    make=lambda r, path, d: AcBound(
        r.make(path, AdjacencyConfiguration, d["a"], d["b"], d["mult"]),
        d["lb"], d["ub"]),
)
FRINGE_ASSIGNMENT = Table(
    Field("vertex", map_of(Kind(_position, str), list_of(STRING)), _none,
          attr="fringe_vertex_sets"),
    Field("edge", list_of(STRING), _fringe_ids, attr="fringe_edge_set"),
)
SPEC = Table(
    Field("version", integer(SCHEMA_VERSION, SCHEMA_VERSION), SCHEMA_VERSION,
          attr=lambda spec: SCHEMA_VERSION),
    Field("rho", integer(1)),
    Field("n_lb", COUNT, 1),
    Field("n_star", COUNT),
    Field("n_int_lb", COUNT, 2),
    Field("n_int_ub", COUNT, _n_star),
    Field("seed", SEED),
    Field("t_tree", COUNT, _slots),
    Field("t_leaf", COUNT, _slots),
    Field("lambda_int", ELEMENT_SET, ()),
    Field("lambda_ex", ELEMENT_SET, ()),
    Field("na_lb", ELEMENT_COUNTS, _none),
    Field("na_ub", ELEMENT_COUNTS, _none),
    Field("na_int_lb", ELEMENT_COUNTS, _none),
    Field("na_int_ub", ELEMENT_COUNTS, _none),
    Field("deg_lb", list_of(COUNT, 4), (0, 0, 0, 0)),
    Field("deg_ub", list_of(COUNT, 4), lambda scope: (scope["n_star"],) * 4),
    Field("fringe_trees", list_of(FRINGE_ENTRY), (), attr="fringe_entries"),
    Field("fringe_assignment", FRINGE_ASSIGNMENT,
          lambda scope: {"vertex": {}, "edge": _fringe_ids(scope)},
          attr=lambda spec: spec),
    # one bound per configuration: each becomes one pair of model rows
    Field("ac_lf", list_of(AC_BOUND, key=attrgetter("config")), (), attr="ac_bounds"),
    Field("mass_avg_ub", optional(number(0)), None),
)


def parse_spec(text: str) -> TopologicalSpecification:
    """Parse and validate a specification from JSON text.  Text that is not
    a JSON object of the schema, and values that break its clauses, raise
    SpecError."""
    return _spec_from_doc(Reader("specification", SpecError).loads(text))


def _spec_from_doc(doc) -> TopologicalSpecification:
    d = SPEC.read(Reader("malformed specification", SpecError), doc)
    problems: list[str] = []
    n_star, n_int_lb, n_int_ub = d["n_star"], d["n_int_lb"], d["n_int_ub"]
    if not 2 <= n_int_lb <= n_star:
        problems.append(f"n_int_lb={n_int_lb} outside [2, n_star]")
    if n_int_lb > n_int_ub:
        problems.append("n_int_lb above n_int_ub")
    if d["n_lb"] > n_star:
        problems.append("n_lb above n_star")

    lambda_int = d["lambda_int"]
    if not lambda_int:
        problems.append("lambda_int must not be empty")
    vertices = []
    for i, rec in enumerate(d["seed"]["vertices"], start=1):
        if rec["id"] not in (None, i):
            problems.append(f"seed vertex ids must be consecutive from 1 (at {i})")
        if rec["leaf_path_lb"] > (1 if rec["leaf_path"] else 0):
            problems.append(
                f"seed vertex {i}: leaf_path_lb requires leaf_path permission")
        if rec["height_lb"] > rec["height_ub"]:
            problems.append(f"seed vertex {i}: height_lb above height_ub")
        problems.extend(f"seed vertex {i} allows element {e.token} outside lambda_int"
                        for e in rec["elements"] if e not in lambda_int)
        vertices.append(SeedVertex(i, rec["elements"], rec["leaf_path"],
                                   rec["leaf_path_lb"], rec["height_lb"],
                                   rec["height_ub"]))

    classed = []
    t_c = len(vertices)
    for rec in d["seed"]["edges"]:
        edge = f"edge ({rec['tail']},{rec['head']})"
        if not (1 <= rec["tail"] <= t_c and 1 <= rec["head"] <= t_c):
            problems.append(f"{edge} off the vertex set")
        elif rec["tail"] >= rec["head"]:
            problems.append(f"{edge} must be directed tail < head")
        elif rec["len_lb"] > rec["len_ub"]:
            problems.append(f"{edge}: len_lb above len_ub")
        else:
            try:
                classed.append((classify_edge(rec["len_lb"], rec["len_ub"]), rec))
            except SpecError as exc:
                problems.append(str(exc))
    class_order = {PATH: 0, FLEXIBLE: 1, OPTIONAL: 2, FIXED: 3}
    classed.sort(key=lambda item: class_order[item[0]])
    edges = tuple(SeedEdge(index=i, cls=cls, **rec)
                  for i, (cls, rec) in enumerate(classed, start=1))
    seed = SeedGraph(tuple(vertices), edges)
    problems.extend(seed.validate())

    for label in ("na", "na_int"):
        low, high = d[f"{label}_lb"], d[f"{label}_ub"]
        problems.extend(f"{label} bounds for {token} cross" for token in sorted(low)
                        if low[token] > high.get(token, low[token]))
    if any(a > b for a, b in zip(d["deg_lb"], d["deg_ub"])):
        problems.append("deg bounds cross")

    entries = d["fringe_trees"]
    problems.extend(f"fringe tree {f.psi_id} has height {f.tree.height} > rho"
                    for f in entries if f.tree.height > d["rho"])
    problems.extend(f"fringe tree {f.psi_id}: hydrogen {h} is not a leaf on a "
                    "single bond" for f in entries for h in _bad_hydrogens(f.tree))
    ids = {f.psi_id for f in entries}
    if len(ids) != len(entries):
        problems.append("duplicate fringe tree ids")
    if not entries:
        problems.append("at least one fringe tree is required")
    assignment = d["fringe_assignment"]
    for pos, names in assignment["vertex"].items():
        if not 1 <= pos <= seed.t_c:
            problems.append(f"fringe assignment for unknown seed vertex {pos}")
        problems.extend(f"fringe assignment names unknown tree {psi!r}"
                        for psi in names if psi not in ids)
    problems.extend(f"edge fringe set names unknown tree {psi!r}"
                    for psi in assignment["edge"] if psi not in ids)
    problems.extend(f"ac_lf bounds for {b.config.label} cross"
                    for b in d["ac_lf"] if b.lb > b.ub)
    if problems:
        raise SpecError("; ".join(problems))

    # keys that are also attribute names pass through; the rest are built above
    plain = {f.name: d[f.name] for f in fields(TopologicalSpecification) if f.name in d}
    return TopologicalSpecification(**dict(
        plain, seed=seed, fringe_entries=entries, ac_bounds=d["ac_lf"],
        fringe_vertex_sets=assignment["vertex"], fringe_edge_set=assignment["edge"]))


def _bad_hydrogens(t: RootedFringeTree) -> list[int]:
    """The hydrogens of a tree that have a child or a bond of order
    other than 1."""
    node = t.node_map
    return sorted({h for p, c, m in t.edges for h in (p, c)
                   if node[h][0].is_hydrogen and (h == p or m != 1)})


def spec_to_json(spec: TopologicalSpecification) -> dict:
    return SPEC.write(spec)


def spec_to_json_text(spec: TopologicalSpecification) -> str:
    return json.dumps(spec_to_json(spec), indent=2, sort_keys=True)


# -- satisfaction checking ----------------------------------------------------


@dataclass
class Clause:
    name: str
    ok: bool
    detail: str = ""


def _bounds(name: str, checks) -> Clause:
    """The clause that every (label, value, lo, hi) check holds; its detail
    names each value outside its bounds as `<label>: <value> not in [lo,hi]`."""
    bad = [f"{label}: {value} not in [{lo},{hi}]"
           for label, value, lo, hi in checks if not lo <= value <= hi]
    return Clause(name, not bad, "; ".join(bad))


@dataclass
class SatisfactionReport:
    clauses: list[Clause] = field(default_factory=list)

    def add(self, name: str, ok: bool, detail: str = "") -> None:
        self.clauses.append(Clause(name, ok, detail))

    @property
    def passed(self) -> bool:
        return all(c.ok for c in self.clauses)

    def failures(self) -> list[Clause]:
        return [c for c in self.clauses if not c.ok]

    def to_json(self) -> dict:
        return {
            "passed": self.passed,
            "clauses": [
                {"name": c.name, "ok": c.ok, "detail": c.detail}
                for c in self.clauses
            ],
        }

    def to_text(self) -> str:
        lines = []
        for c in self.clauses:
            mark = "pass" if c.ok else "FAIL"
            suffix = f" ({c.detail})" if c.detail else ""
            lines.append(f"[{mark}] {c.name}{suffix}")
        lines.append(f"overall: {'pass' if self.passed else 'FAIL'}")
        return "\n".join(lines)


def _hops(adj, source: int) -> dict[int, int]:
    """Breadth-first distances from source over the interior."""
    dist, frontier = {source: 0}, [source]
    while frontier:
        nxt = []
        for u in frontier:
            for w, _ in adj[u]:
                if w not in dist:
                    dist[w] = dist[u] + 1
                    nxt.append(w)
        frontier = nxt
    return dist


def _embeddings(spec: TopologicalSpecification, g: ChemicalGraph, decomp):
    """Every homeomorphic embedding of the seed graph in g's interior, as
    (images, paths, leaf_roots): seed vertex -> interior vertex, seed edge
    index -> its route (None for an absent optional edge), and anchor ->
    the chain of the leaf path hanging there.

    Seed vertices are placed in order on interior vertices in ascending
    order, then the seed edges routed in order, so the sequence is fixed by
    the graph's numbering.  Exponential in the worst case; fine at the
    intended sizes (seeds of a handful of vertices, interiors of a few
    dozen)."""
    seed = spec.seed
    interior = sorted(decomp.interior_vertices)
    adj = decomp.interior_adjacency
    images: dict[int, int] = {}
    paths: dict[int, list[int] | None] = {}
    taken: set[int] = set()  # the images so far
    used: set[int] = set()  # inner vertices of the routes so far
    hops: dict[int, dict[int, int]] = {}
    # a seed edge that must be present needs its ends within len_ub hops
    reach = {sv.index: [(e.tail, e.len_ub) for e in seed.edges
                        if e.head == sv.index and e.cls != OPTIONAL]
             for sv in seed.vertices}
    # routes to distinct seed neighbours over edges that must be present
    # leave an image by distinct interior edges, so it needs that degree
    degree = {sv.index: len({e.head if e.tail == sv.index else e.tail
                             for e in seed.edges
                             if sv.index in (e.tail, e.head) and e.cls != OPTIONAL})
              for sv in seed.vertices}

    def near(a: int, b: int, hi: int) -> bool:
        if a not in hops:
            hops[a] = _hops(adj, a)
        return hops[a].get(b, hi + 1) <= hi

    def place(pos: int):
        if pos > seed.t_c:
            yield from route(0)
            return
        sv = seed.vertices[pos - 1]
        cands = [v for v in interior if v not in taken
                 and len(adj[v]) >= degree[pos]
                 and (not sv.elements or g.element(v) in sv.elements)]
        for t, hi in reach[pos]:
            cands = [v for v in cands if near(images[t], v, hi)]
        for cand in cands:
            images[pos] = cand
            taken.add(cand)
            yield from place(pos + 1)
            taken.discard(cand)
        images.pop(pos, None)

    def route(eidx: int):
        if eidx == len(seed.edges):
            found = leaf_paths()
            if found is not None:
                yield dict(images), dict(paths), found
            return
        edge = seed.edges[eidx]
        a, b = images[edge.tail], images[edge.head]
        if edge.cls != PATH and any(w == b for w, _ in adj[a]):
            paths[edge.index] = [a, b]
            yield from route(eidx + 1)
        if edge.cls == OPTIONAL:
            paths[edge.index] = None
            yield from route(eidx + 1)
        if edge.cls in (FLEXIBLE, PATH):
            for r in detours([a], b, max(edge.len_lb, 2), edge.len_ub):
                paths[edge.index] = r
                used.update(r[1:-1])
                yield from route(eidx + 1)
                used.difference_update(r[1:-1])

    def detours(r: list[int], b: int, lo: int, hi: int):
        """Simple paths extending r to b, of length in [lo, hi], through
        vertices that no image or earlier route takes."""
        for w, _ in sorted(adj[r[-1]]):
            if w == b:
                if lo <= len(r) <= hi:
                    yield r + [b]
            elif (w not in r and w not in used and w not in taken
                    and near(b, w, hi - len(r))):
                yield from detours(r + [w], b, lo, hi)

    def leaf_paths():
        """The interior vertices outside the images and routes as leaf-path
        chains, at most one per anchor and each at a permitted seed vertex
        or a route's inner vertex; None when they do not split so or an
        interior edge lies on no route or chain."""
        embedded = taken | used
        leafable = {images[pos] for pos in seed.leafable}
        links = [zip(r, r[1:]) for r in paths.values() if r]
        leaf_roots: dict[int, list[int]] = {}
        assigned: set[int] = set()
        for v in interior:
            if v in embedded or v in assigned:
                continue
            anchor = [w for w, _ in adj[v] if w in embedded]
            if len(anchor) != 1:
                continue
            chain = [anchor[0], v]
            while nxt := [w for w, _ in adj[chain[-1]] if w != chain[-2]]:
                if len(nxt) > 1 or nxt[0] in embedded or nxt[0] in assigned:
                    return None
                chain.append(nxt[0])
            root, *chain = chain
            if root in leaf_roots or not (root in leafable or root in used):
                return None
            assigned.update(chain)
            links.append(zip([root] + chain, chain))
            leaf_roots[root] = chain
        explained = {(min(u, w), max(u, w)) for pairs in links for u, w in pairs}
        if (len(assigned) + len(embedded) == len(interior)
                and len(explained) == len(decomp.interior_edges)):
            return leaf_roots
        return None

    return place(1)


def _location_clauses(spec: TopologicalSpecification, decomp, tree_ids,
                      images, paths, leaf_roots) -> list[Clause]:
    """fringe_menus, height_bounds, leaf_branch_bounds and bond_bounds
    under one seed embedding."""
    seed = spec.seed
    menus = [f"vertex {pos}: fringe {tree_ids[v]} not in its menu"
             for pos, v in images.items()
             if tree_ids[v] not in spec.fringe_set_for_vertex(pos)]
    menus += [f"interior {v}: fringe {tree_ids[v]} not allowed"
              for v in decomp.fringe_trees
              if v not in images.values() and tree_ids[v] not in spec.fringe_edge_set]

    def height(v: int) -> int:
        """Height of the tree hanging at interior vertex v: its fringe tree
        plus any leaf-path chain with the chains' own fringe trees."""
        return max([decomp.fringe_trees[v].height] + [
            depth + decomp.fringe_trees[u].height
            for depth, u in enumerate(leaf_roots.get(v, ()), start=1)])

    adj = decomp.interior_adjacency
    routes = [(e, paths[e.index] or []) for e in seed.edges]
    return [
        Clause("fringe_menus", not menus, "; ".join(menus)),
        _bounds("height_bounds", [
            (f"vertex {sv.index} height", height(images[sv.index]),
             sv.height_lb, sv.height_ub) for sv in seed.vertices
        ] + [
            (f"edge {e.index} max height", max(map(height, r[1:-1])),
             e.height_lb, e.height_ub) for e, r in routes if len(r) > 2
        ]),
        _bounds("leaf_branch_bounds", [
            (f"vertex {pos} leaf paths", int(images[pos] in leaf_roots),
             seed.vertices[pos - 1].leaf_path_lb, 1) for pos in seed.leafable
        ] + [
            (f"edge {e.index} leaf branches", sum(v in leaf_roots for v in r[1:-1]),
             e.branch_lb, e.branch_ub) for e, r in routes if e.cls in (PATH, FLEXIBLE)
        ]),
        _bounds("bond_bounds", [
            (f"edge {e.index} {kind} bonds",
             sum(dict(adj[u])[w] == m for u, w in zip(r, r[1:])), lo, hi)
            for e, r in routes
            for kind, m, lo, hi in (("double", 2, e.bond2_lb, e.bond2_ub),
                                    ("triple", 3, e.bond3_lb, e.bond3_ub))
        ]),
    ]


def check_graph_satisfies(
    spec: TopologicalSpecification,
    g: ChemicalGraph,
    census: GraphCensus | None = None,
) -> SatisfactionReport:
    """Verify every specification clause directly on the graph.  A census
    that take_census already took of g is reused when its branch parameter
    is spec.rho.

    The location clauses (fringe_menus, height_bounds, leaf_branch_bounds,
    bond_bounds) hold when some seed embedding meets all of them; when
    none does, the report shows them under the first embedding found."""
    report = SatisfactionReport()
    problems = g.validate()
    report.add("graph_valid", not problems, "; ".join(problems[:3]))
    if problems:
        return report

    n_heavy = g.n_heavy()
    report.add(
        "atom_count",
        spec.n_lb <= n_heavy <= spec.n_star,
        f"n={n_heavy} bounds [{spec.n_lb},{spec.n_star}]",
    )

    if census is None or census.rho != spec.rho:
        census = take_census(g, spec.rho)
    decomp = census.decomposition
    n_int = len(decomp.interior_vertices)
    report.add(
        "interior_count",
        spec.n_int_lb <= n_int <= spec.n_int_ub,
        f"n_int={n_int} bounds [{spec.n_int_lb},{spec.n_int_ub}]",
    )
    if n_int == 0:
        report.add("seed_embedding", False, "empty interior")
        return report

    na_int = Counter({e.token: n for e, n in census.interior_elements.items()})
    na = na_int + Counter({e.token: n for e, n in census.exterior_elements.items()})
    bad_elems = [f"interior {e.token}" for e in census.interior_elements
                 if e not in spec.lambda_int]
    bad_elems += [f"exterior {e.token}" for e in census.exterior_elements
                  if e not in spec.lambda_ex]
    report.add("element_sets", not bad_elems, "; ".join(sorted(bad_elems)))
    report.clauses.append(_bounds("element_counts", [
        (token, na[token], *spec.na_bounds(token))
        for token in sorted(set(na) | set(spec.na_lb) | set(spec.na_ub))
    ] + [
        (f"interior {token}", na_int[token], *spec.na_int_bounds(token))
        for token in sorted(set(na_int) | set(spec.na_int_lb) | set(spec.na_int_ub))
    ]))
    if spec.mass_avg_ub is not None:
        report.clauses.append(_bounds("mass_avg", [
            ("mass_avg", census.scalars["mass_avg"], 0, spec.mass_avg_ub)]))

    # degree tallies over interior vertices: full degree and interior degree
    full_deg = Counter(g.degree(v) for v in decomp.interior_vertices)
    report.clauses.append(_bounds("degree_bounds", [
        (f"{label}{d}", count, spec.deg_lb[d - 1], spec.deg_ub[d - 1])
        for d in range(1, 5)
        for label, count in (("deg", full_deg[d]),
                             ("deg_int", census.scalars[f"deg_int{d}"]))
    ]))

    code_to_id = {f.tree.canonical_code: f.psi_id for f in spec.fringe_entries}
    tree_ids = {root: code_to_id.get(t.canonical_code)
                for root, t in decomp.fringe_trees.items()}
    unknown = sorted(v for v, psi in tree_ids.items() if psi is None)
    report.add(
        "fringe_catalog",
        not unknown,
        f"unlisted fringe trees at {unknown}" if unknown else "",
    )
    fc = Counter(tree_ids.values())
    report.clauses.append(_bounds("fringe_counts", [
        (f.psi_id, fc[f.psi_id], f.fc_lb, f.fc_ub) for f in spec.fringe_entries]))
    report.clauses.append(_bounds("leaf_edge_bounds", [
        (b.config.label, census.leaf_edges[b.config], b.lb, b.ub)
        for b in spec.ac_bounds]))
    if unknown:
        report.add("seed_embedding", False, "fringe trees outside the catalog")
        return report

    shown = None
    for images, paths, leaf_roots in _embeddings(spec, g, decomp):
        clauses = _location_clauses(spec, decomp, tree_ids, images, paths, leaf_roots)
        met = all(c.ok for c in clauses)
        if met or shown is None:
            shown = images, clauses
        if met:
            break
    if shown is None:
        report.add("seed_embedding", False, "no homeomorphic embedding")
        return report
    report.add("seed_embedding", True, f"images={shown[0]}")
    report.clauses += shown[1]
    return report


# -- specification templates from example molecules ---------------------------


# headroom that spec_from_graph gives contracted path lengths and atom counts
LENGTH_SLACK = 1
COUNT_SLACK = 2


def spec_from_graph(
    g: ChemicalGraph,
    rho: int = 2,
    fringe_trees: list[RootedFringeTree] | None = None,
) -> dict:
    """Derive a specification document that the given molecule satisfies.

    The molecule's interior becomes the seed: hanging interior chains turn
    into leaf-path permissions (one per anchor), maximal degree-2 runs
    between kept vertices are contracted into stretchable or path edges
    with +-LENGTH_SLACK, and atom-count bounds get +-COUNT_SLACK headroom.
    The fringe menu defaults to the molecule's own fringe trees; pass the
    trees of a whole dataset to widen it.  Returns a plain JSON-ready dict
    so callers can tighten or loosen clauses before parse_spec."""
    census = take_census(g, rho)
    decomp = census.decomposition
    interior = set(decomp.interior_vertices)
    if len(interior) < 2:
        raise SpecError("need an interior of at least two vertices")
    adj = decomp.interior_adjacency

    # peel interior-degree-1 chains; whatever survives is the 2-core
    deg = {v: len(adj[v]) for v in interior}
    alive = set(interior)
    while True:
        leaves = sorted(v for v in alive if deg[v] <= 1)
        if not leaves or len(alive) <= 2:
            break
        for v in leaves:
            if len(alive) <= 2:
                break
            alive.discard(v)
            for w, _ in adj[v]:
                if w in alive:
                    deg[w] -= 1

    # hanging interior trees, walked outward from their core anchors;
    # only an unbranched hang can become a leaf path (one per anchor)
    keep = set(alive)
    leaf_anchor: dict[int, list[int]] = {}
    claimed: set[int] = set()
    for anchor in sorted(alive):
        for w0, _ in sorted(adj[anchor]):
            if w0 in alive or w0 in claimed:
                continue
            subtree = [w0]
            straight = True
            prev, cur = anchor, w0
            while True:
                nxt = [w for w, _ in adj[cur] if w != prev]
                if not nxt:
                    break
                if len(nxt) > 1 or nxt[0] in alive:
                    straight = False
                    # collect the whole hanging tree for the seed
                    stack = [(cur, prev)]
                    seen = set(subtree)
                    while stack:
                        u, parent = stack.pop()
                        for w, _ in adj[u]:
                            if w == parent or w in alive or w in seen:
                                continue
                            seen.add(w)
                            subtree.append(w)
                            stack.append((w, u))
                    break
                prev, cur = cur, nxt[0]
                subtree.append(cur)
            claimed.update(subtree)
            if straight and anchor not in leaf_anchor:
                leaf_anchor[anchor] = subtree
            else:
                keep.update(subtree)
    unreached = interior - alive - claimed
    if unreached:
        raise SpecError(f"interior vertices {sorted(unreached)} not reachable")

    # contract maximal degree-2 runs (within kept vertices) into edges
    def kept_neighbours(v):
        return [w for w, _ in adj[v] if w in keep]

    smooth = {
        v for v in keep
        if len(kept_neighbours(v)) == 2 and v not in leaf_anchor
    }
    seed_vertices = sorted(keep - smooth)
    if len(seed_vertices) < 2:
        # tiny cores (pure cycles): keep everything explicit
        smooth = set()
        seed_vertices = sorted(keep)
    index = {v: i + 1 for i, v in enumerate(seed_vertices)}

    # contract runs; a cycle that closes on its own start would contract to
    # a self-loop, so one of its middle vertices is promoted into the seed
    while True:
        paths = []
        visited_pairs = set()
        reopened = None
        for start in seed_vertices:
            for w, _ in sorted(adj[start]):
                if w not in keep:
                    continue
                route = [start, w]
                while route[-1] in smooth:
                    tail = [
                        u for u in kept_neighbours(route[-1]) if u != route[-2]
                    ]
                    route.append(tail[0])
                end = route[-1]
                if end == start:
                    reopened = route[len(route) // 2]
                    break
                key = (
                    min(start, end),
                    max(start, end),
                    tuple(sorted(route[1:-1])),
                )
                if key in visited_pairs:
                    continue
                visited_pairs.add(key)
                paths.append(route)
            if reopened is not None:
                break
        if reopened is None:
            break
        smooth.discard(reopened)
        seed_vertices = sorted(keep - smooth)
        index = {v: i + 1 for i, v in enumerate(seed_vertices)}

    # a route starts at the lower seed vertex: the reverse walk of a route
    # from a higher one has the key of a route already kept
    edges = []
    for route in sorted(paths, key=lambda r: (index[r[0]], index[r[-1]], len(r))):
        length = len(route) - 1
        # a single edge may stretch; a longer run stays a path (length >= 2)
        lo = 1 if length == 1 else max(2, length - LENGTH_SLACK)
        edges.append({"tail": index[route[0]], "head": index[route[-1]],
                      "len_lb": lo, "len_ub": length + LENGTH_SLACK})

    menu = fringe_trees if fringe_trees is not None else sorted(
        decomp.fringe_trees.values(), key=lambda t: t.canonical_code
    )
    unique: dict[bytes, RootedFringeTree] = {}
    for t in menu:
        unique.setdefault(t.canonical_code, t)
    # element sets must cover the molecule and everything the menu can place
    lam_int = {e.token for e in census.interior_elements}
    lam_ex = {e.token for e in census.exterior_elements}
    for t in unique.values():
        lam_int.add(t.root_element.token)
        lam_ex.update(t.nonroot_element_counts)
    lam_int = sorted(lam_int)
    lam_ex = sorted(lam_ex)
    psis = [
        dict(tree_to_json(t), id=f"psi{i + 1}")
        for i, (_, t) in enumerate(sorted(unique.items()))
    ]

    n_heavy = g.n_heavy()
    n_int = len(interior)
    return {
        "version": SCHEMA_VERSION,
        "rho": rho,
        "n_lb": max(1, n_heavy - COUNT_SLACK),
        "n_star": n_heavy + COUNT_SLACK,
        "n_int_lb": max(2, n_int - COUNT_SLACK),
        "n_int_ub": n_int + COUNT_SLACK,
        "seed": {
            "vertices": [
                {
                    "id": index[v],
                    "elements": [],
                    "leaf_path": v in leaf_anchor,
                }
                for v in seed_vertices
            ],
            "edges": edges,
        },
        "lambda_int": lam_int,
        "lambda_ex": lam_ex,
        "fringe_trees": psis,
    }
