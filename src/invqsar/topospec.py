"""Topological specifications: seed graph plus interior/chemical bounds.

A specification constrains target graphs through a seed multigraph whose
edges expand into single edges or paths (classed by their length bounds),
leaf paths hanging from permitted vertices, fringe-tree menus per location,
and count bounds (elements, degrees, bonds, fringe shapes, leaf-edge
configurations).  The JSON schema is the field tables below (SPEC and its
record tables), which the README's specification table mirrors.

check_graph_satisfies verifies a concrete chemical graph against every
clause directly on its two-layered decomposition, including an exhaustive
search for a homeomorphic embedding of the seed graph.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, field, fields
from functools import cached_property
from operator import itemgetter

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
    def k_tilde(self) -> int:
        return sum(1 for e in self.edges if e.cls == PATH)

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
    Field("ac_lf", list_of(AC_BOUND), (), attr="ac_bounds"),
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


def _location_height(decomp, leaf_roots, v: int) -> int:
    """Height of the tree hanging at interior vertex v: its fringe tree
    plus any leaf-path chain with the chains' own fringe trees."""
    h = decomp.fringe_trees[v].height
    for chain in leaf_roots.get(v, []):
        for depth, u in enumerate(chain, start=1):
            h = max(h, depth + decomp.fringe_trees[u].height)
    return h


class _Embedder:
    """Backtracking search for a homeomorphic seed embedding.

    Exponential in the worst case; fine at the intended sizes (seeds of a
    handful of vertices, interiors of a few dozen)."""

    def __init__(self, spec: TopologicalSpecification, g: ChemicalGraph, decomp):
        self.spec = spec
        self.g = g
        self.decomp = decomp
        self.interior = sorted(decomp.interior_vertices)
        self.adj = decomp.interior_adjacency

    def find(self):
        seed = self.spec.seed
        images: dict[int, int] = {}
        return self._place_vertex(1, images, seed)

    def _place_vertex(self, pos: int, images: dict[int, int], seed: SeedGraph):
        if pos > seed.t_c:
            return self._route_edges(0, images, {}, set())
        sv = seed.vertices[pos - 1]
        for cand in self.interior:
            if cand in images.values():
                continue
            if sv.elements and self.g.element(cand) not in sv.elements:
                continue
            images[pos] = cand
            result = self._place_vertex(pos + 1, images, seed)
            if result is not None:
                return result
            del images[pos]
        return None

    def _route_edges(self, eidx: int, images, paths, used):
        seed = self.spec.seed
        if eidx == len(seed.edges):
            return self._finish(images, paths, used)
        edge = seed.edges[eidx]
        a, b = images[edge.tail], images[edge.head]
        direct = None
        for w, m in self.adj[a]:
            if w == b:
                direct = m
        if edge.cls in (FIXED, OPTIONAL, FLEXIBLE) and direct is not None:
            paths[edge.index] = [a, b]
            result = self._route_edges(eidx + 1, images, paths, used)
            if result is not None:
                return result
            del paths[edge.index]
        if edge.cls == OPTIONAL:
            paths[edge.index] = None
            result = self._route_edges(eidx + 1, images, paths, used)
            if result is not None:
                return result
            del paths[edge.index]
        if edge.cls in (FLEXIBLE, PATH):
            lo = max(edge.len_lb, 2)
            for route in self._paths(a, b, lo, edge.len_ub, images, used):
                internal = route[1:-1]
                paths[edge.index] = route
                used.update(internal)
                result = self._route_edges(eidx + 1, images, paths, used)
                if result is not None:
                    return result
                used.difference_update(internal)
                del paths[edge.index]
        if edge.cls == FIXED and direct is None:
            return None
        return None

    def _paths(self, a, b, lo, hi, images, used):
        """Simple paths from a to b with length in [lo, hi], internal
        vertices outside images/used."""
        taken = set(images.values()) | used
        out = []

        def extend(route):
            last = route[-1]
            if len(route) - 1 > hi:
                return
            for w, _ in sorted(self.adj[last]):
                if w == b:
                    if lo <= len(route) <= hi:
                        out.append(route + [b])
                    continue
                if w in taken or w in route:
                    continue
                extend(route + [w])

        extend([a])
        return out

    def _finish(self, images, paths, used):
        """Leaf-path classification of the remaining interior vertices."""
        spec = self.spec
        embedded = set(images.values()) | used
        remaining = [v for v in self.interior if v not in embedded]
        path_edges: set[tuple[int, int]] = set()
        for route in paths.values():
            if route is None:
                continue
            for u, w in zip(route, route[1:]):
                path_edges.add((min(u, w), max(u, w)))

        leaf_roots: dict[int, list[list[int]]] = {}
        assigned: set[int] = set()
        for v in remaining:
            if v in assigned:
                continue
            anchor = [w for w, _ in self.adj[v] if w in embedded]
            if len(anchor) != 1:
                continue
            chain = [v]
            prev, cur = anchor[0], v
            ok = True
            while True:
                nxt = [w for w, _ in self.adj[cur] if w != prev]
                if not nxt:
                    break
                if len(nxt) > 1 or nxt[0] in embedded or nxt[0] in assigned:
                    ok = False
                    break
                prev, cur = cur, nxt[0]
                chain.append(cur)
            if not ok:
                return None
            assigned.update(chain)
            leaf_roots.setdefault(anchor[0], []).append(chain)
        if len(assigned) != len(remaining):
            return None
        # every interior edge must be explained
        explained = set(path_edges)
        for root, chains in leaf_roots.items():
            for chain in chains:
                seq = [root] + chain
                for u, w in zip(seq, seq[1:]):
                    explained.add((min(u, w), max(u, w)))
        for e in self.decomp.interior_edges:
            key = (min(e.u, e.v), max(e.u, e.v))
            if key not in explained:
                return None
        # at most one leaf path per location, at permitted locations only
        leafable_images = {
            images[pos] for pos in spec.seed.leafable
        }
        internal_vertices = set(used)
        for root, chains in leaf_roots.items():
            if len(chains) > 1:
                return None
            if root not in leafable_images and root not in internal_vertices:
                return None
        return images, paths, leaf_roots


def check_graph_satisfies(
    spec: TopologicalSpecification,
    g: ChemicalGraph,
    census: GraphCensus | None = None,
) -> SatisfactionReport:
    """Verify every specification clause directly on the graph.  A census
    of g that the caller already took is reused when its branch parameter
    is spec.rho."""
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

    if census is None or census.decomposition.rho != spec.rho:
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

    lam_int = set(spec.lambda_int)
    lam_ex = set(spec.lambda_ex)
    bad_elems = []
    na_counts: dict[str, int] = {}
    na_int_counts: dict[str, int] = {}
    for (is_interior, elem), n in census.elements.items():
        na_counts[elem.token] = na_counts.get(elem.token, 0) + n
        if is_interior:
            na_int_counts[elem.token] = n
            if elem not in lam_int:
                bad_elems.append(f"interior {elem.token}")
        elif elem not in lam_ex:
            bad_elems.append(f"exterior {elem.token}")
    report.add("element_sets", not bad_elems, "; ".join(sorted(bad_elems)))

    na_ok, na_detail = True, []
    for token in set(na_counts) | set(spec.na_lb) | set(spec.na_ub):
        lo, hi = spec.na_bounds(token)
        cnt = na_counts.get(token, 0)
        if not lo <= cnt <= hi:
            na_ok = False
            na_detail.append(f"{token}: {cnt} not in [{lo},{hi}]")
    for token in set(na_int_counts) | set(spec.na_int_lb) | set(spec.na_int_ub):
        lo, hi = spec.na_int_bounds(token)
        cnt = na_int_counts.get(token, 0)
        if not lo <= cnt <= hi:
            na_ok = False
            na_detail.append(f"interior {token}: {cnt} not in [{lo},{hi}]")
    report.add("element_counts", na_ok, "; ".join(na_detail))

    # degree tallies over interior vertices: full degree and interior degree
    full_deg = Counter(g.degree(v) for v in decomp.interior_vertices)
    deg_ok, deg_detail = True, []
    for d in range(1, 5):
        lo, hi = spec.deg_lb[d - 1], spec.deg_ub[d - 1]
        int_deg = census.scalars[7 + d]  # descriptor deg_int<d>
        if not lo <= full_deg[d] <= hi:
            deg_ok = False
            deg_detail.append(f"deg{d}={full_deg[d]} not in [{lo},{hi}]")
        if not lo <= int_deg <= hi:
            deg_ok = False
            deg_detail.append(f"deg_int{d}={int_deg} not in [{lo},{hi}]")
    report.add("degree_bounds", deg_ok, "; ".join(deg_detail))

    # fringe-tree catalog membership and global fc bounds
    code_to_id = {f.tree.canonical_code: f.psi_id for f in spec.fringe_entries}
    fc_counts: dict[str, int] = {f.psi_id: 0 for f in spec.fringe_entries}
    unknown = []
    tree_ids: dict[int, str] = {}
    for code, group in census.fringe.items():
        psi = code_to_id.get(code)
        if psi is None:
            unknown.extend(t.root for t in group)
        else:
            fc_counts[psi] += len(group)
            tree_ids.update((t.root, psi) for t in group)
    unknown.sort()
    report.add(
        "fringe_catalog",
        not unknown,
        f"unlisted fringe trees at {unknown}" if unknown else "",
    )
    fc_ok, fc_detail = True, []
    for f in spec.fringe_entries:
        if not f.fc_lb <= fc_counts[f.psi_id] <= f.fc_ub:
            fc_ok = False
            fc_detail.append(
                f"{f.psi_id}: {fc_counts[f.psi_id]} not in [{f.fc_lb},{f.fc_ub}]"
            )
    report.add("fringe_counts", fc_ok, "; ".join(fc_detail))

    ac_ok, ac_detail = True, []
    for bound in spec.ac_bounds:
        cnt = census.leaf_edges.get(bound.config, 0)
        if not bound.lb <= cnt <= bound.ub:
            ac_ok = False
            ac_detail.append(
                f"{bound.config.label}: {cnt} not in [{bound.lb},{bound.ub}]"
            )
    report.add("leaf_edge_bounds", ac_ok, "; ".join(ac_detail))

    if unknown:
        report.add("seed_embedding", False, "fringe trees outside the catalog")
        return report

    embedder = _Embedder(spec, g, decomp)
    found = embedder.find()
    if found is None:
        report.add("seed_embedding", False, "no homeomorphic embedding")
        return report
    images, paths, leaf_roots = found
    report.add("seed_embedding", True, f"images={images}")

    # location-specific clauses under the found embedding
    loc_ok, loc_detail = True, []
    for pos in range(1, spec.seed.t_c + 1):
        allowed = set(spec.fringe_set_for_vertex(pos))
        psi = tree_ids[images[pos]]
        if psi not in allowed:
            loc_ok = False
            loc_detail.append(f"vertex {pos}: fringe {psi} not in its menu")
    edge_allowed = set(spec.fringe_edge_set)
    for root in decomp.fringe_trees:
        if root in images.values():
            continue
        if tree_ids[root] not in edge_allowed:
            loc_ok = False
            loc_detail.append(f"interior {root}: fringe {tree_ids[root]} not allowed")
    report.add("fringe_menus", loc_ok, "; ".join(loc_detail))

    h_ok, h_detail = True, []
    for pos in range(1, spec.seed.t_c + 1):
        sv = spec.seed.vertices[pos - 1]
        height = _location_height(decomp, leaf_roots, images[pos])
        if not sv.height_lb <= height <= sv.height_ub:
            h_ok = False
            h_detail.append(
                f"vertex {pos}: height {height} not in "
                f"[{sv.height_lb},{sv.height_ub}]"
            )
    for edge in spec.seed.edges:
        route = paths.get(edge.index)
        if route is None or len(route) <= 2:
            continue
        top = max(
            _location_height(decomp, leaf_roots, v) for v in route[1:-1]
        )
        if not edge.height_lb <= top <= edge.height_ub:
            h_ok = False
            h_detail.append(
                f"edge {edge.index}: max height {top} not in "
                f"[{edge.height_lb},{edge.height_ub}]"
            )
    report.add("height_bounds", h_ok, "; ".join(h_detail))

    bl_ok, bl_detail = True, []
    for pos in spec.seed.leafable:
        sv = spec.seed.vertices[pos - 1]
        has = 1 if leaf_roots.get(images[pos]) else 0
        if has < sv.leaf_path_lb:
            bl_ok = False
            bl_detail.append(f"vertex {pos}: leaf path required")
    for edge in spec.seed.edges:
        route = paths.get(edge.index)
        if edge.cls not in (PATH, FLEXIBLE):
            continue
        count = 0
        if route is not None and len(route) > 2:
            count = sum(1 for v in route[1:-1] if leaf_roots.get(v))
        if not edge.branch_lb <= count <= edge.branch_ub:
            bl_ok = False
            bl_detail.append(
                f"edge {edge.index}: {count} leaf branches not in "
                f"[{edge.branch_lb},{edge.branch_ub}]"
            )
    report.add("leaf_branch_bounds", bl_ok, "; ".join(bl_detail))

    bd_ok, bd_detail = True, []
    for edge in spec.seed.edges:
        route = paths.get(edge.index)
        counts = {2: 0, 3: 0}
        if route is not None:
            for u, w in zip(route, route[1:]):
                m = dict(decomp.interior_adjacency[u])[w]
                if m in counts:
                    counts[m] += 1
        for m, lo, hi in (
            (2, edge.bond2_lb, edge.bond2_ub),
            (3, edge.bond3_lb, edge.bond3_ub),
        ):
            if not lo <= counts[m] <= hi:
                bd_ok = False
                bd_detail.append(
                    f"edge {edge.index}: {counts[m]} bonds of multiplicity {m} "
                    f"not in [{lo},{hi}]"
                )
    report.add("bond_bounds", bd_ok, "; ".join(bd_detail))
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
    peel_order = []
    while True:
        leaves = sorted(v for v in alive if deg[v] <= 1)
        if not leaves or len(alive) <= 2:
            break
        for v in leaves:
            if len(alive) <= 2:
                break
            alive.discard(v)
            peel_order.append(v)
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

    edges = []
    seen_direct = set()
    for route in sorted(paths, key=lambda r: (index[r[0]], index[r[-1]], len(r))):
        a, b = index[route[0]], index[route[-1]]
        if a > b:
            a, b = b, a
        length = len(route) - 1
        lo = max(1, length - LENGTH_SLACK)
        hi = length + LENGTH_SLACK
        if length == 1:
            if (a, b) in seen_direct:
                # parallel edges must expand into vertex-disjoint paths
                continue
            seen_direct.add((a, b))
            edges.append({"tail": a, "head": b, "len_lb": 1, "len_ub": hi})
        else:
            if (a, b) in seen_direct or lo == 1:
                lo = max(2, lo)
            edges.append({"tail": a, "head": b, "len_lb": lo, "len_ub": hi})

    menu = fringe_trees if fringe_trees is not None else sorted(
        decomp.fringe_trees.values(), key=lambda t: t.canonical_code
    )
    unique: dict[bytes, RootedFringeTree] = {}
    for t in menu:
        unique.setdefault(t.canonical_code, t)
    # element sets must cover the molecule and everything the menu can place
    lam_int = {e.token for inside, e in census.elements if inside}
    lam_ex = {e.token for inside, e in census.elements if not inside}
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
