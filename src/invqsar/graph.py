"""Chemical graph data model with explicit hydrogens.

A ChemicalGraph stores every atom (including hydrogens) as a vertex and
every bond as an edge with multiplicity 1..3.  Validity means: connected,
simple, the valence condition holds at every vertex, hydrogens are pendant
and every heavy atom has at most 4 heavy neighbours.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping, NamedTuple

from .elements import ElementSpec, make_element, parse_element
from .schema import INTEGER, STRING, Field, InputError, Reader, Table, integer, list_of, optional


class InvalidGraphError(ValueError):
    """Raised when a graph violates a structural invariant."""


class _VertexFields(NamedTuple):
    id: int
    element: ElementSpec
    charge: int = 0


class Vertex(_VertexFields):
    """An atom: an immutable (id, element, charge) record.  It is a tuple,
    which costs less to build than a frozen dataclass: SDF ingest builds
    one per atom."""

    __slots__ = ()
    # _replace builds through _make: route it through the checks too
    _make = classmethod(lambda cls, fields: cls(*fields))

    def __new__(cls, id: int, element: ElementSpec, charge: int = 0) -> "Vertex":
        if not -3 <= charge <= 3:
            raise InvalidGraphError(f"charge {charge} outside [-3,3]")
        return tuple.__new__(cls, (id, element, charge))


class _EdgeFields(NamedTuple):
    u: int
    v: int
    mult: int


class Edge(_EdgeFields):
    """A bond: an immutable (u, v, mult) record, a tuple as Vertex is."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))

    def __new__(cls, u: int, v: int, mult: int) -> "Edge":
        if u == v:
            raise InvalidGraphError(f"self-loop at vertex {u}")
        if not 1 <= mult <= 3:
            raise InvalidGraphError(f"bond multiplicity {mult} outside [1,3]")
        return tuple.__new__(cls, (u, v, mult))


@dataclass(frozen=True)
class SuppressedView:
    """Hydrogen-suppressed view: heavy vertices, heavy-heavy edges, and
    the (heavy neighbour, multiplicity) and (hydrogen id, multiplicity)
    bonds of each heavy vertex."""

    vertex_ids: tuple[int, ...]
    edges: tuple[Edge, ...]
    adjacency: Mapping[int, tuple[tuple[int, int], ...]]
    hydrogens: Mapping[int, tuple[tuple[int, int], ...]]


@dataclass(frozen=True)
class ChemicalGraph:
    vertices: tuple[Vertex, ...]
    edges: tuple[Edge, ...]

    @cached_property
    def vertex_map(self) -> dict[int, Vertex]:
        vm = {v.id: v for v in self.vertices}
        if len(vm) != len(self.vertices):
            raise InvalidGraphError("duplicate vertex ids")
        return vm

    @cached_property
    def adjacency(self) -> dict[int, tuple[tuple[int, int], ...]]:
        """vertex id -> tuple of (neighbour id, bond multiplicity)."""
        adj: dict[int, list[tuple[int, int]]] = {v: [] for v in self.vertex_map}
        seen: set[tuple[int, int]] = set()
        for u, v, m in self.edges:
            if u not in adj or v not in adj:
                raise InvalidGraphError(f"edge ({u},{v}) references unknown vertex")
            key = (u, v) if u < v else (v, u)
            if key in seen:
                raise InvalidGraphError(f"parallel edge ({u},{v})")
            seen.add(key)
            adj[u].append((v, m))
            adj[v].append((u, m))
        return {k: tuple(v) for k, v in adj.items()}

    @cached_property
    def suppressed(self) -> SuppressedView:
        """Projection onto the heavy atoms; hydrogen bonds kept per vertex."""
        heavy = tuple(v.id for v in self.vertices if not v.element.is_hydrogen)
        edges = []
        adj: dict[int, list[tuple[int, int]]] = {vid: [] for vid in heavy}
        hydrogens: dict[int, list[tuple[int, int]]] = {vid: [] for vid in heavy}
        for e in self.edges:
            u, v, m = e
            if u in adj:
                if v in adj:
                    edges.append(e)
                    adj[u].append((v, m))
                    adj[v].append((u, m))
                else:
                    hydrogens[u].append((v, m))
            elif v in adj:
                hydrogens[v].append((u, m))
        return SuppressedView(
            heavy, tuple(edges), {k: tuple(nbrs) for k, nbrs in adj.items()},
            {k: tuple(hs) for k, hs in hydrogens.items()})

    def element(self, vid: int) -> ElementSpec:
        return self.vertex_map[vid].element

    def degree(self, vid: int) -> int:
        return len(self.adjacency[vid])

    def n_atoms(self) -> int:
        return len(self.vertices)

    def n_heavy(self) -> int:
        return len(self.suppressed.vertex_ids)

    @cached_property
    def connected(self) -> bool:
        if not self.vertices:
            return True
        adj = self.adjacency
        start = self.vertices[0].id
        seen = {start}
        stack = [start]
        while stack:
            u = stack.pop()
            for w, _ in adj[u]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        return len(seen) == len(self.vertices)

    def validate(self) -> list[str]:
        """Return all invariant violations (empty list when valid)."""
        problems: list[str] = []
        try:
            adj = self.adjacency
        except InvalidGraphError as exc:
            return [str(exc)]
        if not self.vertices:
            problems.append("graph has no vertices")
            return problems
        if not self.connected:
            problems.append("graph is not connected")
        beta = dict.fromkeys(adj, 0)
        for u, v, m in self.edges:
            beta[u] += m
            beta[v] += m
        heavy_adj = self.suppressed.adjacency
        for vid, elem, charge in self.vertices:
            if beta[vid] != elem.valence + charge:
                problems.append(
                    f"valence condition fails at {vid} ({elem.token}): "
                    f"bond sum {beta[vid]} != valence {elem.valence} + charge {charge}"
                )
            if elem.is_hydrogen:
                incident = adj[vid]
                if len(incident) != 1 or incident[0][1] != 1:
                    problems.append(f"hydrogen {vid} must have one single bond")
            elif (heavy := len(heavy_adj[vid])) > 4:
                problems.append(
                    f"vertex {vid} has {heavy} heavy neighbours (max 4)")
        return problems


def rank(g: ChemicalGraph) -> int:
    """Cycle rank |E|-|V|+1 of the hydrogen-suppressed graph."""
    if not g.connected:
        raise InvalidGraphError("rank requires a connected graph")
    view = g.suppressed
    if not view.vertex_ids:
        return 0
    return len(view.edges) - len(view.vertex_ids) + 1


def graph_to_json(g: ChemicalGraph) -> dict:
    """Serialize to the interchange schema
    {vertices: [{id, element, valence, charge}], edges: [{u, v, order}]}."""
    return GRAPH.write(g)


def _node(r: Reader, path, d: dict) -> tuple[int, ElementSpec, int]:
    token, valence = d["element"], d["valence"]
    try:
        elem = parse_element(token) if valence is None else make_element(token, valence)
    except ValueError as exc:  # inline r.make: this runs once per atom
        r.fail((path, "element"), f"is invalid: {exc}")
    return d["id"], elem, d["charge"]


# vertex and edge records are read as (id, element, charge) and (u, v,
# order) tuples, and written from Vertex and Edge objects
VERTEX = Table(
    Field("id", INTEGER),
    Field("element", STRING, attr="element.symbol"),
    Field("valence", optional(integer(1, 6)), None, attr="element.valence"),
    Field("charge", integer(-3, 3), 0),
    make=_node,
)
EDGE = Table(
    Field("u", INTEGER),
    Field("v", INTEGER),
    Field("order", integer(1, 3), attr="mult"),
    make=lambda r, path, d: (d["u"], d["v"], d["order"]),
)
GRAPH = Table(
    Field("vertices", list_of(VERTEX)),
    Field("edges", list_of(EDGE)),
    make=lambda r, path, d: ChemicalGraph(
        tuple(Vertex(*node) for node in d["vertices"]),
        tuple(r.make(((path, "edges"), i), Edge, *edge)
              for i, edge in enumerate(d["edges"]))),
)


def graph_from_json(doc: dict) -> ChemicalGraph:
    """Inverse of graph_to_json (valence optional); a fault raises InputError."""
    return GRAPH.read(Reader("graph document", InputError), doc)


def graph_to_json_text(g: ChemicalGraph) -> str:
    return json.dumps(graph_to_json(g), indent=2, sort_keys=True)


def graph_from_json_text(text: str) -> ChemicalGraph:
    """Read a graph document; a text that is not one raises InputError."""
    return graph_from_json(Reader("graph document", InputError).loads(text))


def build_graph(
    atoms: Iterable[tuple[int, str, int] | tuple[int, str]],
    bonds: Iterable[tuple[int, int, int]],
    add_hydrogens: bool = False,
) -> ChemicalGraph:
    """Convenience constructor from (id, element token[, charge]) atoms and
    (u, v, mult) bonds.  With add_hydrogens=True, pendant hydrogens are
    appended so the valence condition holds at every heavy atom."""
    vertices = []
    for spec in atoms:
        vid, token = spec[0], spec[1]
        charge = spec[2] if len(spec) > 2 else 0
        vertices.append(Vertex(vid, parse_element(token), charge))
    edges = [Edge(u, v, m) for u, v, m in bonds]
    if add_hydrogens:
        beta = {v.id: 0 for v in vertices}
        for e in edges:
            beta[e.u] += e.mult
            beta[e.v] += e.mult
        next_id = max((v.id for v in vertices), default=0) + 1
        for v in list(vertices):
            if v.element.is_hydrogen:
                continue
            missing = v.element.valence + v.charge - beta[v.id]
            if missing < 0:
                raise InvalidGraphError(
                    f"vertex {v.id} over-bonded: {beta[v.id]} > "
                    f"{v.element.valence + v.charge}"
                )
            for _ in range(missing):
                vertices.append(Vertex(next_id, make_element("H")))
                edges.append(Edge(v.id, next_id, 1))
                next_id += 1
    return ChemicalGraph(tuple(vertices), tuple(edges))
