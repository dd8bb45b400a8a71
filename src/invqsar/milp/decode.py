"""Reconstruct a chemical graph from a solved inverse-design model.

The decoder reads only structural variables (edge selectors, colors,
fringe choices, multiplicities, elements) through the documented naming
scheme, so it works with any backend.  Inconsistent solutions raise
DecodeError: that signals a constraint-coverage bug, not bad input.
"""

from __future__ import annotations

from ..decompose import RootedFringeTree
from ..descriptors import DescriptorSpace
from ..graph import ChemicalGraph, Edge, Vertex
from ..topospec import FIXED, FLEXIBLE, OPTIONAL, PATH, TopologicalSpecification
from .solve import Solution


class DecodeError(RuntimeError):
    pass


def _instantiate_fringe(
    tree: RootedFringeTree, root_vertex: int, next_id: int
) -> tuple[list[Vertex], list[Edge], int]:
    """Copy a fringe-tree template onto fresh vertex ids below a root."""
    mapping = {tree.root: root_vertex}
    vertices: list[Vertex] = []
    edges: list[Edge] = []
    for nid, elem, charge in tree.nodes:
        if nid == tree.root:
            continue
        mapping[nid] = next_id
        vertices.append(Vertex(next_id, elem, charge))
        next_id += 1
    for parent, child, mult in tree.edges:
        edges.append(Edge(mapping[parent], mapping[child], mult))
    return vertices, edges, next_id


def decode(sol: Solution, spec: TopologicalSpecification) -> ChemicalGraph:
    if sol.status != "optimal":
        raise DecodeError(f"cannot decode a solution with status {sol.status!r}")
    seed = spec.seed
    t_c, t_t, t_f = seed.t_c, spec.t_tree, spec.t_leaf
    leafable = seed.leafable
    t_c_tilde = len(leafable)

    def iv(name: str) -> int:
        return sol.int_value(name)

    def vertex_id(kind: str, i: int) -> int:
        if kind == "C":
            return i
        if kind == "T":
            return t_c + i
        return t_c + t_t + i

    used: dict[str, list[int]] = {"C": list(range(1, t_c + 1))}
    used["T"] = [i for i in range(1, t_t + 1) if iv(f"vT_{i}") == 1]
    used["F"] = [i for i in range(1, t_f + 1) if iv(f"vF_{i}") == 1]

    psis = spec.fringe_entries
    vertices: list[Vertex] = []
    edges: list[Edge] = []
    next_id = t_c + t_t + t_f + 1

    for kind in "CTF":
        for i in used[kind]:
            menu = (
                spec.fringe_set_for_vertex(i)
                if kind == "C"
                else spec.fringe_edge_set
            )
            chosen = [
                psi
                for p, psi in [(p, f.psi_id) for p, f in enumerate(psis, start=1)]
                if psi in menu and iv(f"dfr{kind}_{i}_{p}") == 1
            ]
            if len(chosen) != 1:
                raise DecodeError(
                    f"vertex {kind}{i} has {len(chosen)} fringe trees selected"
                )
            entry = spec.fringe_by_id[chosen[0]]
            code = iv(f"a{kind}_{i}")
            if not 1 <= code <= len(spec.lambda_int):
                raise DecodeError(f"vertex {kind}{i} has element code {code}")
            elem = spec.lambda_int[code - 1]
            if elem != entry.tree.root_element:
                raise DecodeError(
                    f"vertex {kind}{i}: element {elem.token} disagrees with "
                    f"fringe root {entry.tree.root_element.token}"
                )
            vid = vertex_id(kind, i)
            vertices.append(Vertex(vid, elem, entry.tree.root_charge))
            f_vertices, f_edges, next_id = _instantiate_fringe(
                entry.tree, vid, next_id
            )
            vertices.extend(f_vertices)
            edges.extend(f_edges)

    # direct seed edges
    for e in seed.edges_of_class(FLEXIBLE, OPTIONAL, FIXED):
        if iv(f"eC_{e.index}") == 1:
            mult = iv(f"bC_{e.index}")
            if mult < 1:
                raise DecodeError(f"selected edge {e.index} has multiplicity 0")
            edges.append(Edge(vertex_id("C", e.tail), vertex_id("C", e.head), mult))

    # paths carved from the T slots
    chi_t = {i: iv(f"chiT_{i}") for i in used["T"]}
    for e in seed.edges_of_class(PATH, FLEXIBLE):
        k = e.index
        if iv(f"dclrT_{k}") == 0:
            continue
        run = sorted(i for i in used["T"] if chi_t[i] == k)
        if not run or run != list(range(run[0], run[-1] + 1)):
            raise DecodeError(f"path color {k} is not a contiguous run: {run}")
        for i in run[1:]:
            if iv(f"eT_{i}") != 1:
                raise DecodeError(f"missing chain edge inside path color {k}")
        first, last = run[0], run[-1]
        m_first = iv(f"bCTk_{k}")
        m_last = iv(f"bTCk_{k}")
        if m_first < 1 or m_last < 1:
            raise DecodeError(f"path color {k} has an unbonded end")
        edges.append(Edge(vertex_id("C", e.tail), vertex_id("T", first), m_first))
        for i in run[1:]:
            edges.append(Edge(vertex_id("T", i - 1), vertex_id("T", i), iv(f"bT_{i}")))
        edges.append(Edge(vertex_id("T", last), vertex_id("C", e.head), m_last))

    # leaf paths carved from the F slots
    chi_f = {i: iv(f"chiF_{i}") for i in used["F"]}
    for c in range(1, spec.c_f + 1):
        if iv(f"dclrF_{c}") == 0:
            continue
        run = sorted(i for i in used["F"] if chi_f[i] == c)
        if not run:
            raise DecodeError(f"leaf color {c} marked used but has no vertices")
        if run != list(range(run[0], run[-1] + 1)):
            raise DecodeError(f"leaf color {c} is not a contiguous run: {run}")
        for i in run[1:]:
            if iv(f"eF_{i}") != 1:
                raise DecodeError(f"missing chain edge inside leaf color {c}")
        if c <= t_c_tilde:
            root = vertex_id("C", leafable[c - 1])
        else:
            t_pos = c - t_c_tilde
            if t_pos not in used["T"]:
                raise DecodeError(f"leaf color {c} hangs at unused slot T{t_pos}")
            root = vertex_id("T", t_pos)
        mult = iv(f"bsF_{c}")
        if mult < 1:
            raise DecodeError(f"leaf color {c} has an unbonded root edge")
        edges.append(Edge(root, vertex_id("F", run[0]), mult))
        for i in run[1:]:
            edges.append(Edge(vertex_id("F", i - 1), vertex_id("F", i), iv(f"bF_{i}")))

    graph = ChemicalGraph(tuple(vertices), tuple(edges))
    failures = graph.validate()
    if failures:
        raise DecodeError("decoded graph is invalid: " + "; ".join(failures[:5]))
    return graph


def solution_feature_values(sol: Solution, space: DescriptorSpace) -> tuple:
    """The model's descriptor values x_1..x_K, exactly as the solution
    holds them: after `polish_solution` the integers are integral and the
    average mass is Mass/atoms, so they equal a census vector's values."""
    return tuple(sol.values[f"x_{j}"] for j in range(1, space.k + 1))
