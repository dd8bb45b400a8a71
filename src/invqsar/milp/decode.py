"""Reconstruct a chemical graph from a solved inverse-design model.

The decoder reads only structural variables (slot use, colors, fringe
choices, elements, bond multiplicities) through the documented naming
scheme, so it works with any backend.  It takes the scheme's bonds from
`build.bond_slots`, the table the model's bond rows come from: each used
bond slot is one interior bond.  Inconsistent solutions raise DecodeError:
that signals a constraint-coverage bug, not bad input.
"""

from __future__ import annotations

from ..descriptors import DescriptorSpace
from ..graph import ChemicalGraph, Edge, Vertex
from ..topospec import TopologicalSpecification
from .build import bond_slots
from .solve import Solution


class DecodeError(RuntimeError):
    pass


def decode(sol: Solution, spec: TopologicalSpecification) -> ChemicalGraph:
    """The graph of an optimal solution: slot i of layer C, T or F is vertex
    i, t_c + i or t_c + t_tree + i, its fringe tree's vertices follow in
    slot order, and each used bond slot is one edge of multiplicity b<slot>."""
    if sol.status != "optimal":
        raise DecodeError(f"cannot decode a solution with status {sol.status!r}")
    iv = sol.int_value
    sizes = {"C": spec.seed.t_c, "T": spec.t_tree, "F": spec.t_leaf}
    offset = {"C": 0, "T": sizes["C"], "F": sizes["C"] + sizes["T"]}
    used = {x: [i for i in range(1, n + 1) if x == "C" or iv(f"v{x}_{i}") == 1]
            for x, n in sizes.items()}
    slots = [s for s in bond_slots(spec) if iv(s.used) == 1]

    # 1. each path color (T) and leaf color (F) a used slot ends at is one
    # contiguous, chained run of used slots
    at = {("slot", x, i): offset[x] + i for x in used for i in used[x]}
    colors = {(x, c) for s in slots for role, x, c in s.ends if role != "slot"}
    for x, c in sorted(colors):
        what = f"{'path' if x == 'T' else 'leaf'} color {c}"
        run = [i for i in used[x] if iv(f"chi{x}_{i}") == c]
        if not run or run != list(range(run[0], run[-1] + 1)):
            raise DecodeError(f"{what} is not a contiguous run: {run}")
        if any(iv(f"e{x}_{i}") != 1 for i in run[1:]):
            raise DecodeError(f"missing chain edge inside {what}")
        at["first", x, c], at["last", x, c] = offset[x] + run[0], offset[x] + run[-1]

    # 2. one vertex per used slot, its element the root of its fringe tree
    pos = {f.psi_id: p for p, f in enumerate(spec.fringe_entries, start=1)}
    vertices: list[Vertex] = []
    edges: list[Edge] = []
    next_id = sum(sizes.values()) + 1
    for x in "CTF":
        for i in used[x]:
            chosen = [psi for psi in spec.fringe_menu(x, i)
                      if iv(f"dfr{x}_{i}_{pos[psi]}") == 1]
            if len(chosen) != 1:
                raise DecodeError(
                    f"vertex {x}{i} has {len(chosen)} fringe trees selected")
            tree = spec.fringe_by_id[chosen[0]].tree
            code = iv(f"a{x}_{i}")
            if not 1 <= code <= len(spec.lambda_int):
                raise DecodeError(f"vertex {x}{i} has element code {code}")
            elem = spec.lambda_int[code - 1]
            if elem != tree.root_element:
                raise DecodeError(
                    f"vertex {x}{i}: element {elem.token} disagrees with "
                    f"fringe root {tree.root_element.token}")
            ids = {tree.root: offset[x] + i}
            vertices.append(Vertex(ids[tree.root], elem, tree.root_charge))
            for nid, node_elem, charge in tree.nodes:
                if nid != tree.root:
                    ids[nid] = next_id
                    vertices.append(Vertex(next_id, node_elem, charge))
                    next_id += 1
            edges += [Edge(ids[u], ids[w], mult) for u, w, mult in tree.edges]

    # 3. one edge per used bond slot
    for s in slots:
        mult = iv(f"b{s.name}")
        if mult < 1:
            raise DecodeError(f"used bond slot {s.name} has multiplicity 0")
        for role, x, i in s.ends:
            if (role, x, i) not in at:
                raise DecodeError(f"bond slot {s.name} ends at unused slot {x}{i}")
        edges.append(Edge(at[s.ends[0]], at[s.ends[1]], mult))

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
