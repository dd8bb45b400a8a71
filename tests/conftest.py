"""Shared builders for molecules, random graphs and inverse-design fixtures."""

from __future__ import annotations

import importlib.util
import json
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from invqsar.decompose import decompose, tree_to_json
from invqsar.descriptors import build_space, featurize, space_hash
from invqsar.elements import make_element
from invqsar.graph import ChemicalGraph, Edge, Vertex, build_graph
from invqsar.regression import LinearPredictor
from invqsar.sdf import RecordError, read_sdf
from invqsar.topospec import parse_spec, spec_from_graph


def ring(n: int, pendant: int = 0) -> ChemicalGraph:
    """Carbon ring of size n with an optional pendant chain at atom 1."""
    atoms = [(i, "C") for i in range(1, n + 1 + pendant)]
    bonds = [(i, i % n + 1, 1) for i in range(1, n + 1)]
    for j in range(pendant):
        a = n + j
        bonds.append((a if j else 1, a + 1, 1))
    return build_graph(atoms, bonds, add_hydrogens=True)


def chain(tokens: list[str], mults: list[int] | None = None) -> ChemicalGraph:
    mults = mults or [1] * (len(tokens) - 1)
    atoms = [(i + 1, t) for i, t in enumerate(tokens)]
    bonds = [(i + 1, i + 2, m) for i, m in enumerate(mults)]
    return build_graph(atoms, bonds, add_hydrogens=True)


def random_chemical_graph(rng: np.random.Generator, max_heavy: int = 12,
                          elements=("C", "C", "C", "N", "O", "S(2)")) -> ChemicalGraph:
    """Random valid chemical graph: tree plus a few chords, occasional
    double bonds and charges, hydrogens filled to the valence."""
    n = int(rng.integers(2, max_heavy + 1))
    parents = [int(rng.integers(0, i)) for i in range(1, n)]
    degree = [0] * n
    edges: list[tuple[int, int, int]] = []
    for child, parent in enumerate(parents, start=1):
        if degree[parent] >= 4:
            parent = next(
                v for v in range(child) if degree[v] < 4
            )
        edges.append((parent + 1, child + 1, 1))
        degree[parent] += 1
        degree[child] += 1
    n_extra = int(rng.integers(0, 3)) if n >= 4 else 0
    present = {(min(u, v), max(u, v)) for u, v, _ in edges}
    for _ in range(n_extra):
        u, v = rng.integers(0, n, size=2)
        u, v = int(u), int(v)
        if u == v or (min(u, v) + 1, max(u, v) + 1) in present:
            continue
        if degree[u] >= 4 or degree[v] >= 4:
            continue
        present.add((min(u, v) + 1, max(u, v) + 1))
        edges.append((u + 1, v + 1, 1))
        degree[u] += 1
        degree[v] += 1

    beta = [0] * n
    for u, v, m in edges:
        beta[u - 1] += m
        beta[v - 1] += m
    # upgrade a few bonds to doubles where the endpoints can absorb it
    for idx in range(len(edges)):
        if rng.random() < 0.15:
            u, v, m = edges[idx]
            if beta[u - 1] <= 2 and beta[v - 1] <= 2:
                edges[idx] = (u, v, 2)
                beta[u - 1] += 1
                beta[v - 1] += 1

    atoms = []
    for i in range(n):
        options = []
        for token in elements:
            elem = make_element(
                token.partition("(")[0],
                int(token.partition("(")[2][:-1]) if "(" in token else None,
            )
            for charge in (0, 0, 0, 1, -1):
                if elem.valence + charge < max(beta[i], 1) or abs(charge) > 3:
                    continue
                # keep the total degree (hydrogens included) at 4 or less
                hydrogens = elem.valence + charge - beta[i]
                if degree[i] + hydrogens > 4:
                    continue
                options.append((token, charge))
        token, charge = options[int(rng.integers(0, len(options)))]
        atoms.append((i + 1, token, charge))
    return build_graph(atoms, [tuple(e) for e in edges], add_hydrogens=True)


def relabelled(g: ChemicalGraph, rng: np.random.Generator) -> ChemicalGraph:
    """The same molecule with its vertex ids permuted at random."""
    ids = [v.id for v in g.vertices]
    new = dict(zip(ids, (int(i) for i in rng.permutation(ids))))
    return ChemicalGraph(
        tuple(Vertex(new[v.id], v.element, v.charge) for v in g.vertices),
        tuple(Edge(new[e.u], new[e.v], e.mult) for e in g.edges),
    )


def mol_block(name, atoms, bonds, charges=(), charge_line=None, codes=None):
    """A V2000 record; `codes` gives each atom's charge-column code."""
    lines = [name, "  test", "", f"{len(atoms):3d}{len(bonds):3d}  0  0  0  0  0  0  0  0999 V2000"]
    for sym, code in zip(atoms, codes or [0] * len(atoms)):
        lines.append(
            f"    0.0000    0.0000    0.0000 {sym:<3} 0{code:3d}  0  0  0  0  0  0  0  0  0  0"
        )
    for u, v, m in bonds:
        lines.append(f"{u:3d}{v:3d}{m:3d}  0  0  0  0")
    if charges:
        head = f"M  CHG{len(charges):3d}"
        for vid, chg in charges:
            head += f"{vid:4d}{chg:4d}"
        lines.append(head)
    if charge_line is not None:
        lines.append(charge_line)
    lines.append("M  END")
    lines.append("$$$$")
    return "\n".join(lines) + "\n"


def sdf_records(text: str) -> tuple[list[tuple[str, ChemicalGraph]], list[RecordError]]:
    """The (name, graph) pairs and the RecordErrors that read_sdf yields
    for an SDF text, each list in record order."""
    graphs, errors = [], []
    for record in read_sdf(text):
        (errors if isinstance(record, RecordError) else graphs).append(record)
    return graphs, errors


def uniform_predictor(space, vectors, weight=0.1, bias=0.05,
                      target_min=0.0, target_max=10.0) -> LinearPredictor:
    x = np.array([fv.as_floats() for fv in vectors])
    return LinearPredictor(
        weights=tuple([weight] * space.k),
        bias=bias,
        lam=0.01,
        descriptor_names=space.descriptor_names,
        mins=tuple(x.min(axis=0).tolist()),
        maxs=tuple(x.max(axis=0).tolist()),
        target_min=target_min,
        target_max=target_max,
        space_hash=space_hash(space),
    )


def derived_instance(target, family, weight=0.1):
    """The space of `family`, the specification derived from `target` with
    the family's fringe trees as its menu, a uniform predictor over the
    family and target's standardized prediction."""
    space = build_space(family, 2)
    trees = [t for g in family for t in decompose(g, 2).fringe_trees.values()]
    spec = parse_spec(json.dumps(spec_from_graph(target, fringe_trees=trees)))
    vectors = [featurize(g, space) for g in family]
    predictor = uniform_predictor(space, vectors, weight=weight)
    y = predictor.predict_normalized(featurize(target, space).as_floats())
    return space, spec, predictor, y


def reachable_max(model) -> float:
    """The largest y that the prediction row pred_value allows with every
    descriptor at its best bound."""
    bounds = {v.name: (v.lb, v.ub) for v in model.variables}
    row = model.constraint("pred_value")
    return row.rhs + sum(max(-c * bounds[n][0], -c * bounds[n][1])
                         for n, c in row.coeffs if n != "y")


def fringe_menu_json(dataset, rho=2):
    """All fringe trees of a dataset as spec JSON entries psi1, psi2, ..."""
    trees = {}
    for g in dataset:
        d = decompose(g, rho)
        for t in d.fringe_trees.values():
            trees.setdefault(t.canonical_code, t)
    return [
        dict(tree_to_json(t), id=f"psi{i + 1}")
        for i, (_, t) in enumerate(sorted(trees.items()))
    ]


def hydrogen_tree_entry(psi_id, edges):
    """A menu entry rooted at C1 with hydrogen 2 and carbons 3 and 4, and
    the given (u, v, order) edges."""
    atoms = [(1, "C", 4), (2, "H", 1), (3, "C", 4), (4, "C", 4)]
    return {
        "id": psi_id, "root": 1,
        "vertices": [{"id": i, "element": e, "valence": val, "charge": 0}
                     for i, e, val in atoms],
        "edges": [{"u": u, "v": v, "order": m} for u, v, m in edges],
    }


def triangle_spec_doc(psis, n_star=8, n_int_ub=3):
    return {
        "version": 1,
        "rho": 2,
        "n_lb": 3,
        "n_star": n_star,
        "n_int_lb": 2,
        "n_int_ub": n_int_ub,
        "seed": {
            "vertices": [{"id": i, "elements": ["C"]} for i in (1, 2, 3)],
            "edges": [
                {"tail": 1, "head": 2, "len_lb": 1, "len_ub": 1},
                {"tail": 1, "head": 3, "len_lb": 1, "len_ub": 1},
                {"tail": 2, "head": 3, "len_lb": 1, "len_ub": 1},
            ],
        },
        "lambda_int": ["C"],
        "lambda_ex": ["H"],
        "fringe_trees": psis,
    }


class RoundTripFixture:
    """Dataset + space + predictor + spec + target interval in one place."""

    def __init__(self, name, dataset, spec_doc, target, mini_ok=False,
                 weight=0.1):
        self.name = name
        self.dataset = dataset
        self.space = build_space(dataset, 2)
        self.vectors = [featurize(g, self.space) for g in dataset]
        self.predictor = uniform_predictor(self.space, self.vectors, weight)
        self.spec = parse_spec(json.dumps(spec_doc))
        self.target = target
        fv = featurize(target, self.space)
        self.y_center = self.predictor.predict_normalized(fv.as_floats())
        self.y_lo = self.y_center - 0.01
        self.y_hi = self.y_center + 0.01
        self.mini_ok = mini_ok

    @property
    def interval(self) -> tuple[float, float]:
        """[y_lo, y_hi] in original units, as `infer` takes the window."""
        return (self.predictor.destandardize(self.y_lo),
                self.predictor.destandardize(self.y_hi))


def _fixture_triangle() -> RoundTripFixture:
    dataset = [ring(3), ring(5), ring(6)]
    psis = fringe_menu_json(dataset)
    return RoundTripFixture(
        "triangle", dataset, triangle_spec_doc(psis), ring(3), mini_ok=True
    )


def _fixture_square_chord() -> RoundTripFixture:
    # 4-vertex seed: a 4-cycle of mandatory edges plus one optional chord
    target = ring(4)
    chorded = build_graph(
        [(i, "C") for i in range(1, 5)],
        [(1, 2, 1), (2, 3, 1), (3, 4, 1), (1, 4, 1), (1, 3, 1)],
        add_hydrogens=True,
    )
    dataset = [ring(4), ring(5), ring(6), ring(3), chorded]
    psis = fringe_menu_json(dataset)
    doc = {
        "version": 1,
        "rho": 2,
        "n_lb": 3,
        "n_star": 8,
        "n_int_lb": 2,
        "n_int_ub": 4,
        "seed": {
            "vertices": [{"id": i, "elements": ["C"]} for i in (1, 2, 3, 4)],
            "edges": [
                {"tail": 1, "head": 2, "len_lb": 1, "len_ub": 1},
                {"tail": 2, "head": 3, "len_lb": 1, "len_ub": 1},
                {"tail": 3, "head": 4, "len_lb": 1, "len_ub": 1},
                {"tail": 1, "head": 4, "len_lb": 1, "len_ub": 1},
                {"tail": 1, "head": 3, "len_lb": 0, "len_ub": 1},
            ],
        },
        "lambda_int": ["C"],
        "lambda_ex": ["H"],
        "fringe_trees": psis,
    }
    return RoundTripFixture("square_chord", dataset, doc, target, mini_ok=True)


def _fixture_expanded_path() -> RoundTripFixture:
    target = ring(4, pendant=3)
    dataset = [ring(6), ring(5), ring(5, pendant=1), ring(6, pendant=3),
               ring(6, pendant=2), ring(4), target]
    psis = fringe_menu_json(dataset)
    doc = {
        "version": 1,
        "rho": 2,
        "n_lb": 4,
        "n_star": 12,
        "n_int_lb": 3,
        "n_int_ub": 7,
        "seed": {
            "vertices": [
                {"id": 1, "elements": ["C"], "leaf_path": True},
                {"id": 2, "elements": ["C"]},
                {"id": 3, "elements": ["C"]},
            ],
            "edges": [
                {"tail": 1, "head": 2, "len_lb": 2, "len_ub": 3},
                {"tail": 1, "head": 3, "len_lb": 1, "len_ub": 1},
                {"tail": 2, "head": 3, "len_lb": 1, "len_ub": 1},
            ],
        },
        "lambda_int": ["C"],
        "lambda_ex": ["C", "H"],
        "fringe_trees": psis,
    }
    return RoundTripFixture("expanded_path", dataset, doc, target)


def _fixture_hetero() -> RoundTripFixture:
    # nitrogen in the ring and an oxygen-bearing fringe
    def pyrrolidine_like(n_ring, hetero_pos=1):
        atoms = [(i, "N" if i == hetero_pos else "C") for i in range(1, n_ring + 1)]
        bonds = [(i, i % n_ring + 1, 1) for i in range(1, n_ring + 1)]
        return build_graph(atoms, bonds, add_hydrogens=True)

    def ring_with_carbonyl(n_ring):
        atoms = [(i, "C") for i in range(1, n_ring + 1)] + [(n_ring + 1, "O")]
        bonds = [(i, i % n_ring + 1, 1) for i in range(1, n_ring + 1)]
        bonds.append((1, n_ring + 1, 2))
        return build_graph(atoms, bonds, add_hydrogens=True)

    target = pyrrolidine_like(5)
    dataset = [ring(5), ring(6), pyrrolidine_like(5), pyrrolidine_like(6),
               ring_with_carbonyl(5), ring_with_carbonyl(6), ring(5, pendant=1)]
    psis = fringe_menu_json(dataset)
    doc = {
        "version": 1,
        "rho": 2,
        "n_lb": 4,
        "n_star": 10,
        "n_int_lb": 4,
        "n_int_ub": 6,
        "seed": {
            "vertices": [
                {"id": 1, "elements": ["C", "N"]},
                {"id": 2, "elements": ["C"]},
                {"id": 3, "elements": ["C"]},
            ],
            "edges": [
                {"tail": 1, "head": 2, "len_lb": 1, "len_ub": 2},
                {"tail": 1, "head": 3, "len_lb": 1, "len_ub": 2},
                {"tail": 2, "head": 3, "len_lb": 1, "len_ub": 2},
            ],
        },
        "lambda_int": ["C", "N"],
        "lambda_ex": ["C", "H", "O"],
        "fringe_trees": psis,
    }
    return RoundTripFixture("hetero", dataset, doc, target)


def _fixture_two_rings() -> RoundTripFixture:
    # 6-vertex seed: two triangles joined by a flexible bridge
    def two_triangles(bridge_len):
        atoms = [(i, "C") for i in range(1, 7 + bridge_len - 1)]
        bonds = [(1, 2, 1), (2, 3, 1), (1, 3, 1)]
        shift = 3 + bridge_len - 1
        bonds += [(shift + 1, shift + 2, 1), (shift + 2, shift + 3, 1),
                  (shift + 1, shift + 3, 1)]
        prev = 3
        for j in range(bridge_len - 1):
            bonds.append((prev, 4 + j, 1))
            prev = 4 + j
        bonds.append((prev, shift + 1, 1))
        return build_graph(atoms, bonds, add_hydrogens=True)

    target = two_triangles(2)
    dataset = [two_triangles(1), two_triangles(2), two_triangles(3),
               ring(3), ring(6), ring(3, pendant=1)]
    psis = fringe_menu_json(dataset)
    doc = {
        "version": 1,
        "rho": 2,
        "n_lb": 6,
        "n_star": 12,
        "n_int_lb": 6,
        "n_int_ub": 8,
        "seed": {
            "vertices": [{"id": i, "elements": ["C"]} for i in range(1, 7)],
            "edges": [
                {"tail": 1, "head": 2, "len_lb": 1, "len_ub": 1},
                {"tail": 2, "head": 3, "len_lb": 1, "len_ub": 1},
                {"tail": 1, "head": 3, "len_lb": 1, "len_ub": 1},
                {"tail": 4, "head": 5, "len_lb": 1, "len_ub": 1},
                {"tail": 5, "head": 6, "len_lb": 1, "len_ub": 1},
                {"tail": 4, "head": 6, "len_lb": 1, "len_ub": 1},
                {"tail": 3, "head": 4, "len_lb": 1, "len_ub": 3},
            ],
        },
        "lambda_int": ["C"],
        "lambda_ex": ["C", "H"],
        "fringe_trees": psis,
    }
    return RoundTripFixture("two_rings", dataset, doc, target)


_FIXTURE_MAKERS = {
    "triangle": _fixture_triangle,
    "square_chord": _fixture_square_chord,
    "expanded_path": _fixture_expanded_path,
    "hetero": _fixture_hetero,
    "two_rings": _fixture_two_rings,
}

_CACHE: dict[str, RoundTripFixture] = {}


def roundtrip_fixture(name: str) -> RoundTripFixture:
    if name not in _CACHE:
        _CACHE[name] = _FIXTURE_MAKERS[name]()
    return _CACHE[name]


ALL_ROUNDTRIP_FIXTURES = tuple(_FIXTURE_MAKERS)


def perfbench_inputs():
    """The benchmark's input generators (`perfbench/inputs.py`) as a module."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "inputs.py"
    spec = importlib.util.spec_from_file_location("perfbench_inputs", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
