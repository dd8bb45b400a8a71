"""Seeded benchmark inputs: molecules, round-trip fixtures, SDF text,
specifications and predictor files.

The benchmark owns these generators, so a change to the test suite cannot
change what the benchmark measures.  The program receives only the files
written from them.
"""

from __future__ import annotations

import json

import numpy as np

from invqsar.decompose import decompose, tree_to_json
from invqsar.elements import make_element
from invqsar.graph import ChemicalGraph, build_graph
from invqsar.topospec import spec_from_graph

RHO = 2
TARGET_RANGE = (0.0, 10.0)
BIAS = 0.05


# -- molecules ------------------------------------------------------------


def ring(n: int, pendant: int = 0) -> ChemicalGraph:
    """Carbon ring of size n with an optional pendant chain at atom 1."""
    atoms = [(i, "C") for i in range(1, n + 1 + pendant)]
    bonds = [(i, i % n + 1, 1) for i in range(1, n + 1)]
    for j in range(pendant):
        a = n + j
        bonds.append((a if j else 1, a + 1, 1))
    return build_graph(atoms, bonds, add_hydrogens=True)


def random_molecule(rng: np.random.Generator, max_heavy: int,
                    elements=("C", "C", "C", "N", "O", "S(2)")) -> ChemicalGraph:
    """Random valid molecule: a tree plus a few chords, some double bonds
    and charges, hydrogens filled to the valence, total degree at most 4."""
    n = int(rng.integers(2, max_heavy + 1))
    parents = [int(rng.integers(0, i)) for i in range(1, n)]
    degree = [0] * n
    edges: list[tuple[int, int, int]] = []
    for child, parent in enumerate(parents, start=1):
        if degree[parent] >= 4:
            parent = next(v for v in range(child) if degree[v] < 4)
        edges.append((parent + 1, child + 1, 1))
        degree[parent] += 1
        degree[child] += 1
    present = {(u, v) for u, v, _ in edges}
    for _ in range(int(rng.integers(0, 3)) if n >= 4 else 0):
        u, v = (int(a) for a in rng.integers(0, n, size=2))
        key = (min(u, v) + 1, max(u, v) + 1)
        if u == v or key in present or degree[u] >= 4 or degree[v] >= 4:
            continue
        present.add(key)
        edges.append((u + 1, v + 1, 1))
        degree[u] += 1
        degree[v] += 1

    beta = [0] * n
    for u, v, _ in edges:
        beta[u - 1] += 1
        beta[v - 1] += 1
    for idx, (u, v, _) in enumerate(edges):
        if rng.random() < 0.15 and beta[u - 1] <= 2 and beta[v - 1] <= 2:
            edges[idx] = (u, v, 2)
            beta[u - 1] += 1
            beta[v - 1] += 1

    atoms = []
    for i in range(n):
        options = []
        for token in elements:
            symbol, _, rest = token.partition("(")
            elem = make_element(symbol, int(rest[:-1]) if rest else None)
            for charge in (0, 0, 0, 1, -1):
                hydrogens = elem.valence + charge - beta[i]
                if elem.valence + charge < max(beta[i], 1):
                    continue
                if degree[i] + hydrogens > 4:
                    continue
                options.append((token, charge))
        token, charge = options[int(rng.integers(0, len(options)))]
        atoms.append((i + 1, token, charge))
    return build_graph(atoms, edges, add_hydrogens=True)


def synthetic_property(g: ChemicalGraph, rng: np.random.Generator) -> float:
    """A smooth structural property plus noise, for training targets."""
    weight = {"C": 1.0, "N": 0.8, "O": 0.6, "S": 1.5}
    value = sum(weight.get(v.element.symbol, 0.0) for v in g.vertices)
    value += 0.4 * sum(1 for e in g.edges if e.mult == 2)
    value += 0.3 * sum(abs(v.charge) for v in g.vertices)
    return value + 0.05 * float(rng.standard_normal())


# -- files ----------------------------------------------------------------


def sdf_text(named: list[tuple[str, ChemicalGraph]]) -> str:
    """V2000 records with explicit hydrogens and M  CHG charge lines."""
    out: list[str] = []
    for name, g in named:
        index = {v.id: i + 1 for i, v in enumerate(g.vertices)}
        out += [name, "  perfbench", ""]
        out.append(f"{len(g.vertices):3d}{len(g.edges):3d}  0  0  0  0  0  0  0  0999 V2000")
        for v in g.vertices:
            out.append(f"    0.0000    0.0000    0.0000 {v.element.symbol:<3} 0  0")
        for e in g.edges:
            out.append(f"{index[e.u]:3d}{index[e.v]:3d}{e.mult:3d}  0")
        charged = [(index[v.id], v.charge) for v in g.vertices if v.charge]
        if charged:
            out.append(f"M  CHG{len(charged):3d}"
                       + "".join(f"{a:4d}{c:4d}" for a, c in charged))
        out += ["M  END", "$$$$"]
    return "\n".join(out) + "\n"


def read_features(text: str) -> tuple[list[str], list[str], np.ndarray]:
    """Parse a feature CSV: (ids, descriptor names, matrix)."""
    lines = [ln for ln in text.splitlines() if ln]
    names = lines[0].split(",")[1:]
    ids, rows = [], []
    for ln in lines[1:]:
        cells = ln.split(",")
        ids.append(cells[0])
        rows.append([float(c) for c in cells[1:]])
    return ids, names, np.asarray(rows, dtype=float).reshape(len(ids), len(names))


def uniform_predictor_doc(names: list[str], x: np.ndarray, weight: float,
                          space_hash: str) -> dict:
    """Predictor JSON with one weight on every descriptor, min-max
    normalized over the dataset rows x."""
    return {
        "lambda": 0.01,
        "bias": BIAS,
        "weights": [weight] * len(names),
        "descriptor_names": names,
        "min": [float(v) for v in x.min(axis=0)],
        "max": [float(v) for v in x.max(axis=0)],
        "target_min": TARGET_RANGE[0],
        "target_max": TARGET_RANGE[1],
        "space_hash": space_hash,
    }


def predict_std(doc: dict, raw) -> float:
    """Standardized prediction from a predictor JSON, computed in numpy."""
    raw = np.asarray(raw, dtype=float)
    lo = np.asarray(doc["min"], dtype=float)
    hi = np.asarray(doc["max"], dtype=float)
    span = np.where(hi > lo, hi - lo, 1.0)
    xhat = np.where(hi > lo, (raw - lo) / span, 0.0)
    return float(np.asarray(doc["weights"]) @ xhat + doc["bias"])


def to_original(doc: dict, y_std: float) -> float:
    return doc["target_min"] + y_std * (doc["target_max"] - doc["target_min"])


# -- inverse-design problems ----------------------------------------------


def fringe_menu(dataset: list[ChemicalGraph]) -> list[dict]:
    """All fringe trees of a dataset as spec entries psi1, psi2, ..."""
    trees = {}
    for g in dataset:
        for t in decompose(g, RHO).fringe_trees.values():
            trees.setdefault(t.canonical_code, t)
    return [dict(tree_to_json(t), id=f"psi{i + 1}")
            for i, (_, t) in enumerate(sorted(trees.items()))]


def _seed(vertices, edges):
    return {
        "vertices": vertices,
        "edges": [{"tail": t, "head": h, "len_lb": lo, "len_ub": hi}
                  for t, h, lo, hi in edges],
    }


def _spec(dataset, n_lb, n_star, n_int, seed, lambda_int, lambda_ex):
    return {
        "version": 1, "rho": RHO, "n_lb": n_lb, "n_star": n_star,
        "n_int_lb": n_int[0], "n_int_ub": n_int[1], "seed": seed,
        "lambda_int": lambda_int, "lambda_ex": lambda_ex,
        "fringe_trees": fringe_menu(dataset),
    }


def _carbons(ids):
    return [{"id": i, "elements": ["C"]} for i in ids]


def _triangle():
    dataset = [ring(3), ring(5), ring(6)]
    seed = _seed(_carbons((1, 2, 3)), [(1, 2, 1, 1), (1, 3, 1, 1), (2, 3, 1, 1)])
    return dataset, _spec(dataset, 3, 8, (2, 3), seed, ["C"], ["H"]), ring(3)


def _square_chord():
    chorded = build_graph(
        [(i, "C") for i in range(1, 5)],
        [(1, 2, 1), (2, 3, 1), (3, 4, 1), (1, 4, 1), (1, 3, 1)],
        add_hydrogens=True,
    )
    dataset = [ring(4), ring(5), ring(6), ring(3), chorded]
    seed = _seed(_carbons((1, 2, 3, 4)), [
        (1, 2, 1, 1), (2, 3, 1, 1), (3, 4, 1, 1), (1, 4, 1, 1), (1, 3, 0, 1)])
    return dataset, _spec(dataset, 3, 8, (2, 4), seed, ["C"], ["H"]), ring(4)


def _expanded_path():
    target = ring(4, pendant=3)
    dataset = [ring(6), ring(5), ring(5, pendant=1), ring(6, pendant=3),
               ring(6, pendant=2), ring(4), target]
    vertices = _carbons((1, 2, 3))
    vertices[0]["leaf_path"] = True
    seed = _seed(vertices, [(1, 2, 2, 3), (1, 3, 1, 1), (2, 3, 1, 1)])
    return dataset, _spec(dataset, 4, 12, (3, 7), seed, ["C"], ["C", "H"]), target


def _hetero():
    def azacycle(n):
        atoms = [(i, "N" if i == 1 else "C") for i in range(1, n + 1)]
        return build_graph(atoms, [(i, i % n + 1, 1) for i in range(1, n + 1)],
                           add_hydrogens=True)

    def carbonyl_ring(n):
        atoms = [(i, "C") for i in range(1, n + 1)] + [(n + 1, "O")]
        bonds = [(i, i % n + 1, 1) for i in range(1, n + 1)] + [(1, n + 1, 2)]
        return build_graph(atoms, bonds, add_hydrogens=True)

    target = azacycle(5)
    dataset = [ring(5), ring(6), azacycle(5), azacycle(6), carbonyl_ring(5),
               carbonyl_ring(6), ring(5, pendant=1)]
    vertices = [{"id": 1, "elements": ["C", "N"]}] + _carbons((2, 3))
    seed = _seed(vertices, [(1, 2, 1, 2), (1, 3, 1, 2), (2, 3, 1, 2)])
    spec = _spec(dataset, 4, 10, (4, 6), seed, ["C", "N"], ["C", "H", "O"])
    return dataset, spec, target


def _two_rings():
    def two_triangles(bridge):
        shift = 3 + bridge - 1
        bonds = [(1, 2, 1), (2, 3, 1), (1, 3, 1), (shift + 1, shift + 2, 1),
                 (shift + 2, shift + 3, 1), (shift + 1, shift + 3, 1)]
        prev = 3
        for j in range(bridge - 1):
            bonds.append((prev, 4 + j, 1))
            prev = 4 + j
        bonds.append((prev, shift + 1, 1))
        return build_graph([(i, "C") for i in range(1, 7 + bridge - 1)], bonds,
                           add_hydrogens=True)

    target = two_triangles(2)
    dataset = [two_triangles(1), two_triangles(2), two_triangles(3),
               ring(3), ring(6), ring(3, pendant=1)]
    seed = _seed(_carbons(range(1, 7)), [
        (1, 2, 1, 1), (2, 3, 1, 1), (1, 3, 1, 1), (4, 5, 1, 1),
        (5, 6, 1, 1), (4, 6, 1, 1), (3, 4, 1, 3)])
    return dataset, _spec(dataset, 6, 12, (6, 8), seed, ["C"], ["C", "H"]), target


FIXTURES = {
    "triangle": _triangle,
    "square_chord": _square_chord,
    "expanded_path": _expanded_path,
    "hetero": _hetero,
    "two_rings": _two_rings,
}


def stress_problems(rng: np.random.Generator, count: int, max_heavy: int):
    """Random molecule families with a specification derived from one
    member, as (dataset, spec document, target) triples."""
    out = []
    while len(out) < count:
        family = [random_molecule(rng, max_heavy) for _ in range(5)]
        target = next(
            (g for g in family if len(decompose(g, RHO).interior_vertices) >= 2),
            None,
        )
        if target is None:
            continue
        trees = [t for g in family for t in decompose(g, RHO).fringe_trees.values()]
        out.append((family, spec_from_graph(target, rho=RHO, fringe_trees=trees), target))
    return out


def write_json(path, doc) -> None:
    path.write_text(json.dumps(doc, indent=2, sort_keys=True))
