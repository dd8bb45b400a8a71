"""Descriptor universe and feature vectors of chemical graphs.

A DescriptorSpace fixes the indexed catalogs (interior elements, exterior
elements, interior edge configurations, fringe-tree shapes, leaf-edge
adjacency configurations) observed in a dataset; featurize maps a graph to
its K-dimensional count vector over that universe.  The layout is

    1..4    scalars: heavy-atom count, cycle rank, interior size,
            average mass surrogate over all atoms (exact rational)
    5..8    heavy vertices by suppressed degree 1..4
    9..12   interior vertices by interior degree 1..4
    13..14  interior edges of multiplicity 2 and 3
    then the five catalog blocks, each in its fixed sorted order.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .decompose import (
    RootedFringeTree,
    TwoLayeredDecomposition,
    decompose,
    tree_from_json,
    tree_to_json,
)
from .elements import ElementSpec, parse_element
from .graph import ChemicalGraph, rank, suppress_hydrogens

N_SCALAR_DESCRIPTORS = 14


class OutOfSpaceError(ValueError):
    """A graph uses a catalog value the space was not built with."""


@dataclass(frozen=True, order=True)
class ChemicalSymbol:
    """Element plus hydrogen-suppressed degree of an interior vertex."""

    element: ElementSpec
    degree: int

    def __post_init__(self) -> None:
        if not 1 <= self.degree <= 4:
            raise ValueError(f"chemical-symbol degree {self.degree} outside [1,4]")
        if self.element.is_hydrogen:
            raise ValueError("chemical symbols are defined for heavy atoms only")

    @property
    def label(self) -> str:
        return f"{self.element.token}{self.degree}"


@dataclass(frozen=True, order=True)
class EdgeConfiguration:
    """Unordered pair of chemical symbols plus bond multiplicity."""

    mu: ChemicalSymbol
    mu_prime: ChemicalSymbol
    mult: int

    @staticmethod
    def make(a: ChemicalSymbol, b: ChemicalSymbol, mult: int) -> "EdgeConfiguration":
        if b < a:
            a, b = b, a
        return EdgeConfiguration(a, b, mult)

    @property
    def label(self) -> str:
        return f"{self.mu.label}_{self.mu_prime.label}_{self.mult}"


@dataclass(frozen=True, order=True)
class AdjacencyConfiguration:
    """Leaf-edge configuration: (leaf element, neighbour element, mult)."""

    a: ElementSpec
    b: ElementSpec
    mult: int

    def __post_init__(self) -> None:
        if self.mult > min(self.a.valence, self.b.valence):
            raise ValueError(
                f"multiplicity {self.mult} exceeds min valence of "
                f"({self.a.token},{self.b.token})"
            )

    @property
    def label(self) -> str:
        return f"{self.a.token}_{self.b.token}_{self.mult}"


def leaf_edge_configurations(g: ChemicalGraph) -> dict[AdjacencyConfiguration, int]:
    """Count leaf edges of the suppressed graph.  The leaf endpoint comes
    first; an edge whose two endpoints both have degree 1 is counted once,
    oriented by element order."""
    view = suppress_hydrogens(g)
    counts: dict[AdjacencyConfiguration, int] = {}
    for e in view.edges:
        du, dv = view.degree(e.u), view.degree(e.v)
        if du != 1 and dv != 1:
            continue
        eu, ev = g.element(e.u), g.element(e.v)
        if du == 1 and dv == 1:
            a, b = sorted((eu, ev), key=lambda x: x.sort_key())
        elif du == 1:
            a, b = eu, ev
        else:
            a, b = ev, eu
        key = AdjacencyConfiguration(a, b, e.mult)
        counts[key] = counts.get(key, 0) + 1
    return counts


def interior_edge_configurations(
    g: ChemicalGraph, decomp: TwoLayeredDecomposition
) -> dict[EdgeConfiguration, int]:
    view = suppress_hydrogens(g)
    counts: dict[EdgeConfiguration, int] = {}
    for e in decomp.interior_edges:
        mu = ChemicalSymbol(g.element(e.u), view.degree(e.u))
        mu_p = ChemicalSymbol(g.element(e.v), view.degree(e.v))
        key = EdgeConfiguration.make(mu, mu_p, e.mult)
        counts[key] = counts.get(key, 0) + 1
    return counts


@dataclass(frozen=True)
class DescriptorSpace:
    rho: int
    lambda_int: tuple[ElementSpec, ...]
    lambda_ex: tuple[ElementSpec, ...]
    gamma_int: tuple[EdgeConfiguration, ...]
    fringe_codes: tuple[bytes, ...]
    ac_lf: tuple[AdjacencyConfiguration, ...]
    fringe_examples: tuple[RootedFringeTree, ...]

    @property
    def k(self) -> int:
        return (
            N_SCALAR_DESCRIPTORS
            + len(self.lambda_int)
            + len(self.lambda_ex)
            + len(self.gamma_int)
            + len(self.fringe_codes)
            + len(self.ac_lf)
        )

    @cached_property
    def offsets(self) -> dict[str, int]:
        """0-based start index of each catalog block."""
        o_int = N_SCALAR_DESCRIPTORS
        o_ex = o_int + len(self.lambda_int)
        o_ec = o_ex + len(self.lambda_ex)
        o_fc = o_ec + len(self.gamma_int)
        o_ac = o_fc + len(self.fringe_codes)
        return {
            "na_int": o_int,
            "na_ex": o_ex,
            "ec": o_ec,
            "fc": o_fc,
            "ac": o_ac,
        }

    @cached_property
    def lambda_int_index(self) -> dict[ElementSpec, int]:
        return {e: i for i, e in enumerate(self.lambda_int)}

    @cached_property
    def lambda_ex_index(self) -> dict[ElementSpec, int]:
        return {e: i for i, e in enumerate(self.lambda_ex)}

    @cached_property
    def gamma_index(self) -> dict[EdgeConfiguration, int]:
        return {gcf: i for i, gcf in enumerate(self.gamma_int)}

    @cached_property
    def fringe_index(self) -> dict[bytes, int]:
        return {c: i for i, c in enumerate(self.fringe_codes)}

    @cached_property
    def ac_index(self) -> dict[AdjacencyConfiguration, int]:
        return {a: i for i, a in enumerate(self.ac_lf)}

    @cached_property
    def descriptor_names(self) -> tuple[str, ...]:
        names = [
            "n_heavy",
            "rank",
            "n_interior",
            "mass_avg",
            "deg1",
            "deg2",
            "deg3",
            "deg4",
            "deg_int1",
            "deg_int2",
            "deg_int3",
            "deg_int4",
            "bonds2_int",
            "bonds3_int",
        ]
        names += [f"na_int_{e.token}" for e in self.lambda_int]
        names += [f"na_ex_{e.token}" for e in self.lambda_ex]
        names += [f"ec_{gcf.label}" for gcf in self.gamma_int]
        names += [f"fc_{i + 1}" for i in range(len(self.fringe_codes))]
        names += [f"ac_{a.label}" for a in self.ac_lf]
        return tuple(names)


@dataclass(frozen=True)
class FeatureVector:
    """K descriptor values; integers except the average-mass coordinate."""

    values: tuple[int | Fraction, ...]

    def __len__(self) -> int:
        return len(self.values)

    def as_floats(self) -> list[float]:
        return [float(v) for v in self.values]

    def __getitem__(self, i: int):
        return self.values[i]


def build_space(dataset: list[ChemicalGraph], rho: int) -> DescriptorSpace:
    """Collect the catalogs occurring across the dataset, in sorted order."""
    if not dataset:
        raise ValueError("cannot build a descriptor space from an empty dataset")
    if rho < 1:
        raise ValueError("rho must be at least 1")
    lam_int: set[ElementSpec] = set()
    lam_ex: set[ElementSpec] = set()
    gammas: set[EdgeConfiguration] = set()
    acs: set[AdjacencyConfiguration] = set()
    trees: dict[bytes, RootedFringeTree] = {}
    for g in dataset:
        decomp = decompose(g, rho)
        interior = decomp.interior_vertices
        for v in g.vertices:
            if v.id in interior:
                lam_int.add(v.element)
            else:
                lam_ex.add(v.element)
        gammas.update(interior_edge_configurations(g, decomp))
        acs.update(leaf_edge_configurations(g))
        for t in decomp.fringe_trees.values():
            trees.setdefault(t.canonical_code, t)
    codes = tuple(sorted(trees))
    return DescriptorSpace(
        rho=rho,
        lambda_int=tuple(sorted(lam_int)),
        lambda_ex=tuple(sorted(lam_ex)),
        gamma_int=tuple(sorted(gammas)),
        fringe_codes=codes,
        ac_lf=tuple(sorted(acs)),
        fringe_examples=tuple(trees[c] for c in codes),
    )


def featurize(g: ChemicalGraph, space: DescriptorSpace) -> FeatureVector:
    """Count vector of g over the space; raises OutOfSpaceError when g uses
    an element, configuration or fringe shape missing from the catalogs."""
    decomp = decompose(g, space.rho)
    view = suppress_hydrogens(g)
    interior = decomp.interior_vertices

    values: list[int | Fraction] = [0] * space.k
    values[0] = g.n_heavy()
    values[1] = rank(g)
    values[2] = len(interior)
    mass_total = sum(v.element.mass_star for v in g.vertices)
    values[3] = Fraction(mass_total, g.n_atoms())

    for vid in view.vertex_ids:
        d = view.degree(vid)
        if 1 <= d <= 4:
            values[3 + d] += 1
        elif d > 4:
            raise OutOfSpaceError(f"vertex {vid} has suppressed degree {d} > 4")

    int_deg = {v: 0 for v in interior}
    for e in decomp.interior_edges:
        int_deg[e.u] += 1
        int_deg[e.v] += 1
    for v, d in int_deg.items():
        if 1 <= d <= 4:
            values[7 + d] += 1

    for e in decomp.interior_edges:
        if e.mult in (2, 3):
            values[10 + e.mult] += 1

    off = space.offsets
    for v in g.vertices:
        if v.id in interior:
            idx = space.lambda_int_index.get(v.element)
            if idx is None:
                raise OutOfSpaceError(
                    f"interior element {v.element.token} not in the space"
                )
            values[off["na_int"] + idx] += 1
        else:
            idx = space.lambda_ex_index.get(v.element)
            if idx is None:
                raise OutOfSpaceError(
                    f"exterior element {v.element.token} not in the space"
                )
            values[off["na_ex"] + idx] += 1

    for gcf, n in interior_edge_configurations(g, decomp).items():
        idx = space.gamma_index.get(gcf)
        if idx is None:
            raise OutOfSpaceError(f"edge configuration {gcf.label} not in the space")
        values[off["ec"] + idx] += n

    for t in decomp.fringe_trees.values():
        idx = space.fringe_index.get(t.canonical_code)
        if idx is None:
            raise OutOfSpaceError(
                f"fringe tree at vertex {t.root} not in the space"
            )
        values[off["fc"] + idx] += 1

    for ac, n in leaf_edge_configurations(g).items():
        idx = space.ac_index.get(ac)
        if idx is None:
            raise OutOfSpaceError(f"leaf-edge configuration {ac.label} not in space")
        values[off["ac"] + idx] += n

    return FeatureVector(tuple(values))


def _format_value(v: int | Fraction) -> str:
    if isinstance(v, Fraction) and v.denominator != 1:
        return repr(float(v))
    return str(int(v))


def write_feature_csv(
    ids: list[str], vectors: list[FeatureVector], space: DescriptorSpace
) -> str:
    """CSV text with a header of descriptor names and one row per graph."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["id", *space.descriptor_names])
    for gid, fv in zip(ids, vectors):
        writer.writerow([gid, *(_format_value(v) for v in fv.values)])
    return buf.getvalue()


def read_feature_csv(text: str) -> tuple[list[str], list[str], list[list[float]]]:
    """Returns (ids, descriptor names, rows of floats)."""
    reader = csv.reader(io.StringIO(text))
    header = next(reader)
    if not header or header[0] != "id":
        raise ValueError("feature CSV must start with an 'id' column")
    names = header[1:]
    ids, rows = [], []
    for rec in reader:
        if not rec:
            continue
        ids.append(rec[0])
        rows.append([float(x) for x in rec[1:]])
    return ids, names, rows


def space_to_json(space: DescriptorSpace) -> dict:
    return {
        "rho": space.rho,
        "lambda_int": [e.token for e in space.lambda_int],
        "lambda_ex": [e.token for e in space.lambda_ex],
        "gamma_int": [
            {
                "mu": [g.mu.element.token, g.mu.degree],
                "mu_prime": [g.mu_prime.element.token, g.mu_prime.degree],
                "mult": g.mult,
            }
            for g in space.gamma_int
        ],
        "fringe_trees": [
            {"code": code.decode(), "tree": tree_to_json(t)}
            for code, t in zip(space.fringe_codes, space.fringe_examples)
        ],
        "ac_lf": [
            {"a": a.a.token, "b": a.b.token, "mult": a.mult} for a in space.ac_lf
        ],
    }


def space_from_json(doc: dict) -> DescriptorSpace:
    try:
        gammas = tuple(
            EdgeConfiguration(
                ChemicalSymbol(parse_element(g["mu"][0]), int(g["mu"][1])),
                ChemicalSymbol(parse_element(g["mu_prime"][0]), int(g["mu_prime"][1])),
                int(g["mult"]),
            )
            for g in doc["gamma_int"]
        )
        trees = tuple(tree_from_json(rec["tree"]) for rec in doc["fringe_trees"])
        codes = tuple(rec["code"].encode() for rec in doc["fringe_trees"])
        for code, t in zip(codes, trees):
            if t.canonical_code != code:
                raise ValueError("fringe tree does not match its recorded code")
        return DescriptorSpace(
            rho=int(doc["rho"]),
            lambda_int=tuple(parse_element(t) for t in doc["lambda_int"]),
            lambda_ex=tuple(parse_element(t) for t in doc["lambda_ex"]),
            gamma_int=gammas,
            fringe_codes=codes,
            ac_lf=tuple(
                AdjacencyConfiguration(
                    parse_element(a["a"]), parse_element(a["b"]), int(a["mult"])
                )
                for a in doc["ac_lf"]
            ),
            fringe_examples=trees,
        )
    except KeyError as exc:
        raise ValueError(
            f"descriptor space is missing key {exc.args[0]!r}") from exc


def space_hash(space: DescriptorSpace) -> str:
    text = json.dumps(space_to_json(space), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()
