"""Descriptor universe and feature vectors of chemical graphs.

A DescriptorSpace fixes the indexed catalogs (interior elements, exterior
elements, interior edge configurations, fringe-tree shapes, leaf-edge
adjacency configurations) observed in a dataset; featurize maps a graph to
its K-dimensional count vector over that universe.  build_space and
featurize both read a GraphCensus, which counts a graph once from a single
decomposition.  The layout is

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
from collections import Counter
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property
from operator import itemgetter

from .decompose import (
    RootedFringeTree,
    TwoLayeredDecomposition,
    TREE,
    decompose,
)
from .elements import ElementSpec
from .schema import (
    ELEMENT, INTEGER, STRING, Field, InputError, Kind, Reader, Table, integer, list_of)
from .graph import ChemicalGraph, rank

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


@dataclass(frozen=True)
class GraphCensus:
    """Everything the descriptors count on one graph, taken from a single
    decomposition: build_space collects its keys and examples, featurize
    indexes it and the specification checker reads its tallies and its
    decomposition."""

    rho: int
    scalars: tuple[int | Fraction, ...]  # descriptors 1..14 in layout order
    # (interior?, element) -> vertex count, keys in order of first vertex
    elements: Counter[tuple[bool, ElementSpec]]
    edge_configs: Counter[EdgeConfiguration]
    fringe: Counter[bytes]  # canonical code -> tree count, codes in root order
    examples: dict[bytes, RootedFringeTree]  # code -> its tree of least root
    leaf_edges: Counter[AdjacencyConfiguration]
    # holds the graph; None in the counts a dataset keeps of each record
    decomposition: TwoLayeredDecomposition | None

    def counts(self) -> "GraphCensus":
        """This census without its decomposition, so that the graph and its
        other fringe trees can go: what featurize keeps of each record."""
        return replace(self, decomposition=None)


def take_census(g: ChemicalGraph, rho: int) -> GraphCensus:
    """Count g from one decomposition with branch parameter rho; raises
    OutOfSpaceError for a heavy vertex of suppressed degree above 4, which
    no space can index."""
    decomp = decompose(g, rho)
    view = g.suppressed
    interior = decomp.interior_vertices

    scalars: list[int | Fraction] = [0] * N_SCALAR_DESCRIPTORS
    scalars[0] = g.n_heavy()
    scalars[1] = rank(g)
    scalars[2] = len(interior)
    mass_total = sum(v.element.mass_star for v in g.vertices)
    scalars[3] = Fraction(mass_total, g.n_atoms())
    for vid in view.vertex_ids:
        d = view.degree(vid)
        if d > 4:
            raise OutOfSpaceError(f"vertex {vid} has suppressed degree {d} > 4")
        if d:
            scalars[3 + d] += 1
    for nbrs in decomp.interior_adjacency.values():
        if 1 <= len(nbrs) <= 4:
            scalars[7 + len(nbrs)] += 1
    for e in decomp.interior_edges:
        if e.mult in (2, 3):
            scalars[10 + e.mult] += 1

    elements = Counter((v.id in interior, v.element) for v in g.vertices)
    symbol = {v: ChemicalSymbol(g.element(v), view.degree(v)) for v in interior}
    edge_configs = Counter(
        EdgeConfiguration.make(symbol[e.u], symbol[e.v], e.mult)
        for e in decomp.interior_edges
    )
    fringe: Counter[bytes] = Counter()
    examples: dict[bytes, RootedFringeTree] = {}
    for t in decomp.fringe_trees.values():
        fringe[t.canonical_code] += 1
        examples.setdefault(t.canonical_code, t)

    # leaf edges of the suppressed graph, leaf endpoint first; an edge
    # whose two endpoints both have degree 1 is oriented by element order
    leaf_edges: Counter[AdjacencyConfiguration] = Counter()
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
        leaf_edges[AdjacencyConfiguration(a, b, e.mult)] += 1

    return GraphCensus(rho, tuple(scalars), elements, edge_configs, fringe,
                       examples, leaf_edges, decomp)


def space_from_censuses(censuses: list[GraphCensus]) -> DescriptorSpace:
    """The catalogs occurring across the censuses, in sorted order; the
    first tree seen with each fringe code is kept as its example."""
    if not censuses:
        raise ValueError("cannot build a descriptor space from an empty dataset")
    lam_int: set[ElementSpec] = set()
    lam_ex: set[ElementSpec] = set()
    gammas: set[EdgeConfiguration] = set()
    acs: set[AdjacencyConfiguration] = set()
    trees: dict[bytes, RootedFringeTree] = {}
    for c in censuses:
        for is_interior, elem in c.elements:
            (lam_int if is_interior else lam_ex).add(elem)
        gammas.update(c.edge_configs)
        acs.update(c.leaf_edges)
        for code, tree in c.examples.items():
            trees.setdefault(code, tree)
    codes = tuple(sorted(trees))
    return DescriptorSpace(
        rho=censuses[0].rho,
        lambda_int=tuple(sorted(lam_int)),
        lambda_ex=tuple(sorted(lam_ex)),
        gamma_int=tuple(sorted(gammas)),
        fringe_codes=codes,
        ac_lf=tuple(sorted(acs)),
        fringe_examples=tuple(trees[c] for c in codes),
    )


def census_vector(census: GraphCensus, space: DescriptorSpace) -> FeatureVector:
    """The census as a count vector over the space; raises OutOfSpaceError
    when it holds an element, configuration or fringe shape missing from
    the catalogs."""
    values: list[int | Fraction] = [0] * space.k
    values[:N_SCALAR_DESCRIPTORS] = census.scalars
    off = space.offsets
    for (is_interior, elem), n in census.elements.items():
        if is_interior:
            role, block, index = "interior", "na_int", space.lambda_int_index
        else:
            role, block, index = "exterior", "na_ex", space.lambda_ex_index
        idx = index.get(elem)
        if idx is None:
            raise OutOfSpaceError(f"{role} element {elem.token} not in the space")
        values[off[block] + idx] += n

    for gcf, n in census.edge_configs.items():
        idx = space.gamma_index.get(gcf)
        if idx is None:
            raise OutOfSpaceError(f"edge configuration {gcf.label} not in the space")
        values[off["ec"] + idx] += n

    for code, n in census.fringe.items():
        idx = space.fringe_index.get(code)
        if idx is None:
            raise OutOfSpaceError(
                f"fringe tree at vertex {census.examples[code].root} not in the space"
            )
        values[off["fc"] + idx] += n

    for ac, n in census.leaf_edges.items():
        idx = space.ac_index.get(ac)
        if idx is None:
            raise OutOfSpaceError(f"leaf-edge configuration {ac.label} not in space")
        values[off["ac"] + idx] += n

    return FeatureVector(tuple(values))


def build_space(dataset: list[ChemicalGraph], rho: int) -> DescriptorSpace:
    """Collect the catalogs occurring across the dataset, in sorted order."""
    return space_from_censuses([take_census(g, rho) for g in dataset])


def featurize(g: ChemicalGraph, space: DescriptorSpace) -> FeatureVector:
    """Count vector of g over the space; raises OutOfSpaceError when g uses
    an element, configuration or fringe shape missing from the catalogs."""
    return census_vector(take_census(g, space.rho), space)


def _format_value(v: int | Fraction) -> str:
    if isinstance(v, Fraction) and v.denominator != 1:
        return repr(float(v))
    return str(int(v))


def write_feature_csv(
    ids: list[str], vectors: list[FeatureVector], space: DescriptorSpace
) -> str:
    """CSV text with a header of descriptor names and one row per graph.
    Every value is written as _format_value writes it.  Only the mass
    average (index 3) of a census vector is rational, so a row whose other
    values sum to an int (all are ints) formats that value alone and hands
    the ints to the csv writer, which writes each with str."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["id", *space.descriptor_names])

    def row(gid: str, v: tuple) -> list:
        if type(sum(v[:3]) + sum(v[4:])) is int:
            return [gid, *v[:3], _format_value(v[3]), *v[4:]]
        return [gid, *map(_format_value, v)]

    writer.writerows(row(gid, fv.values) for gid, fv in zip(ids, vectors))
    return buf.getvalue()


def read_feature_csv(text: str) -> tuple[list[str], list[str], list[list[float]]]:
    """Returns (ids, descriptor names, rows of floats); a text that is not
    such a table raises InputError."""
    reader = csv.reader(io.StringIO(text))
    header = next(reader, None)
    if not header or header[0] != "id":
        raise InputError("feature CSV must start with an 'id' column")
    names = header[1:]
    ids, rows = [], []
    for line, rec in enumerate(reader, start=2):
        if not rec:
            continue
        if len(rec) != len(header):
            raise InputError(
                f"feature CSV line {line} has {len(rec)} fields, not {len(header)}")
        try:
            rows.append([float(x) for x in rec[1:]])
        except ValueError as exc:
            raise InputError(f"feature CSV line {line}: {exc}") from exc
        ids.append(rec[0])
    return ids, names, rows


def space_to_json_text(space: DescriptorSpace) -> str:
    """The space.json text of space_to_json(space): one top-level key per
    line and one catalog entry per line, each entry written by the C JSON
    encoder.  Read it as JSON, not by lines."""
    doc = space_to_json(space)
    items = []
    for key in sorted(doc):
        value = doc[key]
        if isinstance(value, list) and value:
            entries = ",\n".join(
                "    " + json.dumps(entry, sort_keys=True) for entry in value)
            items.append(f"  {json.dumps(key)}: [\n{entries}\n  ]")
        else:
            items.append(f"  {json.dumps(key)}: {json.dumps(value)}")
    return "{\n" + ",\n".join(items) + "\n}\n"


def _symbol(r: Reader, v, path) -> ChemicalSymbol:
    token, degree = _PAIR.read(r, v, path)
    return r.make(path, ChemicalSymbol, ELEMENT.read(r, token, (path, 0)),
                  INTEGER.read(r, degree, (path, 1)))


def _coded_tree(r: Reader, path, d: dict) -> tuple[bytes, RootedFringeTree]:
    code = d["code"].encode()
    if d["tree"].canonical_code != code:
        r.fail((path, "code"), "does not match its tree")
    return code, d["tree"]


def _catalog(entry: Kind, key=lambda x: x) -> Kind:
    """A catalog: a list in which no entry repeats."""
    return list_of(entry, key=key)


_PAIR = list_of(Kind(lambda r, v, path: v), 2)
_SYMBOL = Kind(_symbol, lambda s: [s.element.token, s.degree])
SPACE = Table(
    Field("rho", integer(1)),
    Field("lambda_int", _catalog(ELEMENT)),
    Field("lambda_ex", _catalog(ELEMENT)),
    Field("gamma_int", _catalog(Table(
        Field("mu", _SYMBOL),
        Field("mu_prime", _SYMBOL),
        Field("mult", integer(1, 3)),
        make=lambda r, path, d: EdgeConfiguration(d["mu"], d["mu_prime"], d["mult"]),
    ))),
    Field("fringe_trees", _catalog(Table(
        Field("code", STRING, attr=lambda pair: pair[0].decode()),
        Field("tree", TREE, attr=itemgetter(1)),
        make=_coded_tree,
    ), key=itemgetter(0)),  # a tree repeats when its canonical code does
        attr=lambda space: zip(space.fringe_codes, space.fringe_examples)),
    Field("ac_lf", _catalog(Table(
        Field("a", ELEMENT),
        Field("b", ELEMENT),
        Field("mult", integer(1, 3)),
        make=lambda r, path, d: r.make(
            path, AdjacencyConfiguration, d["a"], d["b"], d["mult"]),
    ))),
)


def space_to_json(space: DescriptorSpace) -> dict:
    return SPACE.write(space)


def space_from_json(doc: dict) -> DescriptorSpace:
    """Inverse of space_to_json; a fault raises InputError."""
    d = SPACE.read(Reader("descriptor space", InputError), doc)
    trees = d.pop("fringe_trees")
    return DescriptorSpace(**d, fringe_codes=tuple(code for code, _ in trees),
                           fringe_examples=tuple(t for _, t in trees))


def space_hash(space: DescriptorSpace) -> str:
    text = json.dumps(space_to_json(space), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()
