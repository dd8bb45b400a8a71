"""Descriptor universe and feature vectors of chemical graphs.

A DescriptorSpace fixes the indexed catalogs (interior elements, exterior
elements, interior edge configurations, fringe-tree shapes, leaf-edge
adjacency configurations) observed in a dataset; featurize maps a graph to
its K-dimensional count vector over that universe.  build_space and
featurize both read a GraphCensus, which counts a graph once from a single
decomposition.  The layout of that vector is the descriptor table, SCALARS
then CATALOGS: the model's x_1..x_K, the feature columns and the census
entries all follow it.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import re
from collections import Counter
from collections.abc import Callable, Iterator
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property, lru_cache
from operator import attrgetter

import numpy as np

from .decompose import TwoLayeredDecomposition, decompose
from .elements import BY_TOKEN, ElementSpec
from .schema import (
    ELEMENT, INTEGER, STRING, Field, InputError, Kind, Reader, Table, integer, list_of)
from .graph import ChemicalGraph, rank


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
        # ChemicalGraph.validate's hydrogen rule; the valence of the two
        # ends depends on their charges, which validate alone judges
        if self.mult != 1 and (self.a.is_hydrogen or self.b.is_hydrogen):
            raise ValueError(f"a hydrogen bond of multiplicity {self.mult}")

    @property
    def label(self) -> str:
        return f"{self.a.token}_{self.b.token}_{self.mult}"


@dataclass(frozen=True)
class Scalar:
    """A scalar descriptor: its column name and, where the model has one,
    the tally variable x_j equals and the row that ties the two."""

    name: str
    tally: str | None = None
    row: str | None = None
    rational: bool = False  # an exact rational, not a count


@dataclass(frozen=True)
class Catalog:
    """A catalog block: the space's catalog `attr`, counted by the census
    counter `counter`, gives the columns `<prefix>_<label>` (numbered
    `<prefix>_1`, ... when `numbered`); a counted key missing from the
    catalog is `<what> <label> not in the space`."""

    prefix: str
    attr: str
    counter: str
    what: str
    label: Callable[[object], str]
    numbered: bool = False


# the descriptor table: x_1..x_K are the scalars, then each catalog block
# in its fixed sorted order
SCALARS = (
    Scalar("n_heavy", "nG", "dl_x_1"),
    Scalar("rank", "rank", "dl_x_2"),
    Scalar("n_interior", "nintG", "dl_x_3"),
    # the average mass surrogate over all atoms
    Scalar("mass_avg", "msbar", "dl_x_4", rational=True),
    # heavy vertices by suppressed degree, summed over the model's slots
    *(Scalar(f"deg{d}") for d in range(1, 5)),
    # interior vertices by interior degree
    *(Scalar(f"deg_int{d}", f"dgint_{d}", f"dl_x_degint_{d}") for d in range(1, 5)),
    # interior edges by multiplicity
    *(Scalar(f"bonds{m}_int", f"bdint_{m}", f"dl_x_bd{m}") for m in (2, 3)),
)
_token = attrgetter("token")
_label = attrgetter("label")
CATALOGS = (
    Catalog("na_int", "lambda_int", "interior_elements", "interior element", _token),
    Catalog("na_ex", "lambda_ex", "exterior_elements", "exterior element", _token),
    Catalog("ec", "gamma_int", "edge_configs", "edge configuration", _label),
    Catalog("fc", "fringe_codes", "fringe", "fringe tree", bytes.decode, numbered=True),
    Catalog("ac", "ac_lf", "leaf_edges", "leaf-edge configuration", _label),
)


@dataclass(frozen=True)
class DescriptorSpace:
    rho: int
    lambda_int: tuple[ElementSpec, ...]
    lambda_ex: tuple[ElementSpec, ...]
    gamma_int: tuple[EdgeConfiguration, ...]
    fringe_codes: tuple[bytes, ...]
    ac_lf: tuple[AdjacencyConfiguration, ...]

    @property
    def k(self) -> int:
        return len(self.descriptor_names)

    @cached_property
    def blocks(self) -> tuple[tuple[Catalog, int, dict], ...]:
        """Each catalog with its block's 0-based start and each of its
        entries' 0-based index in the vector."""
        blocks, start = [], len(SCALARS)
        for c in CATALOGS:
            entries = getattr(self, c.attr)
            blocks.append((c, start, {e: start + i for i, e in enumerate(entries)}))
            start += len(entries)
        return tuple(blocks)

    @cached_property
    def descriptor_names(self) -> tuple[str, ...]:
        names = [s.name for s in SCALARS]
        for c in CATALOGS:
            names += [f"{c.prefix}_{i + 1 if c.numbered else c.label(e)}"
                      for i, e in enumerate(getattr(self, c.attr))]
        return tuple(names)


@dataclass(frozen=True)
class FeatureVector:
    """K descriptor values; integers except the average-mass coordinate."""

    values: tuple[int | Fraction, ...]

    def as_floats(self) -> list[float]:
        return [float(v) for v in self.values]


@dataclass(frozen=True)
class GraphCensus:
    """Everything the descriptors count on one graph, taken from a single
    decomposition: build_space collects its keys, featurize
    indexes it and the specification checker reads its tallies and its
    decomposition."""

    rho: int
    scalars: dict[str, int | Fraction]  # by the names of SCALARS
    # element -> vertex count, keys in order of first vertex
    interior_elements: Counter[ElementSpec]
    exterior_elements: Counter[ElementSpec]
    edge_configs: Counter[EdgeConfiguration]
    fringe: Counter[bytes]  # canonical code -> tree count, codes in root order
    leaf_edges: Counter[AdjacencyConfiguration]
    # holds the graph; None in the counts a dataset keeps of each record
    decomposition: TwoLayeredDecomposition | None

    def counts(self) -> "GraphCensus":
        """This census without its decomposition, so that the graph and its
        fringe trees can go: what featurize keeps of each record."""
        return replace(self, decomposition=None)


# a census builds each configuration of its graph from a few shared ones
_chemical_symbol = lru_cache(maxsize=None)(ChemicalSymbol)
_edge_configuration = lru_cache(maxsize=None)(EdgeConfiguration.make)
_adjacency_configuration = lru_cache(maxsize=None)(AdjacencyConfiguration)


def take_census(g: ChemicalGraph, rho: int) -> GraphCensus:
    """Count g from one decomposition with branch parameter rho; raises
    OutOfSpaceError for a heavy vertex of suppressed degree above 4, which
    no space can index."""
    decomp = decompose(g, rho)
    view = g.suppressed
    adjacency = view.adjacency
    interior = decomp.interior_vertices

    degree = {}
    n_degree = [0] * 5  # heavy vertices by suppressed degree
    for vid, nbrs in adjacency.items():
        d = degree[vid] = len(nbrs)
        if d > 4:
            raise OutOfSpaceError(f"vertex {vid} has suppressed degree {d} > 4")
        n_degree[d] += 1
    interior_degree = dict.fromkeys(interior, 0)
    n_mult = [0] * 4  # interior edges by multiplicity
    for u, v, m in decomp.interior_edges:
        interior_degree[u] += 1
        interior_degree[v] += 1
        n_mult[m] += 1
    n_int = [0] * 5  # interior vertices by interior degree
    for d in interior_degree.values():
        n_int[d] += 1
    mass_total = sum(v.element.mass_star for v in g.vertices)
    scalars = {
        "n_heavy": g.n_heavy(), "rank": rank(g), "n_interior": len(interior),
        "mass_avg": Fraction(mass_total, g.n_atoms()),
        "deg1": n_degree[1], "deg2": n_degree[2], "deg3": n_degree[3], "deg4": n_degree[4],
        "deg_int1": n_int[1], "deg_int2": n_int[2], "deg_int3": n_int[3], "deg_int4": n_int[4],
        "bonds2_int": n_mult[2], "bonds3_int": n_mult[3],
    }

    vertex = g.vertex_map
    symbol = {v: _chemical_symbol(vertex[v].element, degree[v]) for v in interior}
    edge_configs = Counter(
        _edge_configuration(symbol[u], symbol[v], m) for u, v, m in decomp.interior_edges
    )
    fringe = Counter(decomp.fringe_codes)

    # leaf edges of the suppressed graph, leaf endpoint first; an edge
    # whose two endpoints both have degree 1 is oriented by element order
    leaf_edges: Counter[AdjacencyConfiguration] = Counter()
    for u, v, m in view.edges:
        du, dv = degree[u], degree[v]
        if du != 1 and dv != 1:
            continue
        a, b = vertex[u].element, vertex[v].element
        if du == dv:
            if (b.symbol, b.valence) < (a.symbol, a.valence):
                a, b = b, a
        elif dv == 1:
            a, b = b, a
        leaf_edges[_adjacency_configuration(a, b, m)] += 1

    return GraphCensus(
        rho, scalars, Counter(v.element for v in g.vertices if v.id in interior),
        Counter(v.element for v in g.vertices if v.id not in interior),
        edge_configs, fringe, leaf_edges, decomp)


def space_from_censuses(censuses: list[GraphCensus]) -> DescriptorSpace:
    """The catalogs occurring across the censuses, in sorted order."""
    if not censuses:
        raise ValueError("cannot build a descriptor space from an empty dataset")
    found = {c: set() for c in CATALOGS}
    for census in censuses:
        for c, keys in found.items():
            keys.update(getattr(census, c.counter))
    return DescriptorSpace(censuses[0].rho, **{
        c.attr: tuple(sorted(keys)) for c, keys in found.items()})


def _census_entries(
    census: GraphCensus, space: DescriptorSpace
) -> Iterator[tuple[int, int | Fraction]]:
    """The (index, value) pairs of the census over the space: its scalars,
    then one pair per counted catalog value, each index at most once;
    raises OutOfSpaceError when it holds an element, configuration or
    fringe shape missing from the catalogs."""
    scalars = census.scalars
    for j, s in enumerate(SCALARS):
        yield j, scalars[s.name]
    for c, _, index in space.blocks:
        for key, n in getattr(census, c.counter).items():
            j = index.get(key)
            if j is None:
                raise OutOfSpaceError(f"{c.what} {c.label(key)} not in the space")
            yield j, n


def census_vector(census: GraphCensus, space: DescriptorSpace) -> FeatureVector:
    """The census as a count vector over the space; raises OutOfSpaceError
    as _census_entries does."""
    values: list[int | Fraction] = [0] * space.k
    for i, v in _census_entries(census, space):
        values[i] = v
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
    ids: list[str], censuses: list[GraphCensus], space: DescriptorSpace
) -> str:
    """CSV text with a header of descriptor names and one row per census:
    its census_vector, each value written as _format_value writes it;
    raises OutOfSpaceError as census_vector does.  A row starts as K "0"
    cells and only the census's entries are written over them.  No value
    needs quoting, so the csv writer writes only the id cell."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["id", *space.descriptor_names])
    lines = [buf.getvalue()]
    zeros = ["0"] * space.k
    for gid, census in zip(ids, censuses):
        row = zeros.copy()
        for i, v in _census_entries(census, space):
            row[i] = str(v) if type(v) is int else _format_value(v)
        buf.seek(0)
        buf.truncate()
        writer.writerow((gid, ""))  # the id cell and a comma, then "\n"
        lines.append(buf.getvalue()[:-1] + ",".join(row) + "\n")
    return "".join(lines)


_SEPARATORS = re.compile("[\x1c-\x1f]")


def _records(reader):
    """The records of a csv reader; a record the csv module cannot split
    (a bare CR, a field over its size limit) raises InputError naming its
    line."""
    try:
        yield from reader
    except csv.Error as exc:
        raise InputError(f"feature CSV line {reader.line_num}: {exc}") from exc


def read_feature_csv(text: str) -> tuple[list[str], list[str], np.ndarray]:
    """Returns (ids, descriptor names, one row of floats per id); a text
    that is not such a table raises InputError.

    np.loadtxt reads the rows when it can: it splits lines and quoted
    fields as the csv module does, and it reads a subset of what float()
    reads (not `1_0` or `١`) to the same floats, except that it strips the
    separators U+001C..U+001F as whitespace, so a text holding one is not
    given to it.  Any text that np.loadtxt rejects goes through the record
    walk, which reads it as before or names its faulty line."""
    reader = csv.reader(io.StringIO(text))
    records = _records(reader)
    header = next(records, None)
    if not header or header[0] != "id":
        raise InputError("feature CSV must start with an 'id' column")
    names = header[1:]
    # the text after the header record's lines
    lines = text.split("\n", reader.line_num)
    rest = lines[-1] if len(lines) > reader.line_num else ""
    if rest.strip("\r\n") and not _SEPARATORS.search(text):
        ids: list[str] = []

        def read_id(cell: str) -> float:
            ids.append(cell)
            return 0.0

        try:
            x = np.loadtxt(io.StringIO(rest), delimiter=",", quotechar='"',
                           comments=None, converters={0: read_id}, ndmin=2)
        except ValueError:
            pass
        else:
            if x.shape == (len(ids), len(header)):
                return ids, names, x[:, 1:]
    ids, rows = [], []
    for rec in records:
        if not rec:
            continue
        if len(rec) != len(header):
            raise InputError(f"feature CSV line {reader.line_num} has {len(rec)} "
                             f"fields, not {len(header)}")
        try:
            rows.append([float(x) for x in rec[1:]])
        except ValueError as exc:
            raise InputError(f"feature CSV line {reader.line_num}: {exc}") from exc
        ids.append(rec[0])
    return ids, names, np.array(rows, dtype=float).reshape(len(rows), len(names))


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


# the lexemes of a fringe-tree code, which tile it: a node's head, after the
# separator from its previous sibling and its bond's multiplicity unless it
# is the first child or the root, with the node's close if it has no
# children; the close of a node; or any other character
_LEXEME = re.compile(r";?(?:[0-9]+:)?\([A-Za-z0-9()]*,[-+0-9]*\[(?:\]\))?|\]\)|.", re.S)
_HEAD = re.compile(r"(;)?(?:([0-9]+):)?\(([A-Za-z0-9()]*),([-+0-9]*)\[(\]\))?")
_CHARGES = {str(c): c for c in range(-3, 4)}
_MULTS = {str(m): m for m in range(1, 4)}


@lru_cache(maxsize=4096)
def _head(text: str) -> tuple | None:
    """For a head lexeme: what the last lexeme must have been (None, the
    start, for the root; False, a head, for a first child; True, a close,
    for a later child), whether it closes its node, and the node's sort key
    without its text.  None for any other lexeme; ValueError for a head
    with an unknown element token, charge or multiplicity."""
    match = _HEAD.fullmatch(text)
    if match is None:
        return None
    sep, mult, token, charge, leaf = match.groups()
    elem = BY_TOKEN.get(token)
    if elem is None:
        raise ValueError(f"unknown element token {token!r}")
    if charge not in _CHARGES:
        raise ValueError(f"charge {charge!r} is not one of -3..3")
    if mult is not None and mult not in _MULTS:
        raise ValueError(f"multiplicity {mult!r} is not one of 1..3")
    if sep and mult is None:
        return None
    return (None if mult is None else sep is not None, leaf is not None,
            (elem.symbol, elem.valence, _CHARGES[charge], _MULTS.get(mult)))


def fringe_code(code: str, rho: int) -> bytes:
    """code as RootedFringeTree.canonical_code spells it, if it spells one
    of a fringe tree at branch parameter rho: balanced node brackets, known
    element tokens, charges in [-3, 3], multiplicities in 1..3, each node's
    children in the order that canonical_code sorts them, and no node more
    than rho + 1 bonds below the root.  Any other text raises ValueError."""
    # per open node: where its `mult:(` starts, its sort key without its
    # text, and the full key of its last child
    stack: list[list] = []
    closed = None  # whether the last lexeme closed a node; None at the start
    at = 0
    for text in _LEXEME.findall(code):
        if closed and not stack:
            raise ValueError(f"trailing text at character {at}")
        if text == "])" and closed is not None:
            closed = True
        else:
            head = _head(text)
            if head is None or closed is not head[0]:
                raise ValueError(f"unexpected {text!r} at character {at}")
            if len(stack) > rho + 1:
                raise ValueError(f"a node deeper than rho + 1 = {rho + 1} bonds")
            stack.append([at + (text[0] == ";"), head[2], None])
            closed = head[1]
        at += len(text)
        if closed:
            start, key, _ = stack.pop()
            if stack:
                parent = stack[-1]
                key += (code[start:at],)
                if parent[2] is not None and key < parent[2]:
                    raise ValueError(
                        f"children out of canonical order at character {start}")
                parent[2] = key
    if not closed or stack:
        raise ValueError("unbalanced brackets")
    return code.encode()


def _space(r: Reader, path, d: dict) -> DescriptorSpace:
    """The space of a SPACE record: its fringe codes are checked here, since
    the depth bound depends on its rho."""
    rho = d["rho"]
    d["fringe_codes"] = tuple([
        r.make(((path, "fringe_codes"), i), fringe_code, code, rho)
        for i, code in enumerate(d["fringe_codes"])])
    return DescriptorSpace(**d)


def _catalog(entry: Kind) -> Kind:
    """A catalog: a list in which no entry repeats."""
    return list_of(entry, key=lambda x: x)


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
    Field("fringe_codes", _catalog(STRING),
          attr=lambda space: [code.decode() for code in space.fringe_codes]),
    Field("ac_lf", _catalog(Table(
        Field("a", ELEMENT),
        Field("b", ELEMENT),
        Field("mult", integer(1, 3)),
        make=lambda r, path, d: r.make(
            path, AdjacencyConfiguration, d["a"], d["b"], d["mult"]),
    ))),
    make=_space,
)


def space_to_json(space: DescriptorSpace) -> dict:
    return SPACE.write(space)


def space_from_json(doc: dict) -> DescriptorSpace:
    """Inverse of space_to_json; a fault raises InputError."""
    return SPACE.read(Reader("descriptor space", InputError), doc)


def space_hash(space: DescriptorSpace) -> str:
    text = json.dumps(space_to_json(space), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()
