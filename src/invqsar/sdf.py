"""Minimal V2000 molfile / SDF reader and writer.

Implicit hydrogens are materialized as explicit vertices so that every
parsed graph satisfies the valence condition.  Records that cannot be
turned into a valid ChemicalGraph are reported per record instead of being
dropped silently.  read_sdf parses one record at a time, so a caller that
keeps only what it derives from each graph holds one graph at a time.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

from .elements import INGEST_LADDER, UnknownElementError, allowed_valences, make_element
from .graph import ChemicalGraph, Edge, Vertex

# old-style charge column of the atom block; code 4, a doublet radical, has
# no charge a chemical graph can hold
_CHG_COLUMN = {0: 0, 1: 3, 2: 2, 3: 1, 5: -1, 6: -2, 7: -3}


@dataclass(frozen=True)
class RecordError:
    record: int
    name: str
    message: str


def _split_records(text: str) -> Iterator[list[str]]:
    current: list[str] = []
    for line in text.splitlines():
        if line.strip() == "$$$$":
            yield current
            current = []
        else:
            current.append(line)
    if any(l.strip() for l in current):
        yield current


def _parse_record(lines: list[str], index: int) -> tuple[ChemicalGraph, str]:
    if len(lines) < 4:
        raise ValueError("record too short for a molfile header")
    name = lines[0].strip() or f"record{index}"
    counts = lines[3]
    if len(counts) < 6:
        raise ValueError("malformed counts line")
    try:
        n_atoms = int(counts[0:3])
        n_bonds = int(counts[3:6])
    except ValueError as exc:
        raise ValueError(f"malformed counts line: {counts!r}") from exc
    if "V2000" not in counts:
        raise ValueError("only V2000 molfiles are supported")
    atom_lines = lines[4 : 4 + n_atoms]
    bond_lines = lines[4 + n_atoms : 4 + n_atoms + n_bonds]
    if len(atom_lines) != n_atoms or len(bond_lines) != n_bonds:
        raise ValueError("counts line disagrees with block sizes")

    symbols: list[str] = []
    charges: list[int] = []
    for i, ln in enumerate(atom_lines, start=1):
        parts = ln.split()
        if len(parts) < 4:
            raise ValueError(f"malformed atom line: {ln!r}")
        symbols.append(parts[3])
        try:
            code = int(parts[5]) if len(parts) > 5 else 0
        except ValueError:
            raise ValueError(
                f"atom {i} has a non-numeric charge field {parts[5]!r}") from None
        if code not in _CHG_COLUMN:
            raise ValueError(f"atom {i} has unsupported charge code {code}")
        charges.append(_CHG_COLUMN[code])

    bonds: list[tuple[int, int, int]] = []
    for ln in bond_lines:
        # fixed-width, but whitespace split is robust for well-formed files
        try:
            u = int(ln[0:3])
            v = int(ln[3:6])
            m = int(ln[6:9])
        except ValueError as exc:
            raise ValueError(f"malformed bond line: {ln!r}") from exc
        bonds.append((u, v, m))

    # property block: M CHG overrides the atom-block charge column
    for ln in lines[4 + n_atoms + n_bonds :]:
        if ln.startswith("M  CHG"):
            # a count, then exactly that many (atom, charge) pairs
            try:
                count, *pairs = map(int, ln.split()[2:])
            except ValueError:
                raise ValueError(f"malformed charge line: {ln!r}") from None
            if len(pairs) != 2 * count:
                raise ValueError(f"malformed charge line: {ln!r}")
            for aid, chg in zip(pairs[::2], pairs[1::2]):
                if not 1 <= aid <= n_atoms:
                    raise ValueError(f"charge line names missing atom {aid}")
                charges[aid - 1] = chg
        elif ln.startswith("M  END"):
            break

    beta = [0] * n_atoms
    for u, v, m in bonds:
        if not (1 <= u <= n_atoms and 1 <= v <= n_atoms):
            raise ValueError(f"bond ({u},{v}) references a missing atom")
        beta[u - 1] += m
        beta[v - 1] += m

    vertices: list[Vertex] = []
    edges = [Edge(u, v, m) for u, v, m in bonds]
    hydrogen = make_element("H")
    next_id = n_atoms + 1
    for i, (sym, charge, bond_sum) in enumerate(zip(symbols, charges, beta)):
        try:
            ladder = INGEST_LADDER[sym]
        except KeyError:
            raise UnknownElementError(f"unknown element symbol {sym!r}") from None
        # escalate from the default valence upward; sub-default variants
        # (carbene-like states) are never produced by ingest
        need = bond_sum - charge
        for elem in ladder:
            if elem.valence >= need:
                break
        else:
            raise ValueError(
                f"atom {i + 1} ({sym}) with bond sum {bond_sum} and charge "
                f"{charge} exceeds every supported valence {allowed_valences(sym)}"
            )
        vertices.append(Vertex(i + 1, elem, charge))
        if not elem.is_hydrogen:
            for _ in range(elem.valence + charge - bond_sum):
                vertices.append(Vertex(next_id, hydrogen))
                edges.append(Edge(i + 1, next_id, 1))
                next_id += 1

    graph = ChemicalGraph(tuple(vertices), tuple(edges))
    problems = graph.validate()
    if problems:
        raise ValueError("; ".join(problems))
    return graph, name


def read_sdf(text: str) -> Iterator[tuple[str, ChemicalGraph] | RecordError]:
    """Parse SDF/molfile text one record at a time, yielding (name, graph)
    for each record that parses and a RecordError for each that does not,
    in record order."""
    for idx, rec in enumerate(_split_records(text)):
        try:
            graph, name = _parse_record(rec, idx)
        except (ValueError, UnknownElementError) as exc:
            head = rec[0].strip() if rec else ""
            yield RecordError(idx, head or f"record{idx}", str(exc))
        else:
            yield name, graph


def graph_to_sdf(graph: ChemicalGraph, name: str) -> str:
    """Minimal V2000 rendering (no coordinates) that read_sdf reads back."""
    ids = {v.id: i + 1 for i, v in enumerate(graph.vertices)}
    lines = [name, "  invqsar", "", ""]
    lines[3] = f"{len(graph.vertices):3d}{len(graph.edges):3d}  0  0  0  0  0  0  0  0999 V2000"
    for v in graph.vertices:
        lines.append(
            f"    0.0000    0.0000    0.0000 {v.element.symbol:<3} 0  0  0  0  0  0  0  0  0  0  0  0"
        )
    for e in graph.edges:
        lines.append(f"{ids[e.u]:3d}{ids[e.v]:3d}{e.mult:3d}  0  0  0  0")
    charged = [(ids[v.id], v.charge) for v in graph.vertices if v.charge]
    if charged:
        head = f"M  CHG{len(charged):3d}"
        for vid, chg in charged:
            head += f"{vid:4d}{chg:4d}"
        lines.append(head)
    lines.append("M  END")
    lines.append("$$$$")
    return "\n".join(lines) + "\n"
