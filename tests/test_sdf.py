import pytest

from conftest import mol_block, sdf_records


def test_ethane():
    text = mol_block("ethane", ["C", "C"], [(1, 2, 1)])
    graphs, errors = sdf_records(text)
    assert not errors
    ((name, g),) = graphs
    assert name == "ethane"
    assert g.n_heavy() == 2
    assert g.n_atoms() == 8
    assert g.validate() == []


def test_five_coordinate_carbon_reported():
    text = mol_block(
        "bad", ["C", "C", "C", "C", "C", "C"],
        [(1, 2, 1), (1, 3, 1), (1, 4, 1), (1, 5, 1), (1, 6, 1)],
    )
    graphs, errors = sdf_records(text)
    assert not graphs
    assert len(errors) == 1
    msg = errors[0].message
    assert "valence" in msg or "heavy neighbours" in msg


def test_mixed_records():
    good1 = mol_block("ok1", ["C", "O"], [(1, 2, 1)])
    bad = mol_block("bad", ["C"] * 6,
                     [(1, 2, 1), (1, 3, 1), (1, 4, 1), (1, 5, 1), (1, 6, 1)])
    good2 = mol_block("ok2", ["N"], [])
    graphs, errors = sdf_records(good1 + bad + good2)
    assert [name for name, _ in graphs] == ["ok1", "ok2"]
    assert len(errors) == 1
    assert errors[0].record == 1


def test_charge_line():
    text = mol_block("cation", ["N", "C"], [(1, 2, 1)], charges=[(1, 1)])
    graphs, errors = sdf_records(text)
    assert not errors
    ((_, g),) = graphs
    n = g.vertex_map[1]
    assert n.charge == 1
    # N+ with one C bond gets 3 implicit hydrogens
    assert sum(1 for w, _ in g.adjacency[1] if g.vertex_map[w].element.is_hydrogen) == 3
    assert g.validate() == []


@pytest.mark.parametrize("line, needle", [
    ("M  CHG  1   3   1", "missing atom 3"),
    ("M  CHG  1   0   1", "missing atom 0"),
    ("M  CHG  1  -1   1", "missing atom -1"),
    ("M  CHG", "malformed charge line"),
    ("M  CHG  2   1   1", "malformed charge line"),
    ("M  CHG  1   1   1   2  -1", "malformed charge line"),
], ids=["past_last_atom", "atom_zero", "negative_atom", "bare",
        "fewer_pairs_than_count", "more_pairs_than_count"])
def test_bad_charge_line_is_a_record_error(line, needle):
    """A charge line that names a missing atom, or whose pairs disagree
    with its count, fails its own record only."""
    bad = mol_block("cation", ["N", "C"], [(1, 2, 1)], charge_line=line)
    assert needle in _only_error(bad, "cation")


def _only_error(bad: str, name: str) -> str:
    """The message of the one record error that the record text `bad`
    gives between two good records, which still parse."""
    good1 = mol_block("ok1", ["C", "O"], [(1, 2, 1)])
    good2 = mol_block("ok2", ["N"], [])
    graphs, errors = sdf_records(good1 + bad + good2)
    assert [n for n, _ in graphs] == ["ok1", "ok2"]
    ((record, got, message),) = [(e.record, e.name, e.message) for e in errors]
    assert (record, got) == (1, name)
    return message


def test_charge_column_codes():
    """The atom block's charge codes 1-3 and 5-7 give +3..+1 and -1..-3."""
    text = "".join(mol_block(f"c{code}", ["C"], [], codes=[code])
                   for code in (0, 1, 2, 3, 5, 6, 7))
    graphs, errors = sdf_records(text)
    assert not errors
    assert [g.vertex_map[1].charge for _, g in graphs] == [0, 3, 2, 1, -1, -2, -3]


# one record text -> its exact message: every error _parse_record raises
NITROGEN = "    0.0000    0.0000    0.0000 N   0  0  0  0  0  0  0  0  0  0  0  0"
COUNTS_1_0 = "  1  0  0  0  0  0  0  0  0  0999 V2000"
PARSE_RECORD_FAULTS = {
    "short_record": ("bad\n\n$$$$\n", "record too short for a molfile header"),
    "short_counts": ("bad\n\n\n  1\n$$$$\n", "malformed counts line"),
    "counts_not_numbers": (
        "bad\n\n\n  x  0  0  0  0  0  0  0  0  0999 V2000\n$$$$\n",
        "malformed counts line: '  x  0  0  0  0  0  0  0  0  0999 V2000'"),
    "v3000": (
        "bad\n\n\n  1  0  0  0  0  0  0  0  0  0999 V3000\n"
        f"{NITROGEN}\nM  END\n$$$$\n",
        "only V2000 molfiles are supported"),
    "block_sizes": (
        f"bad\n\n\n  3  0  0  0  0  0  0  0  0  0999 V2000\n{NITROGEN}\n$$$$\n",
        "counts line disagrees with block sizes"),
    "atom_line": (f"bad\n\n\n{COUNTS_1_0}\n    0.0000    0.0000\nM  END\n$$$$\n",
                  "malformed atom line: '    0.0000    0.0000'"),
    "bond_line": (mol_block("bad", ["C", "O"], [(1, 2, 1)]).replace(
        "  1  2  1  0", "  1  x  1  0"), "malformed bond line: '  1  x  1  0  0  0  0'"),
    "missing_bond_atom": (mol_block("bad", ["C", "O"], [(1, 3, 1)]),
                          "bond (1,3) references a missing atom"),
    "over_valence": (
        mol_block("bad", ["C", "O", "O", "O"], [(1, 2, 2), (1, 3, 2), (1, 4, 2)]),
        "atom 1 (C) with bond sum 6 and charge 0 exceeds every supported "
        "valence (2, 3, 4, 5)"),
    "heavy_neighbours": (
        mol_block("bad", ["C"] * 6, [(1, k, 1) for k in range(2, 7)]),
        "vertex 1 has 5 heavy neighbours (max 4)"),
    "unknown_element": (mol_block("bad", ["Zz"], []),
                        "unknown element symbol 'Zz'"),
    "radical_code": (mol_block("bad", ["N", "C"], [(1, 2, 1)], codes=[4, 0]),
                     "atom 1 has unsupported charge code 4"),
    "code_8": (mol_block("bad", ["N", "C"], [(1, 2, 1)], codes=[0, 8]),
               "atom 2 has unsupported charge code 8"),
    "code_9": (mol_block("bad", ["N", "C"], [(1, 2, 1)], codes=[9, 0]),
               "atom 1 has unsupported charge code 9"),
    "charge_field": (mol_block("bad", ["N", "C"], [(1, 2, 1)]).replace(
        " N   0  0", " N   0  x", 1), "atom 1 has a non-numeric charge field 'x'"),
    **{f"charge_line_{field}": (
        mol_block("bad", ["N", "C"], [(1, 2, 1)], charge_line=line),
        f"malformed charge line: {line!r}")
       for field, line in (("count", "M  CHG  y   1   1"),
                           ("atom", "M  CHG  1   z   1"),
                           ("charge", "M  CHG  1   1   x"))},
}


@pytest.mark.parametrize("case", PARSE_RECORD_FAULTS)
def test_parse_record_fault_messages(case):
    """Each fault fails its own record, between two good ones, with its
    pinned message."""
    text, message = PARSE_RECORD_FAULTS[case]
    assert _only_error(text, "bad") == message


def test_multivalent_sulfur():
    # sulfur with 6 bonds resolves to the valence-6 variant
    text = mol_block(
        "sf", ["S", "O", "O", "C", "C"],
        [(1, 2, 2), (1, 3, 2), (1, 4, 1), (1, 5, 1)],
    )
    graphs, errors = sdf_records(text)
    assert not errors
    ((_, g),) = graphs
    assert g.vertex_map[1].element.token == "S(6)"
    assert g.validate() == []


def test_malformed_counts_line():
    text = "junk\n\n\nnot-a-counts-line\n$$$$\n"
    graphs, errors = sdf_records(text)
    assert not graphs
    assert len(errors) == 1


def test_unknown_element():
    text = mol_block("odd", ["Zz"], [])
    graphs, errors = sdf_records(text)
    assert errors and "unknown element" in errors[0].message
