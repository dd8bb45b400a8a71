import csv
import io
import json
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from invqsar.descriptors import (
    SCALARS,
    FeatureVector,
    GraphCensus,
    OutOfSpaceError,
    build_space,
    census_vector,
    featurize,
    fringe_code,
    read_feature_csv,
    space_from_json,
    space_hash,
    space_to_json,
    space_to_json_text,
    take_census,
    write_feature_csv,
)
from invqsar.graph import ChemicalGraph, InvalidGraphError, build_graph
from invqsar.regression import min_max_scale
from invqsar.schema import InputError

from conftest import chain, perfbench_inputs, random_chemical_graph, ring
import oracles
from oracles import brute_force_features


def test_cyclohexane_by_hand():
    g = ring(6)
    space = build_space([g], 2)
    assert space.k == 14 + 1 + 1 + 1 + 1 + 0
    fv = featurize(g, space)
    names = space.descriptor_names
    vals = dict(zip(names, fv.values))
    assert vals["n_heavy"] == 6
    assert vals["rank"] == 1
    assert vals["n_interior"] == 6
    assert vals["mass_avg"] == Fraction(6 * 120 + 12 * 10, 18)
    assert vals["deg2"] == 6
    assert vals["deg_int2"] == 6
    assert vals["ec_C2_C2_1"] == 6
    assert vals["fc_1"] == 6
    assert vals["bonds2_int"] == 0


def test_ethane_interior_empty():
    eth = chain(["C", "C"])
    space = build_space([eth, ring(6)], 2)
    fv = featurize(eth, space)
    vals = dict(zip(space.descriptor_names, fv.values))
    assert vals["n_interior"] == 0
    assert all(v == 0 for n, v in vals.items() if n.startswith("deg_int"))
    assert all(v == 0 for n, v in vals.items() if n.startswith("na_int"))
    # the C-C bond is a leaf edge counted once
    assert vals["ac_C_C_1"] == 1


def test_build_space_requires_data():
    with pytest.raises(ValueError):
        build_space([], 2)


def _ring6(bonds=(), extra=(), first="C"):
    """A six-ring of atoms 1..6 (atom 1 a `first`, the rest carbons) with
    extra atoms and bonds, hydrogens added."""
    atoms = [(1, first)] + [(i, "C") for i in range(2, 7)] + list(extra)
    ring_bonds = [(i, i % 6 + 1, 1) for i in range(1, 7)]
    return build_graph(atoms, ring_bonds + list(bonds), add_hydrogens=True)


_OL = _ring6([(1, 7, 1)], [(7, "O")])
OUT_OF_SPACE = {
    # featurize takes no graph check: six heavy neighbours reach the census
    "degree": ([ring(6)], build_graph([(1, "S(6)")] + [(i, "F") for i in range(2, 8)],
                                      [(1, i, 1) for i in range(2, 8)]),
               "vertex 1 has suppressed degree 6 > 4"),
    "interior-element": ([ring(6)], _ring6(first="N"),
                         "interior element N not in the space"),
    "exterior-element": ([ring(6)], _ring6([(1, 7, 1)], [(7, "Cl")]),
                         "exterior element Cl not in the space"),
    "edge-configuration": ([ring(6), ring(5, pendant=2)],
                           _ring6([(5, 7, 1), (7, 8, 1), (8, 9, 1), (9, 10, 1), (10, 6, 1)],
                                  [(i, "C") for i in range(7, 11)]),
                           "edge configuration C3_C3_1 not in the space"),
    "fringe-tree": ([ring(6), _OL], _ring6([(1, 7, 2)], [(7, "O")]),
                    "fringe tree (C,0[2:(O,0[])]) not in the space"),
    "leaf-edge-configuration": ([ring(6), _OL, chain(["C", "C"])], chain(["C", "O"]),
                                "leaf-edge configuration C_O_1 not in the space"),
}


@pytest.mark.parametrize("case", OUT_OF_SPACE)
def test_out_of_space_names_what_is_missing(case):
    """Each kind of count that a smaller space cannot index raises
    OutOfSpaceError with its own message."""
    dataset, g, message = OUT_OF_SPACE[case]
    with pytest.raises(OutOfSpaceError) as info:
        featurize(g, build_space(dataset, 2))
    assert str(info.value) == message


def test_k_formula_identity():
    rng = np.random.default_rng(5)
    datasets = [
        [ring(6)],
        [ring(6), chain(["C", "O", "C"])],
        [random_chemical_graph(rng, 10) for _ in range(8)],
    ]
    for dataset in datasets:
        space = build_space(dataset, 2)
        assert space.k == 14 + len(space.lambda_int) + len(space.lambda_ex) + len(
            space.gamma_int
        ) + len(space.fringe_codes) + len(space.ac_lf)
    # published-size arithmetic: 14 + 9 + 33 + 8 = 64 descriptors
    assert 64 - 14 - 9 - 33 == 8


def test_matches_brute_force_oracle():
    rng = np.random.default_rng(101)
    graphs = [random_chemical_graph(rng, 12) for _ in range(50)]
    space = build_space(graphs, 2)
    for g in graphs:
        fv = featurize(g, space)
        expected = brute_force_features(g, space)
        for a, b in zip(fv.values, expected):
            if isinstance(a, Fraction) or isinstance(b, Fraction):
                assert abs(Fraction(a) - Fraction(b)) <= Fraction(1, 10**12)
            else:
                assert a == b


def test_sum_invariants():
    rng = np.random.default_rng(17)
    graphs = [random_chemical_graph(rng, 12) for _ in range(30)]
    space = build_space(graphs, 2)
    for g in graphs:
        fv = featurize(g, space)
        vals = fv.values
        isolated = 1 if g.n_heavy() == 1 else 0
        assert sum(vals[4:8]) == vals[0] - isolated
        # a lone interior vertex has interior degree 0 and is not tallied
        lone = 1 if vals[2] == 1 else 0
        assert sum(vals[8:12]) == vals[2] - lone
        fc_block = [v for name, v in zip(space.descriptor_names, vals)
                    if name.startswith("fc_")]
        assert sum(fc_block) == vals[2]


def test_permutation_invariance():
    rng = np.random.default_rng(23)
    for _ in range(10):
        g = random_chemical_graph(rng, 9)
        space = build_space([g], 2)
        ids = [v.id for v in g.vertices]
        perm = dict(zip(ids, rng.permutation(ids).tolist()))
        g2 = ChemicalGraph(
            tuple(
                type(v)(perm[v.id], v.element, v.charge) for v in g.vertices
            ),
            tuple(type(e)(perm[e.u], perm[e.v], e.mult) for e in g.edges),
        )
        assert featurize(g, space).values == featurize(g2, space).values


def test_normalize_basics():
    mins, maxs = (0, 2, 5), (10, 2, 9)
    fv = FeatureVector((0, 2, 7))
    out = min_max_scale(fv.as_floats(), mins, maxs).tolist()
    assert out == [0.0, 0.0, 0.5]
    fv = FeatureVector((10, 2, 9))
    assert min_max_scale(fv.as_floats(), mins, maxs).tolist() == [1.0, 0.0, 1.0]
    # a matrix is scaled column by column, a constant column to 0
    rows = [[0, 2, 7], [10, 2, 9]]
    assert min_max_scale(rows, mins, maxs).tolist() == [
        [0.0, 0.0, 0.5], [1.0, 0.0, 1.0]]


@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=50), min_size=3, max_size=3))
def test_normalize_denormalize_round_trip(values):
    mins, maxs = (0, 1, 3), (50, 60, 3)
    xhat = min_max_scale(FeatureVector(tuple(values)).as_floats(), mins, maxs)
    for v, s, lo, hi in zip(values, xhat, mins, maxs):
        if lo == hi:
            assert s == 0.0
        else:
            assert abs(lo + s * (hi - lo) - v) < 1e-12


def test_csv_round_trip():
    dataset = [ring(6), ring(5), chain(["C", "C", "C", "O"])]
    space = build_space(dataset, 2)
    censuses = [take_census(g, 2) for g in dataset]
    text = write_feature_csv(["a", "b", "c"], censuses, space)
    ids, names, rows = read_feature_csv(text)
    assert ids == ["a", "b", "c"]
    assert tuple(names) == space.descriptor_names
    for g, row in zip(dataset, rows):
        assert row.tolist() == featurize(g, space).as_floats()
    # determinism
    assert text == write_feature_csv(["a", "b", "c"], censuses, space)


def test_feature_csv_raises_out_of_space():
    small = build_space([ring(6)], 2)
    with pytest.raises(OutOfSpaceError, match="^exterior element C not in the space$"):
        write_feature_csv(["a"], [take_census(chain(["C", "O"]), 2)], small)


# a space with entries in every catalog block
_CSV_SPACE = build_space([ring(6), ring(5, pendant=2), chain(["C", "C", "O"]),
                          chain(["C", "N"], [3])], 2)

_csv_ids = st.one_of(
    st.text(alphabet=st.sampled_from('ab0 ,"\'é中µ#'), max_size=8),
    st.text(max_size=8),
)
_csv_values = st.one_of(
    st.just(0),
    st.integers(min_value=0, max_value=50),
    st.integers(min_value=-(10**30), max_value=10**30),
    st.integers().map(Fraction),
    st.fractions(max_denominator=10**6),
)


def _counts(keys):
    return st.dictionaries(st.sampled_from(keys), _csv_values).map(Counter)


_csv_censuses = st.builds(
    GraphCensus,
    st.just(2),
    st.lists(_csv_values, min_size=14, max_size=14).map(
        lambda values: {s.name: v for s, v in zip(SCALARS, values)}),
    _counts(_CSV_SPACE.lambda_int),
    _counts(_CSV_SPACE.lambda_ex),
    _counts(_CSV_SPACE.gamma_int),
    _counts(_CSV_SPACE.fringe_codes),
    _counts(_CSV_SPACE.ac_lf),
    st.none(),
)


@settings(deadline=None)
@given(st.lists(st.tuples(_csv_ids, _csv_censuses), max_size=3))
def test_feature_csv_matches_oracle_bytes(rows):
    """Any census over the space, its values in any position any int or
    Fraction, is written as the dense oracle writes its census_vector."""
    ids = [gid for gid, _ in rows]
    censuses = [census for _, census in rows]
    vectors = [census_vector(census, _CSV_SPACE) for census in censuses]
    assert (write_feature_csv(ids, censuses, _CSV_SPACE)
            == oracles.write_feature_csv(ids, vectors, _CSV_SPACE))


def _reads_as_oracle(text: str) -> None:
    """read_feature_csv gives the oracle reader's ids and names and
    bit-identical values, or raises its error with its message; where the
    oracle lets the csv module's error escape, an InputError naming the
    line carries that message."""
    try:
        ids, names, rows = oracles.read_feature_csv(text)
    except csv.Error as exc:
        with pytest.raises(InputError, match=r"^feature CSV line \d+: ") as got:
            read_feature_csv(text)
        assert str(got.value).endswith(str(exc))
        return
    except InputError as exc:
        with pytest.raises(InputError) as got:
            read_feature_csv(text)
        assert str(got.value) == str(exc)
        return
    got_ids, got_names, x = read_feature_csv(text)
    assert (got_ids, got_names) == (ids, names)
    assert x.shape == (len(rows), len(names))
    assert x.tobytes() == np.array(rows, dtype=float).reshape(x.shape).tobytes()


# a cell float() reads, one only float() reads, or one nothing reads
_csv_cells = st.one_of(
    st.floats().map(repr),
    st.integers(-10**20, 10**20).map(str),
    st.sampled_from(["1_0", "١", " 5 ", "nan", "-nan", "-inf", "Infinity", "",
                     "x", "+.5", "1e999", "1,5", '"', "1 2", "1\x1e", "\x0b2\xa0"]),
)
_csv_ids = st.text(alphabet=st.sampled_from('ab0 ,"#\n\r\t'), max_size=6)


@st.composite
def _feature_tables(draw) -> str:
    """Feature-table text as a csv writer writes it, with CRLF or LF line
    ends, an optional missing final newline, blank or whitespace-only
    lines, and rows of the header's width or one off it."""
    width = draw(st.integers(0, 4))
    end = draw(st.sampled_from(["\n", "\r\n"]))
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator=end)
    writer.writerow(["id", *(f"d{i}" for i in range(width))])
    for _ in range(draw(st.integers(0, 4))):
        if draw(st.integers(0, 9)) == 0:
            buf.write(draw(st.sampled_from(["", " ", "\t"])) + end)
            continue
        n = width + draw(st.sampled_from([0, 0, 0, 0, -1, 1]))
        writer.writerow([draw(_csv_ids), *draw(st.lists(_csv_cells, min_size=max(n, 0),
                                                        max_size=max(n, 0)))])
    text = buf.getvalue()
    return text[:-len(end)] if draw(st.booleans()) and text.endswith(end) else text


@settings(deadline=None, max_examples=300)
@given(_feature_tables())
def test_read_feature_csv_matches_oracle(text):
    _reads_as_oracle(text)


@pytest.mark.parametrize("text", [
    "id,a,b\nm1,1,2\n \nm2,3,4\n",          # a whitespace-only line
    "id,a,b\nm1,1,2\n\nm2,3,4\n",           # a blank line
    "id,a,b\n#m1,1,2\n",                     # an id that starts with #
    'id,a,b\n"m,1",1,2\n"m""2",3,4\n"m\n3",5,6\n',  # quoted ids
    'id,"a\nb",c\nm1,1,2\n',                 # a quoted header name
    "id,a,b\r\nm1,1,2\r\nm2,3,4\r\n",       # CRLF
    "id,a,b\nm1,1,2\nm2,3,4",                # no trailing newline
    "id,a,b\rm1,1,2\r",                      # bare CRs
    "id,a,b\nm1,1,2\rm2,3,4\n",              # a bare CR inside the rows
    "id,a,b\nm1,1_0,2\n",                    # only float() reads 1_0
    "id,a,b\nm1,١,2\n",                      # or an Arabic-Indic digit
    "id,a,b\nm1,1\x1f,2\n",                   # float() keeps U+001F
    "id,a,b\nm1, 5 ,nan\nm2,-inf,-nan\n",
    "id,a,b\nm1,,2\n",                       # an empty cell
    "id,a,b\nm1,1\n",                        # a short row
    "id,a,b\nm1,1,2,3\n",                    # a long row
    'id,a,b\n""\n',                          # a row of one empty field
    "id,a,b\n",                               # no rows
    "id\nm1\nm2\n",                          # no descriptors
    "",
    "x,a\nm1,1\n",
    "id,a\nm1," + "1" * 140_000 + ",x\n",  # a field over the csv limit
    'id,a\n"m\n1",1\nm2,x\n',                # a bad cell after a two-line id
    'id,a\n"m\n1",1\nm2,1,2\n',              # a long row after a two-line id
    'id,a\n"m\n1",x\n',                       # a bad cell in a two-line record
], ids=["whitespace_line", "blank_line", "hash_id", "quoted_ids", "quoted_header",
        "crlf", "no_final_newline", "bare_cr", "inner_cr", "underscore", "arabic_digit", "unit_separator",
        "spaces_nan_inf", "empty_cell", "short_row", "long_row", "empty_field_row",
        "no_rows", "no_descriptors", "empty_text", "no_id_column", "long_field",
        "multiline_id_then_bad_cell", "multiline_id_then_long_row",
        "multiline_id_bad_cell"])
def test_read_feature_csv_cases(text):
    _reads_as_oracle(text)


@pytest.mark.parametrize("text, message", [
    ('id,a\n"m\n1",1\nm2,x\n',
     "feature CSV line 4: could not convert string to float: 'x'"),
    ('id,a\n"m\n1",1\nm2,1,2\n', "feature CSV line 4 has 3 fields, not 2"),
    ('id,"a\nb"\n"m\n1",x\n', "feature CSV line 4: could not convert string to float: 'x'"),
], ids=["bad_cell", "long_row", "two_line_header_and_record"])
def test_read_feature_csv_names_the_physical_line(text, message):
    """A faulty record is named by the line it ends on, counting every line
    of the quoted fields before it."""
    with pytest.raises(InputError) as got:
        read_feature_csv(text)
    assert str(got.value) == message


@pytest.mark.parametrize("text, message", [
    ("id,a,b\rm1,1,2\r", "feature CSV line 1: new-line character seen"),
    ("id,a,b\nm1,1,2\rm2,3,4\n", "feature CSV line 2: new-line character seen"),
    ("id,a\nm1,0\nm2," + "1" * 140_000 + ",x\n",
     "feature CSV line 3: field larger than field limit"),
], ids=["bare_cr", "inner_cr", "long_field"])
def test_read_feature_csv_names_the_line_the_csv_module_rejects(text, message):
    with pytest.raises(InputError) as got:
        read_feature_csv(text)
    assert str(got.value).startswith(message)


@pytest.mark.parametrize("dataset", [
    [ring(6)],
    [ring(6), ring(4, pendant=2), chain(["C", "N", "C"])],
], ids=["one-ring", "mixed"])
def test_space_json_text_layout(dataset):
    space = build_space(dataset, 2)
    doc = space_to_json(space)
    text = space_to_json_text(space)
    assert json.loads(text) == doc
    lines = text.splitlines()
    # each top-level key on its own line, in sorted order
    assert [json.loads(line.split(":")[0]) for line in lines
            if line.startswith('  "')] == sorted(doc)
    # each catalog entry on its own line
    entries = [json.loads(line.strip().rstrip(",")) for line in lines
               if line.startswith("    ")]
    assert entries == [e for key in sorted(doc) if isinstance(doc[key], list)
                       for e in doc[key]]
    # a document in the earlier indent=2 layout reads to the same space
    old = space_from_json(json.loads(json.dumps(doc, indent=2, sort_keys=True)))
    new = space_from_json(json.loads(text))
    assert old == new
    assert space_hash(old) == space_hash(new) == space_hash(space)


def test_space_json_round_trip():
    dataset = [ring(6), ring(4, pendant=2), chain(["C", "N", "C"])]
    space = build_space(dataset, 2)
    doc = space_to_json(space)
    space2 = space_from_json(json.loads(json.dumps(doc)))
    assert space_hash(space) == space_hash(space2)
    assert space2.descriptor_names == space.descriptor_names
    g = dataset[1]
    assert featurize(g, space2).values == featurize(g, space).values


def test_leaf_edge_both_degree_one():
    eth = chain(["C", "O"])
    counts = take_census(eth, 2).leaf_edges
    assert len(counts) == 1
    ((cfg, n),) = counts.items()
    assert n == 1
    assert (cfg.a.token, cfg.b.token) == ("C", "O")


def _code(i: int, text):
    """An edit that writes text as the space's i-th fringe code."""
    return lambda doc: doc["fringe_codes"].__setitem__(i, text)


@pytest.mark.parametrize("edit, needle", [
    # a case ported from a fringe-tree record fault keeps that fault's id
    (_code(1, "(C,0[1:(H,0[]);1:(C,0[])])"),
     "descriptor space key 'fringe_codes[1]' is invalid: "
     "children out of canonical order at character 15"),
    (_code(1, "(C,0[4:(H,0[])])"),
     "descriptor space key 'fringe_codes[1]' is invalid: "
     "multiplicity '4' is not one of 1..3"),
    (_code(1, "(C,0[0:(H,0[])])"),
     "descriptor space key 'fringe_codes[1]' is invalid: "
     "multiplicity '0' is not one of 1..3"),
    (_code(1, "(C,0[(H,0[])])"),
     "descriptor space key 'fringe_codes[1]' is invalid: "
     "unexpected '(H,0[])' at character 5"),
    (_code(0, "(C(7),0[])"),
     "descriptor space key 'fringe_codes[0]' is invalid: unknown element token 'C(7)'"),
    (_code(0, "(C,4[])"),
     "descriptor space key 'fringe_codes[0]' is invalid: charge '4' is not one of -3..3"),
    (_code(0, "(Zz,0[])"),
     "descriptor space key 'fringe_codes[0]' is invalid: unknown element token 'Zz'"),
    (_code(0, {"code": "(C,0[])"}),
     "descriptor space key 'fringe_codes[0]' must be a string"),
    (_code(1, "(C,0[1:(H,0[]);1:(H,0[])"),
     "descriptor space key 'fringe_codes[1]' is invalid: unbalanced brackets"),
    (_code(1, "(C,0[1:(H,0[]);1:(H,0[])])]"),
     "descriptor space key 'fringe_codes[1]' is invalid: trailing text at character 26"),
    # the first code holds an H three bonds below its root
    (lambda doc: doc.update(rho=1),
     "descriptor space key 'fringe_codes[0]' is invalid: "
     "a node deeper than rho + 1 = 2 bonds"),
    (lambda doc: doc["gamma_int"][0]["mu"].__setitem__(1, 5),
     "descriptor space key 'gamma_int[0].mu' is invalid"),
    (lambda doc: doc["ac_lf"][0].update(mult=2, a="H"),
     "descriptor space key 'ac_lf[0]' is invalid"),
    (lambda doc: doc.update(rho=0), "descriptor space key 'rho' must be at least 1"),
], ids=["code", "tree-order", "mult-0", "edge-order-missing", "valence", "charge",
        "element", "vertices-object", "unbalanced", "trailing", "depth",
        "gamma-degree", "ac-valence", "rho"])
def test_space_faults_name_their_path(edit, needle):
    doc = space_to_json(build_space([ring(6), ring(4, pendant=2)], 2))
    edit(doc)
    with pytest.raises(InputError) as caught:
        space_from_json(doc)
    assert str(caught.value).startswith(needle)


def test_fringe_codes_of_every_census_pass_the_check():
    """Every code take_census gives on the 200 random molecules of
    test_fringe_trees_match_the_oracle_recursion, at rho 1, 2 and 3, reads
    back as itself; and the depth bound is reached at each rho."""
    inputs = perfbench_inputs()
    rng = np.random.default_rng(21)
    graphs = [inputs.random_molecule(rng, 12) for _ in range(200)]
    for rho in (1, 2, 3):
        codes = {code for g in graphs for code in take_census(g, rho).fringe}
        assert all(fringe_code(code.decode(), rho) == code for code in codes)
        deepest = []
        for code in codes:
            try:
                fringe_code(code.decode(), rho - 1)
            except ValueError:
                deepest.append(code)
        assert deepest


@st.composite
def _charged_trees(draw):
    """(atoms, bonds) of 2-6 heavy atoms of C/N/O/S with charges -2..2,
    joined in a tree by bonds of order 1-3."""
    n = draw(st.integers(2, 6))
    atoms = [(i, draw(st.sampled_from("CNOS")), draw(st.integers(-2, 2)))
             for i in range(1, n + 1)]
    bonds = [(draw(st.integers(1, i - 1)), i, draw(st.integers(1, 3)))
             for i in range(2, n + 1)]
    return atoms, bonds


@settings(max_examples=200, deadline=None)
@given(_charged_trees())
@example(([(1, "C", -1), (2, "O", 1)], [(1, 2, 3)]))
def test_every_valid_graph_featurizes_against_its_own_space(drawn):
    """validate() holds the one valence rule: a graph it accepts either
    featurizes against the space built from it or raises a typed error."""
    atoms, bonds = drawn
    try:
        g = build_graph(atoms, bonds, add_hydrogens=True)
    except InvalidGraphError:
        return
    if g.validate():
        return
    for rho in (1, 2):
        try:
            featurize(g, build_space([g], rho))
        except (OutOfSpaceError, InvalidGraphError):
            pass


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10**9), st.integers(1, 3))
def test_space_json_round_trip_of_random_spaces(seed, rho):
    rng = np.random.default_rng(seed)
    space = build_space([random_chemical_graph(rng, max_heavy=10) for _ in range(4)], rho)
    again = space_from_json(json.loads(space_to_json_text(space)))
    assert again == space
    assert space_hash(again) == space_hash(space)


@pytest.mark.parametrize(
    "catalog", ["lambda_int", "lambda_ex", "gamma_int", "fringe_codes", "ac_lf"])
def test_space_catalog_entry_repeats_are_rejected(catalog):
    """A catalog entry listed twice would give two descriptor columns for
    one count; the repeat is a fault at its index."""
    doc = space_to_json(build_space([ring(6), ring(4, pendant=2), chain(["C", "O"])], 2))
    entries = doc[catalog]
    entries.insert(1, entries[0])
    with pytest.raises(InputError) as caught:
        space_from_json(doc)
    assert str(caught.value) == (
        f"descriptor space key '{catalog}[1]' repeats an earlier entry")


def test_space_fringe_tree_repeat_is_found_by_code():
    """A fringe tree has one code: listed again it is a repeat, and spelled
    with its children in another order it is not a code at all."""
    doc = space_to_json(build_space([ring(6), ring(4, pendant=2)], 2))
    code = doc["fringe_codes"][1]
    doc["fringe_codes"].append(code)
    with pytest.raises(InputError) as caught:
        space_from_json(doc)
    assert str(caught.value) == (
        "descriptor space key 'fringe_codes[2]' repeats an earlier entry")
    doc["fringe_codes"][2] = "(C,0[1:(C,0[]);1:(H,0[])])"
    assert space_from_json(doc).fringe_codes[2] == b"(C,0[1:(C,0[]);1:(H,0[])])"
    doc["fringe_codes"][2] = "(C,0[1:(H,0[]);1:(C,0[])])"
    with pytest.raises(InputError, match=r"'fringe_codes\[2\]' is invalid: children out"):
        space_from_json(doc)
