"""README statements that name the code are checked against it."""

import re
from pathlib import Path

import invqsar
from invqsar.cli import judge
from invqsar.descriptors import CATALOGS, SCALARS
from invqsar.topospec import (
    AC_BOUND,
    FRINGE_ASSIGNMENT,
    FRINGE_ENTRY,
    SEED,
    SEED_EDGE,
    SEED_VERTEX,
    SPEC,
)

from conftest import roundtrip_fixture

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_lists_the_package_exports():
    """The "Python API" section's export list is invqsar.__all__."""
    section = README.read_text().split("\n## Python API\n", 1)[1]
    sentence = section.split("`import invqsar` exports ", 1)[1].split(".\n", 1)[0]
    names = re.findall(r"`([^`]+)`", sentence)
    assert sorted(names) == sorted(invqsar.__all__)


def test_readme_spec_table_lists_the_schema_keys():
    """The "Specification JSON" table's first column is every key path of
    topospec.SPEC and the record tables under it, in field order, so that
    neither can drift from the other."""
    text = README.read_text()
    section = text.split("**Specification JSON**", 1)[1].split("**Predictor JSON**", 1)[0]
    documented = re.findall(r"^\| `([^`]+)` \|", section, flags=re.M)
    tables = {"seed.": SEED, "seed.vertices[].": SEED_VERTEX, "seed.edges[].": SEED_EDGE,
              "fringe_trees[].": FRINGE_ENTRY, "fringe_assignment.": FRINGE_ASSIGNMENT,
              "ac_lf[].": AC_BOUND}

    def paths(table, prefix=""):
        for f in table.fields:
            yield prefix + f.key
            for below in (f"{prefix}{f.key}.", f"{prefix}{f.key}[]."):
                if below in tables:
                    yield from paths(tables[below], below)

    assert documented == list(paths(SPEC))


def test_readme_descriptor_layout_lists_the_table():
    """The "Descriptor layout" paragraph names the scalar descriptors in
    the table's order, and its formula for K counts them."""
    section = README.read_text().split("**Descriptor layout**", 1)[1].split("\n\n", 1)[0]
    scalars = section.split("The scalars come first: ", 1)[1].split(". ", 1)[0]
    assert re.findall(r"`([^`]+)`", scalars) == [s.name for s in SCALARS]
    formula = section.split("`K = ", 1)[1].split("`", 1)[0].split()
    assert formula[0] == str(len(SCALARS))
    assert " ".join(formula).count(" + |") == len(CATALOGS)


def test_readme_lists_the_verification_keys():
    """The keys README lists for verification.json are those a verdict on
    the triangle fixture's target writes, in order."""
    sentence = README.read_text().split("`verification.json` is the verdict's document", 1)[1]
    listed = re.findall(r"`([^`]+)`", sentence.split(".\n", 1)[0])
    fx = roundtrip_fixture("triangle")
    verdict = judge(fx.target, fx.spec, fx.space, fx.predictor, fx.interval)
    assert listed == list(verdict.to_json())
