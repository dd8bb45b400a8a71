"""README statements that name the code are checked against it."""

import re
from pathlib import Path

import invqsar

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_lists_the_package_exports():
    """The "Python API" section's export list is invqsar.__all__."""
    section = README.read_text().split("\n## Python API\n", 1)[1]
    sentence = section.split("`import invqsar` exports ", 1)[1].split(".\n", 1)[0]
    names = re.findall(r"`([^`]+)`", sentence)
    assert sorted(names) == sorted(invqsar.__all__)
