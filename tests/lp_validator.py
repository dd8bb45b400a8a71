"""Strict standalone grammar check for the CPLEX-LP subset we emit.

Written against the format documentation, sharing no code with the
package's emitter or parser, so it can serve as an independent acceptable
check on emitted files.
"""

from __future__ import annotations

import re

_NUM = r"[0-9]+(?:\.[0-9]+)?(?:[eE][+-]?[0-9]+)?"
_NAME = r"[A-Za-z_][A-Za-z0-9_]*"
_TERM = rf"(?:{_NUM}\s+)?{_NAME}"
_EXPR = rf"-?\s*{_TERM}(?:\s*[+-]\s*{_TERM})*"

_OBJ_RE = re.compile(rf"^\s*{_NAME}:\s*(?:{_EXPR})?\s*$")
_CON_RE = re.compile(rf"^\s*{_NAME}:\s*{_EXPR}\s*(<=|>=|=)\s*-?{_NUM}\s*$")
_BOUND_RE = re.compile(
    rf"^\s*-?{_NUM}\s*<=\s*{_NAME}\s*<=\s*-?{_NUM}\s*$")
_NAME_RE = re.compile(rf"^\s*{_NAME}\s*$")

_SECTIONS = {
    "minimize": "objective",
    "maximize": "objective",
    "subject to": "constraints",
    "bounds": "bounds",
    "generals": "names",
    "binaries": "names",
    "end": "end",
}


class LpFormatError(ValueError):
    pass


def validate_lp(text: str) -> int:
    """Raise LpFormatError on any malformed line; returns the number of
    constraint rows accepted."""
    state = None
    n_constraints = 0
    saw_objective = False
    saw_subject = False
    saw_end = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("\\"):
            continue
        if saw_end:
            raise LpFormatError(f"line {lineno}: content after End")
        section = _SECTIONS.get(line.lower())
        if section == "objective":
            state = "objective"
            saw_objective = True
            continue
        if section == "constraints":
            state = "constraints"
            saw_subject = True
            continue
        if section in ("bounds", "names"):
            state = section
            continue
        if section == "end":
            saw_end = True
            continue
        if state == "objective":
            if not _OBJ_RE.match(line):
                raise LpFormatError(f"line {lineno}: bad objective {line!r}")
        elif state == "constraints":
            if not _CON_RE.match(line):
                raise LpFormatError(f"line {lineno}: bad constraint {line!r}")
            n_constraints += 1
        elif state == "bounds":
            if not _BOUND_RE.match(line):
                raise LpFormatError(f"line {lineno}: bad bound {line!r}")
        elif state == "names":
            if not _NAME_RE.match(line):
                raise LpFormatError(f"line {lineno}: bad name {line!r}")
        else:
            raise LpFormatError(f"line {lineno}: content before any section")
    if not (saw_objective and saw_subject and saw_end):
        raise LpFormatError("missing a mandatory section")
    return n_constraints
