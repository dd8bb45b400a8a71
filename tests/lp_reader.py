"""Test helper: reader for the CPLEX-LP subset that `emit_lp` writes.

The tests check that emit -> parse -> emit is the identity, and
`lp_file_solver.py` uses the reader to solve LP files handed to an
`ExternalBackend` command template.  Models are feasibility-only, so an
objective section must be empty.
"""

from __future__ import annotations

import re

from invqsar.milp.model import (
    BINARY,
    CONTINUOUS,
    INTEGER,
    MILPModel,
    ModelError,
)

_TERM_RE = re.compile(
    r"\s*(?P<sign>[+-])?\s*(?P<coef>[0-9][0-9eE.+-]*|\.[0-9][0-9eE.+-]*)?"
    r"\s*(?P<var>[A-Za-z_][A-Za-z0-9_]*)"
)


def _parse_terms(text: str) -> list[tuple[str, float]]:
    terms: list[tuple[str, float]] = []
    pos = 0
    text = text.strip()
    while pos < len(text):
        m = _TERM_RE.match(text, pos)
        if not m:
            raise ModelError(f"cannot parse expression near {text[pos:pos + 30]!r}")
        sign = -1.0 if m.group("sign") == "-" else 1.0
        coef = float(m.group("coef")) if m.group("coef") else 1.0
        terms.append((m.group("var"), sign * coef))
        pos = m.end()
    return terms


def parse_lp(text: str) -> MILPModel:
    """Parse the LP subset produced by emit_lp (plus common variations)."""
    model = MILPModel()
    lines = text.splitlines()
    i = 0
    # leading comments
    while i < len(lines) and (not lines[i].strip() or lines[i].lstrip().startswith("\\")):
        stripped = lines[i].strip()
        if stripped.startswith("\\ model "):
            model.name = stripped[len("\\ model "):]
        elif stripped.startswith("\\ meta "):
            _, _, rest = stripped.partition("\\ meta ")
            key, _, value = rest.partition(" ")
            model.metadata[key] = value
        i += 1

    def section(line: str) -> str | None:
        word = line.strip().lower()
        if word in ("minimize", "maximize", "min", "max"):
            return "objective"
        if word in ("subject to", "s.t.", "st"):
            return "constraints"
        if word == "bounds":
            return "bounds"
        if word in ("generals", "general", "integers"):
            return "generals"
        if word in ("binaries", "binary"):
            return "binaries"
        if word == "end":
            return "end"
        return None

    obj_text: list[str] = []
    constr_rows: list[str] = []
    bound_rows: list[str] = []
    general_names: list[str] = []
    binary_names: list[str] = []
    current = None
    for line in lines[i:]:
        stripped = line.strip()
        if not stripped or stripped.startswith("\\"):
            continue
        sec = section(stripped)
        if sec == "end":
            break
        if sec is not None:
            current = sec
            continue
        if current == "objective":
            obj_text.append(stripped)
        elif current == "constraints":
            if ":" in stripped and not stripped.split(":", 1)[0].strip().count(" "):
                constr_rows.append(stripped)
            else:
                constr_rows[-1] += " " + stripped
        elif current == "bounds":
            bound_rows.append(stripped)
        elif current == "generals":
            general_names.extend(stripped.split())
        elif current == "binaries":
            binary_names.extend(stripped.split())
        else:
            raise ModelError(f"unexpected line outside any section: {stripped!r}")

    objective = " ".join(obj_text)
    if objective.split(":", 1)[-1].strip():
        raise ModelError(f"objective {objective!r} is not empty")

    parsed_constrs: list[tuple[str, list[tuple[str, float]], str, float]] = []
    for row in constr_rows:
        name, _, rest = row.partition(":")
        m = re.search(r"(<=|>=|=)", rest)
        if not m:
            raise ModelError(f"constraint without comparator: {row!r}")
        lhs = rest[: m.start()]
        rhs = float(rest[m.end():])
        parsed_constrs.append((name.strip(), _parse_terms(lhs), m.group(1), rhs))

    # declare variables in first-appearance order to mirror emit ordering
    bounds: dict[str, tuple[float, float]] = {}
    order: list[str] = []
    seen: set[str] = set()

    def note(varname: str) -> None:
        if varname not in seen:
            seen.add(varname)
            order.append(varname)

    # emit_lp writes every variable's finite bounds as one lo <= var <= hi row
    for row in bound_rows:
        m = re.match(
            r"^(?P<lo>[-+0-9eE.]+)\s*<=\s*(?P<var>\w+)\s*<=\s*(?P<hi>[-+0-9eE.]+)$", row
        )
        if m:
            note(m.group("var"))
            bounds[m.group("var")] = (float(m.group("lo")), float(m.group("hi")))
            continue
        raise ModelError(f"cannot parse bound row {row!r}")

    for varname in general_names + binary_names:
        note(varname)
    for _, terms, _, _ in parsed_constrs:
        for varname, _ in terms:
            note(varname)

    general_set = set(general_names)
    binary_set = set(binary_names)
    for varname in order:
        if varname not in bounds:
            raise ModelError(f"no bounds row for {varname!r}")
        kind = (BINARY if varname in binary_set
                else INTEGER if varname in general_set else CONTINUOUS)
        model.add_var(varname, kind, *bounds[varname])

    for name, terms, cmp_op, rhs in parsed_constrs:
        model.add_constr(name, terms, cmp_op, rhs)
    return model
