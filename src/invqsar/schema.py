"""One strict reader for the pipeline's JSON documents.

A document kind is a Table of Fields: key, kind (the value's JSON type and
range) and default.  `Table.read` checks a parsed JSON object against its
table.  An unknown key, a missing required key, or a value of the wrong
JSON type or out of range raises the reader's error class, with a message
naming the value's path (e.g. `seed.edges[0].tail`).  Integers must be
JSON integers (a bool is not one) and numbers must be finite.  A path is
a linked (parent, key) pair, spelled out only when a fault is raised.
`Table.write` turns an object back into JSON by walking the same fields.
"""

from __future__ import annotations

import json
import math
from collections import ChainMap
from operator import attrgetter

from .elements import parse_element

REQUIRED = object()


class InputError(ValueError):
    """A file or artifact that does not hold what it should, such as a
    `space.json` with a missing key or a feature CSV with a short row."""


def _spell(path) -> str:
    """`seed.edges[0].tail` for the path (((None, 'seed'), 'edges'), 0), 'tail')."""
    parts = []
    while path is not None:
        path, key = path
        parts.append(f"[{key}]" if type(key) is int else f".{key}")
    return "".join(reversed(parts)).removeprefix(".")


class Reader:
    """Reads one document: faults raise `error` with a message that starts
    with `what`.  Tables whose defaults depend on values read earlier see
    them in `scope`, innermost record first."""

    def __init__(self, what: str, error: type[Exception]):
        self.what = what
        self.error = error
        self.scope = ChainMap()

    def loads(self, text: str):
        try:
            return json.loads(text)
        except json.JSONDecodeError as exc:
            raise self.error(f"{self.what} is not valid JSON: {exc}") from exc

    def fail(self, path, problem: str):
        subject = self.what if path is None else f"{self.what} key {_spell(path)!r}"
        raise self.error(f"{subject} {problem}")

    def make(self, path, build, *args):
        """build(*args); the ValueError with which it rejects the values
        read is a fault at path."""
        try:
            return build(*args)
        except ValueError as exc:
            self.fail(path, f"is invalid: {exc}")


class Kind:
    """How a JSON value is read (checked and converted) and written."""

    def __init__(self, read, write=lambda value: value):
        self.read = read  # (reader, value, path) -> value
        self.write = write


def integer(low=None, high=None) -> Kind:
    lo = -math.inf if low is None else low
    hi = math.inf if high is None else high
    bounds = (f"must be at least {low}" if high is None else
              f"must be at most {high}" if low is None else
              f"must be in [{low}, {high}]")

    def read(r, v, path):
        if type(v) is not int:
            r.fail(path, "must be an integer")
        if not lo <= v <= hi:
            r.fail(path, bounds)
        return v
    return Kind(read)


def number(low=-math.inf) -> Kind:
    def read(r, v, path):
        if type(v) not in (int, float) or not math.isfinite(v):
            r.fail(path, "must be a finite number")
        if v < low:
            r.fail(path, f"must be at least {low}")
        return float(v)
    return Kind(read)


def _typed(json_type, name: str) -> Kind:
    def read(r, v, path):
        if type(v) is not json_type:
            r.fail(path, f"must be {name}")
        return v
    return Kind(read)


INTEGER = integer()
COUNT = integer(0)
NUMBER = number()
STRING = _typed(str, "a string")
BOOLEAN = _typed(bool, "true or false")
ELEMENT = Kind(lambda r, v, path: r.make(path, parse_element, STRING.read(r, v, path)),
               lambda e: e.token)


def optional(kind: Kind) -> Kind:
    """kind, or JSON null read as None."""
    return Kind(lambda r, v, path: None if v is None else kind.read(r, v, path),
                lambda v: None if v is None else kind.write(v))


def list_of(item: Kind, length: int | None = None, key=None) -> Kind:
    """A JSON list, read as a tuple.  With `key`, no two entries may have
    equal key(entry): a repeat is a fault at its index."""
    def read(r, v, path):
        if type(v) is not list or (length is not None and len(v) != length):
            r.fail(path, "must be a list" if length is None
                   else f"must be a list of {length} values")
        read_item = item.read
        values = tuple([read_item(r, x, (path, i)) for i, x in enumerate(v)])
        if key is not None:
            seen = set()
            for i, x in enumerate(values):
                k = key(x)
                if k in seen:
                    r.fail((path, i), "repeats an earlier entry")
                seen.add(k)
        return values
    return Kind(read, lambda values: [item.write(x) for x in values])


def map_of(key: Kind, item: Kind) -> Kind:
    """A JSON object with free keys, each read by `key`."""
    def read(r, v, path):
        if type(v) is not dict:
            r.fail(path, "must be a JSON object")
        return {key.read(r, k, (path, k)): item.read(r, x, (path, k))
                for k, x in v.items()}
    return Kind(read, lambda m: {key.write(k): item.write(x) for k, x in m.items()})


class Field:
    """One key of a JSON object.  default is a value, a callable of the
    reader's scope, or REQUIRED; attr names (or a callable gets) the value
    written from an object."""

    def __init__(self, key: str, kind: Kind, default=REQUIRED, attr=None):
        self.key = key
        self.kind = kind
        self.default = default
        self.get = attr if callable(attr) else attrgetter(attr or key)


class Table(Kind):
    """A JSON object with a fixed set of keys.  Reading gives a dict by key,
    or make(reader, path, that dict)."""

    def __init__(self, *fields: Field, make=None, write=None):
        super().__init__(self.read, write or self.write)
        self.fields = fields
        self.keys = frozenset(f.key for f in fields)
        self.plan = tuple((f.key, f.kind.read, f.default) for f in fields)
        self.make = make
        self.scoped = any(callable(f.default) for f in fields)

    def read(self, r: Reader, v, path=None):
        if type(v) is not dict:
            r.fail(path, "must be a JSON object")
        got = {}
        if self.scoped:
            r.scope = r.scope.new_child(got)
        found = 0
        for key, read, default in self.plan:
            if key in v:
                found += 1
                got[key] = read(r, v[key], (path, key))
            elif default is REQUIRED:
                raise r.error(f"{r.what} is missing key {_spell((path, key))!r}")
            else:
                got[key] = default(r.scope) if callable(default) else default
        if found != len(v):
            r.fail((path, min(v.keys() - self.keys)), "is unknown")
        if self.scoped:
            r.scope = r.scope.parents
        return got if self.make is None else self.make(r, path, got)

    def write(self, obj) -> dict:
        return {f.key: f.kind.write(f.get(obj)) for f in self.fields}
