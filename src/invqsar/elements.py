"""Chemical element table: symbols, valence variants and integer mass surrogates.

An element is identified by (symbol, valence).  Multi-valence atoms such as
sulfur are modelled as distinct elements S(2), S(4), S(6); the bare token
"S" resolves to the default (lowest) valence.  The mass surrogate is
floor(10 * atomic mass), kept as an exact integer.
"""

from __future__ import annotations

from dataclasses import dataclass, field


class UnknownElementError(ValueError):
    """Raised for element tokens outside the supported table."""


@dataclass(frozen=True, order=True)
class ElementSpec:
    """One chemical element variant: symbol, valence and mass surrogate.

    The token, the hydrogen flag and the hash are worked out once, when the
    element is made: descriptor counting reads them for every atom.  They
    take no part in comparisons."""

    symbol: str
    valence: int
    mass_star: int
    # printable token; explicit valence for non-default variants
    token: str = field(init=False, repr=False, compare=False)
    is_hydrogen: bool = field(init=False, repr=False, compare=False)
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not 1 <= self.valence <= 6:
            raise ValueError(f"valence {self.valence} outside [1,6] for {self.symbol}")
        if self.mass_star <= 0:
            raise ValueError(f"mass_star must be positive, got {self.mass_star}")
        token = (self.symbol if DEFAULT_VALENCE.get(self.symbol) == self.valence
                 else f"{self.symbol}({self.valence})")
        object.__setattr__(self, "token", token)
        object.__setattr__(self, "is_hydrogen", self.symbol == "H")
        object.__setattr__(self, "_hash", hash((self.symbol, self.valence, self.mass_star)))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # a copy or an unpickled element is made anew, so that its hash is
        # the hash of the process that reads it
        return ElementSpec, (self.symbol, self.valence, self.mass_star)

    def __str__(self) -> str:
        return self.token


# floor(10 * standard atomic weight)
_MASS10 = {
    "H": 10,
    "B": 108,
    "C": 120,
    "N": 140,
    "O": 159,
    "F": 189,
    "Si": 280,
    "P": 309,
    "S": 320,
    "Cl": 354,
    "Br": 799,
    "I": 1269,
}

# valences allowed per symbol, default (first) used for bare tokens
_VALENCES = {
    "H": (1,),
    "B": (3,),
    "C": (4, 2, 3, 5),
    "N": (3, 1, 2, 4, 5),
    "O": (2,),
    "F": (1,),
    "Si": (4,),
    "P": (3, 5),
    "S": (2, 4, 6),
    "Cl": (1,),
    "Br": (1,),
    "I": (1,),
}

DEFAULT_VALENCE = {sym: vals[0] for sym, vals in _VALENCES.items()}

# the one shared ElementSpec of each (symbol, valence) that ElementSpec accepts
_SHARED = {
    (symbol, valence): ElementSpec(symbol, valence, mass)
    for symbol, mass in _MASS10.items()
    for valence in range(1, 7)
}

# each shared element by its printable token: the one way an element is
# spelled in a fringe-tree code
BY_TOKEN = {e.token: e for e in _SHARED.values()}


# each symbol's shared elements from its default valence up, smallest first:
# the variants that SDF ingest picks from by bond sum
INGEST_LADDER = {
    symbol: tuple(_SHARED[symbol, v] for v in sorted(vals) if v >= vals[0])
    for symbol, vals in _VALENCES.items()
}


def make_element(symbol: str, valence: int | None = None) -> ElementSpec:
    """The shared ElementSpec of a symbol and optional explicit valence."""
    if valence is None:
        valence = DEFAULT_VALENCE.get(symbol)
    spec = _SHARED.get((symbol, valence))
    if spec is None:
        if symbol not in _MASS10:
            raise UnknownElementError(f"unknown element symbol {symbol!r}")
        raise ValueError(f"valence {valence!r} of {symbol} is not an integer in [1,6]")
    return spec


def parse_element(token: str) -> ElementSpec:
    """Parse a token like "C" or "S(6)" into an ElementSpec.  The token is
    taken as it is: one with spaces around or inside it is unknown."""
    if token.endswith(")") and "(" in token:
        sym, _, rest = token.partition("(")
        digits = rest[:-1]
        if not (digits.isascii() and digits.isdigit()):
            raise UnknownElementError(f"bad element token {token!r}")
        return make_element(sym, int(digits))
    return make_element(token)


def allowed_valences(symbol: str) -> tuple[int, ...]:
    """Valence variants supported for a symbol, smallest first."""
    if symbol not in _VALENCES:
        raise UnknownElementError(f"unknown element symbol {symbol!r}")
    return tuple(sorted(_VALENCES[symbol]))
