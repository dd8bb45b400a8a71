"""Full MILP construction for inverse design under a topological spec.

The model selects a subgraph of a layered scheme graph (seed vertices C,
path slots T, leaf-path slots F), assigns colors that carve paths out of
the slot sequences, attaches one fringe tree per used interior vertex,
assigns elements and bond multiplicities subject to the valence condition,
tallies every descriptor of the feature vector, and couples the normalized
feature variables to a linear predictor whose output must land in a target
interval.

Variable names are a fixed, documented scheme (eC_3, chiT_5, dfrC_1_2, ...)
so solutions can be decoded independently of the solver used.  The bond
positions of the scheme graph are one table, `bond_slots(spec)`: the
builder writes every bond row from it and the decoder makes every interior
bond from it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import groupby

from ..descriptors import SCALARS, DescriptorSpace, space_hash
from ..elements import ElementSpec
from ..regression import LinearPredictor
from ..topospec import (
    FIXED,
    FLEXIBLE,
    OPTIONAL,
    PATH,
    SeedEdge,
    TopologicalSpecification,
)
from .model import BINARY, CONTINUOUS, EQ, GE, INTEGER, LE, MILPModel


# Relative slack of the normalization sandwich (see add_normalization).
EPSILON = 1e-5

# the model variable x_j of each scalar descriptor, by name
SCALAR_X = {s.name: f"x_{j}" for j, s in enumerate(SCALARS, start=1)}

# Components of the interior-bond tally bdint: bonds on direct seed edges,
# between path slots, between leaf-path slots, first and last bonds of paths,
# and leaf-path root bonds hanging from a seed vertex or from a path slot.
BOND_PARTS = ("C", "T", "F", "CT", "TC", "CF", "TF")


class BuildError(ValueError):
    pass


@dataclass(frozen=True)
class SymbolInfo:
    """Chemical-symbol slot: element index (1-based in lambda_int) + degree."""

    element_pos: int
    degree: int


@dataclass(frozen=True)
class BondSlot:
    """A bond position of the scheme graph: bond b{name} (0..3) with
    indicators db{name}_{m}, nonzero exactly when the binary `used` is 1.
    `ends` are its two end vertices, each a (role, layer, index) triple:
    role "slot" is slot `index` of layer C, T or F itself, "first" and
    "last" are the first and last slot of the run of path color (layer T)
    or leaf color (layer F) `index`.  `part` is the BOND_PARTS component its
    bonds count toward."""

    name: str
    ends: tuple[tuple[str, str, int], tuple[str, str, int]]
    used: str
    part: str


# the symbol indicators of a bond end, by its role: {prefix}{layer}_{index}_{s}
SYMBOL_PREFIX = {"slot": "cs", "first": "fs", "last": "ls"}


def bond_slots(spec: TopologicalSpecification) -> list[BondSlot]:
    """Every bond slot in declaration order, grouped by owner: a direct
    seed edge, a T or F slot edge, a colored seed edge (its first bond
    CTk and last bond TCk, which share dclrT_k) and a leaf color, rooted
    at a leaf-path seed vertex or else at a T slot."""
    seed, leafable = spec.seed, spec.seed.leafable
    slots = [
        BondSlot(f"C_{e.index}", (("slot", "C", e.tail), ("slot", "C", e.head)),
                 f"eC_{e.index}", "C")
        for e in seed.edges_of_class(FLEXIBLE, OPTIONAL, FIXED)
    ]
    for x, n in (("T", spec.t_tree), ("F", spec.t_leaf)):
        slots += [
            BondSlot(f"{x}_{i}", (("slot", x, i - 1), ("slot", x, i)), f"e{x}_{i}", x)
            for i in range(2, n + 1)
        ]
    for e in seed.edges_of_class(PATH, FLEXIBLE):
        k = e.index
        slots.append(BondSlot(f"CTk_{k}", (("slot", "C", e.tail), ("first", "T", k)),
                              f"dclrT_{k}", "CT"))
        slots.append(BondSlot(f"TCk_{k}", (("last", "T", k), ("slot", "C", e.head)),
                              f"dclrT_{k}", "TC"))
    for c in range(1, spec.c_f + 1):
        if c <= len(leafable):
            root, part = ("slot", "C", leafable[c - 1]), "CF"
        else:
            root, part = ("slot", "T", c - len(leafable)), "TF"
        slots.append(BondSlot(f"sF_{c}", (root, ("first", "F", c)), f"dclrF_{c}", part))
    return slots


def _all_zero(terms) -> bool:
    """Whether every coefficient of the (name, coefficient) pairs is 0;
    most rows answer at their first term."""
    for _, c in terms:
        if c != 0:
            return False
    return True


def check_rho(spec: TopologicalSpecification, space: DescriptorSpace) -> None:
    """BuildError unless the spec and the space share their rho."""
    if spec.rho != space.rho:
        raise BuildError(f"specification rho {spec.rho} differs from the "
                         f"descriptor space's rho {space.rho}")


class Build:
    """Incremental model builder shared by the constraint-family functions."""

    def __init__(self, spec: TopologicalSpecification, space: DescriptorSpace):
        check_rho(spec, space)
        self.spec = spec
        self.space = space
        self.model = MILPModel(name="inverse_design")
        self.m = self.model

        seed = spec.seed
        self.t_c = seed.t_c
        self.k_c = seed.k_c
        self.t_t = spec.t_tree
        self.t_f = spec.t_leaf
        self.leafable = seed.leafable  # tuple of seed positions
        self.t_c_tilde = len(self.leafable)
        self.c_f = spec.c_f
        self.rho = spec.rho
        self.n_star = spec.n_star

        # edge groups by class (indices are 1-based positions in seed.edges)
        self.path_edges = seed.edges_of_class(PATH)
        self.flexible_edges = seed.edges_of_class(FLEXIBLE)
        self.optional_edges = seed.edges_of_class(OPTIONAL)
        self.fixed_edges = seed.edges_of_class(FIXED)
        self.colored_edges = seed.edges_of_class(PATH, FLEXIBLE)  # k in 1..kC
        self.direct_edges = seed.edges_of_class(FLEXIBLE, OPTIONAL, FIXED)

        # element tables
        self.lam_int = spec.lambda_int
        self.lam_ex = spec.lambda_ex
        self.lam_int_pos = {e: i + 1 for i, e in enumerate(self.lam_int)}
        self.lam_all = tuple(
            sorted(set(self.lam_int) | set(self.lam_ex))
        )
        for e in self.lam_int:
            if e not in space.lambda_int:
                raise BuildError(
                    f"interior element {e.token} is not in the descriptor space"
                )
        for e in self.lam_ex:
            if e not in space.lambda_ex:
                raise BuildError(
                    f"exterior element {e.token} is not in the descriptor space"
                )

        # fringe menu: entries in spec order; all must be indexed by the space
        self.psis = spec.fringe_entries
        self.psi_pos = {f.psi_id: p + 1 for p, f in enumerate(self.psis)}
        for f in self.psis:
            if f.tree.canonical_code not in space.fringe_codes:
                raise BuildError(
                    f"fringe tree {f.psi_id} is not in the descriptor space"
                )
            if f.tree.root_element not in self.lam_int_pos:
                raise BuildError(
                    f"fringe tree {f.psi_id} root element "
                    f"{f.tree.root_element.token} outside the interior elements"
                )
            for token in f.tree.nonroot_element_counts:
                if all(e.token != token for e in self.lam_ex):
                    raise BuildError(
                        f"fringe tree {f.psi_id} uses exterior element {token} "
                        "outside lambda_ex"
                    )

        # chemical symbols over interior elements x degrees 1..4
        self.symbols: list[SymbolInfo] = []
        for pos in range(1, len(self.lam_int) + 1):
            for d in range(1, 5):
                self.symbols.append(SymbolInfo(pos, d))
        self.sym_pos = {
            (s.element_pos, s.degree): i + 1 for i, s in enumerate(self.symbols)
        }

        # ordered edge-configuration list over the space catalog
        self.ordered_configs: list[tuple[int, int, int, int]] = []
        # entries: (symbol pos of mu, symbol pos of mu', mult, gamma index)
        for gi, gamma in enumerate(space.gamma_int):
            mu_pos = self._sym_pos_for(gamma.mu.element, gamma.mu.degree)
            mu2_pos = self._sym_pos_for(gamma.mu_prime.element, gamma.mu_prime.degree)
            if mu_pos is None or mu2_pos is None:
                continue  # configuration uses an element this spec cannot place
            self.ordered_configs.append((mu_pos, mu2_pos, gamma.mult, gi))
            if mu_pos != mu2_pos:
                self.ordered_configs.append((mu2_pos, mu_pos, gamma.mult, gi))

        self.mass_avg_ub = self._mass_bound()
        self.bond_slots = bond_slots(spec)

    def _sym_pos_for(self, elem: ElementSpec, degree: int) -> int | None:
        pos = self.lam_int_pos.get(elem)
        if pos is None:
            return None
        return self.sym_pos[(pos, degree)]

    def _mass_bound(self) -> int | float:
        if self.spec.mass_avg_ub is not None:
            return self.spec.mass_avg_ub
        return max(e.mass_star for e in self.lam_all)

    # -- small helpers ------------------------------------------------------

    def row(self, name: str, terms, sense: str, rhs) -> None:
        """A row whose coefficients are all zero is not written: it is
        skipped when 0 satisfies it and marked infeasible otherwise.  Any
        other row goes to add_constr, which drops its zero coefficients."""
        if _all_zero(terms):
            ok = (
                (sense == LE and rhs >= 0)
                or (sense == GE and rhs <= 0)
                or (sense == EQ and rhs == 0)
            )
            if not ok:
                self.mark_infeasible(name)
            return
        self.m.add_constr(name, terms, sense, rhs)

    def rng(self, name: str, terms, lo, hi) -> None:
        if lo > hi:
            self.mark_infeasible(name)
            return
        if _all_zero(terms):
            if lo > 0 or hi < 0:
                self.mark_infeasible(name)
            return
        if lo == hi:
            self.m.add_constr(name, terms, EQ, lo)
            return
        self.m.add_constr(f"{name}_lo", terms, GE, lo)
        self.m.add_constr(f"{name}_hi", terms, LE, hi)

    def mark_infeasible(self, why: str) -> None:
        """Record an unsatisfiable requirement as an explicit contradiction,
        the row never_<why>; why must be unique and a valid LP name."""
        name = f"never_{why}"
        if not self.m.has_var("always_zero"):
            self.m.add_var("always_zero", BINARY, 0, 0)
        self.m.add_constr(name, {"always_zero": 1.0}, GE, 1.0)

    def ivar(self, name: str, lb, ub) -> str:
        """Integer variable; crossing bounds become an explicit contradiction."""
        if lb > ub:
            self.mark_infeasible(f"{name}_bounds")
            return self.m.add_var(name, INTEGER, 0, 0)
        return self.m.add_var(name, INTEGER, lb, ub)

    # -- linearization idioms -------------------------------------------------

    def define(self, name: str, terms, var: str) -> None:
        """The row var = sum(terms), written sum(terms) - var = 0."""
        self.row(name, list(terms) + [(var, -1)], EQ, 0)

    def one_hot(self, name: str, indicators, used: str | None = None,
                value: tuple[str, list[str]] | None = None) -> None:
        """Exactly one binary of `indicators`, (binary, code) pairs, is 1;
        with a binary `used`, one is 1 when `used` is and none otherwise.
        `value` = (row name, variables) adds the row sum(code * binary) =
        sum(variables)."""
        pick = [(d, 1) for d, _ in indicators]
        if used is None:
            self.row(name, pick, EQ, 1)
        else:
            self.row(name, pick + [(used, -1)], EQ, 0)
        if value is not None:
            row, total = value
            self.row(row, list(indicators) + [(v, -1) for v in total], EQ, 0)

    def conjunction(self, z: str, names, operands, unless: str | None = None,
                    within: str | None = None) -> None:
        """Binary z is the AND of the binaries `operands` and, when given,
        of NOT `unless`.  The rows, named by `names` in this order:
            z >= sum(operands) - unless - (n - 1)
            z <= a, for each operand a
            z <= within - unless, only with `within`, a binary implied by
                the operands and by `unless`.
        With a single name only the first row is written: z >= the AND."""
        lo = [(z, 1)] + [(a, -1) for a in operands]
        if unless is not None:
            lo.append((unless, 1))
        self.row(names[0], lo, GE, 1 - len(operands))
        for name, a in zip(names[1:], operands):
            self.row(name, [(z, 1), (a, -1)], LE, 0)
        if within is not None:
            cap = [(z, 1), (within, -1)]
            if unless is not None:
                cap.append((unless, 1))
            self.row(names[-1], cap, LE, 0)

    def gated_range(self, names, terms, gate, on, off) -> None:
        """sum(terms) lies in [on] when the binary expression `gate` (terms)
        is 1 and in [off] when it is 0: two big-M rows, >= then <=, each
        bound moving linearly with the gate."""
        lo = [(v, -(on[0] - off[0]) * c) for v, c in gate]
        hi = [(v, -(on[1] - off[1]) * c) for v, c in gate]
        self.row(names[0], list(terms) + lo, GE, off[0])
        self.row(names[1], list(terms) + hi, LE, off[1])

    # edge incidence helpers (1-based positions)
    def colored_at(self, pos: int, role: str) -> list[SeedEdge]:
        return [
            e
            for e in self.colored_edges
            if (role == "tail" and e.tail == pos) or (role == "head" and e.head == pos)
        ]

    def direct_at(self, pos: int) -> list[SeedEdge]:
        return [e for e in self.direct_edges if pos in (e.tail, e.head)]

    def leaf_color_of_vertex(self, pos: int) -> int | None:
        """Leaf-path color of a permitted seed vertex, None otherwise."""
        try:
            return self.leafable.index(pos) + 1
        except ValueError:
            return None


# -- constraint families -------------------------------------------------


def _slot_colors(b: Build, family: str, x: str, ind: str, n_colors: int) -> None:
    """Colors over the slot sequence of layer x (T or F): slot i takes color
    chi{x}_i, 0 exactly when unused (indicators {ind}_i_c); used slots form
    a prefix, e{x}_i joins consecutive slots of one color, clr{x}_c counts
    the slots of color c and dclr{x}_c marks the colors in use."""
    n = _slots(b, x)
    for i in range(1, n + 1):
        b.row(f"{family}_unused_{i}", [(f"{ind}_{i}_0", 1), (f"v{x}_{i}", 1)], EQ, 1)
        b.one_hot(
            f"{family}_onehot_{i}",
            [(f"{ind}_{i}_{c}", c) for c in range(0, n_colors + 1)],
            value=(f"{family}_code_{i}", [f"chi{x}_{i}"]),
        )
    for c in range(0, n_colors + 1):
        column = [(f"{ind}_{i}_{c}", 1) for i in range(1, n + 1)]
        b.define(f"{family}_count_{c}", column, f"clr{x}_{c}")
        b.row(
            f"{family}_used_hi_{c}",
            [(f"dclr{x}_{c}", n)] + [(v, -1) for v, _ in column],
            GE,
            0,
        )
        b.row(f"{family}_used_lo_{c}", column + [(f"dclr{x}_{c}", -1)], GE, 0)
    for i in range(2, n + 1):
        b.row(
            f"{family}_prefix_{i}", [(f"v{x}_{i - 1}", 1), (f"v{x}_{i}", -1)], GE, 0
        )
        b.row(
            f"{family}_chain_hi_{i}",
            [
                (f"v{x}_{i - 1}", n_colors),
                (f"e{x}_{i}", -n_colors),
                (f"chi{x}_{i - 1}", -1),
                (f"chi{x}_{i}", 1),
            ],
            GE,
            0,
        )
        b.row(
            f"{family}_chain_lo_{i}",
            [
                (f"chi{x}_{i - 1}", 1),
                (f"chi{x}_{i}", -1),
                (f"v{x}_{i - 1}", -1),
                (f"e{x}_{i}", 1),
            ],
            GE,
            0,
        )


def add_cyclical_base(b: Build) -> None:
    """Seed-edge selection, path colors over the T slots, rank accounting."""
    m, spec = b.m, b.spec
    seed = spec.seed
    for e in seed.edges:
        m.add_var(f"eC_{e.index}", BINARY)
    for i in range(1, b.t_t + 1):
        m.add_var(f"vT_{i}", BINARY)
    for i in range(2, b.t_t + 1):
        m.add_var(f"eT_{i}", BINARY)
    for i in range(1, b.t_t + 1):
        m.add_var(f"chiT_{i}", INTEGER, 0, b.k_c)
        for k in range(0, b.k_c + 1):
            m.add_var(f"chiTk_{i}_{k}", BINARY)
    m.add_var("clrT_0", INTEGER, 0, b.t_t)
    for e in b.colored_edges:
        lo = max(0, e.len_lb - 1)
        hi = min(e.len_ub - 1, b.t_t)
        if lo > hi:
            m.add_var(f"clrT_{e.index}", INTEGER, 0, 0)
            b.mark_infeasible(f"clrT_{e.index}_range")
        else:
            m.add_var(f"clrT_{e.index}", INTEGER, lo, hi)
    for k in range(0, b.k_c + 1):
        m.add_var(f"dclrT_{k}", BINARY)
    for i in range(1, b.t_c + 1):
        m.add_var(f"tdgCout_{i}", INTEGER, 0, 4)
        m.add_var(f"tdgCin_{i}", INTEGER, 0, 4)
    n_optional = len(b.optional_edges)
    m.add_var("rank", INTEGER, seed.rank - n_optional, seed.rank)

    # rank = rank(seed) - sum of dropped optional edges
    b.row(
        "co_rank",
        [("rank", 1)] + [(f"eC_{e.index}", -1) for e in b.optional_edges],
        EQ,
        seed.rank - n_optional,
    )
    for e in b.fixed_edges:
        b.row(f"co_fix_{e.index}", [(f"eC_{e.index}", 1)], EQ, 1)
    for e in b.path_edges:
        b.row(f"co_drop_{e.index}", [(f"eC_{e.index}", 1)], EQ, 0)
        b.row(f"co_need_{e.index}", [(f"clrT_{e.index}", 1)], GE, 1)
    for e in b.flexible_edges:
        b.row(
            f"co_either_{e.index}",
            [(f"eC_{e.index}", 1), (f"clrT_{e.index}", 1)],
            GE,
            1,
        )
        b.row(
            f"co_excl_{e.index}",
            [(f"clrT_{e.index}", 1), (f"eC_{e.index}", b.t_t)],
            LE,
            b.t_t,
        )
    for i in range(1, b.t_c + 1):
        outs = [(f"eC_{e.index}", 1) for e in b.direct_edges if e.tail == i]
        ins = [(f"eC_{e.index}", 1) for e in b.direct_edges if e.head == i]
        b.define(f"co_outdeg_{i}", outs, f"tdgCout_{i}")
        b.define(f"co_indeg_{i}", ins, f"tdgCin_{i}")
    _slot_colors(b, "co", "T", "chiTk", b.k_c)


def add_leaf_paths(b: Build) -> None:
    """Leaf-path colors over the F slots, leaf-branch budget, interior size."""
    m, spec = b.m, b.spec
    for i in range(1, b.t_f + 1):
        m.add_var(f"vF_{i}", BINARY)
    for i in range(2, b.t_f + 1):
        m.add_var(f"eF_{i}", BINARY)
    for i in range(1, b.t_f + 1):
        m.add_var(f"chiF_{i}", INTEGER, 0, b.c_f)
        for c in range(0, b.c_f + 1):
            m.add_var(f"chiFc_{i}_{c}", BINARY)
    for c in range(0, b.c_f + 1):
        m.add_var(f"clrF_{c}", INTEGER, 0, b.t_f)
    m.add_var("dclrF_0", BINARY)
    for c in range(1, b.c_f + 1):
        if c <= b.t_c_tilde:
            lb = spec.seed.vertices[b.leafable[c - 1] - 1].leaf_path_lb
        else:
            lb = 0
        m.add_var(f"dclrF_{c}", BINARY, lb, 1)
    for e in b.colored_edges:
        for i in range(1, b.t_t + 1):
            m.add_var(f"bl_{e.index}_{i}", BINARY)
    m.add_var("nintG", INTEGER, spec.n_int_lb, spec.n_int_ub)

    _slot_colors(b, "lp", "F", "chiFc", b.c_f)
    for e in b.colored_edges:
        for i in range(1, b.t_t + 1):
            b.conjunction(
                f"bl_{e.index}_{i}",
                [f"lp_branch_{e.index}_{i}"],
                [f"dclrF_{b.t_c_tilde + i}", f"chiTk_{i}_{e.index}"],
            )
    if b.colored_edges and b.t_t:
        b.row(
            "lp_branch_budget",
            [
                (f"bl_{e.index}_{i}", 1)
                for e in b.colored_edges
                for i in range(1, b.t_t + 1)
            ]
            + [(f"dclrF_{b.t_c_tilde + i}", -1) for i in range(1, b.t_t + 1)],
            LE,
            0,
        )
    for e in b.colored_edges:
        b.rng(
            f"lp_branches_{e.index}",
            [(f"bl_{e.index}_{i}", 1) for i in range(1, b.t_t + 1)],
            e.branch_lb,
            e.branch_ub,
        )
    b.row(
        "lp_interior_size",
        [(f"vT_{i}", 1) for i in range(1, b.t_t + 1)]
        + [(f"vF_{i}", 1) for i in range(1, b.t_f + 1)]
        + [("nintG", -1)],
        EQ,
        -b.t_c,
    )


def _slots(b: Build, x: str) -> int:
    return {"C": b.t_c, "T": b.t_t, "F": b.t_f}[x]


def _fringe_terms(b: Build, x: str, i: int, weight) -> list[tuple[str, int]]:
    """(choice binary, weight(fringe entry)) for each fringe tree on the menu
    of slot i of layer x."""
    by_id = b.spec.fringe_by_id
    return [
        (f"dfr{x}_{i}_{b.psi_pos[psi]}", weight(by_id[psi]))
        for psi in b.spec.fringe_menu(x, i)
    ]


def _all_fringe_terms(b: Build, weight, layers: str = "CTF") -> list[tuple[str, int]]:
    """_fringe_terms over every slot of the given layers."""
    return [
        term
        for x in layers
        for i in range(1, _slots(b, x) + 1)
        for term in _fringe_terms(b, x, i, weight)
    ]


def _used(x: str, i: int) -> str | None:
    """Binary telling whether slot i of layer x is used; seed vertices
    always are."""
    return None if x == "C" else f"v{x}_{i}"


def add_fringe_trees(b: Build) -> None:
    """Fringe-tree choice per interior vertex plus height accounting."""
    m, spec = b.m, b.spec
    by_id = spec.fringe_by_id
    for x in "CTF":
        for i in range(1, _slots(b, x) + 1):
            for psi in spec.fringe_menu(x, i):
                m.add_var(f"dfr{x}_{i}_{b.psi_pos[psi]}", BINARY)
            m.add_var(f"degex{x}_{i}", INTEGER, 0, 3)
            m.add_var(f"hyddeg{x}_{i}", INTEGER, 0, 4)
            m.add_var(f"eledeg{x}_{i}", INTEGER, -3, 3)
            m.add_var(f"h{x}_{i}", INTEGER, 0, b.rho)
    b.ivar("nG", spec.n_lb, spec.n_star)
    for p, f in enumerate(b.psis, start=1):
        b.ivar(f"fc_{p}", f.fc_lb, min(f.fc_ub, spec.n_int_ub))
    for ai in range(len(b.space.ac_lf)):
        m.add_var(f"aclf_{ai + 1}", INTEGER, 0, 4 * b.n_star)
    for e in b.colored_edges:
        for i in range(1, b.t_t + 1):
            m.add_var(f"sig_{e.index}_{i}", BINARY)

    for x in "CTF":
        for i in range(1, _slots(b, x) + 1):
            b.one_hot(
                f"fr_pick_{x}_{i}",
                _fringe_terms(b, x, i, lambda f: b.psi_pos[f.psi_id]),
                _used(x, i),
            )
            # root attributes of the chosen tree
            for row, var, weight in (
                ("degex", "degex", lambda f: f.tree.root_heavy_children),
                ("hyddeg", "hyddeg", lambda f: f.tree.root_hydrogen_children),
                ("eledeg", "eledeg", lambda f: f.tree.root_charge),
                ("height", "h", lambda f: f.tree.height),
            ):
                b.define(f"fr_{row}_{x}_{i}", _fringe_terms(b, x, i, weight),
                         f"{var}{x}_{i}")
    # a leaf path must end in a full-height fringe tree
    for i in range(1, b.t_f + 1):
        tall = [
            (f"dfrF_{i}_{b.psi_pos[psi]}", 1)
            for psi in spec.fringe_menu("F", i)
            if by_id[psi].tree.height == b.rho
        ]
        terms = tall + [(f"vF_{i}", -1)]
        if i < b.t_f:
            terms.append((f"eF_{i + 1}", 1))
        b.row(f"fr_tallend_{i}", terms, GE, 0)
    # heavy-atom count
    b.row(
        "fr_heavy_count",
        _all_fringe_terms(b, lambda f: f.tree.n_nonroot_heavy)
        + [(f"vT_{i}", 1) for i in range(1, b.t_t + 1)]
        + [(f"vF_{i}", 1) for i in range(1, b.t_f + 1)]
        + [("nG", -1)],
        EQ,
        -b.t_c,
    )
    # fringe-shape tallies
    for p, f in enumerate(b.psis, start=1):
        b.define(
            f"fr_count_{p}",
            [
                (f"dfr{x}_{i}_{p}", 1)
                for x in "CTF"
                for i in range(1, _slots(b, x) + 1)
                if f.psi_id in spec.fringe_menu(x, i)
            ],
            f"fc_{p}",
        )
    # leaf-edge adjacency-configuration tallies over the space catalog
    ac_key_to_idx = {
        (a.a.token, a.b.token, a.mult): ai + 1
        for ai, a in enumerate(b.space.ac_lf)
    }
    psi_ac: dict[str, dict[int, int]] = {}
    for f in b.psis:
        counts: dict[int, int] = {}
        for key, cnt in f.tree.leaf_edge_configs.items():
            idx = ac_key_to_idx.get(key)
            if idx is None:
                raise BuildError(
                    f"fringe tree {f.psi_id} contains leaf-edge configuration "
                    f"{'%s_%s_%d' % key} outside the descriptor space"
                )
            counts[idx] = counts.get(idx, 0) + cnt
        psi_ac[f.psi_id] = counts
    for ai in range(1, len(b.space.ac_lf) + 1):
        b.define(
            f"fr_ac_{ai}",
            _all_fringe_terms(b, lambda f: psi_ac[f.psi_id].get(ai, 0)),
            f"aclf_{ai}",
        )
    # requested bounds on leaf-edge configurations
    for i, bound in enumerate(spec.ac_bounds, start=1):
        key = (bound.config.a.token, bound.config.b.token, bound.config.mult)
        idx = ac_key_to_idx.get(key)
        if idx is None:
            if bound.lb > 0:
                # by position: a config label such as S(6)_C_1 is no LP name
                b.mark_infeasible(f"ac_lf_{i}")
            continue
        b.rng(f"fr_acrange_{idx}", [(f"aclf_{idx}", 1)], bound.lb, bound.ub)

    # height bounds at seed vertices
    big = b.n_star
    for pos in range(1, b.t_c + 1):
        sv = spec.seed.vertices[pos - 1]
        c = b.leaf_color_of_vertex(pos)
        if c is None:
            b.rng(f"fr_chC_{pos}", [(f"hC_{pos}", 1)], sv.height_lb, sv.height_ub)
            continue
        b.row(
            f"fr_chC_lo1_{pos}",
            [(f"hC_{pos}", 1), (f"dclrF_{c}", big)],
            GE,
            sv.height_lb,
        )
        b.row(f"fr_chC_lo2_{pos}", [(f"clrF_{c}", 1)], GE, sv.height_lb - b.rho)
        b.row(f"fr_chC_hi1_{pos}", [(f"hC_{pos}", 1)], LE, sv.height_ub)
        b.row(
            f"fr_chC_hi2_{pos}",
            [(f"clrF_{c}", 1), (f"dclrF_{c}", big)],
            LE,
            sv.height_ub - b.rho + big,
        )
    # height bounds over path interiors
    for e in b.colored_edges:
        k = e.index
        for i in range(1, b.t_t + 1):
            c = b.t_c_tilde + i
            b.row(
                f"fr_chT_hi1_{k}_{i}",
                [(f"hT_{i}", 1), (f"dclrF_{c}", -big), (f"chiTk_{i}_{k}", big)],
                LE,
                e.height_ub + big,
            )
            b.row(
                f"fr_chT_hi2_{k}_{i}",
                [(f"clrF_{c}", 1), (f"dclrF_{c}", big), (f"chiTk_{i}_{k}", big)],
                LE,
                e.height_ub - b.rho + 2 * big,
            )
        b.define(
            f"fr_argmax_{k}",
            [(f"sig_{k}_{i}", 1) for i in range(1, b.t_t + 1)],
            f"dclrT_{k}",
        )
        for i in range(1, b.t_t + 1):
            c = b.t_c_tilde + i
            b.row(
                f"fr_sigsel_{k}_{i}",
                [(f"chiTk_{i}_{k}", 1), (f"sig_{k}_{i}", -1)],
                GE,
                0,
            )
            b.row(
                f"fr_chT_lo1_{k}_{i}",
                [(f"hT_{i}", 1), (f"dclrF_{c}", big), (f"sig_{k}_{i}", -big)],
                GE,
                e.height_lb - big,
            )
            b.row(
                f"fr_chT_lo2_{k}_{i}",
                [(f"clrF_{c}", 1), (f"dclrF_{c}", -big), (f"sig_{k}_{i}", -big)],
                GE,
                e.height_lb - b.rho - 2 * big,
            )


def add_degree(b: Build) -> None:
    """Degree bookkeeping: interior degrees, full degrees, tallies."""
    m, spec = b.m, b.spec
    for i in range(1, b.t_c + 1):
        m.add_var(f"degCT_{i}", INTEGER, 0, 4)
        m.add_var(f"degTC_{i}", INTEGER, 0, 4)
    for x in "CTF":
        for i in range(1, _slots(b, x) + 1):
            d0 = 1 if x == "C" else 0
            m.add_var(f"deg{x}_{i}", INTEGER, 0, 4)
            m.add_var(f"degint{x}_{i}", INTEGER, d0, 4)
            for d in range(d0, 5):
                m.add_var(f"ddg{x}_{i}_{d}", BINARY)
                m.add_var(f"ddgint{x}_{i}_{d}", BINARY)
            for d in range(0, 5):
                m.add_var(f"dsup{x}_{i}_{d}", BINARY)
    for d in range(1, 5):
        m.add_var(f"dg_{d}", INTEGER, spec.deg_lb[d - 1], spec.deg_ub[d - 1])
        m.add_var(f"dgint_{d}", INTEGER, spec.deg_lb[d - 1], spec.deg_ub[d - 1])

    for i in range(1, b.t_c + 1):
        for row, role, var in (("ct", "tail", "degCT"), ("tc", "head", "degTC")):
            b.define(
                f"dg_{row}_{i}",
                [(f"dclrT_{e.index}", 1) for e in b.colored_at(i, role)],
                f"{var}_{i}",
            )
        c = b.leaf_color_of_vertex(i)
        terms = [
            (f"tdgCin_{i}", 1),
            (f"tdgCout_{i}", 1),
            (f"degCT_{i}", 1),
            (f"degTC_{i}", 1),
            (f"degintC_{i}", -1),
        ]
        if c is not None:
            terms.append((f"dclrF_{c}", 1))
        b.row(f"dg_intC_{i}", terms, EQ, 0)
        b.define(
            f"dg_splitC_{i}", [(f"degintC_{i}", 1), (f"degexC_{i}", 1)], f"degC_{i}"
        )
        tall = [
            (f"dfrC_{i}_{b.psi_pos[psi]}", 1)
            for psi in spec.fringe_menu("C", i)
            if spec.fringe_by_id[psi].tree.height == b.rho
        ]
        b.row(
            f"dg_leafC_{i}",
            tall + [(f"degintC_{i}", 1)],
            GE,
            2,
        )
    for i in range(1, b.t_t + 1):
        b.define(
            f"dg_intT_{i}",
            [(f"vT_{i}", 2), (f"dclrF_{b.t_c_tilde + i}", 1)],
            f"degintT_{i}",
        )
        b.define(
            f"dg_splitT_{i}", [(f"degintT_{i}", 1), (f"degexT_{i}", 1)], f"degT_{i}"
        )
    for i in range(1, b.t_f + 1):
        terms = [(f"vF_{i}", 1), (f"degintF_{i}", -1)]
        if i < b.t_f:
            terms.append((f"eF_{i + 1}", 1))
        b.row(f"dg_intF_{i}", terms, EQ, 0)
        b.define(
            f"dg_splitF_{i}", [(f"degintF_{i}", 1), (f"degexF_{i}", 1)], f"degF_{i}"
        )
    for x in "CTF":
        d0 = 1 if x == "C" else 0
        for i in range(1, _slots(b, x) + 1):
            b.one_hot(
                f"dg_onehot_{x}_{i}",
                [(f"ddg{x}_{i}_{d}", d) for d in range(d0, 5)],
                value=(f"dg_value_{x}_{i}", [f"deg{x}_{i}", f"hyddeg{x}_{i}"]),
            )
            b.one_hot(
                f"dg_ionehot_{x}_{i}",
                [(f"ddgint{x}_{i}_{d}", d) for d in range(d0, 5)],
                value=(f"dg_ivalue_{x}_{i}", [f"degint{x}_{i}"]),
            )
            b.one_hot(
                f"dg_sonehot_{x}_{i}",
                [(f"dsup{x}_{i}_{d}", d) for d in range(0, 5)],
                value=(f"dg_svalue_{x}_{i}", [f"deg{x}_{i}"]),
            )
    for d in range(1, 5):
        for row, ind, var in (("tally", "ddg", "dg"), ("itally", "ddgint", "dgint")):
            b.define(
                f"dg_{row}_{d}",
                [
                    (f"{ind}{x}_{i}_{d}", 1)
                    for x in "CTF"
                    for i in range(1, _slots(b, x) + 1)
                ],
                f"{var}_{d}",
            )


def add_multiplicity(b: Build) -> None:
    """Bond multiplicities on every scheme edge plus interior-bond tallies."""
    m, spec = b.m, b.spec
    # one owner's slots are adjacent and share their used binary
    for _, owned in groupby(b.bond_slots, key=lambda slot: slot.used):
        owned = list(owned)
        for slot in owned:
            m.add_var(f"b{slot.name}", INTEGER, 0, 3)
        for mm in range(0, 4):
            for slot in owned:
                m.add_var(f"db{slot.name}_{mm}", BINARY)
    for i in range(1, b.t_t + 1):
        m.add_var(f"bCT_{i}", INTEGER, 0, 3)
        m.add_var(f"bTC_{i}", INTEGER, 0, 3)
    for i in range(1, b.t_f + 1):
        m.add_var(f"bCF_{i}", INTEGER, 0, 3)
        m.add_var(f"bTF_{i}", INTEGER, 0, 3)
    for x in "CTF":
        for i in range(1, _slots(b, x) + 1):
            m.add_var(f"bex{x}_{i}", INTEGER, 0, 4)
    cap = 2 * spec.n_int_ub
    for mm in range(1, 4):
        for part in BOND_PARTS:
            m.add_var(f"bd{part}_{mm}", INTEGER, 0, cap)
        m.add_var(f"bdint_{mm}", INTEGER, 0, cap)

    # a scheme edge's bond is 1..3 when the edge is used and 0 otherwise
    for slot in b.bond_slots:
        name = slot.name
        b.gated_range(
            (f"mt_gate_lo_{name}", f"mt_gate_hi_{name}"),
            [(f"b{name}", 1)],
            [(slot.used, 1)],
            on=(1, 3),
            off=(0, 0),
        )
        b.one_hot(
            f"mt_onehot_{name}",
            [(f"db{name}_{mm}", mm) for mm in range(0, 4)],
            value=(f"mt_value_{name}", [f"b{name}"]),
        )
    # fringe-root bond load
    for x in "CTF":
        for i in range(1, _slots(b, x) + 1):
            b.define(
                f"mt_root_{x}_{i}",
                _fringe_terms(b, x, i, lambda f: f.tree.beta_root),
                f"bex{x}_{i}",
            )
    # position edges exist only at run boundaries
    for i in range(1, b.t_t + 1):
        first = [(f"bCT_{i}", 1), (f"vT_{i}", -3)]
        if i >= 2:
            first.append((f"eT_{i}", 3))
        b.row(f"mt_first_T_{i}", first, LE, 0)
        last = [(f"bTC_{i}", 1), (f"vT_{i}", -3)]
        if i < b.t_t:
            last.append((f"eT_{i + 1}", 3))
        b.row(f"mt_last_T_{i}", last, LE, 0)
    for i in range(1, b.t_f + 1):
        start = [(f"bCF_{i}", 1), (f"bTF_{i}", 1), (f"vF_{i}", -3)]
        if i >= 2:
            start.append((f"eF_{i}", 3))
        b.row(f"mt_first_F_{i}", start, LE, 0)
        b.row(
            f"mt_side_CF_{i}",
            [(f"bCF_{i}", 1)]
            + [(f"chiFc_{i}_{c}", -3) for c in range(1, b.t_c_tilde + 1)],
            LE,
            0,
        )
        b.row(
            f"mt_side_TF_{i}",
            [(f"bTF_{i}", 1)]
            + [
                (f"chiFc_{i}_{c}", -3)
                for c in range(b.t_c_tilde + 1, b.c_f + 1)
            ],
            LE,
            0,
        )
    # tallies
    for mm in range(1, 4):
        for part in BOND_PARTS:
            b.define(
                f"mt_bd{part}_{mm}",
                [(f"db{t.name}_{mm}", 1) for t in b.bond_slots if t.part == part],
                f"bd{part}_{mm}",
            )
        b.define(
            f"mt_bdint_{mm}",
            [(f"bd{part}_{mm}", 1) for part in BOND_PARTS],
            f"bdint_{mm}",
        )


def add_element_valence(b: Build) -> None:
    """Element assignment, the valence condition, mass accounting."""
    m, spec = b.m, b.spec
    n_int_elems = len(b.lam_int)
    for x in "CTF":
        for i in range(1, _slots(b, x) + 1):
            m.add_var(f"a{x}_{i}", INTEGER, 0, n_int_elems)
            for e_pos in range(1, n_int_elems + 1):
                m.add_var(f"da{x}_{i}_{e_pos}", BINARY)
    for e_pos in range(1, n_int_elems + 1):
        for x in "CTF":
            m.add_var(f"na{x}_{e_pos}", INTEGER, 0, b.n_star)
        token = b.lam_int[e_pos - 1].token
        lo, hi = spec.na_int_bounds(token)
        b.ivar(f"naint_{e_pos}", lo, min(hi, b.n_star))
    for a_pos, elem in enumerate(b.lam_ex, start=1):
        cap = 3 * b.n_star if elem.is_hydrogen else b.n_star
        for x in "CTF":
            m.add_var(f"naex{x}_{a_pos}", INTEGER, 0, cap)
        m.add_var(f"naex_{a_pos}", INTEGER, 0, cap)
    for t_pos, elem in enumerate(b.lam_all, start=1):
        lo, hi = spec.na_bounds(elem.token)
        cap = 4 * b.n_star if elem.is_hydrogen else b.n_star
        b.ivar(f"na_{t_pos}", lo, min(hi, cap))
    h_lo, h_hi = spec.na_bounds("H")
    atm_lo = spec.n_lb + h_lo
    atm_hi = b.n_star + h_hi
    m.add_var("Mass", INTEGER, 0, b.mass_avg_ub * atm_hi)
    m.add_var("msbar", CONTINUOUS, 0, b.mass_avg_ub)
    for i in range(atm_lo, atm_hi + 1):
        m.add_var(f"datm_{i}", BINARY)

    # multiplicity transfer between color-level and position-level bonds:
    # equal on the run's boundary slot, free (within +-3) elsewhere
    def transfer(names, dst, src, gate):
        b.gated_range(names, [(dst, 1), (src, -1)], gate, on=(0, 0), off=(-3, 3))

    for e in b.colored_edges:
        k = e.index
        for i in range(1, b.t_t + 1):
            gate = [(f"chiTk_{i}_{k}", 1)]
            if i >= 2:
                gate.append((f"eT_{i}", -1))
            transfer(
                (f"av_firstlo_{k}_{i}", f"av_firsthi_{k}_{i}"),
                f"bCT_{i}", f"bCTk_{k}", gate,
            )
            gate = [(f"chiTk_{i}_{k}", 1)]
            if i < b.t_t:
                gate.append((f"eT_{i + 1}", -1))
            transfer(
                (f"av_lastlo_{k}_{i}", f"av_lasthi_{k}_{i}"),
                f"bTC_{i}", f"bTCk_{k}", gate,
            )
    for c in range(1, b.c_f + 1):
        side = "bCF" if c <= b.t_c_tilde else "bTF"
        for i in range(1, b.t_f + 1):
            gate = [(f"chiFc_{i}_{c}", 1)]
            if i >= 2:
                gate.append((f"eF_{i}", -1))
            transfer(
                (f"av_leaflo_{c}_{i}", f"av_leafhi_{c}_{i}"),
                f"{side}_{i}", f"bsF_{c}", gate,
            )

    # element one-hots
    for x in "CTF":
        for i in range(1, _slots(b, x) + 1):
            b.one_hot(
                f"av_onehot_{x}_{i}",
                [(f"da{x}_{i}_{e}", e) for e in range(1, n_int_elems + 1)],
                _used(x, i),
                value=(f"av_code_{x}_{i}", [f"a{x}_{i}"]),
            )
            b.define(
                f"av_root_{x}_{i}",
                _fringe_terms(b, x, i, lambda f: b.lam_int_pos[f.tree.root_element]),
                f"a{x}_{i}",
            )
    # allowed elements per seed vertex
    for pos in range(1, b.t_c + 1):
        allowed = spec.seed.vertices[pos - 1].elements or b.lam_int
        b.row(
            f"av_menu_{pos}",
            [(f"daC_{pos}_{b.lam_int_pos[e]}", 1) for e in allowed],
            EQ,
            1,
        )
    # valence condition
    val = [0] + [e.valence for e in b.lam_int]
    for pos in range(1, b.t_c + 1):
        terms = []
        for e in b.direct_at(pos):
            terms.append((f"bC_{e.index}", 1))
        for e in b.colored_at(pos, "tail"):
            terms.append((f"bCTk_{e.index}", 1))
        for e in b.colored_at(pos, "head"):
            terms.append((f"bTCk_{e.index}", 1))
        c = b.leaf_color_of_vertex(pos)
        if c is not None:
            terms.append((f"bsF_{c}", 1))
        terms.append((f"bexC_{pos}", 1))
        terms.append((f"eledegC_{pos}", -1))
        terms += [
            (f"daC_{pos}_{e}", -val[e]) for e in range(1, n_int_elems + 1)
        ]
        b.row(f"av_valC_{pos}", terms, EQ, 0)
    for i in range(1, b.t_t + 1):
        terms = []
        if i >= 2:
            terms.append((f"bT_{i}", 1))
        if i < b.t_t:
            terms.append((f"bT_{i + 1}", 1))
        terms += [
            (f"bexT_{i}", 1),
            (f"bCT_{i}", 1),
            (f"bTC_{i}", 1),
            (f"bsF_{b.t_c_tilde + i}", 1),
            (f"eledegT_{i}", -1),
        ]
        terms += [(f"daT_{i}_{e}", -val[e]) for e in range(1, n_int_elems + 1)]
        b.row(f"av_valT_{i}", terms, EQ, 0)
    for i in range(1, b.t_f + 1):
        terms = []
        if i >= 2:
            terms.append((f"bF_{i}", 1))
        if i < b.t_f:
            terms.append((f"bF_{i + 1}", 1))
        terms += [
            (f"bCF_{i}", 1),
            (f"bTF_{i}", 1),
            (f"bexF_{i}", 1),
            (f"eledegF_{i}", -1),
        ]
        terms += [(f"daF_{i}_{e}", -val[e]) for e in range(1, n_int_elems + 1)]
        b.row(f"av_valF_{i}", terms, EQ, 0)
    # element tallies
    for e_pos in range(1, n_int_elems + 1):
        for x in "CTF":
            b.define(
                f"av_na_{x}_{e_pos}",
                [(f"da{x}_{i}_{e_pos}", 1) for i in range(1, _slots(b, x) + 1)],
                f"na{x}_{e_pos}",
            )
        b.define(
            f"av_naint_{e_pos}",
            [(f"na{x}_{e_pos}", 1) for x in "CTF"],
            f"naint_{e_pos}",
        )
    for a_pos, elem in enumerate(b.lam_ex, start=1):
        for x in "CTF":
            b.define(
                f"av_naex_{x}_{a_pos}",
                _all_fringe_terms(
                    b, lambda f: f.tree.nonroot_element_counts.get(elem.token, 0), x
                ),
                f"naex{x}_{a_pos}",
            )
        b.define(
            f"av_naex_{a_pos}",
            [(f"naex{x}_{a_pos}", 1) for x in "CTF"],
            f"naex_{a_pos}",
        )
    for t_pos, elem in enumerate(b.lam_all, start=1):
        terms = [(f"na_{t_pos}", -1)]
        if elem in b.lam_int_pos:
            terms.append((f"naint_{b.lam_int_pos[elem]}", 1))
        for a_pos, ex_elem in enumerate(b.lam_ex, start=1):
            if ex_elem == elem:
                terms.append((f"naex_{a_pos}", 1))
        b.row(f"av_natotal_{t_pos}", terms, EQ, 0)
    # mass accounting
    b.define(
        "av_mass",
        [(f"na_{t}", elem.mass_star) for t, elem in enumerate(b.lam_all, start=1)],
        "Mass",
    )
    atoms = ["nG"] + [
        f"naex_{a_pos}"
        for a_pos, ex_elem in enumerate(b.lam_ex, start=1)
        if ex_elem.is_hydrogen
    ]
    b.one_hot(
        "av_atoms_onehot",
        [(f"datm_{i}", i) for i in range(atm_lo, atm_hi + 1)],
        value=("av_atoms_value", atoms),
    )
    # slack must absorb the largest possible |Mass - i*msbar| when inactive
    big_m = b.mass_avg_ub * atm_hi
    for i in range(atm_lo, atm_hi + 1):
        b.row(
            f"av_avg_hi_{i}",
            [("Mass", 1), ("msbar", -i), (f"datm_{i}", big_m)],
            LE,
            big_m,
        )
        b.row(
            f"av_avg_lo_{i}",
            [("Mass", 1), ("msbar", -i), (f"datm_{i}", -big_m)],
            GE,
            -big_m,
        )


def add_bond_bounds(b: Build) -> None:
    """Per-seed-edge bounds on double and triple bonds."""
    m = b.m
    for e in b.colored_edges:
        for i in range(2, b.t_t + 1):
            for mm in (2, 3):
                m.add_var(f"bdTk_{e.index}_{i}_{mm}", BINARY)
    for e in b.optional_edges + b.fixed_edges:
        for mm, lo, hi in ((2, e.bond2_lb, e.bond2_ub), (3, e.bond3_lb, e.bond3_ub)):
            b.rng(
                f"bb_direct_{e.index}_{mm}",
                [(f"dbC_{e.index}_{mm}", 1)],
                max(0, lo),
                min(1, hi),
            )
    for e in b.colored_edges:
        k = e.index
        for i in range(2, b.t_t + 1):
            for mm in (2, 3):
                b.conjunction(
                    f"bdTk_{k}_{i}_{mm}",
                    [f"bb_mark_{k}_{i}_{mm}"],
                    [f"dbT_{i}_{mm}", f"chiTk_{i}_{k}"],
                )
    for mm in (2, 3):
        if b.colored_edges:
            b.row(
                f"bb_cap_{mm}",
                [(f"dbT_{j}_{mm}", 1) for j in range(2, b.t_t + 1)]
                + [
                    (f"bdTk_{e.index}_{i}_{mm}", -1)
                    for e in b.colored_edges
                    for i in range(2, b.t_t + 1)
                ],
                GE,
                0,
            )
    for e in b.colored_edges:
        k = e.index
        for mm, lo, hi in ((2, e.bond2_lb, e.bond2_ub), (3, e.bond3_lb, e.bond3_ub)):
            b.rng(
                f"bb_path_{k}_{mm}",
                [(f"bdTk_{k}_{i}_{mm}", 1) for i in range(2, b.t_t + 1)]
                + [(f"dbCTk_{k}_{mm}", 1), (f"dbTCk_{k}_{mm}", 1)],
                lo,
                hi,
            )


def _cs_terms(b: Build) -> None:
    """Chemical-symbol indicators: element and suppressed degree combined."""
    m = b.m
    n_sym = len(b.symbols)
    for x in "CTF":
        for i in range(1, _slots(b, x) + 1):
            for s in range(1, n_sym + 1):
                m.add_var(f"cs{x}_{i}_{s}", BINARY)
            for s, info in enumerate(b.symbols, start=1):
                b.conjunction(
                    f"cs{x}_{i}_{s}",
                    [f"dl_cs_{part}_{x}_{i}_{s}" for part in ("and", "el", "dg")],
                    [f"da{x}_{i}_{info.element_pos}", f"dsup{x}_{i}_{info.degree}"],
                )
            b.one_hot(
                f"dl_cs_onehot_{x}_{i}",
                [(f"cs{x}_{i}_{s}", s) for s in range(1, n_sym + 1)],
                _used(x, i),
            )


def _boundary_markers(b: Build) -> None:
    """First/last vertex of every path run and first vertex of leaf runs."""
    m = b.m
    # a run starts at a slot of its color whose incoming slot edge is unused
    # and ends at one whose outgoing slot edge is unused
    for e in b.colored_edges:
        k = e.index
        for i in range(1, b.t_t + 1):
            m.add_var(f"firstT_{k}_{i}", BINARY)
            m.add_var(f"lastT_{k}_{i}", BINARY)
            b.conjunction(
                f"firstT_{k}_{i}",
                [f"dl_first_{part}_{k}_{i}" for part in ("lo", "hi1", "hi2")],
                [f"chiTk_{i}_{k}"],
                unless=f"eT_{i}" if i >= 2 else None,
                within=f"vT_{i}",
            )
            b.conjunction(
                f"lastT_{k}_{i}",
                [f"dl_last_{part}_{k}_{i}" for part in ("lo", "hi1", "hi2")],
                [f"chiTk_{i}_{k}"],
                unless=f"eT_{i + 1}" if i < b.t_t else None,
                within=f"vT_{i}",
            )
    for c in range(1, b.c_f + 1):
        for i in range(1, b.t_f + 1):
            m.add_var(f"firstF_{c}_{i}", BINARY)
            b.conjunction(
                f"firstF_{c}_{i}",
                [f"dl_lphead_{part}_{c}_{i}" for part in ("lo", "hi1", "hi2")],
                [f"chiFc_{i}_{c}"],
                unless=f"eF_{i}" if i >= 2 else None,
                within=f"vF_{i}",
            )


def _symbol_transfer(b: Build) -> None:
    """Chemical symbol of the endpoint vertex of each path or leaf run."""
    m = b.m
    n_sym = len(b.symbols)
    for e in b.colored_edges:
        k = e.index
        for s in range(1, n_sym + 1):
            m.add_var(f"fsT_{k}_{s}", BINARY)
            m.add_var(f"lsT_{k}_{s}", BINARY)
        for s in range(1, n_sym + 1):
            for i in range(1, b.t_t + 1):
                b.conjunction(
                    f"fsT_{k}_{s}",
                    [f"dl_fs_{k}_{s}_{i}"],
                    [f"csT_{i}_{s}", f"firstT_{k}_{i}"],
                )
                b.conjunction(
                    f"lsT_{k}_{s}",
                    [f"dl_ls_{k}_{s}_{i}"],
                    [f"csT_{i}_{s}", f"lastT_{k}_{i}"],
                )
        for head in ("fs", "ls"):
            b.one_hot(
                f"dl_{head}_onehot_{k}",
                [(f"{head}T_{k}_{s}", s) for s in range(1, n_sym + 1)],
                f"dclrT_{k}",
            )
    for c in range(1, b.c_f + 1):
        for s in range(1, n_sym + 1):
            m.add_var(f"fsF_{c}_{s}", BINARY)
        for s in range(1, n_sym + 1):
            for i in range(1, b.t_f + 1):
                b.conjunction(
                    f"fsF_{c}_{s}",
                    [f"dl_fsF_{c}_{s}_{i}"],
                    [f"csF_{i}_{s}", f"firstF_{c}_{i}"],
                )
        b.one_hot(
            f"dl_fsF_onehot_{c}",
            [(f"fsF_{c}_{s}", s) for s in range(1, n_sym + 1)],
            f"dclrF_{c}",
        )


def add_descriptor_linking(b: Build) -> None:
    """Tie the raw descriptor variables x_1..x_K to the structural model."""
    m, spec, space = b.m, b.spec, b.space
    _cs_terms(b)
    _boundary_markers(b)
    _symbol_transfer(b)

    # edge configuration of every bond slot: ec{slot}_o marks the ordered
    # configuration o, one of them exactly when the slot is used
    n_ord = len(b.ordered_configs)
    for slot in b.bond_slots:
        name = slot.name
        sym_a, sym_b = (f"{SYMBOL_PREFIX[role]}{x}_{i}" for role, x, i in slot.ends)
        for o in range(1, n_ord + 1):
            m.add_var(f"ec{name}_{o}", BINARY)
        for o, (pa, pb, mult, _gi) in enumerate(b.ordered_configs, start=1):
            b.conjunction(
                f"ec{name}_{o}",
                [f"dl_ec_{part}_{name}_{o}" for part in ("and", "a", "b", "m")],
                [f"{sym_a}_{pa}", f"{sym_b}_{pb}", f"db{name}_{mult}"],
            )
        b.one_hot(
            f"dl_ec_cover_{name}",
            [(f"ec{name}_{o}", o) for o in range(1, n_ord + 1)],
            slot.used,
        )

    # raw descriptor variables x_1..x_K, in the descriptor table's order: a
    # scalar's bounds come from the spec, a catalog count's from 4 n*
    n_opt = len(b.optional_edges)
    bounds = {
        "n_heavy": (spec.n_lb, spec.n_star),
        "rank": (spec.seed.rank - n_opt, spec.seed.rank),
        "n_interior": (spec.n_int_lb, spec.n_int_ub),
        "mass_avg": (0, b.mass_avg_ub),
        **{f"deg{d}": (0, spec.n_star) for d in range(1, 5)},
        **{f"deg_int{d}": (0, spec.n_int_ub) for d in range(1, 5)},
        "bonds2_int": (0, 2 * spec.n_int_ub),
        "bonds3_int": (0, 2 * spec.n_int_ub),
    }
    for s in SCALARS:
        kind = CONTINUOUS if s.rational else INTEGER
        m.add_var(SCALAR_X[s.name], kind, *bounds[s.name])
    for j in range(len(SCALARS) + 1, space.k + 1):
        m.add_var(f"x_{j}", INTEGER, 0, 4 * spec.n_star)

    def tie(name: str, x: str, var: str | None) -> None:
        """x equals `var`; without one the descriptor cannot occur."""
        if var is None:
            m.fix_var(x, 0)
        else:
            b.define(name, [(x, 1)], var)

    # a scalar equals its tally; deg<d> has none and sums the vertices of
    # suppressed degree d, in a row written just before deg_int<d>'s tie
    for s in SCALARS:
        if s.tally is None:
            continue
        if s.name.startswith("deg_int"):
            d = int(s.name[-1])
            terms = [(SCALAR_X[f"deg{d}"], -1)]
            terms += [
                (f"dsup{x}_{i}_{d}", 1)
                for x in "CTF"
                for i in range(1, _slots(b, x) + 1)
            ]
            terms += _all_fringe_terms(
                b, lambda f: f.tree.nonroot_heavy_degree_counts.get(d, 0)
            )
            b.row(f"dl_x_deg_{d}", terms, EQ, 0)
        tie(s.row, SCALAR_X[s.name], s.tally)

    # a catalog count equals the tally of its entry, if the spec has one;
    # an edge configuration's is the sum of its bond slots' markers
    tallies = {
        "na_int": {e: f"naint_{p}" for e, p in b.lam_int_pos.items()},
        "na_ex": {e: f"naex_{i + 1}" for i, e in enumerate(b.lam_ex)},
        "fc": {f.tree.canonical_code: f"fc_{b.psi_pos[f.psi_id]}" for f in b.psis},
        "ac": {a: f"aclf_{i + 1}" for i, a in enumerate(space.ac_lf)},
    }
    gamma_terms: dict[int, list[tuple[str, int]]] = {
        gi: [] for gi in range(len(space.gamma_int))
    }
    for slot in b.bond_slots:
        for o, (_pa, _pb, _mult, gi) in enumerate(b.ordered_configs, start=1):
            gamma_terms[gi].append((f"ec{slot.name}_{o}", 1))
    for c, start, _ in space.blocks:
        for i, entry in enumerate(getattr(space, c.attr)):
            j = start + i + 1
            name = f"dl_x_{c.prefix.replace('_', '')}_{j}"
            if c.prefix == "ec":
                b.define(name, gamma_terms[i], f"x_{j}")
            else:
                tie(name, f"x_{j}", tallies[c.prefix].get(entry))


def add_normalization(b: Build, predictor: LinearPredictor) -> None:
    """Two-sided scaling sandwich tying x_j to its normalized copy, with
    relative slack EPSILON on each side, for each descriptor the predictor
    weighs; a descriptor of weight 0.0 gets no copy.

    Written with an explicit offset variable (d = x - min) so the two
    inequality rows have an exact zero right-hand side: with a folded
    (1 +- eps)*min constant, a descriptor exactly pinned at the training
    minimum can make the sandwich empty by a rounding hair, which an exact
    solver would dutifully report as infeasible.  A nonzero stored minimum
    is nudged one ulp down for the same reason; a zero one is not, since
    d = x - 0 is exact and the nudge would make it the subnormal -5e-324."""
    m = b.m
    if len(predictor.weights) != b.space.k:
        raise BuildError("normalization parameter length does not match K")
    pad = 1e-9
    for j, (w, lo, hi) in enumerate(
        zip(predictor.weights, predictor.mins, predictor.maxs), start=1
    ):
        if w == 0.0:
            continue
        lo, hi = float(lo), float(hi)
        xv = m.var(f"x_{j}")
        if hi == lo:
            m.add_var(f"xhat_{j}", CONTINUOUS, 0, 0)
            continue
        lo = math.nextafter(lo, -math.inf) if lo else 0.0
        span = hi - lo
        m.add_var(
            f"xd_{j}", CONTINUOUS, xv.lb - lo - pad, xv.ub - lo + pad
        )
        cands = [
            f * (xb - lo) / span
            for f in (1 - EPSILON, 1 + EPSILON)
            for xb in (xv.lb, xv.ub)
        ]
        m.add_var(
            f"xhat_{j}",
            CONTINUOUS,
            min(0.0, *cands) - pad,
            max(0.0, *cands) + pad,
        )
        b.row(f"nm_d_{j}", [(f"x_{j}", 1), (f"xd_{j}", -1)], EQ, lo)
        b.row(
            f"nm_lo_{j}",
            [(f"xd_{j}", 1 - EPSILON), (f"xhat_{j}", -span)],
            LE,
            0,
        )
        b.row(
            f"nm_hi_{j}",
            [(f"xd_{j}", 1 + EPSILON), (f"xhat_{j}", -span)],
            GE,
            0,
        )


def add_prediction(
    b: Build, predictor: LinearPredictor, y_lo: float, y_hi: float
) -> None:
    """Predicted value (standardized units) constrained to an interval."""
    if y_lo > y_hi:
        raise BuildError(f"empty target interval [{y_lo}, {y_hi}]")
    m = b.m
    m.add_var("y", CONTINUOUS, y_lo, y_hi)
    terms = [("y", 1.0)]
    for j, w in enumerate(predictor.weights, start=1):
        if w != 0.0:
            terms.append((f"xhat_{j}", -w))
    b.row("pred_value", terms, EQ, predictor.bias)


def build_milp(
    spec: TopologicalSpecification,
    space: DescriptorSpace,
    predictor: LinearPredictor | None = None,
    y_lo: float | None = None,
    y_hi: float | None = None,
) -> MILPModel:
    """Assemble the full model with a feasibility (empty) objective."""
    b = Build(spec, space)
    space_digest = space_hash(space)
    add_cyclical_base(b)
    add_leaf_paths(b)
    add_fringe_trees(b)
    add_degree(b)
    add_multiplicity(b)
    add_element_valence(b)
    add_bond_bounds(b)
    add_descriptor_linking(b)
    if predictor is not None:
        if y_lo is None or y_hi is None:
            raise BuildError("a target interval is required with a predictor")
        if predictor.space_hash != space_digest:
            raise BuildError("predictor was trained against a different space")
        add_normalization(b, predictor)
        add_prediction(b, predictor, y_lo, y_hi)
        b.model.metadata["predictor"] = predictor.space_hash
    b.model.metadata["space"] = space_digest
    return b.model


def polish_solution(model: MILPModel, sol) -> None:
    """Exact cleanup of a float solution, in place.

    Integer variables are snapped; the continuous layer (average mass, the
    normalization offsets and normalized copies, the predicted value) is
    recomputed in exact rationals from the model's own rows, so the
    returned values satisfy those rows with zero residual regardless of the
    solver's feasibility tolerance.  Each normalized copy sits at its
    sandwich's centre, (x_j - min_j) / span_j, and y is the exact
    prediction of those copies: an answer whose window the solver met only
    through its tolerance or the sandwich's slack leaves y outside the
    window, for the residual check to report."""
    values = sol.values
    for v in model.variables:
        if v.kind != CONTINUOUS:
            x = values.get(v.name)
            if x is not None and x.denominator != 1:
                values[v.name] = Fraction(round(x))
    if "Mass" in values and "msbar" in values:
        atoms = None
        for v in model.variables:
            if v.name.startswith("datm_") and values.get(v.name) == 1:
                atoms = int(v.name.split("_")[1])
                break
        if atoms:
            values["msbar"] = Fraction(values["Mass"], atoms)
            if SCALAR_X["mass_avg"] in values:
                values[SCALAR_X["mass_avg"]] = values["msbar"]

    if not model.has_constr("pred_value"):
        return
    pred = model.constraint("pred_value")
    y = Fraction(pred.rhs)
    for name, c in pred.coeffs:
        if name == "y":
            continue
        j = name.removeprefix("xhat_")
        xhat = Fraction(0)  # a constant descriptor's copy is fixed at 0
        if model.has_constr(f"nm_d_{j}"):
            xd = values[f"x_{j}"] - Fraction(model.constraint(f"nm_d_{j}").rhs)
            span = -Fraction(dict(model.constraint(f"nm_lo_{j}").coeffs)[name])
            values[f"xd_{j}"] = xd
            xhat = xd / span
        values[name] = xhat
        y -= Fraction(c) * xhat
    values["y"] = y


# Variable catalog: every family the builder creates, as (name pattern,
# kind, meaning).  Decoders and tooling may rely on these names; bounds are
# set where the family is declared and summarized here.
VARIABLE_FAMILIES: tuple[tuple[str, str, str], ...] = (
    (r"eC_\d+", BINARY, "seed edge used directly"),
    (r"vT_\d+", BINARY, "path slot used"),
    (r"eT_\d+", BINARY, "edge between consecutive path slots"),
    (r"chiT_\d+", INTEGER, "path color of a slot, 0..kC"),
    (r"chiTk_\d+_\d+", BINARY, "path color indicator"),
    (r"clrT_\d+", INTEGER, "slots carrying a path color (path length - 1)"),
    (r"dclrT_\d+", BINARY, "path color in use"),
    (r"tdgCin_\d+", INTEGER, "direct seed in-degree, 0..4"),
    (r"tdgCout_\d+", INTEGER, "direct seed out-degree, 0..4"),
    (r"rank", INTEGER, "cycle rank of the result"),
    (r"vF_\d+", BINARY, "leaf-path slot used"),
    (r"eF_\d+", BINARY, "edge between consecutive leaf-path slots"),
    (r"chiF_\d+", INTEGER, "leaf color of a slot, 0..cF"),
    (r"chiFc_\d+_\d+", BINARY, "leaf color indicator"),
    (r"clrF_\d+", INTEGER, "slots carrying a leaf color"),
    (r"dclrF_\d+", BINARY, "leaf color in use"),
    (r"bl_\d+_\d+", BINARY, "path slot carries a hanging leaf path"),
    (r"nintG", INTEGER, "interior vertex count"),
    (r"nG", INTEGER, "heavy atom count"),
    (r"dfr[CTF]_\d+_\d+", BINARY, "fringe-tree choice at a vertex"),
    (r"degex[CTF]_\d+", INTEGER, "heavy children of the fringe root, 0..3"),
    (r"hyddeg[CTF]_\d+", INTEGER, "hydrogens on the vertex, 0..4"),
    (r"eledeg[CTF]_\d+", INTEGER, "charge of the vertex, -3..3"),
    (r"h[CTF]_\d+", INTEGER, "fringe height at the vertex, 0..rho"),
    (r"fc_\d+", INTEGER, "fringe-shape count"),
    (r"aclf_\d+", INTEGER, "leaf-edge configuration count"),
    (r"sig_\d+_\d+", BINARY, "tallest-tree marker along a path"),
    (r"degCT_\d+", INTEGER, "paths leaving a seed vertex"),
    (r"degTC_\d+", INTEGER, "paths entering a seed vertex"),
    (r"deg[CTF]_\d+", INTEGER, "heavy neighbours, 0..4"),
    (r"degint[CTF]_\d+", INTEGER, "interior neighbours, 0..4"),
    (r"ddg[CTF]_\d+_\d+", BINARY, "full-degree indicator"),
    (r"ddgint[CTF]_\d+_\d+", BINARY, "interior-degree indicator"),
    (r"dsup[CTF]_\d+_\d+", BINARY, "suppressed-degree indicator"),
    (r"dg_\d", INTEGER, "interior vertices by full degree"),
    (r"dgint_\d", INTEGER, "interior vertices by interior degree"),
    (r"b[CTF]_\d+", INTEGER, "bond multiplicity of a scheme edge, 0..3"),
    (r"db[CTF]_\d+_\d+", BINARY, "bond multiplicity indicator"),
    (r"bCTk_\d+", INTEGER, "first-edge multiplicity of a path, 0..3"),
    (r"bTCk_\d+", INTEGER, "last-edge multiplicity of a path, 0..3"),
    (r"dbCTk_\d+_\d+", BINARY, "first-edge multiplicity indicator"),
    (r"dbTCk_\d+_\d+", BINARY, "last-edge multiplicity indicator"),
    (r"bsF_\d+", INTEGER, "root-edge multiplicity of a leaf path, 0..3"),
    (r"dbsF_\d+_\d+", BINARY, "leaf root-edge multiplicity indicator"),
    (r"bCT_\d+", INTEGER, "incoming first-edge multiplicity at a slot"),
    (r"bTC_\d+", INTEGER, "outgoing last-edge multiplicity at a slot"),
    (r"bCF_\d+", INTEGER, "leaf root edge from a seed vertex at a slot"),
    (r"bTF_\d+", INTEGER, "leaf root edge from a path slot at a slot"),
    (r"bex[CTF]_\d+", INTEGER, "bond load inside the fringe tree, 0..4"),
    (r"bd(C|T|F|CT|TC|CF|TF)_\d", INTEGER, "bond tally component"),
    (r"bdint_\d", INTEGER, "interior bonds by multiplicity"),
    (r"bdTk_\d+_\d+_\d", BINARY, "path edge of given multiplicity marker"),
    (r"a[CTF]_\d+", INTEGER, "element code of a vertex"),
    (r"da[CTF]_\d+_\d+", BINARY, "element indicator"),
    (r"na[CTF]_\d+", INTEGER, "interior element tally per layer"),
    (r"naint_\d+", INTEGER, "interior element tally"),
    (r"naex[CTF]_\d+", INTEGER, "exterior element tally per layer"),
    (r"naex_\d+", INTEGER, "exterior element tally"),
    (r"na_\d+", INTEGER, "total element tally (hydrogen included)"),
    (r"Mass", INTEGER, "total mass surrogate"),
    (r"msbar", CONTINUOUS, "average mass surrogate over all atoms"),
    (r"datm_\d+", BINARY, "atom-count selector"),
    (r"cs[CTF]_\d+_\d+", BINARY, "chemical-symbol indicator"),
    (r"firstT_\d+_\d+", BINARY, "first slot of a path run"),
    (r"lastT_\d+_\d+", BINARY, "last slot of a path run"),
    (r"firstF_\d+_\d+", BINARY, "first slot of a leaf run"),
    (r"fsT_\d+_\d+", BINARY, "symbol of a path run's first slot"),
    (r"lsT_\d+_\d+", BINARY, "symbol of a path run's last slot"),
    (r"fsF_\d+_\d+", BINARY, "symbol of a leaf run's first slot"),
    (r"ec(C|T|F|CTk|TCk|sF)_\d+_\d+", BINARY, "edge-configuration marker"),
    (SCALAR_X["mass_avg"], CONTINUOUS, "raw descriptor: the average mass"),
    (r"x_\d+", INTEGER, "raw descriptor"),
    (r"xd_\d+", CONTINUOUS, "weighed descriptor's offset above its minimum"),
    (r"xhat_\d+", CONTINUOUS, "normalized copy of a weighed descriptor"),
    (r"y", CONTINUOUS, "predicted property, standardized units"),
    (r"always_zero", BINARY, "anchor for explicit contradictions"),
)
