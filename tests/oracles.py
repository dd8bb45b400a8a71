"""Independent reference implementations used only as test oracles.

Everything here recomputes results from first principles (plain counting,
backtracking, gradient iterations, all-Fraction arithmetic) without
calling the code paths under test, so agreement is meaningful evidence.
"""

from __future__ import annotations

import csv
import io
import math
import time
from fractions import Fraction
from itertools import accumulate

import numpy as np

from invqsar.decompose import RootedFringeTree
from invqsar.descriptors import DescriptorSpace, FeatureVector
from invqsar.graph import ChemicalGraph
from invqsar.milp.minisolve import (
    Problem,
    SolveOutcome,
    SolverTimeout,
    _Infeasible,
    _presolve,
    _quotient,
    _solve_lp,
    _tighten_lb,
    _tighten_ub,
    _undo_presolve,
)
from invqsar.milp.model import BINARY, GE, INTEGER, LE, MILPModel
from invqsar.schema import InputError


# -- two-layered feature counting ------------------------------------------


def _heavy_adjacency(g: ChemicalGraph):
    heavy = {v.id for v in g.vertices if v.element.symbol != "H"}
    adj: dict[int, dict[int, int]] = {v: {} for v in heavy}
    for e in g.edges:
        if e.u in heavy and e.v in heavy:
            adj[e.u][e.v] = e.mult
            adj[e.v][e.u] = e.mult
    return heavy, adj


def _peel(adj) -> dict[int, int]:
    """Leaf-removal round per vertex, recomputed by repeated scanning."""
    alive = dict(adj)
    height = {v: 10**9 for v in adj}
    rnd = 0
    while alive:
        doomed = [v for v, nb in alive.items()
                  if sum(1 for w in nb if w in alive) <= 1]
        if not doomed:
            break
        for v in doomed:
            height[v] = rnd
            del alive[v]
        rnd += 1
    return height


def fringe_trees(g: ChemicalGraph, rho: int) -> dict[int, RootedFringeTree]:
    """Each interior root's fringe tree re-derived from scratch: the heavy
    component hanging at the root, plus the hydrogens of every collected
    vertex; roots in ascending order."""
    heavy, adj = _heavy_adjacency(g)
    height = _peel(adj)
    interior = {v for v in heavy if height[v] >= rho}
    vertex = g.vertex_map
    full_adj: dict[int, dict[int, int]] = {v.id: {} for v in g.vertices}
    for e in g.edges:
        full_adj[e.u][e.v] = e.mult
        full_adj[e.v][e.u] = e.mult
    trees = {}
    claimed: set[int] = set()
    for root in sorted(interior):
        comp = [root]
        edges = []
        stack = [root]
        while stack:
            u = stack.pop()
            for w, mult in sorted(adj[u].items()):
                if w in interior or w in claimed:
                    continue
                claimed.add(w)
                comp.append(w)
                edges.append((u, w, mult))
                stack.append(w)
        nodes = [(v, vertex[v].element, vertex[v].charge) for v in comp]
        for v in comp:
            for w, mult in sorted(full_adj[v].items()):
                if w not in heavy:
                    nodes.append((w, vertex[w].element, vertex[w].charge))
                    edges.append((v, w, mult))
        trees[root] = RootedFringeTree(root, tuple(nodes), tuple(edges))
    return trees


def brute_force_features(g: ChemicalGraph, space: DescriptorSpace) -> list:
    """Count every descriptor directly on the graph."""
    heavy, adj = _heavy_adjacency(g)
    height = _peel(adj)
    rho = space.rho
    interior = {v for v in heavy if height[v] >= rho}

    token = {v.id: v.element.token for v in g.vertices}

    values: list = [0] * space.k
    values[0] = len(heavy)
    # independent rank: non-tree edges of a DFS forest
    seen: set[int] = set()
    back_edges = 0
    for start in sorted(heavy):
        if start in seen:
            continue
        stack = [(start, None)]
        seen.add(start)
        visited_edges = set()
        while stack:
            u, parent = stack.pop()
            for w in adj[u]:
                key = (min(u, w), max(u, w))
                if key in visited_edges:
                    continue
                visited_edges.add(key)
                if w in seen:
                    back_edges += 1
                else:
                    seen.add(w)
                    stack.append((w, u))
    values[1] = back_edges
    values[2] = len(interior)
    values[3] = Fraction(
        sum(v.element.mass_star for v in g.vertices), len(g.vertices)
    )
    for v in heavy:
        d = len(adj[v])
        if 1 <= d <= 4:
            values[3 + d] += 1
    for v in interior:
        d = sum(1 for w in adj[v] if w in interior)
        if 1 <= d <= 4:
            values[7 + d] += 1
    for e in g.edges:
        if e.u in interior and e.v in interior and e.mult in (2, 3):
            values[10 + e.mult] += 1

    # each catalog block starts after the 14 scalars and the blocks before it
    sizes = (len(space.lambda_int), len(space.lambda_ex), len(space.gamma_int),
             len(space.fringe_codes), len(space.ac_lf))
    off = dict(zip(("na_int", "na_ex", "ec", "fc", "ac"), accumulate((14,) + sizes)))
    int_tokens = {e.token: i for i, e in enumerate(space.lambda_int)}
    ex_tokens = {e.token: i for i, e in enumerate(space.lambda_ex)}
    for v in g.vertices:
        if v.id in interior:
            values[off["na_int"] + int_tokens[v.element.token]] += 1
        else:
            values[off["na_ex"] + ex_tokens[v.element.token]] += 1

    gamma_keys = {}
    for i, gam in enumerate(space.gamma_int):
        key = (
            (gam.mu.element.token, gam.mu.degree),
            (gam.mu_prime.element.token, gam.mu_prime.degree),
            gam.mult,
        )
        gamma_keys[key] = i
        gamma_keys[(key[1], key[0], key[2])] = i
    for e in g.edges:
        if e.u in interior and e.v in interior:
            key = (
                (token[e.u], len(adj[e.u])),
                (token[e.v], len(adj[e.v])),
                e.mult,
            )
            values[off["ec"] + gamma_keys[key]] += 1

    code_index = {c: i for i, c in enumerate(space.fringe_codes)}
    for tree in fringe_trees(g, rho).values():
        values[off["fc"] + code_index[tree.canonical_code]] += 1

    ac_keys = {
        (a.a.token, a.b.token, a.mult): i for i, a in enumerate(space.ac_lf)
    }
    for e in g.edges:
        if e.u not in heavy or e.v not in heavy:
            continue
        du, dv = len(adj[e.u]), len(adj[e.v])
        if du != 1 and dv != 1:
            continue
        if du == 1 and dv == 1:
            a, bb = sorted(
                (g.element(e.u), g.element(e.v)), key=lambda x: (x.symbol, x.valence)
            )
            key = (a.token, bb.token, e.mult)
        elif du == 1:
            key = (token[e.u], token[e.v], e.mult)
        else:
            key = (token[e.v], token[e.u], e.mult)
        values[off["ac"] + ac_keys[key]] += 1
    return values


# -- feature table text ------------------------------------------------------


def _format_value(v: int | Fraction) -> str:
    if isinstance(v, Fraction) and v.denominator != 1:
        return repr(float(v))
    return str(int(v))


def write_feature_csv(
    ids: list[str], vectors: list[FeatureVector], space: DescriptorSpace
) -> str:
    """CSV text with a header of descriptor names and one row per graph."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["id", *space.descriptor_names])
    for gid, fv in zip(ids, vectors):
        writer.writerow([gid, *(_format_value(v) for v in fv.values)])
    return buf.getvalue()


def read_feature_csv(text: str) -> tuple[list[str], list[str], list[list[float]]]:
    """Returns (ids, descriptor names, rows of floats); a text that is not
    such a table raises InputError."""
    reader = csv.reader(io.StringIO(text))
    header = next(reader, None)
    if not header or header[0] != "id":
        raise InputError("feature CSV must start with an 'id' column")
    names = header[1:]
    ids, rows = [], []
    for rec in reader:
        if not rec:
            continue
        # the physical line on which the record ends
        line = reader.line_num
        if len(rec) != len(header):
            raise InputError(
                f"feature CSV line {line} has {len(rec)} fields, not {len(header)}")
        try:
            rows.append([float(x) for x in rec[1:]])
        except ValueError as exc:
            raise InputError(f"feature CSV line {line}: {exc}") from exc
        ids.append(rec[0])
    return ids, names, rows


# -- rooted-tree isomorphism -------------------------------------------------


def fringe_tree_shape(t: RootedFringeTree) -> tuple[bytes, int]:
    """(canonical code, height) of a fringe tree by plain recursion over its
    own node and edge lists: a node's code is its token and charge, then
    its children's `mult:code` sorted by child (symbol, valence), charge,
    multiplicity and code; the height counts heavy children only."""
    label = {nid: (elem, chg) for nid, elem, chg in t.nodes}
    kids: dict[int, list[tuple[int, int]]] = {nid: [] for nid in label}
    for p, c, m in t.edges:
        kids[p].append((c, m))

    def code(n: int) -> bytes:
        elem, chg = label[n]
        entries = sorted(((label[c][0].symbol, label[c][0].valence), label[c][1], m,
                          code(c)) for c, m in kids[n])
        inner = b";".join(b"%d:" % m + sub for _, _, m, sub in entries)
        return b"(%s,%d[" % (elem.token.encode(), chg) + inner + b"])"

    def height(n: int) -> int:
        return max((1 + height(c) for c, _ in kids[n]
                    if not label[c][0].is_hydrogen), default=0)

    return code(t.root), height(t.root)


def fringe_tree_counts(t: RootedFringeTree) -> dict:
    """The seven counts the model builder reads from a fringe tree, by plain
    recursion over its own node and edge lists.  A heavy node's degree is
    its number of heavy children, plus one under a heavy parent; a non-root
    heavy node of degree 1 ends a leaf edge, keyed (its token, its
    parent's token, the multiplicity of the edge from that parent)."""
    label = {nid: elem for nid, elem, _ in t.nodes}
    kids: dict[int, list[tuple[int, int]]] = {nid: [] for nid in label}
    for p, c, m in t.edges:
        kids[p].append((c, m))

    def heavy(n: int) -> bool:
        return not label[n].is_hydrogen

    counts = {"n_nonroot_heavy": 0, "nonroot_element_counts": {},
              "nonroot_heavy_degree_counts": {}, "leaf_edge_configs": {}}

    def tally(name, key):
        counts[name][key] = counts[name].get(key, 0) + 1

    def visit(n: int, parent: int, mult: int) -> None:
        tally("nonroot_element_counts", label[n].token)
        if heavy(n):
            counts["n_nonroot_heavy"] += 1
            degree = sum(1 for c, _ in kids[n] if heavy(c)) + heavy(parent)
            tally("nonroot_heavy_degree_counts", degree)
            if degree == 1:
                tally("leaf_edge_configs", (label[n].token, label[parent].token, mult))
        for c, m in kids[n]:
            visit(c, n, m)

    for c, m in kids[t.root]:
        visit(c, t.root, m)
    counts["root_heavy_children"] = sum(1 for c, _ in kids[t.root] if heavy(c))
    counts["root_hydrogen_children"] = sum(1 for c, _ in kids[t.root] if not heavy(c))
    counts["beta_root"] = sum(m for _, m in kids[t.root])
    return counts


def r_isomorphic(t1: RootedFringeTree, t2: RootedFringeTree) -> bool:
    """Backtracking root-preserving isomorphism respecting labels, charges
    and multiplicities."""

    def lists(t):
        key = {nid: (elem.symbol, elem.valence, chg) for nid, elem, chg in t.nodes}
        kids: dict[int, list[tuple[int, int]]] = {nid: [] for nid in key}
        for p, c, m in t.edges:
            kids[p].append((c, m))
        return key, kids

    (key1, children1), (key2, children2) = lists(t1), lists(t2)

    def match(n1: int, n2: int) -> bool:
        if key1[n1] != key2[n2]:
            return False
        kids1 = children1[n1]
        kids2 = children2[n2]
        if len(kids1) != len(kids2):
            return False

        def assign(i: int, used: set[int]) -> bool:
            if i == len(kids1):
                return True
            c1, m1 = kids1[i]
            for j, (c2, m2) in enumerate(kids2):
                if j in used or m1 != m2:
                    continue
                if match(c1, c2):
                    used.add(j)
                    if assign(i + 1, used):
                        return True
                    used.discard(j)
            return False

        return assign(0, set())

    return match(t1.root, t2.root)


# -- lasso via proximal gradient ---------------------------------------------


def prox_grad_lasso(x: np.ndarray, y: np.ndarray, lam: float,
                    iters: int = 200_000, tol: float = 1e-12):
    """ISTA on (1/2N)RSS + lam*l1 with an unpenalized intercept."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    n, k = x.shape
    design = np.hstack([x, np.ones((n, 1))])
    lipschitz = np.linalg.eigvalsh(design.T @ design / n).max()
    step = 1.0 / lipschitz
    w = np.zeros(k)
    b = 0.0
    for _ in range(iters):
        r = y - x @ w - b
        grad_w = -(x.T @ r) / n
        grad_b = -r.mean()
        w_new = np.sign(w - step * grad_w) * np.maximum(
            np.abs(w - step * grad_w) - step * lam, 0.0
        )
        b_new = b - step * grad_b
        if max(np.abs(w_new - w).max(initial=0.0), abs(b_new - b)) < tol:
            w, b = w_new, b_new
            break
        w, b = w_new, b_new
    return w, b


# -- lasso optimality --------------------------------------------------------


def lambda_max(x: np.ndarray, y: np.ndarray) -> float:
    """Smallest penalty for which the all-zero weight vector is optimal."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    centered = y - y.mean()
    return float(np.abs(x.T @ centered).max()) / len(y)


def lasso_objective(x: np.ndarray, y: np.ndarray, w: np.ndarray, b: float,
                    lam: float) -> float:
    """(1/2N)RSS + lam*l1(w) at weights w and intercept b."""
    r = y - x @ w - b
    return float(r @ r) / (2 * len(y)) + lam * float(np.abs(w).sum())


def kkt_residuals(x: np.ndarray, y: np.ndarray, w: np.ndarray, b: float,
                  lam: float) -> np.ndarray:
    """Per-coordinate violation of the subgradient optimality conditions."""
    n = len(y)
    r = y - x @ w - b
    grad = -(x.T @ r) / n
    out = np.zeros_like(w)
    for j in range(len(w)):
        if w[j] == 0.0:
            out[j] = max(0.0, abs(grad[j]) - lam)
        else:
            out[j] = abs(grad[j] + math.copysign(lam, w[j]))
    return out


# -- exact residuals in Fractions only ----------------------------------------


def constraint_residuals(model: MILPModel, values) -> dict[str, Fraction]:
    """Signed violation of each row (positive means violated)."""
    out: dict[str, Fraction] = {}
    for con in model.constraints:
        lhs = sum(Fraction(c) * values[v] for v, c in con.coeffs)
        rhs = Fraction(con.rhs)
        if con.sense == LE:
            out[con.name] = lhs - rhs
        elif con.sense == GE:
            out[con.name] = rhs - lhs
        else:
            out[con.name] = abs(lhs - rhs)
    return out


def check_solution(model: MILPModel, values, tol: float = 1e-6) -> list[str]:
    """All violations above tol: rows, bounds and integrality, every number
    a Fraction."""
    problems: list[str] = []
    ftol = Fraction(repr(tol)) if isinstance(tol, float) else Fraction(tol)
    for v in model.variables:
        if v.name not in values:
            problems.append(f"missing value for {v.name}")
            continue
        val = values[v.name]
        if val < Fraction(v.lb) - ftol:
            problems.append(f"{v.name} = {float(val)} below lower bound {v.lb}")
        if val > Fraction(v.ub) + ftol:
            problems.append(f"{v.name} = {float(val)} above upper bound {v.ub}")
        if v.kind in (BINARY, INTEGER):
            nearest = round(val)
            if abs(val - nearest) > ftol:
                problems.append(f"{v.name} = {float(val)} is not integral")
    if problems:
        return problems
    for name, resid in constraint_residuals(model, values).items():
        if resid > ftol:
            problems.append(f"constraint {name} violated by {float(resid)}")
    return problems


# -- bound propagation, activities summed at every visit ----------------------


def propagate(variables, rows, moved=None) -> set[int]:
    """minisolve._propagate with each row's activity bounds summed again at
    every visit instead of kept current.  It shares minisolve's tightening
    steps and has the same queue, visit cap and slack tests, so only the
    activity bookkeeping differs, and it must give the same bounds, the
    same tightened set and the same infeasibility claims."""
    for v in variables:
        if v.lb > v.ub:
            raise _Infeasible
    col_rows: list[list[int]] = [[] for _ in variables]
    for r, row in enumerate(rows):
        for j in row.coeffs:
            col_rows[j].append(r)
    if moved is None:
        queue = list(range(len(rows)))
    else:
        queue = sorted({r for j in moved for r in col_rows[j]})
    tightened: set[int] = set()
    visits = 10 * len(rows)
    while queue and visits:
        visits -= 1
        row = rows[queue.pop(0)]
        amin = sum(c * (variables[j].lb if c > 0 else variables[j].ub)
                   for j, c in row.coeffs.items())
        amax = sum(c * (variables[j].ub if c > 0 else variables[j].lb)
                   for j, c in row.coeffs.items())
        hi_slack = None if row.hi is None else row.hi - amin
        lo_slack = None if row.lo is None else amax - row.lo
        if (hi_slack is not None and hi_slack < 0) or (
            lo_slack is not None and lo_slack < 0
        ):
            raise _Infeasible
        for j, c in row.coeffs.items():
            v = variables[j]
            lb, ub = v.lb, v.ub
            reach = abs(c) * (ub - lb)
            changed = False
            if hi_slack is not None and reach > hi_slack:
                if c > 0:
                    changed = _tighten_ub(v, lb + _quotient(hi_slack, c))
                else:
                    changed = _tighten_lb(v, ub + _quotient(hi_slack, c))
            if lo_slack is not None and reach > lo_slack:
                if c > 0:
                    changed |= _tighten_lb(v, ub - _quotient(lo_slack, c))
                else:
                    changed |= _tighten_ub(v, lb - _quotient(lo_slack, c))
            if not changed:
                continue
            if v.lb > v.ub:
                raise _Infeasible
            tightened.add(j)
            queue.extend(s for s in col_rows[j] if s not in queue)
    return tightened


# -- branch and bound that presolves the whole model at every node -------------


def solve_exact_from_root(
    model: MILPModel, time_limit: float | None = None, node_limit: int = 200_000
) -> SolveOutcome:
    """minisolve.solve_exact with every node presolving the whole model
    from its root bounds plus the branching bounds above the node, so that
    no node reads a reduction made for another.  It branches on the same
    column and pushes the same children, so its statuses must agree with
    solve_exact's; node counts may differ where the two presolves reach
    different LP points."""
    problem = Problem.from_model(model)
    deadline = None if time_limit is None else time.monotonic() + time_limit
    int_indices = [i for i, v in enumerate(problem.variables) if v.is_int]
    nodes = 0
    pivots = 0
    stack: list[dict] = [{}]
    while stack:
        if deadline is not None and time.monotonic() > deadline:
            return SolveOutcome("timeout", nodes=nodes, pivots=pivots)
        if nodes >= node_limit:
            return SolveOutcome("timeout", nodes=nodes, pivots=pivots)
        bounds = stack.pop()
        nodes += 1
        try:
            red = _presolve(problem, bounds)
        except _Infeasible:
            continue
        try:
            red_values, lp_pivots = _solve_lp(red, deadline)
        except SolverTimeout:
            return SolveOutcome("timeout", nodes=nodes, pivots=pivots)
        pivots += lp_pivots
        if red_values is None:
            continue
        values = _undo_presolve(red, red_values)
        frac_var = next((i for i in int_indices if values[i].denominator != 1), None)
        if frac_var is None:
            named = {problem.variables[i].name: Fraction(v) for i, v in values.items()}
            return SolveOutcome("optimal", named, nodes, pivots)
        val = values[frac_var]
        v = problem.variables[frac_var]
        lo, hi = bounds.get(frac_var, (v.lb, v.ub))
        stack.append({**bounds, frac_var: (math.ceil(val), hi)})
        stack.append({**bounds, frac_var: (lo, math.floor(val))})
    return SolveOutcome("infeasible", nodes=nodes, pivots=pivots)
