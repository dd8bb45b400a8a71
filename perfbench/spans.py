"""Spans around the calls into each invqsar module, recorded from outside.

`Tracer.install()` replaces module attributes with wrappers; the program's
own code is untouched.  A wrapper records one span per call: its name (the
module and function it belongs to), start, end, parent span and the
request id the benchmark set.  Spans stay in memory until `write`.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import resource
import time
from dataclasses import dataclass, field

# Constraint-name prefixes reported as milp.build.rows.<family>: one per
# constraint group of the model builder, with the descriptor-linking rows
# (dl_*) split further, since they are most of the model.
ROW_FAMILIES = (
    "co", "lp", "fr", "dg", "mt", "av", "bb", "nm", "pred",
    "dl_ec", "dl_cs", "dl_fs", "dl_fsF", "dl_ls", "dl_x", "dl_first",
    "dl_last", "dl_lphead", "other",
)


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    request: str = ""
    error: str = ""
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def row_family(name: str) -> str:
    head, _, rest = name.partition("_")
    if head == "dl":
        head += "_" + rest.partition("_")[0]
    return head if head in ROW_FAMILIES else "other"


def _model_counts(model) -> dict:
    rows = model.constraints
    counts = {
        "vars": len(model.variables),
        "int_vars": model.n_integer(),
        "rows": len(rows),
        "nnz": sum(len(c.coeffs) for c in rows),
    }
    for c in rows:
        key = "rows." + row_family(c.name)
        counts[key] = counts.get(key, 0) + 1
    return counts


def _children_usage() -> tuple[float, float]:
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime, ru.ru_maxrss / 1024.0


def _count_result(name: str, result, span: Span) -> None:
    """Exact counts read from a traced call's return value."""
    if name == "milp.build.build_milp":
        span.counts.update(_model_counts(result))
    elif name == "milp.model.emit_lp":
        span.counts["lp_bytes"] = len(result.encode())
    elif name == "milp.minisolve.solve_exact":
        span.counts["nodes"] = result.nodes
    elif name == "milp.solve.solve":
        span.counts["infeasible"] = int(result.status == "infeasible")
    elif name == "regression.lasso_fit":
        span.counts["sweeps"] = result.n_sweeps
    elif name == "sdf.parse_sdf":
        span.counts["records"] = len(result.graphs) + len(result.errors)
        span.counts["record_errors"] = len(result.errors)
    elif name in ("descriptors.build_space", "descriptors.space_from_json"):
        span.counts["k"] = result.k


# Module attributes to wrap: every function reachable as invqsar.cli.*,
# and the module-level names that the solver and featurizer call
# internally, so that nested calls get spans of their own.
TARGETS = (
    ("invqsar.milp.solve", ("emit_lp", "solve_exact", "check_solution",
                            "parse_solution_text")),
    ("invqsar.descriptors", ("decompose",)),
    ("invqsar.regression", ("lasso_fit",)),
)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.request = ""
        self._stack: list[int] = []
        self.enabled = False

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        cli = importlib.import_module("invqsar.cli")
        for attr, obj in list(vars(cli).items()):
            if inspect.isfunction(obj) and obj.__module__.startswith("invqsar."):
                self._wrap(cli, attr)
        for module_name, attrs in TARGETS:
            module = importlib.import_module(module_name)
            for attr in attrs:
                self._wrap(module, attr)
        solve_mod = importlib.import_module("invqsar.milp.solve")
        self._wrap(solve_mod.ExternalBackend, "run", child_usage=True)

    def _wrap(self, owner, attr: str, child_usage: bool = False) -> None:
        original = getattr(owner, attr)
        name = original.__module__.removeprefix("invqsar.") + "."
        if inspect.isclass(owner):
            name += owner.__name__ + "."
        name += attr
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return original(*args, **kwargs)
            span = tracer._open(name)
            if child_usage:
                cpu0, _ = _children_usage()
            try:
                result = original(*args, **kwargs)
            except BaseException as exc:
                span.error = type(exc).__name__
                raise
            else:
                _count_result(name, result, span)
                return result
            finally:
                if child_usage:
                    cpu1, rss = _children_usage()
                    span.counts["child_cpu_s"] = cpu1 - cpu0
                    span.counts["child_rss_mb"] = rss
                tracer._close(span)

        setattr(owner, attr, wrapper)

    # -- spans ------------------------------------------------------------

    def _open(self, name: str) -> Span:
        parent = self._stack[-1] if self._stack else None
        span = Span(name, time.perf_counter(), parent=parent, request=self.request)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()

    def write(self, path) -> None:
        doc = [
            {"name": s.name, "start": s.start, "end": s.end, "parent": s.parent,
             "request": s.request, "error": s.error, "counts": s.counts}
            for s in self.spans
        ]
        path.write_text(json.dumps(doc))


# Per-layer metric -> (span name, aggregate).  An aggregate is "time" (sum
# of span durations), "calls", "errors" (spans that raised), or a count key
# recorded on the span, summed ("max:" prefix: the largest value).
LAYERS = {
    "milp.solve.solve_s": ("milp.solve.solve", "time"),
    "milp.solve.external_s": ("milp.solve.ExternalBackend.run", "time"),
    "milp.solve.child_cpu_s": ("milp.solve.ExternalBackend.run", "child_cpu_s"),
    "milp.solve.child_rss_mb": ("milp.solve.ExternalBackend.run", "max:child_rss_mb"),
    "milp.solve.parse_solution_s": ("milp.solve.parse_solution_text", "time"),
    "milp.solve.calls": ("milp.solve.solve", "calls"),
    "milp.solve.failures": ("milp.solve.solve", "errors"),
    "milp.solve.infeasible": ("milp.solve.solve", "infeasible"),
    "milp.build.build_s": ("milp.build.build_milp", "time"),
    "milp.build.polish_s": ("milp.build.polish_solution", "time"),
    "milp.build.vars": ("milp.build.build_milp", "vars"),
    "milp.build.int_vars": ("milp.build.build_milp", "int_vars"),
    "milp.build.rows": ("milp.build.build_milp", "rows"),
    "milp.build.nnz": ("milp.build.build_milp", "nnz"),
    "milp.model.emit_s": ("milp.model.emit_lp", "time"),
    "milp.model.emit_calls": ("milp.model.emit_lp", "calls"),
    "milp.model.lp_bytes": ("milp.model.emit_lp", "lp_bytes"),
    "milp.model.check_s": ("milp.model.check_solution", "time"),
    "milp.minisolve.solve_s": ("milp.minisolve.solve_exact", "time"),
    "milp.minisolve.nodes": ("milp.minisolve.solve_exact", "nodes"),
    "milp.decode.decode_s": ("milp.decode.decode", "time"),
    "milp.decode.failures": ("milp.decode.decode", "errors"),
    "topospec.parse_spec_s": ("topospec.parse_spec", "time"),
    "topospec.check_s": ("topospec.check_graph_satisfies", "time"),
    "regression.cv_s": ("regression.cross_validate", "time"),
    "regression.fits": ("regression.lasso_fit", "calls"),
    "regression.fit_s": ("regression.lasso_fit", "time"),
    "regression.sweeps": ("regression.lasso_fit", "sweeps"),
    "sdf.parse_s": ("sdf.parse_sdf", "time"),
    "sdf.records": ("sdf.parse_sdf", "records"),
    "sdf.record_errors": ("sdf.parse_sdf", "record_errors"),
    "decompose.calls": ("decompose.decompose", "calls"),
    "decompose.s": ("decompose.decompose", "time"),
    "descriptors.build_space_s": ("descriptors.build_space", "time"),
    "descriptors.featurize_s": ("descriptors.featurize", "time"),
    "descriptors.featurize_calls": ("descriptors.featurize", "calls"),
    "descriptors.csv_s": (("descriptors.write_feature_csv",
                           "descriptors.read_feature_csv"), "time"),
    "descriptors.k": (("descriptors.build_space",
                       "descriptors.space_from_json"), "max:k"),
}


# Per-layer counts that must repeat exactly in every round of a run.
EXACT_COUNTS = frozenset({
    "milp.build.vars", "milp.build.int_vars", "milp.build.rows",
    "milp.build.nnz", "milp.model.emit_calls", "milp.model.lp_bytes",
    "milp.minisolve.nodes", "regression.fits", "regression.sweeps",
    "decompose.calls", "descriptors.featurize_calls", "sdf.records",
    "descriptors.k",
} | {f"milp.build.rows.{family}" for family in ROW_FAMILIES})


def _aggregate(spans: list[Span], how: str):
    if how == "time":
        return sum(s.duration for s in spans)
    if how == "calls":
        return len(spans)
    if how == "errors":
        return sum(1 for s in spans if s.error)
    if how.startswith("max:"):
        return max((s.counts.get(how[4:], 0) for s in spans), default=0)
    return sum(s.counts.get(how, 0) for s in spans)


def layer_metrics(all_spans: list[Span], first: int) -> dict:
    """Per-layer values over the spans recorded from index `first` on."""
    spans = all_spans[first:]
    by_name: dict[str, list[Span]] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)
    out = {}
    for metric, (names, how) in LAYERS.items():
        names = (names,) if isinstance(names, str) else names
        out[metric] = _aggregate([s for n in names for s in by_name.get(n, [])], how)
    for family in ROW_FAMILIES:
        out[f"milp.build.rows.{family}"] = _aggregate(
            by_name.get("milp.build.build_milp", []), f"rows.{family}")
    child_time: dict[int, float] = {}
    for s in spans:
        if s.parent is not None:
            child_time[s.parent] = child_time.get(s.parent, 0.0) + s.duration
    out["cli.self_s"] = sum(
        s.duration - child_time.get(first + i, 0.0)
        for i, s in enumerate(spans)
        if s.name.startswith("cli.run_")
    )
    return out
