"""Chemical-graph feature vectors, Lasso property prediction and
MILP-based inverse design under topological specifications."""

from .decompose import decompose
from .descriptors import build_space, featurize
from .graph import ChemicalGraph, build_graph, graph_from_json, graph_to_json, rank
from .milp.build import build_milp, polish_solution
from .milp.decode import decode
from .milp.solve import ExternalBackend, solve
from .regression import cross_validate_path, lasso_fit, r_squared
from .sdf import read_sdf
from .topospec import check_graph_satisfies, parse_spec, spec_from_graph

__version__ = "0.1.0"

__all__ = [
    "ChemicalGraph",
    "ExternalBackend",
    "build_graph",
    "build_milp",
    "build_space",
    "check_graph_satisfies",
    "cross_validate_path",
    "decode",
    "decompose",
    "featurize",
    "graph_from_json",
    "graph_to_json",
    "lasso_fit",
    "parse_spec",
    "polish_solution",
    "r_squared",
    "rank",
    "read_sdf",
    "solve",
    "spec_from_graph",
    "__version__",
]
