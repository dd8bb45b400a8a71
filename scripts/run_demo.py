#!/usr/bin/env python3
"""End-to-end demo: build a toy dataset, train a predictor, run inverse
design for a target property window, and verify the result.

Writes everything under ./demo_out and drives the same code paths as the
`invqsar` command-line tool.

Usage: python3 scripts/run_demo.py [--backend highs|mini]
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from invqsar.cli import main as cli_main
from invqsar.decompose import decompose, tree_to_json
from invqsar.graph import build_graph
from invqsar.sdf import graph_to_sdf
from invqsar.topospec import parse_spec, spec_to_json_text


def ring(n, pendant=0):
    atoms = [(i, "C") for i in range(1, n + 1 + pendant)]
    bonds = [(i, i % n + 1, 1) for i in range(1, n + 1)]
    for j in range(pendant):
        a = n + j
        bonds.append((a if j else 1, a + 1, 1))
    return build_graph(atoms, bonds, add_hydrogens=True)


def demo_dataset():
    mols = [ring(n) for n in (3, 4, 5, 6)]
    mols += [ring(n, pendant=1) for n in (3, 4, 5, 6)]
    mols += [ring(5, pendant=2), ring(6, pendant=2), ring(4, pendant=3)]
    return mols


def demo_spec(dataset):
    trees = {}
    for g in dataset:
        d = decompose(g, 2)
        for t in d.fringe_trees.values():
            trees.setdefault(t.canonical_code, t)
    psis = [
        dict(tree_to_json(t), id=f"psi{i + 1}")
        for i, (_, t) in enumerate(sorted(trees.items()))
    ]
    doc = {
        "version": 1,
        "rho": 2,
        "n_lb": 3,
        "n_star": 10,
        "n_int_lb": 3,
        "n_int_ub": 6,
        "seed": {
            "vertices": [
                {"id": 1, "elements": ["C"], "leaf_path": True},
                {"id": 2, "elements": ["C"]},
                {"id": 3, "elements": ["C"]},
            ],
            "edges": [
                {"tail": 1, "head": 2, "len_lb": 1, "len_ub": 2},
                {"tail": 1, "head": 3, "len_lb": 1, "len_ub": 2},
                {"tail": 2, "head": 3, "len_lb": 1, "len_ub": 2},
            ],
        },
        "lambda_int": ["C"],
        "lambda_ex": ["C", "H"],
        "fringe_trees": psis,
    }
    return parse_spec(json.dumps(doc))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--backend", choices=["highs", "mini"],
                        default="highs")
    parser.add_argument("--out", default="demo_out")
    args = parser.parse_args()

    out = Path(args.out)
    out.mkdir(exist_ok=True)
    dataset = demo_dataset()

    sdf = "".join(graph_to_sdf(g, f"mol{i}") for i, g in enumerate(dataset))
    (out / "dataset.sdf").write_text(sdf)
    targets = ["id,value"]
    for i, g in enumerate(dataset):
        # synthetic property: twice the heavy-atom count plus one
        targets.append(f"mol{i},{2.0 * g.n_heavy() + 1.0}")
    (out / "targets.csv").write_text("\n".join(targets) + "\n")
    (out / "spec.json").write_text(spec_to_json_text(demo_spec(dataset)))

    config = {
        "dataset": str(out / "dataset.sdf"),
        "targets": str(out / "targets.csv"),
        "rho": 2,
        "lambda_grid": [1e-4, 1e-3, 1e-2],
        "cv_executions": 5,
        "spec": str(out / "spec.json"),
        "solver_command": "mini" if args.backend == "mini" else "",
        "solver_timeout": 600,
        "output_dir": str(out / "run"),
        "seed": 0,
    }
    (out / "config.json").write_text(json.dumps(config, indent=2))

    print("== featurize ==")
    if cli_main(["featurize", "--config", str(out / "config.json")]) != 0:
        return 1
    print("\n== train ==")
    if cli_main(["train", "--config", str(out / "config.json")]) != 0:
        return 1
    print("\n== infer: ask for a molecule with property near 11 (5 atoms) ==")
    code = cli_main([
        "infer", "--config", str(out / "config.json"),
        "--lo", "10.8", "--hi", "11.2",
    ])
    if code != 0:
        return code
    print("\n== verify ==")
    return cli_main([
        "verify",
        str(out / "run" / "result.json"),
        str(out / "spec.json"),
        str(out / "run" / "predictor.json"),
        str(out / "run" / "space.json"),
    ])


if __name__ == "__main__":
    sys.exit(main())
