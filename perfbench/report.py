"""Run the benchmark over several seeds and summarize each metric.

Usage, from the repository root:

    python3 perfbench/report.py --seeds 1-10 [--workloads infer_fixtures,train_cv] [--trace 1]

Runs `perfbench/run.py` once per workload and seed, one after another, with
the run length from BENCHMARK.json.  For each workload and metric it prints
the median, the quartiles, and the spread (third minus first quartile, as
a share of the median) next to the metric's bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads", default="")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in bench["workloads"]])
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    status = 0
    for workload in workloads:
        values: dict[str, list[float]] = {}
        units: dict[str, str] = {}
        for seed in parse_seeds(args.seeds):
            cmd = [*bench["command"], "--workload", workload, "--seed", str(seed),
                   "--seconds", str(bench["run_seconds"]), "--trace", str(args.trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                  check=False)
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if lines else {}
            if proc.returncode != 0 or not result.get("correct"):
                print(f"{workload} seed {seed}: exit {proc.returncode}\n"
                      f"{proc.stdout[-2000:]}{proc.stderr[-2000:]}")
                status = 1
                continue
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
                units[name] = m["unit"]
        for name, vals in values.items():
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
            spread = (q3 - q1) / med if med else 0.0
            bound = bounds.get(name)
            flag = ""
            if bound is not None and name != "setup_s":
                flag = "OVER" if spread > bound else ("high" if spread > bound / 3 else "ok")
            print(f"{workload:<15} {name:<34} {med:>12.6g} {units[name]:<6} "
                  f"q1={q1:<10.5g} q3={q3:<10.5g} spread={spread:6.3f} "
                  f"bound={bound} {flag}", flush=True)
    return status


if __name__ == "__main__":
    sys.exit(main())
