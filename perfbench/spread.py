#!/usr/bin/env python3
"""Measures the benchmark's run-to-run spread.

Usage, from the root of the repository:

    python3 perfbench/spread.py <workload> [--seeds N] [--first-seed S] [--trace 0|1]

Runs `perfbench/run.py` once per seed, with `run_seconds` from
BENCHMARK.json, and prints for every metric its median and the distance
between its first and third quartile (statistics.quantiles, n=4) as a
share of the median, next to a third of the metric's bound. Exits 1 if a
run failed or reported `correct: false`, or if a spread other than
`setup_s`'s reaches its bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def main() -> int:
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        bench = json.load(f)
    parser = argparse.ArgumentParser()
    parser.add_argument("workload")
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--trace", default="0")
    args = parser.parse_args()

    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    values: dict[str, list[float]] = {}
    ok = True
    for seed in range(args.first_seed, args.first_seed + args.seeds):
        cmd = [*bench["command"], "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(bench["run_seconds"]), "--trace", args.trace]
        out = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
        if out.returncode != 0:
            print(f"seed {seed}: exit {out.returncode}\n{out.stderr}", file=sys.stderr)
            return 1
        result = json.loads(out.stdout.strip().splitlines()[-1])
        if not result["correct"] or result["failed"]:
            print(f"seed {seed}: not correct\n{out.stderr}", file=sys.stderr)
            ok = False
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print(f"seed {seed}: " + ", ".join(
            f"{n}={m['value']:.6g}" for n, m in result["metrics"].items()
            if n in bounds or args.trace == "1"), file=sys.stderr)

    print(f"{'metric':34} {'median':>14} {'spread':>9} {'bound/3':>8}")
    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else 0.0
        bound = bounds.get(name)
        third = f"{bound / 3:8.4f}" if bound is not None else ""
        flag = ""
        if bound is not None and name != "setup_s" and spread >= bound:
            flag, ok = "  OVER BOUND", False
        elif bound is not None and spread >= bound / 3:
            flag = "  over a third"
        print(f"{name:34} {med:14.6g} {spread:9.4f} {third}{flag}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
