#!/usr/bin/env python3
"""Run one workload of the benchmark with several seeds and report, for each
metric, the median and the quartile spread (Q3 - Q1) / median.  From the
repository root:

    python3 entbench/steadiness.py --workload certify --runs 10 --seconds 30

Runs are sequential, seeds 1..runs (or from --first-seed).  Prints one row
per metric and the failed/attempted share of every run.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

RUN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, default=0)
    args = ap.parse_args()
    values: dict[str, list[float]] = {}
    for seed in range(args.first_seed, args.first_seed + args.runs):
        cmd = [sys.executable, RUN, "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        out = subprocess.run(cmd, capture_output=True, text=True, check=True, timeout=600)
        result = json.loads(out.stdout.strip().splitlines()[-1])
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}", flush=True)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
    print(f"{'metric':40s} {'median':>14s} {'spread':>8s}  values")
    for name, xs in values.items():
        q1, med, q3 = statistics.quantiles(xs, n=4)
        spread = (q3 - q1) / med if med else float("nan")
        print(f"{name:40s} {med:14.6g} {spread:8.4f}  {' '.join(f'{x:.5g}' for x in xs)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
