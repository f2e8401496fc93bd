#!/usr/bin/env python3
"""Run one workload over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload NAME [--runs 10] [--seconds S]
                                [--first-seed 1]

Runs untraced, so it covers the end-to-end metrics, the ones with bounds.
For every metric: the median over the runs and the spread, which is the
distance between the first and third quartile (statistics.quantiles,
n=4) as a share of the median. Also checks that every run reported zero
failed operations. Seconds default to BENCHMARK.json's run_seconds.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--seconds", type=int)
    p.add_argument("--first-seed", type=int, default=1)
    args = p.parse_args()
    spec_path = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")
    with open(spec_path) as f:
        spec = json.load(f)
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}

    values, failed = {}, 0
    for seed in range(args.first_seed, args.first_seed + args.runs):
        out = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload",
             args.workload, "--seed", str(seed), "--seconds", str(seconds),
             "--trace", "0"],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
            check=True)
        result = json.loads(out.stdout.strip().splitlines()[-1])
        failed += result["failed"]
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed}: " + ", ".join(
            f"{n}={m['value']:.6g}" for n, m in result["metrics"].items()),
            file=sys.stderr)

    print(f"{args.workload}: {args.runs} runs, {failed} failed operations")
    for name, v in values.items():
        med = statistics.median(v)
        q1, _, q3 = statistics.quantiles(v, n=4) if len(v) > 1 else (med,) * 3
        spread = (q3 - q1) / med if med else 0.0
        bound = bounds.get(name)
        note = "" if bound is None else (
            f"  bound {bound}  {'ok' if spread <= bound / 3 else 'WIDE'}")
        print(f"  {name:28s} median {med:<14.6g} spread {spread:.4f}{note}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
