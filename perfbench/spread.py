#!/usr/bin/env python3
"""Runs one workload under several seeds and reports, per metric, the
median and the spread (interquartile range over median) of the runs.

    python3 perfbench/spread.py --workload NAME --seeds 1,2,3,4,5 [--trace 0|1]

Run from the repository root. Each end-to-end metric's spread is compared
with a third of its bound from BENCHMARK.json.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.exit(f"spread.py: {workload} seed {seed} exited {done.returncode}")
    return json.loads(lines[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1,2,3,4,5")
    parser.add_argument("--trace", default="0", choices=("0", "1"))
    parser.add_argument("--verbose", action="store_true", help="print every run's value")
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seeds = [int(s) for s in args.seeds.split(",")]
    results = [run_once(args.workload, s, bench["run_seconds"], args.trace) for s in seeds]
    assert all(r["correct"] for r in results), "a run failed its correctness check"
    print(f"{args.workload}: {len(seeds)} seeds")
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
        spread = (q3 - q1) / med if med else float("nan")
        bound = bounds.get(name)
        flag = ""
        if bound is not None and name != "setup_s":
            flag = "ok" if spread < bound / 3 else "WIDE"
        print(f"  {name:<28} median {med:>14.4f}  spread {spread:7.4f}  "
              f"bound {bound if bound is not None else '-':>5}  {flag}")
        if args.verbose:
            print("      " + " ".join(f"{v:.4g}" for v in values))


if __name__ == "__main__":
    main()
