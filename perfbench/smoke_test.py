#!/usr/bin/env python3
"""Smoke test of the benchmark: checks BENCHMARK.json against its format,
then runs every workload briefly (the by-hand `stdio-pipe-dispatch` too),
untraced and traced, and checks that each named metric is printed with its
unit and that the correctness check passed.

    python3 perfbench/smoke_test.py [--seconds 2]

Run from the repository root. Exits non-zero on the first failure.
"""

import argparse
import json
import os
import re
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, BENCH_DIR)
from run import WORKLOADS  # noqa: E402
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def check_format(bench):
    assert set(bench) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert 1 <= bench["run_seconds"] <= 60
    assert 2 <= len(bench["workloads"]) <= 8
    for w in bench["workloads"]:
        assert set(w) == {"name", "why"} and NAME.match(w["name"]), w
        assert len(w["why"]) <= 200 and "\n" not in w["why"], w["name"]
    assert 1 <= len(bench["end_to_end"]) <= 16 and 1 <= len(bench["per_layer"]) <= 128
    for m in bench["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}, m
        assert 0 < m["bound"] <= 0.25, m
    for m in bench["end_to_end"] + bench["per_layer"]:
        assert NAME.match(m["name"]) and UNIT.match(m["unit"]), m
        assert m["better"] in ("lower", "higher"), m
    names = [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
    names += [w["name"] for w in bench["workloads"]]
    assert len(names) == len(set(names)), "names must be unique"
    setup = [m for m in bench["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"


def run(bench, workload, trace, seconds):
    cmd = bench["command"] + ["--workload", workload, "--seed", "7",
                              "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=900)
    if done.returncode != 0:
        sys.stderr.write(done.stderr[-3000:])
        sys.exit(f"smoke: {workload} trace {trace} exited {done.returncode}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    assert result["correct"] is True, f"{workload}: correctness check failed"
    assert result["attempted"] >= 1 and result["failed"] == 0, result
    wanted = bench["per_layer"] if trace else bench["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}, \
        set(result["metrics"]) ^ {m["name"] for m in wanted}
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], (m["name"], got)
        assert isinstance(got["value"], (int, float)), (m["name"], got)
    print(f"smoke: {workload} trace {trace}: {len(wanted)} metrics, "
          f"{result['attempted']} requests, all replies correct")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seconds", type=int, default=2)
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    check_format(bench)
    assert {w["name"] for w in bench["workloads"]} <= set(WORKLOADS)
    for workload in WORKLOADS:
        for trace in (0, 1):
            run(bench, workload, trace, args.seconds)
    print("smoke: ok")


if __name__ == "__main__":
    main()
