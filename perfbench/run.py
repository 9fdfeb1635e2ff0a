#!/usr/bin/env python3
"""Builds hetsel-serve and the perfbench program from source, then runs one
benchmark workload against the release server binary.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root. Build output goes to stderr and to
$CARGO_TARGET_DIR (default .bench_build). The last line of stdout is the
perfbench JSON result; see perfbench/README.md for the workloads and metrics.
"""

import argparse
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("stdio-seq-hot", "tcp-open-mixed", "stdio-pipe-dispatch")


def build(root, target_dir):
    """Builds the server binary and perfbench; returns their paths."""
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    steps = [
        ["cargo", "build", "--release", "--offline", "-p", "hetsel-serve"],
        ["cargo", "build", "--release", "--offline", "--manifest-path",
         os.path.join(BENCH_DIR, "Cargo.toml")],
    ]
    for cmd in steps:
        done = subprocess.run(cmd, cwd=root, env=env, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            sys.exit(f"run.py: build failed: {' '.join(cmd)}")
    release = os.path.join(target_dir, "release")
    return os.path.join(release, "hetsel-serve"), os.path.join(release, "perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()

    root = os.path.dirname(BENCH_DIR)
    if not os.path.isfile(os.path.join(root, "Cargo.toml")):
        sys.exit("run.py: no Cargo.toml at the repository root; nothing to build")
    target_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(root, ".bench_build"))
    serve_bin, perfbench = build(root, target_dir)
    cmd = [perfbench, "--serve-bin", serve_bin, "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", args.trace, "--out", os.path.join(BENCH_DIR, "out")]
    try:
        done = subprocess.run(cmd, cwd=root, timeout=170)
    except subprocess.TimeoutExpired:
        sys.exit("run.py: perfbench ran past 170 s")
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
