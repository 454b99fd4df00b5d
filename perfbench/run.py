#!/usr/bin/env python3
"""Builds and runs the cloudlb performance benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload paper32 --seed 7 --seconds 30 --trace 0

--seed also accepts "default" or "heldout", which pick the seeds recorded
for the workload in perfbench/workloads.json. The benchmark binary is
built with CMake into .bench_build/perfbench on first use; build output
goes to stderr, so the last line of stdout is the benchmark's JSON result.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
RUN_TIMEOUT_S = 170


def build():
    """Configures and builds the benchmark; returns the binary's path."""
    steps = [
        ["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD_DIR, "-j", "4"],
    ]
    for step in steps:
        done = subprocess.run(step, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            sys.exit("perfbench: build step failed: " + " ".join(step))
    return os.path.join(BUILD_DIR, "perfbench")


def resolve_seed(workload, seed):
    if seed not in ("default", "heldout"):
        return str(int(seed))
    with open(os.path.join(HERE, "workloads.json")) as f:
        seeds = json.load(f)
    if workload not in seeds:
        sys.exit("perfbench: unknown workload " + workload)
    return str(seeds[workload][seed + "_seed"])


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", choices=["0", "1"], required=True)
    args = parser.parse_args()

    seed = resolve_seed(args.workload, args.seed)
    binary = build()
    trace_out = os.path.join(
        BUILD_DIR, "trace-{}-{}.json".format(args.workload, seed))
    command = [binary, "--workload", args.workload, "--seed", seed,
               "--seconds", str(args.seconds), "--trace", args.trace,
               "--trace-out", trace_out]
    try:
        done = subprocess.run(command, cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: run exceeded {} s".format(RUN_TIMEOUT_S))
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
