#!/usr/bin/env python3
"""Served-diagnosis benchmark for openmdd.

    python3 perfbench/run.py --workload g1k-distinct --seed 1 --seconds 10 --trace 0

Run from the repository root. Builds the openmdd daemon, CLI and the
benchmark driver from source into $CARGO_TARGET_DIR (default
.bench_build), then runs one measured run of the workload. The driver's
last stdout line is the result object; build output goes to stderr.
Exits nonzero, printing no result, when the build or the run fails.
"""
import argparse
import json
import os
import subprocess
import sys

WORKLOADS = ("g1k-distinct", "g200-hot", "g1k-volume-tiered")
TARGETS = ("openmdd", "openmdd_serve", "mdd_perfbench")


def build(build_dir):
    here = os.path.dirname(os.path.abspath(__file__))
    subprocess.run(["cmake", "-S", here, "-B", build_dir,
                    "-DCMAKE_BUILD_TYPE=Release"],
                   stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", build_dir, "-j", "4", "--target",
                    *TARGETS], stdout=sys.stderr, check=True)


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()

    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or
                                ".bench_build")
    try:
        build(build_dir)
    except (subprocess.CalledProcessError, OSError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1

    cmd = [os.path.join(build_dir, "bin", "mdd_perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--bin-dir", os.path.join(build_dir, "bin"),
           "--work-root", os.path.abspath(".bench_runs")]
    try:
        run = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                             timeout=170)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 1
    lines = run.stdout.strip().splitlines()
    if run.returncode != 0 or not lines:
        sys.stderr.write(run.stdout)
        print(f"perfbench: driver exited {run.returncode}", file=sys.stderr)
        return 1
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        print("perfbench: malformed result line", file=sys.stderr)
        return 1
    sys.stdout.write(run.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
