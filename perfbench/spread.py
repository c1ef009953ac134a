#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's end-to-end metrics.

    python3 perfbench/spread.py --workload g1k-distinct --seeds 1-10 [--trace 0]

Runs perfbench/run.py once per seed (from the repository root) and prints,
for every metric, the median of the runs and the distance between the
first and third quartile (statistics.quantiles, n=4) as a share of the
median, next to the metric's bound from BENCHMARK.json. Per-run result
lines are appended to .bench_runs/spread.jsonl.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys


def seeds_of(text):
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    here = os.path.dirname(os.path.abspath(__file__))
    os.makedirs(".bench_runs", exist_ok=True)
    values = {}
    for seed in seeds_of(args.seeds):
        run = subprocess.run(
            [sys.executable, os.path.join(here, "run.py"), "--workload",
             args.workload, "--seed", str(seed), "--seconds",
             str(bench["run_seconds"]), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True)
        if run.returncode != 0:
            print(f"seed {seed}: run failed ({run.returncode})")
            return 1
        result = json.loads(run.stdout.strip().splitlines()[-1])
        with open(os.path.join(".bench_runs", "spread.jsonl"), "a") as f:
            f.write(json.dumps({"workload": args.workload, "seed": seed,
                                "result": result}) + "\n")
        if not result["correct"]:
            print(f"seed {seed}: output check failed")
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed}: " + ", ".join(
            f"{n}={m['value']:.4g}" for n, m in result["metrics"].items()),
            flush=True)

    print(f"\n{'metric':32} {'median':>12} {'iqr/median':>11} {'bound':>6}")
    for name, v in values.items():
        med = statistics.median(v)
        q1, _, q3 = statistics.quantiles(v, n=4)
        spread = (q3 - q1) / med if med else float("nan")
        bound = bounds.get(name)
        flag = "" if bound is None or spread <= bound / 3 else "  > bound/3"
        print(f"{name:32} {med:12.5g} {spread:11.4f} "
              f"{'' if bound is None else bound:>6}{flag}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
