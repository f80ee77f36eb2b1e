#!/usr/bin/env python3
"""Run-to-run spread of every end-to-end metric, the way the driver takes it.

Runs the command of BENCHMARK.json `--runs` times on each workload, each time
with another --seed, and prints for every (workload, metric) the median and
the distance between the first and third quartile
(`statistics.quantiles(values, n=4)`) as a share of the median, next to the
metric's bound. `--write FILE` also records the numbers as JSON (this is how
perf_bench/BASELINE.json was made). Run it from the repository root.

    python3 perf_bench/tools/spread.py [--runs 10] [--first-seed 1] [--workload NAME] [--write FILE]
"""
import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workload", action="append")
    parser.add_argument("--write")
    args = parser.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    names = args.workload or [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    record = {
        "note": "medians and (Q3-Q1)/median over runs with different seeds; "
        "the first committed numbers are the baseline later changes compare against",
        "machine": platform.platform(),
        "run_seconds": bench["run_seconds"],
        "runs": args.runs,
        "seeds": list(range(args.first_seed, args.first_seed + args.runs)),
        "workloads": {},
    }
    worst = 0.0
    for name in names:
        values = {metric: [] for metric in bounds}
        for seed in record["seeds"]:
            command = bench["command"] + [
                "--workload", name, "--seed", str(seed),
                "--seconds", str(bench["run_seconds"]), "--trace", "0",
            ]
            started = time.time()
            done = subprocess.run(command, capture_output=True, text=True)
            if done.returncode != 0:
                sys.exit(f"{name} seed {seed}: exit {done.returncode}\n{done.stdout}\n{done.stderr}")
            result = json.loads(done.stdout.strip().splitlines()[-1])
            if not result["correct"] or result["failed"]:
                sys.exit(f"{name} seed {seed}: not correct: {result}")
            for metric in bounds:
                values[metric].append(result["metrics"][metric]["value"])
            print(f"  {name} seed {seed}: {time.time() - started:.1f} s", file=sys.stderr)
        rows = {}
        for metric, samples in values.items():
            q1, _, q3 = statistics.quantiles(samples, n=4)
            median = statistics.median(samples)
            spread = (q3 - q1) / median
            rows[metric] = {"median": median, "spread": spread, "values": samples}
            flag = ""
            if metric != "setup_s" and spread > bounds[metric]:
                flag = "  EXCEEDS BOUND"
            elif metric != "setup_s" and spread > bounds[metric] / 3:
                flag = "  above a third of the bound"
            if metric != "setup_s" and bounds[metric] > 0:
                worst = max(worst, spread / bounds[metric])
            print(f"{name:<16} {metric:<20} median {median:>16.6f}  spread {100 * spread:6.2f}%"
                  f"  bound {100 * bounds[metric]:4.0f}%{flag}")
        record["workloads"][name] = rows
    print(f"worst spread / bound: {worst:.2f}")
    if args.write and args.workload and os.path.exists(args.write):
        # A partial re-run replaces only the rows of the workloads it ran.
        with open(args.write) as f:
            merged = json.load(f)["workloads"]
        merged.update(record["workloads"])
        record["workloads"] = merged
    if args.write:
        with open(args.write, "w") as f:
            json.dump(record, f, indent=2)
            f.write("\n")


if __name__ == "__main__":
    main()
