#!/usr/bin/env python3
"""Measures the benchmark's run-to-run spread.

Runs every workload (or the ones named) --runs times, each with its own
seed, and prints for each end-to-end metric its median, its spread (the
interquartile range over the median, from statistics.quantiles) and its
bound in BENCHMARK.json. Run from the repository root:

    python3 bench/calibrate.py [--runs 10] [--first-seed 1] [--workload NAME]...
"""
import argparse
import json
import statistics
import subprocess
import sys


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workload", action="append")
    args = ap.parse_args()
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    names = args.workload or [w["name"] for w in spec["workloads"]]
    print("workload metric median spread bound values")
    for name in names:
        values = {}
        for seed in range(args.first_seed, args.first_seed + args.runs):
            cmd = spec["command"] + ["--workload", name, "--seed", str(seed),
                                     "--seconds", str(spec["run_seconds"]), "--trace", "0"]
            out = subprocess.run(cmd, capture_output=True, text=True, check=True).stdout
            res = json.loads(out.strip().splitlines()[-1])
            if not res["correct"] or res["failed"]:
                sys.exit(f"{name} seed {seed}: {res['failed']} of {res['attempted']} failed")
            for metric, v in res["metrics"].items():
                values.setdefault(metric, []).append(v["value"])
        for m in spec["end_to_end"]:
            xs = values[m["name"]]
            q1, med, q3 = statistics.quantiles(xs, n=4)
            print(name, m["name"], f"{med:.6g}", f"{(q3 - q1) / med:.3f}", m["bound"],
                  " ".join(f"{x:.6g}" for x in xs), flush=True)


if __name__ == "__main__":
    main()
