#!/usr/bin/env python3
"""Steadiness report for the end-to-end benchmark (perfbench/run.py).

Runs each workload --runs times for BENCHMARK.json's run_seconds, with the
seeds 1000, 1001, ..., and prints per end-to-end metric the median and
quartiles of the runs next to the bound BENCHMARK.json fixes, with the
quartile spread as a share of the median:

    python3 perfbench/steadiness.py --runs 10
    python3 perfbench/steadiness.py --runs 5 --workloads mixed_serve

Run it from the root of a voprof checkout. A spread above its metric's
bound makes the exit status 1; a spread under a third of the bound is
marked steady.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

FIRST_SEED = 1000


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join("perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed}: run failed (exit {proc.returncode})")
    result = json.loads(lines[-1])
    if not result["correct"]:
        sys.exit(f"{workload} seed {seed}: verification failed")
    return {name: m["value"] for name, m in result["metrics"].items()}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads", default="",
                        help="comma-separated (default: all)")
    args = parser.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in bench["workloads"]])
    seconds = bench["run_seconds"]
    too_wide = 0
    for workload in workloads:
        values = {m["name"]: [] for m in bench["end_to_end"]}
        for i in range(args.runs):
            seed = FIRST_SEED + i
            got = run_once(workload, seed, seconds)
            for name in values:
                values[name].append(got[name])
            print(f"{workload} seed {seed}: "
                  + "  ".join(f"{n}={got[n]:.5g}" for n in values), flush=True)
        print(f"\n{workload}: {args.runs} runs of {seconds} s")
        print(f"  {'metric':<14} {'q1':>11} {'median':>11} {'q3':>11} "
              f"{'spread':>7} {'bound':>6}  verdict")
        for m in bench["end_to_end"]:
            q1, median, q3 = statistics.quantiles(values[m["name"]], n=4)
            spread = (q3 - q1) / median if median else float("inf")
            bound = m["bound"]
            if spread <= bound / 3:
                verdict = "steady"
            elif spread <= bound:
                verdict = "within bound"
            else:
                verdict = "TOO WIDE"
                too_wide += 1
            print(f"  {m['name']:<14} {q1:>11.5g} {median:>11.5g} {q3:>11.5g} "
                  f"{spread:>7.3f} {bound:>6}  {verdict}")
        print(flush=True)
    sys.exit(1 if too_wide else 0)


if __name__ == "__main__":
    main()
