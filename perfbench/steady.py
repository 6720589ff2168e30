#!/usr/bin/env python3
"""Steadiness check: run one workload k times, one seed each, and compare
each end-to-end metric's spread with its bound in BENCHMARK.json.

    python3 perfbench/steady.py --workload <name> [--runs 10] [--first-seed 1]

For every end-to-end metric it prints the median, the first and third
quartiles (Python's `statistics.quantiles(values, n=4)`) and the spread
`(q3 - q1) / median` against the metric's bound. A metric whose spread
exceeds its bound is flagged OVER; one above a third of its bound is
flagged tight. It also checks that every run failed the same share of
its operations. Exits 1 when anything is flagged OVER, a run fails, or
the failed shares differ.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    a = p.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = spec["run_seconds"]

    values = {m["name"]: [] for m in spec["end_to_end"]}
    shares = []
    bad = False
    for seed in range(a.first_seed, a.first_seed + a.runs):
        t = time.time()
        r = subprocess.run(
            [sys.executable, os.path.join(ROOT, "perfbench", "run.py"), "--workload", a.workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            cwd=ROOT, stdout=subprocess.PIPE, text=True)
        if r.returncode != 0:
            print(f"seed {seed}: run failed with exit code {r.returncode}")
            bad = True
            continue
        result = json.loads(r.stdout.strip().split("\n")[-1])
        shares.append(result["failed"] / result["attempted"])
        for name in values:
            values[name].append(result["metrics"][name]["value"])
        print(f"seed {seed}: {time.time() - t:.1f} s, correct={result['correct']}, "
              f"attempted={result['attempted']}, failed={result['failed']}", flush=True)
        bad |= not result["correct"]

    print(f"\n{a.workload}: {len(shares)} runs of {seconds} s")
    print(f"{'metric':<14} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8} {'bound':>6}")
    for m in spec["end_to_end"]:
        v = values[m["name"]]
        if len(v) < 2:
            continue
        q1, med, q3 = statistics.quantiles(v, n=4)
        spread = (q3 - q1) / med
        flag = ""
        if spread > m["bound"]:
            flag = "OVER"
            bad = True
        elif spread > m["bound"] / 3:
            flag = "tight"
        print(f"{m['name']:<14} {med:>14.6g} {q1:>14.6g} {q3:>14.6g} {spread:>8.4f} "
              f"{m['bound']:>6} {flag}")
    if len(set(shares)) > 1:
        print(f"failed shares differ between runs: {sorted(set(shares))}")
        bad = True
    else:
        print(f"failed share: {shares[0] if shares else 'n/a'} in every run")
    sys.exit(1 if bad else 0)


if __name__ == "__main__":
    main()
