#!/usr/bin/env python3
"""Measure the run-to-run spread of the end-to-end metrics.

    python3 perfbench/spread.py [--workloads graph-det,svc-mix] [--runs 10]
                                [--first-seed 1] [--out runs.json]
                                [--compare earlier.json]

Runs perfbench/run.py --trace 0 once per seed (first-seed, first-seed+1,
...) for every workload, one run at a time, and prints per metric the
median and the spread: the distance between the first and third
quartile (statistics.quantiles(values, n=4)) as a share of the median.
A spread at or above a third of the metric's bound in BENCHMARK.json is
flagged, as is (with --compare) a median worse than the earlier set's by
more than the bound. --out saves the raw values for a later --compare.
Exits 1 when any run fails.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "0"]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    result = json.loads(proc.stdout.strip().split("\n")[-1])
    if proc.returncode != 0 or not result["correct"]:
        raise SystemExit("run failed: %s seed %d" % (workload, seed))
    return {k: v["value"] for k, v in result["metrics"].items()}


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads",
                    default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--out")
    ap.add_argument("--compare")
    args = ap.parse_args()

    earlier = {}
    if args.compare:
        with open(args.compare) as f:
            earlier = json.load(f)
    values = {}
    flagged = 0
    for w in args.workloads.split(","):
        runs = [run_once(w, args.first_seed + i, args.seconds)
                for i in range(args.runs)]
        values[w] = {m["name"]: [r[m["name"]] for r in runs]
                     for m in spec["end_to_end"]}
        for m in spec["end_to_end"]:
            v = values[w][m["name"]]
            med = statistics.median(v)
            q1, _, q3 = statistics.quantiles(v, n=4)
            spread = (q3 - q1) / med
            note = ""
            if m["name"] != "setup_s" and spread >= m["bound"] / 3:
                note += "  SPREAD >= bound/3"
            if w in earlier:
                old = statistics.median(earlier[w][m["name"]])
                worse = (med - old) / old if m["better"] == "lower" \
                    else (old - med) / old
                note += "  vs earlier %+.3f" % worse
                if worse > m["bound"]:
                    note += " WORSE THAN BOUND"
            flagged += "SPREAD" in note or "WORSE" in note
            print("%-10s %-14s median %-12.6g spread %.4f bound %.2f%s"
                  % (w, m["name"], med, spread, m["bound"], note),
                  flush=True)
    if args.out:
        with open(args.out, "w") as f:
            json.dump(values, f, indent=1)
    print("%d metric(s) flagged" % flagged)
    return 0


if __name__ == "__main__":
    sys.exit(main())
