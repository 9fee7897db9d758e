#!/usr/bin/env python3
"""The benchmark's own test: exact counters follow the seed, and only it.

    python3 perfbench/test_seeds.py [--seconds 3] [--seed 1] [--held-out 2]

For every workload, runs the traced perfbench binary twice on --seed and
once on --held-out. The exact counters (rounds, generations, committed, aborted,
pushed, atomic_ops) and the schedule digest must repeat bit for bit on
the rerun, and the digest must change on the held-out seed: the inputs
are a function of the seed alone. The held-out seed is the one a later
performance claim must also hold on. Exits 1 on any violation.
"""

import argparse
import json
import os
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402  (same directory)

EXACT = ("runtime.rounds", "runtime.generations", "runtime.committed",
         "runtime.aborted", "runtime.pushed", "runtime.atomic_ops",
         "runtime.digest")


def counters(workload, seed, seconds):
    cmd = [os.path.join(run.build_dir(), "perfbench"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "1"]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=run.BINARY_TIMEOUT_S)
    report = json.loads(proc.stdout.strip().split("\n")[-1])
    if proc.returncode != 0 or not report["correct"]:
        raise SystemExit("FAIL %s seed %d: run not verified" % (workload,
                                                                seed))
    return {k: report["per_layer"][k]["value"] for k in EXACT}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seconds", type=float, default=3)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--held-out", type=int, default=2)
    args = ap.parse_args()
    if not run.build(run.build_dir()):
        return 1
    ok = True
    for w in run.WORKLOADS:
        a = counters(w, args.seed, args.seconds)
        b = counters(w, args.seed, args.seconds)
        c = counters(w, args.held_out, args.seconds)
        same = a == b
        moved = a["runtime.digest"] != c["runtime.digest"]
        changed = sorted(k for k in EXACT if a[k] != c[k])
        print("%-9s rerun %s, held-out seed %s (changed: %s)" % (
            w, "identical" if same else "DIFFERS: %s vs %s" % (a, b),
            "differs" if moved else "DIGEST UNCHANGED",
            ", ".join(changed) or "nothing"))
        ok = ok and same and moved
    print("PASS" if ok else "FAIL")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
