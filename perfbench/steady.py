#!/usr/bin/env python3
"""Checks that the benchmark repeats: runs each workload N times, with
seeds 1..N and BENCHMARK.json's run_seconds, and prints for every
end-to-end metric its median, first and third quartile and spread
(q3 - q1) / median next to the bound BENCHMARK.json gives it, plus the
share of failed operations.

    python3 perfbench/steady.py [--runs 10] [--workloads kv-small,email]

Run from the repository root. A spread within a third of its bound leaves
room for the run-to-run drift a later comparison sees. setup_s, one cold
set-up per run, is printed like the others but only its median is
compared between sets, so it is not held to the spread rule. Exits 1 when
a run fails or a spread is wider than a third of its bound.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workloads",
                    default=",".join(w["name"] for w in spec["workloads"]))
    args = ap.parse_args()

    ok = True
    for wl in args.workloads.split(","):
        runs = []
        for seed in range(1, args.runs + 1):
            p = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", wl,
                 "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
                 "--trace", "0"],
                stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
            lines = p.stdout.strip().splitlines()
            if p.returncode != 0 or not lines:
                print("%s seed %d: run failed (exit %d)" % (wl, seed, p.returncode))
                ok = False
                continue
            runs.append(json.loads(lines[-1]))
        if len(runs) < 4:
            print("%s: too few runs to take quartiles" % wl)
            ok = False
            continue
        shares = sorted({r["failed"] / r["attempted"] for r in runs})
        print("%s: %d runs, failed share %s, all correct: %s" % (
            wl, len(runs), shares, all(r["correct"] for r in runs)))
        for m in spec["end_to_end"]:
            vals = [r["metrics"][m["name"]]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            if m["name"] == "setup_s":
                verdict = "median only"
            elif spread <= m["bound"] / 3:
                verdict = "ok"
            else:
                verdict = "WIDE"
                ok = False
            print("  %-14s median %12.4f  q1 %12.4f  q3 %12.4f  spread %6.2f%%"
                  "  bound %5.1f%%  %s" % (
                      m["name"], med, q1, q3, 100 * spread, 100 * m["bound"],
                      verdict))
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
