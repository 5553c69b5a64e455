#!/usr/bin/env python3
"""Repeat runner: runs workloads N times and reports each metric's spread.

    python3 perfbench/repeat.py --runs 10
    python3 perfbench/repeat.py --workloads warm-rpc fleet-fetch --runs 5 --seed 100

Run from the repository root. Runs are interleaved across workloads
(w1 w2 ... w1 w2 ...), each with its own seed (--seed, --seed + 1, ...).
For every end-to-end metric it prints the median, quartiles, min and max,
and the spread (q3 - q1) / median next to the metric's bound from
BENCHMARK.json. setup_s is reported but, as in the acceptance rule, only
its median is bounded. Exits 1 when a run fails or a spread exceeds its
bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def run_once(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace",
         str(trace)],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None
    return json.loads(lines[-1])


def main():
    bench = json.load(open("BENCHMARK.json"))
    names = [w["name"] for w in bench["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", nargs="+", choices=names, default=names)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=bench["run_seconds"])
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--json", help="also write every run's result here")
    args = ap.parse_args()

    metrics = bench["end_to_end"] if args.trace == 0 else bench["per_layer"]
    values = {w: {m["name"]: [] for m in metrics} for w in args.workloads}
    raw = {w: [] for w in args.workloads}
    bad = 0
    for i in range(args.runs):
        for w in args.workloads:
            seed = args.seed + i
            r = run_once(w, seed, args.seconds, args.trace)
            raw[w].append(r)
            if r is None or not r["correct"] or r["failed"]:
                bad += 1
                print("run %s seed %d FAILED: %s" % (w, seed, r),
                      file=sys.stderr)
                continue
            for name in values[w]:
                if name in r["metrics"]:
                    values[w][name].append(r["metrics"][name]["value"])
            print("run %s seed %d ok" % (w, seed), file=sys.stderr,
                  flush=True)

    over = 0
    print("%-12s %-34s %4s %12s %12s %12s %12s %12s %7s %6s  %s" %
          ("workload", "metric", "n", "median", "q1", "q3", "min", "max",
           "spread", "bound", "verdict"))
    for w in args.workloads:
        for m in metrics:
            v = values[w][m["name"]]
            if len(v) < 2:
                print("%-12s %-34s %4d  (too few runs)" % (w, m["name"],
                                                          len(v)))
                continue
            q1, med, q3 = statistics.quantiles(v, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            bound = m.get("bound")
            if bound is None:
                verdict = ""
            elif m["name"] == "setup_s":
                verdict = "median-only"
            elif spread <= bound / 3:
                verdict = "steady"
            elif spread <= bound:
                verdict = "fits"
            else:
                verdict = "OVER"
                over += 1
            print("%-12s %-34s %4d %12.5g %12.5g %12.5g %12.5g %12.5g %7.3f "
                  "%6s  %s" % (w, m["name"], len(v), med, q1, q3, min(v),
                               max(v), spread,
                               "" if bound is None else "%.2f" % bound,
                               verdict))
    if args.json:
        with open(args.json, "w") as f:
            json.dump(raw, f)
    return 1 if bad or over else 0


if __name__ == "__main__":
    sys.exit(main())
