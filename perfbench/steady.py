#!/usr/bin/env python3
"""Check that the benchmark is steady: two sets of runs of the same code agree.

    python3 perfbench/steady.py --runs 5                  # every workload
    python3 perfbench/steady.py --runs 5 --workload soak-mux --seconds 20

For each workload it makes 2 x RUNS runs of perfbench/run.py with the
seeds 1 .. 2 x RUNS, as two consecutive sets. For every end-to-end
metric it prints both sets' medians and quartiles, the spread of all
runs (the distance between the first and third quartile as a share of
the median), the drift of the second median against the first (as a
share of the first; positive is worse), and the metric's bound from
BENCHMARK.json. A metric is steady when its spread is below a third of
its bound and its drift, either way, stays within the bound. The share
of failed operations must be the same in every run. Exits 1 if anything
is not steady.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    lines = [l for l in done.stdout.splitlines() if l.strip()]
    if done.returncode != 0 or not lines:
        raise SystemExit("perfbench: %s seed %d failed (exit %d)" % (workload, seed, done.returncode))
    return json.loads(lines[-1])


def main():
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=5, help="runs per set (two sets per workload)")
    ap.add_argument("--workload", action="append", help="limit to these workloads")
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    args = ap.parse_args()

    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    steady = True
    for w in workloads:
        results = []
        for i in range(2 * args.runs):
            start = time.time()
            results.append(run_once(w, i + 1, args.seconds))
            print("  %s run %d done in %.1f s" % (w, i + 1, time.time() - start), file=sys.stderr)
        shares = {r["failed"] / r["attempted"] for r in results}
        print("\n== %s: %d + %d runs, failed share %s" % (w, args.runs, args.runs, sorted(shares)))
        if len(shares) != 1:
            steady = False
            print("   NOT STEADY: the share of failed operations differs between runs")
        print("%-16s %12s %25s %12s %25s %8s %8s %6s" % (
            "metric", "median A", "quartiles A", "median B", "quartiles B", "spread", "drift",
            "bound"))
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            vals = [r["metrics"][name]["value"] for r in results]
            a, b = vals[:args.runs], vals[args.runs:]
            a1, a2, a3 = quartiles(a)
            b1, b2, b3 = quartiles(b)
            q1, q2, q3 = quartiles(vals)
            spread = (q3 - q1) / q2 if q2 else float("inf")
            sign = 1 if m["better"] == "lower" else -1
            drift = sign * (b2 - a2) / a2 if a2 else float("inf")
            ok = abs(drift) <= bound and spread < bound / 3
            steady = steady and ok
            print("%-16s %12.6g %12.6g..%-11.6g %12.6g %12.6g..%-11.6g %8.4f %8.4f %6.3g%s" % (
                name, a2, a1, a3, b2, b1, b3, spread, drift, bound, "" if ok else "  NOT STEADY"))
    sys.exit(0 if steady else 1)


if __name__ == "__main__":
    main()
