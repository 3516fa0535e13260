#!/usr/bin/env python3
"""Run one benchmark workload and print its result as one JSON line.

    python3 perfbench/run.py --workload sim-hm --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout. The script builds the measuring
program (perfbench/bench.ml) with dune into .bench_build/, runs the
workload in its own process, and with --trace 0 measures the peak
resident memory of a further fresh process that runs the job once. The
last line of standard output is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones
(the traced run also writes its spans to .bench_build/spans/). The exit
code is 0, and "correct" true, only when every operation passed its
checks and the measuring program and the memory probe exited cleanly.
"""

import argparse
import glob
import json
import os
import shutil
import signal
import subprocess
import sys
import threading

# The fixed input seeds of each workload. Counts are pooled over the
# whole list, so they repeat exactly from run to run; --seed only
# rotates the order of the seeds within the timed passes.
SEEDS = {"sim-hm": "1,2,3,4", "mux-hm": "1,2", "soak-mux": "42"}

BUILD_DIR = ".bench_build"
EXE = os.path.join(BUILD_DIR, "default", "perfbench", "bench.exe")
TIMEOUT_S = 170


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def find_dune():
    found = shutil.which("dune")
    if found:
        return found
    prefix = os.environ.get("OPAM_SWITCH_PREFIX")
    candidates = [os.path.join(prefix, "bin", "dune")] if prefix else []
    candidates += sorted(glob.glob(os.path.expanduser("~/.opam/*/bin/dune")))
    for c in candidates:
        if os.access(c, os.X_OK):
            return c
    fail("dune not found on PATH or in an opam switch")


def build():
    for need in ("dune-project", "lib", os.path.join("perfbench", "dune")):
        if not os.path.exists(need):
            fail("run from the root of a source checkout: %s is missing" % need)
    cmd = [find_dune(), "build", "--root", ".", "--profile", "release",
           "--cache", "disabled", "--build-dir", BUILD_DIR, "./perfbench/bench.exe"]
    done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, timeout=850)
    if done.returncode != 0:
        fail("build failed", 1)


def run_child(cmd):
    """Run cmd to completion; return (exit code, stdout, peak RSS in KiB)."""
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=sys.stderr, text=True)
    timer = threading.Timer(TIMEOUT_S, lambda: proc.send_signal(signal.SIGKILL))
    timer.start()
    try:
        out = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
        proc.stdout.close()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, out, usage.ru_maxrss


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(SEEDS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--seeds", help="override the workload's input seed list (comma-separated)")
    args = ap.parse_args()
    seeds = args.seeds or SEEDS[args.workload]

    build()
    exe = "./" + EXE
    cmd = [exe, "--workload", args.workload, "--seeds", seeds, "--seconds", str(args.seconds),
           "--order", str(args.seed), "--trace", str(args.trace)]
    if args.trace:
        os.makedirs(os.path.join(BUILD_DIR, "spans"), exist_ok=True)
        cmd += ["--spans-out", os.path.join(BUILD_DIR, "spans", args.workload + ".jsonl")]
    code, out, _ = run_child(cmd)
    lines = [l for l in out.splitlines() if l.strip()]
    if not lines:
        fail("the measuring program printed no result (exit code %d)" % code, 1)
    result = json.loads(lines[-1])
    metrics = result["metrics"]
    failed = int(result["failed"])
    correct = bool(result["correct"]) and code == 0

    if not args.trace:
        # peak resident memory of a fresh process that runs the job once
        first = seeds.split(",")[0]
        pcode, _, maxrss_kib = run_child([exe, "--workload", args.workload, "--seeds", first,
                                          "--probe"])
        if pcode != 0:
            print("perfbench: FAILED memory probe exited with %d" % pcode, file=sys.stderr)
            correct = False
        metrics["peak_rss_mb"] = {"value": maxrss_kib * 1024 / 1e6, "unit": "MB"}

    final = {"correct": correct, "attempted": int(result["attempted"]), "failed": failed,
             "metrics": metrics}
    print(json.dumps(final))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
