#!/usr/bin/env python3
"""Steadiness check: two sets of benchmark runs, compared against the bounds.

    python3 perfbench/steady.py [--runs 10] [--workloads a,b] [--seconds S]

Run from the root of a checkout. For every workload in BENCHMARK.json it
makes --runs runs per set with seeds 1..runs, alternating between set A and
set B run by run, then prints for every end-to-end metric each set's median
and quartiles (statistics.quantiles, n=4), the quartile spread as a share of
the median against the metric's bound, and how far set B's median moved
from set A's in the metric's worse direction. Host provenance comes first.
Exit code 1 when a spread (other than setup_s's) or a median shift exceeds
its bound, or when a schedule-quality metric differs between the two runs
of one seed.
"""

import argparse
import json
import os
import pathlib
import statistics
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
# Deterministic for a seed: both sets must read exactly the same.
EXACT = ("completed_frac", "avg_wait_h", "avg_bsld", "max_wait_h")


def provenance():
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    cpus = sorted(os.sched_getaffinity(0))
    return "nproc %d, affinity cpus %d (%s), cpu model %s" % (
        os.cpu_count(), len(cpus), ",".join(map(str, cpus)), model)


def run_once(workload, seed, seconds):
    done = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", str(seconds), "--trace",
         "0"], cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.exit("run failed: %s seed %d (exit %d)\n%s" % (
            workload, seed, done.returncode, done.stdout))
    result = json.loads(lines[-1])
    if not result["correct"]:
        sys.exit("output check failed: %s seed %d" % (workload, seed))
    return {k: v["value"] for k, v in result["metrics"].items()}


def summarize(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3, (q3 - q1) / med if med else float("inf")


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workloads", default=",".join(
        w["name"] for w in spec["workloads"]))
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = ap.parse_args()
    workloads = args.workloads.split(",")
    print(provenance(), flush=True)

    sets = {(w, s): [] for w in workloads for s in "AB"}
    for i in range(args.runs):
        for w in workloads:
            for s in "AB":
                sets[(w, s)].append(run_once(w, i + 1, args.seconds))
                print(".", end="", flush=True)
    print()

    ok = True
    for w in workloads:
        for i, (a, b) in enumerate(zip(sets[(w, "A")], sets[(w, "B")])):
            for name in EXACT:
                if name in a and a[name] != b[name]:
                    ok = False
                    print("%s seed %d: %s differs between sets (%r, %r)" % (
                        w, i + 1, name, a[name], b[name]))
        print("\n%s (%d runs per set)" % (w, args.runs))
        print("%-16s %-6s %14s %14s %14s %8s %8s %8s" % (
            "metric", "set", "q1", "median", "q3", "spread", "bound",
            "shift"))
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            stats = {}
            for s in "AB":
                stats[s] = summarize([r[name] for r in sets[(w, s)]])
            med_a, med_b = stats["A"][1], stats["B"][1]
            worse = (med_b - med_a) if m["better"] == "lower" else (med_a - med_b)
            shift = worse / med_a if med_a else 0.0
            for s in "AB":
                q1, med, q3, spread = stats[s]
                bad = name != "setup_s" and spread > bound
                ok &= not bad
                print("%-16s %-6s %14.6g %14.6g %14.6g %8.4f %8.3f %8s%s" % (
                    name, s, q1, med, q3, spread, bound,
                    "%.4f" % shift if s == "B" else "",
                    "  SPREAD>BOUND" if bad else ""))
            if shift > bound:
                ok = False
                print("%-16s median shift %.4f exceeds bound %.3f" % (
                    name, shift, bound))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
