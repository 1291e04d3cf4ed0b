#!/usr/bin/env python3
"""Runs the benchmark over several seeds and reports each end-to-end
metric's median and spread: the distance between the first and third
quartiles (statistics.quantiles, n=4) as a share of the median.

    python3 perfbench/spread.py --workload serve --seeds 1-10 [--seconds S]

Compare each spread against the metric's `bound` in BENCHMARK.json; a
steady benchmark keeps it well below (a third of the bound or less).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def seeds(spec):
    if "-" in spec:
        lo, hi = spec.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in spec.split(",")]


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int, default=None)
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    values = {name: [] for name in bounds}
    for seed in seeds(args.seeds):
        cmd = bench["command"] + ["--workload", args.workload, "--seed",
                                  str(seed), "--seconds", str(seconds),
                                  "--trace", "0"]
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        lines = out.stdout.strip().splitlines()
        if out.returncode != 0 or not lines:
            print("seed %d: exit %d\n%s" % (seed, out.returncode, out.stderr),
                  file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        if not result["correct"] or result["failed"] != 0:
            print("seed %d: incorrect result %s" % (seed, lines[-1]),
                  file=sys.stderr)
            return 1
        for name in bounds:
            values[name].append(result["metrics"][name]["value"])
        print("seed %d: %s" % (seed, " ".join(
            "%s=%.6g" % (n, result["metrics"][n]["value"]) for n in bounds)),
            flush=True)

    worst = True
    for name, vals in values.items():
        q1, med, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else float("inf")
        ok = spread <= bounds[name] / 3
        worst = worst and ok
        print("%-14s median %-12.6g spread %.4f bound %.2f %s" % (
            name, med, spread, bounds[name], "" if ok else "WIDE"))
    return 0 if worst else 1


if __name__ == "__main__":
    sys.exit(main())
