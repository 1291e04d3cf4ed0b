#!/usr/bin/env python3
"""Self-check of the perfbench benchmark.

    python3 perfbench/selfcheck.py

1. BENCHMARK.json has the expected shape.
2. Quick mode (--quick: scaled-down inputs, 1 s) of every workload, untraced
   and traced, prints a well-formed result line whose metrics are exactly
   the end-to-end or per-layer names of BENCHMARK.json with their units,
   and every check passes.
3. One seed always generates byte-identical scenario text (two separate
   processes), and another seed generates different text.
4. In a directory holding only BENCHMARK.json and perfbench/, the
   benchmark exits non-zero without printing a result.

Exits 0 when everything holds; prints each failure otherwise.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
FAILURES = []


def expect(ok, what):
    print("%s %s" % ("ok  " if ok else "FAIL", what), flush=True)
    if not ok:
        FAILURES.append(what)


def run(cmd, cwd=ROOT):
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=900)


def check_manifest(bench):
    expect(set(bench) == {"command", "paths", "run_seconds", "workloads",
                          "end_to_end", "per_layer"}, "BENCHMARK.json keys")
    names = [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
    expect(len(names) == len(set(names)), "metric names are unique")
    expect(all(m["bound"] <= 0.25 for m in bench["end_to_end"]),
           "end-to-end bounds are at most 0.25")
    setup = [m for m in bench["end_to_end"] if m["name"] == "setup_s"]
    expect(len(setup) == 1 and setup[0]["unit"] == "s"
           and setup[0]["better"] == "lower", "setup_s is present")


def check_workload(bench, workload, trace):
    cmd = bench["command"] + ["--workload", workload, "--seed", "3",
                              "--seconds", "1", "--trace", str(trace),
                              "--quick"]
    out = run(cmd)
    label = "%s --trace %d" % (workload, trace)
    lines = out.stdout.strip().splitlines()
    expect(out.returncode == 0 and lines, label + ": exits 0 with output")
    if out.returncode != 0 or not lines:
        print(out.stderr[-2000:])
        return
    result = json.loads(lines[-1])
    expect(set(result) == {"correct", "attempted", "failed", "metrics"},
           label + ": result keys")
    expect(result["correct"] is True and result["failed"] == 0
           and result["attempted"] >= 1, label + ": every check passes")
    want = bench["per_layer"] if trace else bench["end_to_end"]
    got = result["metrics"]
    expect(set(got) == {m["name"] for m in want}, label + ": metric names")
    expect(all(got[m["name"]]["unit"] == m["unit"] for m in want
               if m["name"] in got), label + ": metric units")
    if not trace:
        expect(all(got[m["name"]]["value"] > 0 for m in want if m["name"] in got),
               label + ": end-to-end metrics are never 0")
    expect(any(line.startswith("env {") for line in lines),
           label + ": environment stamp")


def check_scenarios(bench):
    for workload in ("sim-fleet", "sim-byz-gossip"):
        texts = []
        for seed in ("11", "11", "12"):
            out = run(bench["command"] + ["--emit-scenario", workload,
                                          "--seed", seed])
            texts.append(out.stdout if out.returncode == 0 else None)
        expect(texts[0] is not None and texts[0] == texts[1],
               workload + ": one seed gives byte-identical scenario text")
        expect(texts[0] != texts[2],
               workload + ": another seed gives other text")


def check_bare_directory(bench):
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".selfcheck-") as tmp:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
        for path in bench["paths"]:
            shutil.copytree(os.path.join(ROOT, path), os.path.join(tmp, path))
        out = run(bench["command"] + ["--workload", "serve", "--seed", "1",
                                      "--seconds", "1", "--trace", "0"],
                  cwd=tmp)
        last = out.stdout.strip().splitlines()[-1:] or [""]
        expect(out.returncode != 0 and not last[0].startswith("{"),
               "bare directory: non-zero exit, no result")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    check_manifest(bench)
    for workload in bench["workloads"]:
        for trace in (0, 1):
            check_workload(bench, workload["name"], trace)
    check_scenarios(bench)
    check_bare_directory(bench)
    print("%d failure(s)" % len(FAILURES))
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
