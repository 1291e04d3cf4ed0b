#!/usr/bin/env python3
"""Builds and runs the perfbench benchmark from the root of a checkout.

    python3 perfbench/run.py --workload sim-fleet --seed 1 --seconds 20 --trace 0

Configures and builds perfbench/ (Release) into a directory of this
checkout's own under CARGO_TARGET_DIR, or .bench_build when it is unset,
then runs the `perfbench` binary with the same arguments.  Its last line
of standard output is the result object.  Build output goes to standard
error, so the result stays the last line.  Exits non-zero without a result
when the repository sources are missing or the build fails.
"""

import hashlib
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH = os.path.join(ROOT, "perfbench")


def source_id():
    """The git sha when the checkout is a repository, else a hash of the
    sources the benchmark builds from."""
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10)
        if sha.returncode == 0 and sha.stdout.strip():
            return sha.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "tree-" + digest.hexdigest()[:16]


def build(build_dir):
    """Configure and build; both are quick no-ops when nothing changed."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(
        ["cmake", "-S", BENCH, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
        check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(
        ["cmake", "--build", build_dir, "--target", "perfbench", "-j", jobs],
        check=True, stdout=sys.stderr, stderr=sys.stderr)
    return os.path.join(build_dir, "perfbench")


def main(argv):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("perfbench: no repository sources next to perfbench/ "
              "(expected src/CMakeLists.txt)", file=sys.stderr)
        return 2
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    # One build tree per checkout: a CMake cache names its source tree, so
    # two checkouts sharing CARGO_TARGET_DIR must not share a tree.
    build_dir = os.path.join(target, "perfbench-" + hashlib.sha256(
        ROOT.encode()).hexdigest()[:12])
    try:
        binary = build(build_dir)
    except (OSError, subprocess.CalledProcessError) as err:
        print("perfbench: build failed: %s" % err, file=sys.stderr)
        return 3

    args = list(argv)
    extra = ["--source-id", source_id()]
    if "--emit-scenario" not in args and "--trace-out" not in args:
        def arg(flag, default):
            return args[args.index(flag) + 1] if flag in args[:-1] else default
        workload, seed = arg("--workload", "run"), arg("--seed", "0")
        trace_dir = os.path.join(build_dir, "traces")
        os.makedirs(trace_dir, exist_ok=True)
        extra += ["--trace-out",
                  os.path.join(trace_dir, "%s-%s.json" % (workload, seed))]
    proc = subprocess.run([binary] + args + extra)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
