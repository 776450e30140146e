#!/usr/bin/env python3
"""Builds perfbench from source (incrementally) and runs one workload.

Usage, from the repository root:
  python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The build goes to $CARGO_TARGET_DIR when set, else .bench_build. Build output
goes to stderr, so the benchmark's JSON result stays the last stdout line.
A traced run also writes its spans to <build dir>/spans-<workload>.jsonl.
"""
import os
import subprocess
import sys


def main():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    build = os.path.join(root, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    args = sys.argv[1:]
    steps = []
    if not os.path.exists(os.path.join(build, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(root, "perfbench"), "-B", build,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build, "--target", "perfbench", "-j", "4"])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            print("perfbench: build failed", file=sys.stderr)
            return 2
    binary = os.path.join(build, "perfbench")
    return subprocess.run([binary] + args + ["--spans-dir", build]).returncode


if __name__ == "__main__":
    sys.exit(main())
