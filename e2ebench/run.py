#!/usr/bin/env python3
"""Build and run the end-to-end AutoSens benchmark.

Run from the repository root:

    python3 e2ebench/run.py --workload analyze_bin --seed 1 --seconds 30 --trace 0

Configures and builds e2ebench/ (a standalone CMake project that compiles
../src) in Release mode under .bench_build/e2ebench, then runs one workload
in its own process. The program's last stdout line is the result object;
captures go to .bench_runs/ and scratch files to .bench_work/.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 175


def build_dir():
    root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(root, "e2ebench")


def build(out_dir):
    """Configure (once) and build; build output goes to stderr."""
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(out_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out_dir, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out_dir, "--target", "autosens_e2e", "-j", jobs])
    for step in steps:
        subprocess.run(step, check=True, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    return os.path.join(out_dir, "autosens_e2e")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", default="0", choices=("0", "1"))
    args = parser.parse_args()

    try:
        binary = build(build_dir())
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired, OSError) as error:
        print(f"e2ebench: build failed: {error}", file=sys.stderr)
        return 2

    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", args.trace,
               "--capture-dir", ".bench_runs", "--work-dir", ".bench_work"]
    try:
        completed = subprocess.run(command, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("e2ebench: run timed out", file=sys.stderr)
        return 3
    return completed.returncode


if __name__ == "__main__":
    sys.exit(main())
