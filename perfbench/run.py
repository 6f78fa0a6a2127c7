#!/usr/bin/env python3
"""Builds and runs the end-to-end efd cycle benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload steady_rate --seed 1 --seconds 20 --trace 0

Builds perfbench/ (and the daemon sources it compiles from ../src) into
.bench_build/perfbench on first use, then runs the benchmark binary from
the repository root. The binary's last stdout line is the result object;
build output goes to stderr. See perfbench/README.md.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "efd_cycle_bench")
WORKLOADS = ("steady_rate", "peak_shift", "sampled_pop")


def build():
    """Configures (once) and builds the benchmark; False on failure."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return False
    return os.path.isfile(BINARY)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", choices=("0", "1"), default="0")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny scale, a few windows, same checks")
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "service", "efd.h")):
        print("run.py: efd sources (src/) not found next to perfbench/",
              file=sys.stderr)
        return 2
    if not build():
        print("run.py: build failed", file=sys.stderr)
        return 1

    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace]
    if args.smoke:
        cmd.append("--smoke")
    sys.stdout.flush()
    try:
        # Every barrier inside has its own timeout; this bounds the rest.
        return subprocess.run(cmd, cwd=ROOT, timeout=175).returncode
    except subprocess.TimeoutExpired:
        print("run.py: benchmark exceeded 175 s", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
