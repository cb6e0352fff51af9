#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the kperf library and the `perfbench` program from source into
.bench_build/ at the repository root (a no-op when up to date; build
output goes to stderr), then runs one workload. The last line of standard
output is the JSON result. A traced run (--trace 1) also writes its spans
as Chrome trace-event JSON under .bench_build/traces/.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "perfbench")
WORKLOADS = ("serve_steady", "serve_drift", "tune_offline")
# A run must end within 180 s; the program is stopped a little earlier.
RUN_TIMEOUT_S = 175


def clean_env():
    """The environment without KPERF_* variables: the library reads
    KPERF_EXEC_TIER, and the benchmark measures the default tier."""
    return {k: v for k, v in os.environ.items() if not k.startswith("KPERF_")}


def build():
    """Configures (once) and builds the program; returns True on success."""
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "perfbench",
                  "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          env=clean_env()).returncode != 0:
            return False
    return True


def run(args, extra=()):
    """Runs the program once; returns its exit code (the output is
    inherited)."""
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    cmd += list(extra)
    try:
        return subprocess.run(cmd, env=clean_env(),
                              timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = p.parse_args()
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 1
    extra = []
    if args.trace:
        traces = os.path.join(ROOT, ".bench_build", "traces")
        os.makedirs(traces, exist_ok=True)
        extra = ["--trace-out", os.path.join(
            traces, "%s-seed%d.json" % (args.workload, args.seed))]
    sys.stdout.flush()
    return run(args, extra)


if __name__ == "__main__":
    sys.exit(main())
