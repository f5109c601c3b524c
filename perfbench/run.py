#!/usr/bin/env python3
"""End-to-end benchmark of qarch: builds the library from ../src and runs one
workload.

    python3 perfbench/run.py --workload search_sv --seed 1 --seconds 20 --trace 0

Workloads: search_sv, search_tn, serve_durable (see BENCHMARK.json for why
each was chosen, and perfbench/README.md for what each measures).

The build goes to $CARGO_TARGET_DIR (default .bench_build) under the current
directory; store files of a run live in a work directory inside it and are
removed when the run ends. All build output goes to stderr. Stdout carries
the benchmark's own lines, then a {"context": ...} line (fingerprint and
deterministic counts), and as its last line the result object:

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

The exit code is non-zero, with no result printed, when the build fails or
the benchmark crashes; it is also non-zero (after the result line, which
then says "correct": false) when an output check fails.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("search_sv", "search_tn", "serve_durable")
RUN_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def build(build_dir):
    """Configures (once) and builds the benchmark; returns the binary path."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs])
    for step in steps:
        done = subprocess.run(step, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stdout)
            sys.stderr.write("perfbench: build step failed: %s\n" % " ".join(step))
            return None
    return os.path.join(build_dir, "perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    binary = build(build_dir)
    if binary is None:
        return 1

    work_dir = os.path.join(build_dir, "work-%d" % os.getpid())
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--work-dir", work_dir]
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.stderr.write("perfbench: run exceeded %d s\n" % RUN_TIMEOUT_S)
        return 1
    lines = done.stdout.rstrip("\n").split("\n")
    if done.returncode not in (0, 1) or not lines or not lines[-1].startswith("{"):
        sys.stderr.write(done.stdout)
        sys.stderr.write("perfbench: benchmark exited with %d\n" % done.returncode)
        return 1
    result = json.loads(lines[-1])
    if set(result) != RESULT_KEYS:
        sys.stderr.write("perfbench: malformed result line\n")
        return 1
    sys.stdout.write(done.stdout)
    sys.stdout.flush()
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
