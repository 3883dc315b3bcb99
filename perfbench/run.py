#!/usr/bin/env python3
"""Builds the benchmark from the checkout it sits in and runs one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Run from the root of a checkout. The first call configures and builds the
simulator library and the benchmark under .bench_build/perfbench with the
repository's default build type; later calls rebuild only what changed.
The benchmark's standard output passes through unchanged: its last line is
the JSON result. Build output goes to standard error.
"""
import argparse
import os
import subprocess
import sys

BUILD_DIR = os.path.join(".bench_build", "perfbench")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def call(command, timeout):
    """Runs `command` with its stdout sent to our stderr; waits for it."""
    try:
        result = subprocess.run(command, stdout=sys.stderr, timeout=timeout)
    except subprocess.TimeoutExpired:
        fail(f"timed out after {timeout} s: {' '.join(command)}")
    if result.returncode != 0:
        fail(f"exit {result.returncode}: {' '.join(command)}")


def build(target):
    if not os.path.isfile(os.path.join("src", "sim", "checked_system.h")):
        fail("run from the root of a checkout: src/ is missing")
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        call(["cmake", "-S", "perfbench", "-B", BUILD_DIR], BUILD_TIMEOUT_S)
    call(["cmake", "--build", BUILD_DIR, "--target", target, "-j", "4"],
         BUILD_TIMEOUT_S)
    return os.path.join(BUILD_DIR, target)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()

    if args.selftest:
        binary = build("perfbench_selftest")
        sys.exit(subprocess.run([binary], timeout=RUN_TIMEOUT_S).returncode)

    if None in (args.workload, args.seed, args.seconds, args.trace):
        parser.error("--workload, --seed, --seconds and --trace are required")
    binary = build("perfbench")
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    sys.stdout.flush()
    try:
        result = subprocess.run(command, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"benchmark timed out after {RUN_TIMEOUT_S} s")
    sys.exit(result.returncode)


if __name__ == "__main__":
    main()
