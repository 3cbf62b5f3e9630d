#!/usr/bin/env python3
"""Builds and runs the sargus end-to-end benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test

The first call configures and builds the library and the driver in
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench); later calls
only rebuild what changed. Build output goes to stderr, so the last line
on stdout is the driver's JSON result. Durability directories and span
files go to .bench_runs/. --self-test builds and runs the percentile
helper's test instead.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_JOBS = "3"


def build(target):
    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, build_root, "perfbench")
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, check=True)
    subprocess.run(
        ["cmake", "--build", build_dir, "--target", target, "-j", BUILD_JOBS],
        stdout=sys.stderr, check=True)
    return os.path.join(build_dir, target)


def main(argv):
    try:
        if argv == ["--self-test"]:
            return subprocess.run([build("perfbench_stats_test")]).returncode
        binary = build("sargus_perfbench")
    except (subprocess.CalledProcessError, OSError) as err:
        print("perfbench: build failed: %s" % err, file=sys.stderr)
        return 2
    work_dir = os.path.join(ROOT, ".bench_runs")
    return subprocess.run([binary] + argv + ["--work-dir", work_dir]).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
