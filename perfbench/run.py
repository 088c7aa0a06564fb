#!/usr/bin/env python3
"""Builds and runs the repo benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The first call configures a Release
build of perfbench/ (which compiles the library under src/) into
.bench_build/; later calls rebuild incrementally. The last line of
standard output is the benchmark's JSON result (see README.md).
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "perfbench")
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def quiet(cmd):
    """Runs a build step, sending its output to stderr."""
    return subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr).returncode


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no library sources under src/; run from a full checkout")
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        if quiet(["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", BUILD,
                  "-DCMAKE_BUILD_TYPE=Release"]) != 0:
            fail("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    if quiet(["cmake", "--build", BUILD, "--target", "perfbench", "-j", jobs]) != 0:
        fail("build failed")


def main():
    build()
    try:
        result = subprocess.run([BINARY, *sys.argv[1:], "--out-dir", BUILD],
                                cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    sys.exit(result.returncode)


if __name__ == "__main__":
    main()
