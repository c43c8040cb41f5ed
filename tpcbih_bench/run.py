#!/usr/bin/env python3
"""Builds and runs the TPC-BiH benchmark from the root of a source checkout.

    python3 tpcbih_bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the library sources under src/ together with this directory's
benchmark program (CMake, Release) into .bench_build/, then runs one
workload. The program's
standard output ends with the one-line JSON result; progress, per-query
medians and build output go to standard error. Result records and span
files land in .bench_build/run/.
"""
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "tpcbih_bench")
BUILD_DIR = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD_DIR, "bih_bench")
RUN_TIMEOUT_S = 175


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.stderr.write("run.py: no library sources at src/; run from a "
                         "full checkout of the repository\n")
        return False
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", "4"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.stderr.write("run.py: build step failed: %s\n" % " ".join(cmd))
            return False
    return True


def main(argv):
    if not build():
        return 1
    cmd = [BINARY] + argv + ["--work-dir", os.path.join(BUILD_DIR, "run")]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.stderr.write("run.py: benchmark exceeded %d s\n" % RUN_TIMEOUT_S)
        return 1
    out = proc.stdout.decode()
    if proc.returncode != 0:
        sys.stderr.write(out)
        return proc.returncode
    sys.stdout.write(out)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
