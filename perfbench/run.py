#!/usr/bin/env python3
"""Builds the benchmark binary from source and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The binary is built with CMake into
.bench_build/perfbench (incrementally after the first run) from perfbench/
and the scheduler sources in src/; the build log goes to stderr. The run
itself happens in that build directory, where it leaves its span files.
The last line of stdout is the binary's JSON result; the exit code is the
binary's (non-zero when any output check failed).
"""

import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
BUILD = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD / "perfbench"
RUN_TIMEOUT_S = 170


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        sys.exit("run.py: no scheduler sources at %s; run from a full checkout"
                 % (ROOT / "src"))
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    if not (BUILD / "CMakeCache.txt").is_file():
        subprocess.run(["cmake", "-S", str(BENCH), "-B", str(BUILD),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", str(BUILD), "-j", jobs],
                   stdout=sys.stderr, check=True)


def main():
    try:
        build()
    except subprocess.CalledProcessError as e:
        sys.exit("run.py: build failed (%s)" % e)
    try:
        done = subprocess.run([str(BINARY)] + sys.argv[1:], cwd=BUILD,
                              stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit("run.py: the run exceeded %d s" % RUN_TIMEOUT_S)
    sys.stdout.write(done.stdout)
    sys.stdout.flush()
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
