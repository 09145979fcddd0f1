#!/usr/bin/env python3
"""Builds the benchmark driver from source and runs one workload.

    python3 perfbench/run.py --workload scan --seed 1 --seconds 10 --trace 0

Run it from the repository root. The build goes to .bench_build/perfbench
(configured once, rebuilt incrementally); build output goes to stderr so
the driver's JSON result stays the last line of stdout. A failed build
exits nonzero without printing a result.

The driver runs with glibc malloc backing its heap with transparent huge
pages (where the kernel allows them on request): set-up allocates a few
hundred MB per repetition, and on a VM its 4 KiB page faults took a third
to a half of set-up time and varied most from one set-up to the next.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
DRIVER = os.path.join(BUILD, "perfbench_driver")
TRACES = os.path.join(ROOT, ".bench_build", "traces")
DRIVER_ENV = {**os.environ, "GLIBC_TUNABLES": "glibc.malloc.hugetlb=1"}


def build():
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "perfbench_driver",
                  "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return False
    return True


def main(argv):
    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 1
    os.makedirs(TRACES, exist_ok=True)
    return subprocess.run([DRIVER, *argv, "--trace-dir", TRACES],
                          env=DRIVER_ENV).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
