#!/usr/bin/env python3
"""Builds the served-latency benchmark from the checkout's sources and runs it.

    python3 servebench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from anywhere; the build goes to .bench_build/servebench at the root of
the checkout and the benchmark runs with the checkout root as its working
directory. The benchmark's own output (a metric table, then one JSON result
line) is passed through unchanged. Build errors go to stderr and the exit
code is non-zero, with no result line.
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "servebench"
RUN_TIMEOUT_S = 170


def build():
    """Configures (once) and builds the servebench target; returns the binary."""
    for attempt in range(2):
        BUILD.mkdir(parents=True, exist_ok=True)
        log_path = BUILD / "build.log"
        steps = []
        if not (BUILD / "CMakeCache.txt").exists():
            steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", str(BUILD), "--target", "servebench",
                      "-j", str(min(4, os.cpu_count() or 1))])
        with open(log_path, "w") as log:
            ok = all(subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT)
                     .returncode == 0 for cmd in steps)
        if ok:
            return BUILD / "servebench"
        if attempt == 0 and (BUILD / "CMakeCache.txt").exists():
            # A cache from another source location cannot be reused.
            shutil.rmtree(BUILD)
            continue
        sys.stderr.write(log_path.read_text()[-6000:])
        sys.stderr.write("servebench: build failed\n")
        return None
    return None


def main():
    binary = build()
    if binary is None:
        return 1
    try:
        proc = subprocess.run([str(binary)] + sys.argv[1:], cwd=ROOT,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.stderr.write("servebench: run exceeded %d s\n" % RUN_TIMEOUT_S)
        return 1
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
