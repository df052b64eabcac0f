#!/usr/bin/env python3
"""Build and run the repository benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload warm-nomap|cell-base|serve-shootout \
        --seed N --seconds S --trace 0|1

Builds perfbench/main.exe with dune into .bench_build (dune's shared cache
off, so nothing is written outside the checkout), runs it, and passes its
output and exit code through.  The last line of standard output is the
result JSON; traced runs also write their spans under .bench_build/perfbench.
"""

import os
import subprocess
import sys

BUILD_DIR = ".bench_build"
BUILD_TIMEOUT_S = 880
RUN_TIMEOUT_S = 175


def main():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")
            and os.path.isfile("perfbench/main.ml")):
        print("perfbench: run from the root of a full checkout "
              "(dune-project, lib/ and perfbench/ are needed)", file=sys.stderr)
        return 2
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        build = subprocess.run(
            ["dune", "build", "--root", ".", "--build-dir", BUILD_DIR,
             "--display", "quiet", "./perfbench/main.exe"],
            stdout=sys.stderr, env=env, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    exe = os.path.join(BUILD_DIR, "default", "perfbench", "main.exe")
    try:
        return subprocess.run([exe] + sys.argv[1:], timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
