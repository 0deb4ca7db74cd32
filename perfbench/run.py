#!/usr/bin/env python3
"""Builds and runs the sxe end-to-end benchmark (perfbench/).

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload compile-suite|run-scaled|serve-mix \
        --seed N --seconds S --trace 0|1

The benchmark is a CMake package of its own (perfbench/CMakeLists.txt)
that compiles the checkout's library sources (src/) in Release mode into
$CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench. Build output
goes to stderr; stdout is the benchmark's own, whose last line is the JSON
result. The exit status is non-zero when the build fails, when an output
is wrong, or when the run does not finish within its time limit.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("compile-suite", "run-scaled", "serve-mix")

BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def build_root():
    return os.path.join(ROOT,
                        os.environ.get("CARGO_TARGET_DIR") or ".bench_build")


def build():
    """Configures (once) and builds the benchmark; returns the binary path."""
    build_dir = os.path.join(build_root(), "perfbench")
    steps = []
    if not any(os.path.exists(os.path.join(build_dir, name))
               for name in ("Makefile", "build.ninja")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "sxe_perfbench",
                  "-j", "4"])
    for step in steps:
        subprocess.run(step, check=True, stdout=sys.stderr,
                       timeout=BUILD_TIMEOUT_S)
    return os.path.join(build_dir, "sxe_perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    try:
        binary = build()
    except (subprocess.SubprocessError, OSError) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 1

    workdir = os.path.join(build_root(), "run")
    os.makedirs(workdir, exist_ok=True)
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--workdir", os.path.relpath(workdir, ROOT)]
    try:
        # subprocess.run kills the child on timeout and waits for it.
        return subprocess.run(command, cwd=ROOT,
                              timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
