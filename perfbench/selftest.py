#!/usr/bin/env python3
"""Self-checks of the sxe end-to-end benchmark (perfbench/).

Usage, from the root of a checkout:

    python3 perfbench/selftest.py [--seconds S]

Checks, each through perfbench/run.py:

  determinism  Each workload runs twice with one seed. Its `counts` line
               (code_bytes, static_sext, dyn_sext, pipeline.ext_*,
               codegen.*, native.insts) must be identical.
  held-out     Each workload runs clean on a seed never used to tune the
               benchmark: correct, no failed operation, exit status 0.
  metrics      An untraced run reports every end-to-end metric named in
               BENCHMARK.json, each non-zero. A traced run reports every
               per-layer metric named there; on compile-suite,
               trace.coverage_pct must be at least 95.
  serve mix    On serve-mix, memory hits and misses each carry at least a
               quarter of the request CPU time (serve_*_cpu_share), so a
               regression in either tier moves op_cpu_ms.

The exit status is 1 when any check fails.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("compile-suite", "run-scaled", "serve-mix")
SEED = 1
HELD_OUT_SEED = 900001


def run(workload, seed, seconds, trace):
    """Runs one benchmark invocation; returns (exit code, stdout lines)."""
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True)
    return out.returncode, out.stdout.splitlines()


def result(lines):
    try:
        return json.loads(lines[-1])
    except (IndexError, ValueError):
        return None


def counts(lines):
    return next((line for line in lines if line.startswith("counts ")), None)


def printed(lines, name):
    """The value of a printed metric line `  <name> <value> <unit>`."""
    for line in lines:
        fields = line.split()
        if len(fields) == 3 and fields[0] == name:
            return float(fields[1])
    return None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seconds", type=int, default=3)
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    end_to_end = [m["name"] for m in spec["end_to_end"]]
    per_layer = [m["name"] for m in spec["per_layer"]]

    failures = []

    def expect(ok, what):
        print(("ok   " if ok else "FAIL ") + what, flush=True)
        if not ok:
            failures.append(what)

    for workload in WORKLOADS:
        code_a, lines_a = run(workload, SEED, args.seconds, 0)
        code_b, lines_b = run(workload, SEED, args.seconds, 0)
        expect(code_a == 0 and code_b == 0,
               f"{workload}: seed {SEED} runs exit 0")
        expect(counts(lines_a) is not None
               and counts(lines_a) == counts(lines_b),
               f"{workload}: counts repeat for seed {SEED}: {counts(lines_a)}")
        res = result(lines_a) or {}
        metrics = res.get("metrics", {})
        expect(all(metrics.get(name, {}).get("value", 0) > 0
                   for name in end_to_end) and len(metrics) == len(end_to_end),
               f"{workload}: every end-to-end metric reported, none zero")
        if workload == "serve-mix":
            shares = [printed(lines_a, f"serve_{tier}_cpu_share")
                      for tier in ("hit", "miss")]
            expect(all(share is not None and share >= 0.25
                       for share in shares),
                   f"{workload}: hit and miss CPU shares {shares} >= 0.25")

        code, lines = run(workload, HELD_OUT_SEED, args.seconds, 0)
        res = result(lines) or {}
        expect(code == 0 and res.get("correct") is True
               and res.get("failed") == 0,
               f"{workload}: held-out seed {HELD_OUT_SEED} runs clean")

        code, lines = run(workload, SEED, args.seconds, 1)
        res = result(lines) or {}
        metrics = res.get("metrics", {})
        expect(code == 0 and sorted(metrics) == sorted(per_layer),
               f"{workload}: traced run reports every per-layer metric")
        if workload == "compile-suite":
            coverage = metrics.get("trace.coverage_pct", {}).get("value", 0)
            expect(coverage >= 95.0,
                   f"{workload}: trace.coverage_pct {coverage:.2f} >= 95")

    print(f"{len(failures)} check(s) failed" if failures
          else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
