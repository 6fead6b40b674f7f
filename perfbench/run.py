#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Configures and builds perfbench/ (which compiles the library from src/ in
Release) under $CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench when
that is unset, runs the trace self-test, then runs the workload in its own
process. Build output goes to stderr; the workload's report lines and, last,
its JSON result go to stdout. The result keeps the metrics BENCHMARK.json
declares: the end-to-end ones with --trace 0, which every workload must
measure, and the per-layer ones with --trace 1, where a layer the workload
never enters reads 0. The exit status is nonzero when the build, the
self-test or a correctness check fails, or a metric is missing or has
another unit than declared.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build(build_dir):
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(cmd, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S).returncode:
            fail("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", build_dir, "-j", jobs,
           "--target", "perfbench", "perfbench_selftest"]
    if subprocess.run(cmd, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S).returncode:
        fail("build failed")


def declared_metrics(spec, measured, trace):
    out = {}
    for m in spec["per_layer" if trace else "end_to_end"]:
        name, unit = m["name"], m["unit"]
        got = measured.get(name)
        if got is None:
            if not trace:
                fail(f"{name} was not measured")
            got = {"value": 0, "unit": unit}
        if got["unit"] != unit:
            fail(f"{name} is in {got['unit']}, BENCHMARK.json says {unit}")
        out[name] = got
    return out


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, target, "perfbench")
    build(build_dir)

    selftest = subprocess.run([os.path.join(build_dir, "perfbench_selftest")],
                              stdout=sys.stderr, timeout=RUN_TIMEOUT_S)
    if selftest.returncode:
        fail("trace self-test failed")

    cmd = [os.path.join(build_dir, "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    run = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                         timeout=RUN_TIMEOUT_S)
    lines = run.stdout.splitlines()
    if not lines:
        fail(f"workload printed nothing (exit {run.returncode})")
    for line in lines[:-1]:
        print(line)
    result = json.loads(lines[-1])
    result["metrics"] = declared_metrics(spec, result["metrics"], args.trace == 1)
    print(json.dumps(result), flush=True)
    sys.exit(run.returncode)


if __name__ == "__main__":
    main()
