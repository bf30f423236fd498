#!/usr/bin/env python3
"""Builds and runs the SETM benchmark (perfbench/setm_perfbench.cc).

Run from the root of a source checkout:

    python3 perfbench/run.py --workload paper-sortmerge --seed 1 \
        --seconds 25 --trace 0

The first run configures and builds libsetm plus the harness under
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench); later runs
only re-check the build. The harness's standard output is passed through;
its last line is one JSON object with the keys correct, attempted, failed
and metrics. This script checks that the metric names in that line are
exactly the end_to_end (--trace 0) or per_layer (--trace 1) names listed in
BENCHMARK.json, so the harness and the declared contract cannot drift.

Exits non-zero, without printing a result, when the library sources are
missing, the build fails, the harness fails or times out, or the reported
metrics do not match BENCHMARK.json.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HARNESS_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build(root, build_dir):
    """Configures (once) and builds the harness; returns its path."""
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        fail("libsetm sources (src/CMakeLists.txt) not found; run from the "
             "root of a SETM source checkout")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", os.path.join(root, "perfbench"),
                     "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja") is not None:
            configure += ["-G", "Ninja"]
        run_build_step(configure)
    jobs = str(min(4, os.cpu_count() or 1))
    run_build_step(["cmake", "--build", build_dir, "-j", jobs])
    return os.path.join(build_dir, "setm_perfbench")


def run_build_step(command):
    try:
        step = subprocess.run(command, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True,
                              timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"build step timed out: {' '.join(command)}")
    if step.returncode != 0:
        sys.stderr.write(step.stdout)
        fail(f"build step failed: {' '.join(command)}")


def declared_metrics(root, trace):
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        spec = json.load(f)
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, for the self-test only")
    args = parser.parse_args()

    root = os.getcwd()
    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(root, build_root, "perfbench")
    binary = build(root, build_dir)
    workdir = os.path.join(build_dir, f"run-{os.getpid()}")

    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--workdir", workdir]
    if args.smoke:
        command.append("--smoke")
    try:
        harness = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                                 timeout=HARNESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"harness exceeded {HARNESS_TIMEOUT_S} s")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    lines = harness.stdout.rstrip("\n").split("\n")
    if harness.returncode != 0:
        sys.stderr.write(harness.stdout)
        fail(f"harness exited with code {harness.returncode}")

    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        sys.stderr.write(harness.stdout)
        fail("harness did not end with a JSON result line")
    declared = declared_metrics(root, args.trace)
    reported = {name: m["unit"] for name, m in result["metrics"].items()}
    if reported != declared:
        missing = sorted(set(declared) - set(reported))
        extra = sorted(set(reported) - set(declared))
        fail(f"metrics disagree with BENCHMARK.json: missing {missing}, "
             f"unexpected {extra}, or units differ")
    sys.stdout.write("\n".join(lines) + "\n")


if __name__ == "__main__":
    main()
