#!/usr/bin/env python3
"""Smoke-sized self-test of the SETM benchmark.

Run from the root of a source checkout:

    python3 perfbench/tests/smoke_test.py

It checks, on tiny inputs (--smoke) and one-second runs:
  * BENCHMARK.json stays within the benchmark contract's limits;
  * every workload, untraced and traced, ends with one JSON line whose keys
    are exactly correct/attempted/failed/metrics, with correct = true,
    failed = 0 and exactly the declared metric names (run.py enforces the
    names; this test re-checks them and the values);
  * every end-to-end value is positive, as the regression gate needs;
  * on paper-sortmerge the page counts repeat exactly for one seed;
  * run.py refuses, with a non-zero exit and no result, in a directory that
    holds only BENCHMARK.json and perfbench/.
Exits non-zero on the first failed check.
"""

import json
import math
import os
import re
import shutil
import subprocess
import sys
import tempfile

WORKLOADS = ["paper-sortmerge", "parallel-hash", "served-mix",
             "sharded-remote"]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def check(condition, message):
    if not condition:
        print(f"FAIL: {message}", file=sys.stderr)
        sys.exit(1)


def check_spec(spec):
    check(set(spec) == {"command", "paths", "run_seconds", "workloads",
                        "end_to_end", "per_layer"}, "BENCHMARK.json keys")
    check(1 <= len(spec["paths"]) <= 16, "paths count")
    check(isinstance(spec["run_seconds"], int)
          and 1 <= spec["run_seconds"] <= 60, "run_seconds")
    check(2 <= len(spec["workloads"]) <= 8, "workload count")
    check(1 <= len(spec["end_to_end"]) <= 16, "end_to_end count")
    check(1 <= len(spec["per_layer"]) <= 128, "per_layer count")
    names = set()
    for w in spec["workloads"]:
        check(set(w) == {"name", "why"}, f"workload keys {w}")
        check(len(w["why"]) <= 200 and "\n" not in w["why"], "why length")
        check(NAME.match(w["name"]) is not None, f"name {w['name']}")
    for m in spec["end_to_end"] + spec["per_layer"]:
        keys = {"name", "unit", "better"}
        if m in spec["end_to_end"]:
            keys.add("bound")
            check(0 < m["bound"] <= 0.25, f"bound of {m['name']}")
        check(set(m) == keys, f"metric keys {m}")
        check(NAME.match(m["name"]) is not None, f"name {m['name']}")
        check(UNIT.match(m["unit"]) is not None, f"unit {m['unit']}")
        check(m["better"] in ("lower", "higher"), f"better {m['name']}")
        check(m["name"] not in names, f"duplicate name {m['name']}")
        names.add(m["name"])
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    check("setup_s" in bounds and bounds["setup_s"] == max(bounds.values()),
          "setup_s has the largest bound")


def run(workload, trace, seed=1, cwd="."):
    command = [sys.executable, "perfbench/run.py", "--workload", workload,
               "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
               "--smoke"]
    return subprocess.run(command, cwd=cwd, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=600)


def result_of(workload, trace, spec, seed=1):
    proc = run(workload, trace, seed)
    check(proc.returncode == 0,
          f"{workload} trace={trace} exited {proc.returncode}: "
          f"{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().split("\n")[-1])
    check(set(result) == {"correct", "attempted", "failed", "metrics"},
          f"{workload} result keys")
    check(result["correct"] is True and result["failed"] == 0,
          f"{workload} trace={trace} reported failures")
    check(isinstance(result["attempted"], int) and result["attempted"] >= 1,
          f"{workload} attempted")
    declared = spec["per_layer" if trace else "end_to_end"]
    check(sorted(result["metrics"]) == sorted(m["name"] for m in declared),
          f"{workload} trace={trace} metric names")
    for name, metric in result["metrics"].items():
        check(set(metric) == {"value", "unit"}, f"{name} keys")
        check(math.isfinite(metric["value"]), f"{workload} {name} finite")
        if not trace:
            check(metric["value"] > 0, f"{workload} {name} is positive")
    return result["metrics"]


def main():
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    check_spec(spec)

    for workload in WORKLOADS:
        result_of(workload, 0, spec)
        result_of(workload, 1, spec)
        print(f"ok {workload}")

    exact = ["storage.io.page_reads", "storage.io.page_writes",
             "page_accesses"]
    first = result_of("paper-sortmerge", 1, spec, seed=5)
    second = result_of("paper-sortmerge", 1, spec, seed=5)
    for name in exact:
        check(first[name]["value"] > 0, f"{name} is measured")
        check(first[name]["value"] == second[name]["value"],
              f"{name} repeats exactly")
    print("ok page counts repeat")

    os.makedirs(".bench_build", exist_ok=True)
    bare = tempfile.mkdtemp(prefix="bare-", dir=".bench_build")
    try:
        shutil.copy("BENCHMARK.json", bare)
        shutil.copytree("perfbench", os.path.join(bare, "perfbench"))
        proc = run(WORKLOADS[0], 0, cwd=bare)
        check(proc.returncode != 0, "refuses without library sources")
        check("{" not in proc.stdout, "prints no result without sources")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    print("ok refuses without sources")


if __name__ == "__main__":
    main()
