#!/usr/bin/env python3
"""Self-test of the benchmark, run from the root of the checkout:

    python3 blasbench/selftest.py

Runs every workload of BENCHMARK.json at a tiny size, once untraced and
once traced, and checks that

  1. the last stdout line is the result object with exactly the keys
     correct, attempted, failed and metrics, and its metrics are exactly
     the end-to-end (untraced) or per-layer (traced) metrics of
     BENCHMARK.json, each with its unit and a finite value;
  2. the clean runs are correct: no operation failed;
  3. a deliberately corrupted expected answer is reported as a failure:
     the run says correct = false and its failed share rises.

Exits non-zero on the first violation.
"""

import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload, trace, corrupt=False):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", "7", "--seconds", "1", "--trace", str(trace),
           "--tiny"]
    if corrupt:
        cmd.append("--corrupt-expected")
    out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                         check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def check_shape(result, expected, label):
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        sys.exit(f"{label}: result keys {sorted(result)}")
    if result["attempted"] < 1:
        sys.exit(f"{label}: nothing attempted")
    got = result["metrics"]
    if set(got) != set(expected):
        sys.exit(f"{label}: missing {sorted(set(expected) - set(got))}, "
                 f"unexpected {sorted(set(got) - set(expected))}")
    for name, unit in expected.items():
        value = got[name]["value"]
        if got[name]["unit"] != unit:
            sys.exit(f"{label}: {name} unit {got[name]['unit']} != {unit}")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            sys.exit(f"{label}: {name} value {value!r}")


def failed_share(result):
    return result["failed"] / result["attempted"]


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    for workload in [w["name"] for w in spec["workloads"]]:
        clean = run(workload, 0)
        check_shape(clean, end_to_end, f"{workload} untraced")
        traced = run(workload, 1)
        check_shape(traced, per_layer, f"{workload} traced")
        for label, result in (("untraced", clean), ("traced", traced)):
            if not result["correct"] or result["failed"]:
                sys.exit(f"{workload} {label}: failed {result['failed']} of "
                         f"{result['attempted']}")
        corrupted = run(workload, 0, corrupt=True)
        check_shape(corrupted, end_to_end, f"{workload} corrupted")
        if corrupted["correct"] or \
                failed_share(corrupted) <= failed_share(clean):
            sys.exit(f"{workload}: corrupted expected answer not reported "
                     f"(failed {corrupted['failed']} of "
                     f"{corrupted['attempted']})")
        print(f"{workload}: ok (clean failed {clean['failed']}/"
              f"{clean['attempted']}, corrupted failed "
              f"{corrupted['failed']}/{corrupted['attempted']})")
    print("selftest passed")


if __name__ == "__main__":
    main()
