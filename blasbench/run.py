#!/usr/bin/env python3
"""Builds the benchmark from this checkout's sources and runs one workload.

    python3 blasbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1> [--tiny] [--corrupt-expected]

Run from the root of the checkout. The build goes to $CARGO_TARGET_DIR
(default .bench_build) under blasbench/; build output goes to stderr, so
the last line of stdout is the run's JSON result. Exits non-zero, without a
result, when the build or the run fails.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUN_TIMEOUT_S = 170


def build_dir():
    return os.path.join(
        os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build"),
        "blasbench")


def build():
    """Configures and builds the benchmark program (incrementally); returns its path."""
    out = build_dir()
    subprocess.run(
        ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
        check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", out, "-j", "4"], check=True,
                   stdout=sys.stderr)
    return os.path.join(out, "blasbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True,
                        choices=["xmark_hot", "paged_browse", "live_churn"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", choices=["0", "1"], required=True)
    parser.add_argument("--tiny", action="store_true",
                        help="small corpora (self-test)")
    parser.add_argument("--corrupt-expected", action="store_true",
                        help="corrupt one expected answer (self-test)")
    args = parser.parse_args()

    try:
        binary = build()
    except (subprocess.CalledProcessError, OSError) as e:
        print(f"run.py: build failed: {e}", file=sys.stderr)
        return 1

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--workdir", os.path.join(build_dir(), f"work-{os.getpid()}")]
    if args.tiny:
        cmd.append("--tiny")
    if args.corrupt_expected:
        cmd.append("--corrupt-expected")
    try:
        run = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"run.py: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    if run.returncode != 0:
        print(f"run.py: benchmark exited with {run.returncode}",
              file=sys.stderr)
        return 1
    sys.stdout.write(run.stdout)
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
