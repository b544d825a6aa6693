#!/usr/bin/env python3
"""Builds bench_e2e from this checkout and runs one workload.

    python3 bench_e2e/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The benchmark is configured with CMake from
bench_e2e/ (which compiles the checkout's src/) into the directory named by
CARGO_TARGET_DIR, default .bench_build, and rebuilt when sources changed.
bench_e2e's metric lines are echoed; the last line of stdout is

    {"correct": true, "attempted": N, "failed": M, "metrics": {...}}

holding BENCHMARK.json's end_to_end metrics (--trace 0) or its per_layer
metrics (--trace 1; a layer the workload does not exercise reads 0, and the
Chrome trace is written into the build directory). "correct" is false when
a correctness check failed. Without the checkout's sources, on a failed
build, or when the benchmark crashes, this exits non-zero and prints no
result line.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TIMEOUT_S = 870
RUN_TIMEOUT_S = 170


def die(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(1)


def run_quiet(cmd):
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True,
                              timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        die(f"{cmd[0]} failed: {e}")
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        die(f"{' '.join(cmd)} exited {proc.returncode}")


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        die(f"no textjoin sources under {ROOT}/src")
    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR",
                                                  ".bench_build"))
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        run_quiet(configure)
    jobs = str(min(4, os.cpu_count() or 1))
    run_quiet(["cmake", "--build", build_dir, "--target", "bench_e2e",
               "-j", jobs])
    return build_dir


def parse_lines(stdout):
    """Metric lines are "name value unit n=<samples>"; others are skipped."""
    values = {}
    for line in stdout.splitlines():
        parts = line.split()
        if len(parts) != 4 or not parts[3].startswith("n="):
            continue
        try:
            values[parts[0]] = float(parts[1])
        except ValueError:
            pass  # result_digest is hex
    return values


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    parser = argparse.ArgumentParser(description="Run one bench_e2e workload.")
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = parser.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 600:
        parser.error("--seed must be >= 0 and --seconds in [1, 600]")

    build_dir = build()
    cmd = [os.path.join(build_dir, "bench_e2e"), f"--workload={args.workload}",
           f"--seed={args.seed}", f"--seconds={args.seconds}"]
    if args.trace:
        cmd.append("--trace=" + os.path.join(
            build_dir, f"trace-{args.workload}-{args.seed}.json"))
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    sys.stdout.write(proc.stdout)
    if proc.returncode not in (0, 1):  # 1: a correctness check failed
        die(f"bench_e2e exited {proc.returncode}")

    values = parse_lines(proc.stdout)
    metrics = {}
    for m in spec["per_layer" if args.trace else "end_to_end"]:
        value = values.get(m["name"])
        if value is None:
            if not args.trace:
                die(f"bench_e2e reported no {m['name']}")
            value = 0.0
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    for key in ("ops_attempted", "ops_failed"):
        if key not in values:
            die(f"bench_e2e reported no {key}")
    print(json.dumps({"correct": proc.returncode == 0,
                      "attempted": int(values["ops_attempted"]),
                      "failed": int(values["ops_failed"]),
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
