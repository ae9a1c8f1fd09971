#!/usr/bin/env python3
"""Benchmark entry point: build the harness, run one workload, print one line.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
                             [--smoke]

Run from the repository root. The first run configures and builds
perfbench/ (which compiles ../src) into .bench_build/; later runs reuse it.
The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics: the end-to-end metrics of
BENCHMARK.json with --trace 0, its per-layer metrics with --trace 1.
Per-layer metrics of a layer the workload never calls read 0.

Exits 0 only when every job passed its output checks.
"""

import argparse
import json
import os
import subprocess
import sys

BUILD_DIR = ".bench_build"
HARNESS_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build():
    """Configure and build the harness; returns the binary's path."""
    cmake_dir = os.path.join(BUILD_DIR, "cmake")
    if not os.path.exists(os.path.join(cmake_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", "perfbench", "-B", cmake_dir,
             "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(
        ["cmake", "--build", cmake_dir, "--target", "geomap_perfbench",
         "-j", jobs],
        check=True, stdout=sys.stderr)
    return os.path.join(cmake_dir, "geomap_perfbench")


def select(record, specs, fill_missing):
    """The record's metrics named in `specs`, with their units checked."""
    metrics = {}
    for spec in specs:
        name, unit = spec["name"], spec["unit"]
        got = record["metrics"].get(name)
        if got is None:
            if not fill_missing:
                raise ValueError(f"metric {name} missing")
            got = {"value": 0, "unit": unit}
        if got["unit"] != unit:
            raise ValueError(f"metric {name} has unit {got['unit']}, want {unit}")
        metrics[name] = {"value": got["value"], "unit": unit}
    return metrics


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny inputs (for the smoke test)")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    if args.workload not in {w["name"] for w in bench["workloads"]}:
        log(f"unknown workload {args.workload}")
        return 2

    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as e:
        log(f"build failed: {e}")
        return 1

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if args.smoke:
        cmd.append("--smoke")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=HARNESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"harness did not finish within {HARNESS_TIMEOUT_S} s")
        return 1
    lines = proc.stdout.strip().splitlines()
    if not lines:
        log(f"harness exited {proc.returncode} without a result")
        return 1
    record = json.loads(lines[-1])

    try:
        if args.trace:
            metrics = select(record, bench["per_layer"], fill_missing=True)
        else:
            metrics = select(record, bench["end_to_end"], fill_missing=False)
    except ValueError as e:
        log(str(e))
        return 1
    correct = bool(record["correct"]) and proc.returncode == 0
    if record["first_failure"]:
        log(f"first failed check: {record['first_failure']}")
    log(f"{record['jobs']} timed jobs over {record['instances']} instances, "
        f"tail percentile {record['tail_percentile']}, "
        f"{record['workers']} workers")
    print(json.dumps({"correct": correct, "attempted": record["attempted"],
                      "failed": record["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
