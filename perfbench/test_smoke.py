#!/usr/bin/env python3
"""Smoke test of the benchmark: tiny inputs, every workload, both modes.

    python3 perfbench/test_smoke.py      (from the repository root)

Checks that run.py exits 0 and that its last line carries exactly the
keys correct, attempted, failed and metrics, with every end-to-end
(--trace 0) or per-layer (--trace 1) metric of BENCHMARK.json printed with
its unit. Also checks that the benchmark fails, without a result, in a
directory that holds only BENCHMARK.json and perfbench/.
"""

import json
import math
import os
import shutil
import subprocess
import sys
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_bench():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_bench(cwd, workload, trace, extra=()):
    bench = load_bench()
    cmd = bench["command"] + ["--workload", workload, "--seed", "7",
                              "--seconds", "0.5", "--trace", str(trace),
                              *extra]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=900)


class SmokeTest(unittest.TestCase):
    def check_mode(self, trace):
        bench = load_bench()
        specs = bench["per_layer" if trace else "end_to_end"]
        for w in bench["workloads"]:
            with self.subTest(workload=w["name"], trace=trace):
                proc = run_bench(ROOT, w["name"], trace, ["--smoke"])
                self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
                result = json.loads(proc.stdout.strip().splitlines()[-1])
                self.assertEqual(set(result),
                                 {"correct", "attempted", "failed", "metrics"})
                self.assertTrue(result["correct"])
                self.assertGreaterEqual(result["attempted"], 1)
                self.assertEqual(result["failed"], 0)
                self.assertEqual(set(result["metrics"]),
                                 {s["name"] for s in specs})
                for spec in specs:
                    got = result["metrics"][spec["name"]]
                    self.assertEqual(got["unit"], spec["unit"], spec["name"])
                    self.assertTrue(math.isfinite(got["value"]), spec["name"])
                    if not trace:
                        self.assertNotEqual(got["value"], 0, spec["name"])

    def test_end_to_end_metrics(self):
        self.check_mode(0)

    def test_per_layer_metrics(self):
        self.check_mode(1)

    def test_fails_without_sources(self):
        bare = os.path.join(ROOT, ".bench_build", "smoke-bare")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(os.path.join(ROOT, "perfbench"),
                        os.path.join(bare, "perfbench"))
        try:
            proc = run_bench(bare, "map_scale", 0)
            self.assertNotEqual(proc.returncode, 0)
            self.assertEqual(proc.stdout.strip(), "")
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(unittest.main())
