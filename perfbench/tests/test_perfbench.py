#!/usr/bin/env python3
"""The benchmark's own tests. Run from anywhere:

    python3 perfbench/tests/test_perfbench.py

Each test drives perfbench/run.py in --tiny mode (one cycle, one set-up,
small windows), so the suite takes a few minutes, most of it native
builds and Radar's autosel compile.
"""

import json
import os
import shutil
import subprocess
import sys
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
RUN = os.path.join(ROOT, "perfbench", "run.py")
BUILD = os.path.abspath(os.path.join(
    ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build"))

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    BENCH = json.load(f)
WORKLOADS = [w["name"] for w in BENCH["workloads"]]

# Per-layer metrics each workload measures itself (the rest read 0 there).
OWNED = {
    "compile": ("cold_compile_ms", "warm_load_ms", "compile_suite_s",
                "compiler.", "sched.", "opt.filters_after",
                "exec.flat_nodes", "wir.", "verify.", "error_rate"),
    "steady": ("tape_ns_per_output", "native_ns_per_output",
               "sharded_ns_per_output", "exec.tape_ns", "exec.native_ns",
               "exec.sharded_ns", "exec.firings", "exec.shard.", "codegen.",
               "opt.flops", "opt.mults", "matrix.", "fft.", "error_rate"),
    "service": ("request_p", "saturation_rps", "service.", "error_rate"),
}
# Counts that must repeat exactly between two runs of the same seed.
COUNTS = {
    "compile": ("opt.filters_after", "exec.flat_nodes", "wir.tape_instrs",
                "compiler.artifact.bytes"),
    "steady": ("opt.flops_per_output", "opt.mults_per_output",
               "exec.shard.sequential_cells", "codegen.degraded_cells"),
    "service": ("service.startup_compiles",),
}

_cache = {}


def run(workload, trace, *extra, cwd=ROOT, key=None):
    """Runs run.py; returns (returncode, detail dict, result dict)."""
    key = key or (workload, trace) + extra
    if key in _cache:
        return _cache[key]
    cmd = [sys.executable, RUN, "--workload", workload, "--seed", "1",
           "--seconds", "1", "--trace", str(trace), "--tiny"] + list(extra)
    p = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                       timeout=900)
    lines = p.stdout.strip().splitlines()
    detail = result = None
    if p.returncode == 0:
        detail = json.loads(lines[-2].split(" ", 1)[1])
        result = json.loads(lines[-1])
    _cache[key] = (p.returncode, detail, result)
    return _cache[key]


def owned(workload, name):
    return name.startswith(OWNED[workload])


class PerfbenchTest(unittest.TestCase):
    def test_every_metric_emitted_with_unit(self):
        for w in WORKLOADS:
            for trace, key in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=w, trace=trace):
                    rc, detail, result = run(w, trace)
                    self.assertEqual(rc, 0)
                    self.assertEqual(sorted(result),
                                     ["attempted", "correct", "failed",
                                      "metrics"])
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    names = [m["name"] for m in BENCH[key]]
                    self.assertEqual(sorted(result["metrics"]), sorted(names))
                    for m in BENCH[key]:
                        got = result["metrics"][m["name"]]
                        self.assertEqual(got["unit"], m["unit"], m["name"])
                        self.assertIsInstance(got["value"], (int, float))
                        if key == "end_to_end":
                            self.assertGreater(got["value"], 0, m["name"])
                        elif owned(w, m["name"]):
                            # Measured by this workload, not zero-filled.
                            self.assertIn(m["name"],
                                          detail["harness_metrics"])
                    self.assertEqual(detail["seed"], 1)
                    self.assertIn("nproc", detail["host"])

    def test_corrupted_reference_counts_as_failure(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                rc, _, result = run(w, 0, "--corrupt-reference")
                self.assertEqual(rc, 0)
                self.assertFalse(result["correct"])
                self.assertGreaterEqual(result["failed"], 1)

    def test_counts_repeat_exactly(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                _, a, _ = run(w, 1)
                _, b, _ = run(w, 1, key=(w, 1, "again"))
                for name in COUNTS[w]:
                    self.assertEqual(a["harness_metrics"][name],
                                     b["harness_metrics"][name], name)
                if w == "service":
                    self.assertEqual(
                        a["harness_metrics"]["service.startup_compiles"]
                        ["value"], 0)

    def test_fails_without_sources(self):
        # Only BENCHMARK.json and the benchmark's own files: the build has
        # no slin sources, so the run must fail without a result line.
        alone = os.path.join(BUILD, "alone")
        shutil.rmtree(alone, ignore_errors=True)
        os.makedirs(alone)
        try:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), alone)
            shutil.copytree(os.path.join(ROOT, "perfbench"),
                            os.path.join(alone, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            env = dict(os.environ,
                       CARGO_TARGET_DIR=os.path.join(alone, ".bench_build"))
            p = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload",
                 WORKLOADS[0], "--seed", "0", "--seconds", "1", "--trace",
                 "0"], cwd=alone, env=env, capture_output=True, text=True,
                timeout=180)
            self.assertNotEqual(p.returncode, 0)
            self.assertNotIn('"correct"', p.stdout)
        finally:
            shutil.rmtree(alone, ignore_errors=True)


if __name__ == "__main__":
    unittest.main(verbosity=2)
