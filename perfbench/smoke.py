"""Minimal-length smoke test of the benchmark itself.

    python3 perfbench/smoke.py

Runs every workload for one round (`--seconds 0`), untraced and traced, and
asserts that the result line names exactly the end-to-end (untraced) or
per-layer (traced) metrics of BENCHMARK.json with their units, that every
check passed, and that the report prints failed_ops_frac and the tail
percentile.  Last, it copies BENCHMARK.json and perfbench/ into an empty
directory and asserts that the benchmark fails there without a result.
Takes about a minute.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

import run as bench

SPEC = bench.load_spec()


def run_bench(*args, cwd=bench.ROOT):
    cmd = [sys.executable, os.path.join("perfbench", "run.py")] + list(args)
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=300)


class SmokeTest(unittest.TestCase):

    def test_every_workload_prints_every_metric(self):
        for workload in [w["name"] for w in SPEC["workloads"]]:
            for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    proc = run_bench("--workload", workload, "--seed", "1",
                                     "--seconds", "0", "--trace", trace)
                    self.assertEqual(proc.returncode, 0, proc.stderr)
                    lines = proc.stdout.strip().splitlines()
                    result = json.loads(lines[-1])
                    self.assertEqual(sorted(result), ["attempted", "correct",
                                                      "failed", "metrics"])
                    self.assertTrue(result["correct"], proc.stdout)
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    want = {m["name"]: m["unit"] for m in SPEC[key]}
                    got = {name: m["unit"]
                           for name, m in result["metrics"].items()}
                    self.assertEqual(got, want)
                    report = "\n".join(lines[:-1])
                    self.assertIn('"seed": 1', report)
                    if trace == "0":
                        self.assertIn("failed_ops_frac", report)
                        self.assertRegex(report, r"p\d+, n=\d+, \d+ above")
                        for name in want:
                            self.assertGreater(
                                result["metrics"][name]["value"], 0)

    def test_fails_without_sources(self):
        os.makedirs(os.path.join(bench.HERE, "out"), exist_ok=True)
        with tempfile.TemporaryDirectory(
                dir=os.path.join(bench.HERE, "out")) as bare:
            shutil.copy(os.path.join(bench.ROOT, "BENCHMARK.json"), bare)
            shutil.copytree(bench.HERE, os.path.join(bare, "perfbench"),
                            ignore=shutil.ignore_patterns("out",
                                                          "__pycache__"))
            proc = run_bench("--workload", "gm-eval", "--seed", "1",
                             "--seconds", "20", "--trace", "0", cwd=bare)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"metrics"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
