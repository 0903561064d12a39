"""Self-tests of the benchmark itself (about two minutes on two cores).

    python3 perfbench/selftest.py

They run the real command in short runs and check three properties:
per-layer counts repeat exactly across two runs of one seed, tracing leaves
the trace digest unchanged, and a deliberately wrong reference makes the
gate fail (a nonzero failure ratio and a nonzero exit code).
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RESULTS = os.path.join(ROOT, ".perfbench_out", "results")

COUNT_SUFFIXES = (
    "calls_per_step",
    "repeat_share",
    "matvec_flops_per_step",
    "matvec_bytes_per_step",
    "share_of_steps",
    ".mean",
    ".max",
    "budget_failures",
    "outer_steps",
    "retained_records_per_step",
)  # cli.trace_bytes is left out: the wall_time column's width varies.


def bench(workload, seed, trace=0, *extra):
    """Run the benchmark command; return (exit code, last-line JSON, full record)."""
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace), *extra],
        cwd=ROOT, capture_output=True, text=True, timeout=180,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    with open(os.path.join(RESULTS, f"{workload}-seed{seed}-trace{trace}.json"),
              encoding="utf-8") as fh:
        record = json.load(fh)
    return proc.returncode, result, record


class BenchmarkSelfTest(unittest.TestCase):
    def test_counts_repeat_exactly_and_tracing_keeps_the_digest(self):
        for workload in ("skew_orbit", "cli_batch"):
            with self.subTest(workload=workload):
                runs = [bench(workload, 3, 1) for _ in range(2)]
                for code, result, record in runs:
                    self.assertEqual(code, 0, record["misses"])
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertEqual(record["traced_digest"], record["digest"])
                counts = [
                    {k: v["value"] for k, v in result["metrics"].items()
                     if k.endswith(COUNT_SUFFIXES)}
                    for _, result, _ in runs
                ]
                self.assertTrue(counts[0])
                self.assertEqual(counts[0], counts[1])
                self.assertEqual(runs[0][2]["digest"], runs[1][2]["digest"])

    def test_wrong_reference_fails_the_gate(self):
        for workload in ("skew_orbit", "wide_split", "cli_batch"):
            with self.subTest(workload=workload):
                code, result, record = bench(workload, 4, 0, "--corrupt-reference")
                self.assertNotEqual(code, 0)
                self.assertFalse(result["correct"])
                self.assertGreater(result["failed"], 0)
                self.assertGreater(record["failed_ratio"], 0.0)
                self.assertTrue(record["misses"])


if __name__ == "__main__":
    unittest.main()
