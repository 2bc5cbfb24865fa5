#!/usr/bin/env python3
"""Two runs with the same seed must report the same counts.

    python3 perfbench/test_determinism.py

Each run builds its own Verdict seeded from the workload seed, so the
metrics that are counts rather than times repeat exactly for a seed.
"""
import json
import subprocess
import sys
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COUNTS = ("scan_mb_per_query", "rel_err_mean_pct", "ci_coverage", "approx_frac",
          "pass_frac", "sample_storage_frac")


def run(workload, seed):
    res = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                          "--seed", str(seed), "--seconds", "1", "--trace", "0"],
                         cwd=ROOT, capture_output=True, text=True, check=True)
    return json.loads(res.stdout.strip().splitlines()[-1])


class Determinism(unittest.TestCase):
    def test_same_seed_same_counts(self):
        first, second = run("aqp-suite", 5), run("aqp-suite", 5)
        self.assertTrue(first["correct"] and second["correct"])
        for name in COUNTS:
            self.assertEqual(first["metrics"][name]["value"],
                             second["metrics"][name]["value"], name)


if __name__ == "__main__":
    unittest.main()
