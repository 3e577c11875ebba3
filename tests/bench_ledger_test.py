#!/usr/bin/env python3
"""Tests of tools/bench_ledger.py on temporary BENCH_*.json envelopes.

    python3 tests/bench_ledger_test.py

Run directly or via `ctest -R bench_ledger`.
"""

import copy
import json
import os
import subprocess
import sys
import tempfile
import unittest

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
LEDGER = os.path.join(REPO_ROOT, "tools", "bench_ledger.py")

BASELINE = {
    "ledger_version": 1,
    "bench": "micro_core_forest",
    "backend": "avx2",
    "threads": 1,
    "commit": "unstamped",
    "payload": {
        "reps": 9,
        "fits": {
            "forest_eval_bound": {"median_ms": 5.0, "q1_ms": 4.9,
                                  "q3_ms": 5.1, "iqr_ms": 0.2},
        },
        "kernels": {"matmul": {"speedup": 2.0, "speedup_q1": 1.9,
                               "speedup_q3": 2.1}},
    },
}


class BenchLedgerTest(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.addCleanup(self.tmp.cleanup)

    def write(self, name, doc):
        path = os.path.join(self.tmp.name, name)
        with open(path, "w") as f:
            json.dump(doc, f)
        return path

    def ledger(self, *args):
        return subprocess.run([sys.executable, LEDGER, *args],
                              capture_output=True, text=True)

    def regress(self, candidate):
        return self.ledger("regress", self.write("base.json", BASELINE),
                           self.write("cand.json", candidate))

    def test_wider_spread_alone_is_not_a_regression(self):
        cand = copy.deepcopy(BASELINE)
        fit = cand["payload"]["fits"]["forest_eval_bound"]
        fit["iqr_ms"] *= 3
        fit["q3_ms"] *= 3
        kernel = cand["payload"]["kernels"]["matmul"]
        kernel["speedup_q1"] /= 3
        kernel["speedup_q3"] *= 3
        result = self.regress(cand)
        self.assertEqual(result.returncode, 0, result.stdout + result.stderr)
        self.assertNotIn("REGRESSION", result.stdout)
        self.assertIn("ungated", result.stdout)

    def test_slower_median_is_a_regression(self):
        cand = copy.deepcopy(BASELINE)
        cand["payload"]["fits"]["forest_eval_bound"]["median_ms"] *= 1.2
        result = self.regress(cand)
        self.assertEqual(result.returncode, 1, result.stdout + result.stderr)
        self.assertIn("fits.forest_eval_bound.median_ms", result.stderr)

    def test_check_rejects_a_missing_envelope_key(self):
        good = self.write("good.json", BASELINE)
        self.assertEqual(self.ledger("check", good).returncode, 0)
        broken = copy.deepcopy(BASELINE)
        del broken["backend"]
        result = self.ledger("check", self.write("broken.json", broken))
        self.assertEqual(result.returncode, 1)
        self.assertIn("missing envelope key 'backend'", result.stderr)


if __name__ == "__main__":
    unittest.main()
