#!/usr/bin/env python3
"""Verdict rules of scripts/bench_compare.py on fixed samples.

    python3 scripts/test_bench_compare.py
"""

import sys
import unittest
from pathlib import Path

sys.dont_write_bytecode = True
sys.path.insert(0, str(Path(__file__).resolve().parent))
import bench_compare  # noqa: E402

GFLOPS = {"name": "gflops", "better": "higher", "bound": 0.25}
SECONDS = {"name": "time_to_solution_s", "better": "lower", "bound": 0.25}
RSS = {"name": "peak_rss_mib", "better": "lower", "bound": 0.05}

# A steady parent: median 50, quartiles 49 and 51.
PARENT = [48.0, 52.0, 49.0, 51.0, 50.0, 50.0, 49.0, 51.0, 48.5, 51.5]


class Verdicts(unittest.TestCase):
    def test_nine_wins_of_ten_beyond_the_iqr_is_a_gain(self):
        change = [p + 5.0 for p in PARENT]
        change[3] = PARENT[3] - 1.0  # the one lost pair
        v = bench_compare.verdict(GFLOPS, PARENT, change)
        self.assertEqual(v["wins"], 9)
        self.assertEqual(v["verdict"], "gain")

    def test_eight_wins_of_ten_is_not_a_gain(self):
        change = [p + 5.0 for p in PARENT]
        change[3] = PARENT[3] - 1.0
        change[7] = PARENT[7]  # a tie counts for neither side
        v = bench_compare.verdict(GFLOPS, PARENT, change)
        self.assertEqual(v["wins"], 8)
        self.assertEqual(v["verdict"], "within bound")

    def test_wins_inside_the_parent_iqr_are_not_a_gain(self):
        change = [p + 0.5 for p in PARENT]  # 10/10 wins, medians 0.5 apart
        v = bench_compare.verdict(GFLOPS, PARENT, change)
        self.assertEqual(v["wins"], 10)
        self.assertEqual(v["verdict"], "within bound")

    def test_a_small_slowdown_is_within_bound(self):
        change = [p * 0.9 for p in PARENT]  # 10% fewer GF/s, bound 25%
        v = bench_compare.verdict(GFLOPS, PARENT, change)
        self.assertAlmostEqual(v["worse_rel"], 0.1)
        self.assertEqual(v["verdict"], "within bound")

    def test_a_slowdown_past_the_bound_is_over_bound(self):
        change = [p * 0.7 for p in PARENT]
        self.assertEqual(bench_compare.verdict(GFLOPS, PARENT, change)["verdict"],
                         "over bound")
        # Lower-is-better metrics worsen upwards.
        seconds = [100.0 / p for p in PARENT]
        slower = [s * 1.3 for s in seconds]
        self.assertEqual(bench_compare.verdict(SECONDS, seconds, slower)["verdict"],
                         "over bound")
        self.assertEqual(
            bench_compare.verdict(SECONDS, seconds, [s * 1.1 for s in seconds])
            ["verdict"], "within bound")

    def test_spread_wider_than_the_bound_is_unresolved(self):
        # RSS bound 5%: a parent IQR of ~10% of its median cannot resolve it.
        parent = [100.0, 110.0, 95.0, 105.0, 90.0, 100.0, 108.0, 92.0, 101.0, 99.0]
        change = [101.0] * 10
        v = bench_compare.verdict(RSS, parent, change)
        self.assertGreater(v["parent_spread_rel"], RSS["bound"])
        self.assertEqual(v["verdict"], "unresolved")
        # ...unless every change run beats every parent run.
        v = bench_compare.verdict(RSS, parent, [80.0] * 10)
        self.assertNotEqual(v["verdict"], "unresolved")

    def test_more_failed_solves_than_the_parent(self):
        self.assertTrue(bench_compare.failures_increased(
            {"attempted": 100, "failed": 0}, {"attempted": 100, "failed": 1}))
        self.assertFalse(bench_compare.failures_increased(
            {"attempted": 100, "failed": 1}, {"attempted": 100, "failed": 1}))
        # A gain does not count when more solves failed.
        change = [p + 5.0 for p in PARENT]
        v = bench_compare.verdict(GFLOPS, PARENT, change, more_failures=True)
        self.assertEqual(v["verdict"], "within bound")

    def test_no_samples_when_every_pair_crashed(self):
        v = bench_compare.verdict(GFLOPS, [], [])
        self.assertEqual(v["verdict"], "no samples")


if __name__ == "__main__":
    unittest.main()
