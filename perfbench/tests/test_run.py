"""Unit tests for run.py's aggregation and agreement arithmetic.

    python3 -m unittest discover -s perfbench/tests -p 'test_*.py'
"""

import statistics
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

import run  # noqa: E402


class QuartileTest(unittest.TestCase):
    def test_matches_statistics_quantiles(self):
        values = [5.0, 1.0, 4.0, 2.0, 3.0, 9.0, 7.0]
        self.assertEqual(run.quartiles(values), tuple(statistics.quantiles(values, n=4)))

    def test_single_value(self):
        self.assertEqual(run.quartiles([3.0]), (3.0, 3.0, 3.0))

    def test_relative_spread_is_iqr_over_median(self):
        values = [8.0, 9.0, 10.0, 11.0, 12.0]
        q1, q2, q3 = statistics.quantiles(values, n=4)
        self.assertAlmostEqual(run.relative_spread(values), (q3 - q1) / q2)

    def test_spread_of_zero_median_is_infinite(self):
        self.assertEqual(run.relative_spread([0.0, 0.0, 0.0]), float("inf"))


class WorseByTest(unittest.TestCase):
    def test_lower_is_better(self):
        self.assertAlmostEqual(run.worse_by(100.0, 110.0, "lower"), 0.10)
        self.assertAlmostEqual(run.worse_by(100.0, 90.0, "lower"), -0.10)

    def test_higher_is_better(self):
        self.assertAlmostEqual(run.worse_by(100.0, 90.0, "higher"), 0.10)
        self.assertAlmostEqual(run.worse_by(100.0, 120.0, "higher"), -0.20)


class AgreementTest(unittest.TestCase):
    LATENCY = {"name": "deliver_p50_us", "better": "lower", "bound": 0.25}
    SETUP = {"name": "setup_s", "better": "lower", "bound": 0.25}

    def test_close_medians_agree(self):
        self.assertTrue(run.agreement([10, 10.5, 11], [10.2, 10.8, 11.1], self.LATENCY)[3])

    def test_second_set_much_worse_disagrees(self):
        self.assertFalse(run.agreement([10, 10.5, 11], [30, 31, 32], self.LATENCY)[3])

    def test_second_set_much_better_disagrees(self):
        sa, sb, worse, agree = run.agreement([30, 31, 32], [10, 10.5, 11], self.LATENCY)
        self.assertLess(worse, -0.25)
        self.assertFalse(agree)

    def test_wide_spread_disagrees_except_for_setup(self):
        wide = [5, 10, 20]
        self.assertFalse(run.agreement(wide, wide, self.LATENCY)[3])
        self.assertTrue(run.agreement(wide, wide, self.SETUP)[3])


class StealShareTest(unittest.TestCase):
    def test_share_of_all_ticks(self):
        self.assertAlmostEqual(run.steal_share((10, 1000), (30, 1400)), 0.05)

    def test_no_ticks_reads_zero(self):
        self.assertEqual(run.steal_share((5, 100), (5, 100)), 0.0)


class AggregateTest(unittest.TestCase):
    def test_median_and_inclusive_quartiles_per_metric(self):
        reps = [{"metrics": {"a": v, "b": 1.0}} for v in (1.0, 2.0, 3.0, 4.0, 5.0)]
        agg = run.aggregate(reps, ["a", "b", "absent"])
        self.assertEqual(agg["a"], (3.0, 2.0, 4.0))
        self.assertEqual(agg["b"], (1.0, 1.0, 1.0))
        self.assertNotIn("absent", agg)


if __name__ == "__main__":
    unittest.main()
