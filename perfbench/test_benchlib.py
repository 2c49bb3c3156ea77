"""Self-tests of the benchmark's arithmetic: ``python3 perfbench/test_benchlib.py``."""

import os
import statistics
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import benchlib  # noqa: E402


class TailPercentile(unittest.TestCase):
    def test_p99_needs_ten_samples_beyond_it(self):
        samples = list(range(1, 1001))
        self.assertEqual(benchlib.tail_percentile(samples), (990, 99.0, 1000))

    def test_falls_back_to_the_highest_percentile_with_ten_beyond(self):
        samples = list(range(1, 101))
        value, percentile, n = benchlib.tail_percentile(samples)
        self.assertEqual((value, percentile, n), (90, 90.0, 100))
        self.assertEqual(len([s for s in samples if s > value]), 10)

    def test_few_samples_report_the_maximum(self):
        self.assertEqual(benchlib.tail_percentile([3, 1, 2]), (3, 100.0, 3))
        self.assertEqual(benchlib.tail_percentile(list(range(21))), (20, 100.0, 21))
        self.assertEqual(benchlib.tail_percentile(list(range(99))), (98, 100.0, 99))

    def test_between_p90_and_p99(self):
        value, percentile, n = benchlib.tail_percentile(list(range(1, 501)))
        self.assertEqual((value, percentile, n), (490, 98.0, 500))

    def test_no_samples_is_an_error(self):
        with self.assertRaises(ValueError):
            benchlib.tail_percentile([])


class Quartiles(unittest.TestCase):
    def test_spread_matches_statistics_quantiles(self):
        values = [10.0, 11.0, 9.0, 10.5, 9.5, 10.2, 9.8, 10.1, 12.0, 8.0]
        q1, q2, q3 = statistics.quantiles(values, n=4)
        self.assertAlmostEqual(benchlib.quartile_spread(values), (q3 - q1) / q2)

    def test_identical_values_have_no_spread(self):
        self.assertEqual(benchlib.quartile_spread([2.0] * 10), 0.0)

    def test_known_quartiles(self):
        # Exclusive method: positions (n+1)p = 2.5, 5, 7.5 for n = 9.
        self.assertEqual(statistics.quantiles(range(1, 10), n=4), [2.5, 5.0, 7.5])
        self.assertAlmostEqual(benchlib.quartile_spread(range(1, 10)), 1.0)


class SelfTime(unittest.TestCase):
    def test_leaf_self_time_is_its_duration(self):
        self.assertEqual(benchlib.self_times([(0, 5, None)]), [5])

    def test_overlapping_children_count_once(self):
        spans = [(0, 10, None), (1, 4, 0), (3, 6, 0), (8, 9, 0)]
        # Children cover [1, 6) and [8, 9): 6 of the parent's 10.
        self.assertEqual(benchlib.self_times(spans)[0], 4)

    def test_children_are_clipped_to_the_parent(self):
        spans = [(2, 6, None), (0, 3, 0), (5, 9, 0)]
        self.assertEqual(benchlib.self_times(spans)[0], 2)

    def test_grandchildren_only_reduce_their_parent(self):
        spans = [(0, 10, None), (0, 6, 0), (1, 3, 1)]
        self.assertEqual(benchlib.self_times(spans), [4, 4, 2])

    def test_union_of_nested_intervals(self):
        self.assertEqual(benchlib.union_length([(0, 10), (2, 3), (9, 12)]), 12)


class ErrorCounting(unittest.TestCase):
    ok = (200, "-", "00000000000000aa")

    def test_expected_answer_succeeds(self):
        answer = {"status": 200, "kind": None, "fingerprint": "00000000000000aa"}
        self.assertFalse(benchlib.request_failed(self.ok, answer))

    def test_expected_400_succeeds(self):
        answer = {"status": 400, "kind": "unknown-policy", "fingerprint": None}
        self.assertFalse(benchlib.request_failed((400, "unknown-policy", "-"), answer))

    def test_503_fails_even_when_expected(self):
        answer = {"status": 503, "kind": "overloaded", "fingerprint": None}
        self.assertTrue(benchlib.request_failed((503, "overloaded", "-"), answer))

    def test_dropped_connection_fails(self):
        answer = {"error": "could not read response: connection reset"}
        self.assertTrue(benchlib.request_failed(self.ok, answer))

    def test_wrong_fingerprint_or_kind_fails(self):
        wrong = {"status": 200, "kind": None, "fingerprint": "00000000000000bb"}
        self.assertTrue(benchlib.request_failed(self.ok, wrong))
        kind = {"status": 500, "kind": "internal", "fingerprint": None}
        self.assertTrue(benchlib.request_failed((500, "policy-fault", "-"), kind))


if __name__ == "__main__":
    unittest.main()
