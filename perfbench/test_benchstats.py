"""Tests for the benchmark's own arithmetic. Run: python3 perfbench/test_benchstats.py"""

import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import benchstats as bs  # noqa: E402


class TailPercentileTest(unittest.TestCase):
    def test_needs_ten_samples_beyond(self):
        self.assertIsNone(bs.tail_percentile(0))
        self.assertIsNone(bs.tail_percentile(99))
        self.assertEqual(bs.tail_percentile(100), 90.0)
        self.assertEqual(bs.tail_percentile(999), 90.0)
        self.assertEqual(bs.tail_percentile(1000), 99.0)
        self.assertEqual(bs.tail_percentile(9999), 99.0)
        self.assertEqual(bs.tail_percentile(10000), 99.9)

    def test_summarize_reports_count_and_tail(self):
        values = list(range(1, 1001))  # 1..1000
        s = bs.summarize(values)
        self.assertEqual(s["n"], 1000)
        self.assertEqual(s["tail_p"], 99.0)
        self.assertAlmostEqual(s["median"], 500.5)
        self.assertAlmostEqual(s["tail"], 990.01)
        self.assertIsNone(bs.summarize([3.0, 1.0])["tail"])

    def test_percentile_interpolates(self):
        self.assertEqual(bs.percentile([5.0], 99), 5.0)
        self.assertAlmostEqual(bs.percentile([1.0, 2.0, 3.0, 4.0], 50), 2.5)
        self.assertAlmostEqual(bs.percentile([4.0, 1.0, 3.0, 2.0], 100), 4.0)


class WindowTest(unittest.TestCase):
    def test_one_stalled_window_does_not_move_the_tail(self):
        calm = [1.0] * 1000
        stalled = [1.0] * 900 + [50.0] * 100
        self.assertEqual(bs.windowed_percentile(calm + stalled + calm, 99, 1000), 1.0)
        self.assertEqual(bs.windowed_percentile(stalled, 99, 1000), 50.0)

    def test_short_sample_is_one_window(self):
        values = list(range(1, 1500))
        self.assertEqual(bs.windowed_percentile(values, 50, 1000),
                         bs.percentile(values, 50))

    def test_binned_rate_is_median_bin(self):
        # 0.5 s bins over 2 s: evenly spaced completions at 20/s, 40/s, a
        # stalled bin with two, and 30/s; completions past 2 s are ignored.
        def even(start_s, n, per_s):
            return [(start_s + i / per_s) * 1e6 for i in range(n)]
        done = (even(0.0, 10, 20) + even(0.5, 20, 40) + [1.1e6, 1.4e6] +
                even(1.5, 15, 30) + even(2.0, 50, 100))
        rate = bs.binned_rate(done, 2.0, 0.5)
        self.assertAlmostEqual(rate, 25.0)  # median of 20, 40, 3.33, 30

    def test_binned_rate_needs_a_whole_bin(self):
        with self.assertRaises(ValueError):
            bs.binned_rate([1.0], 0.2, 0.5)


class OpenLoopTest(unittest.TestCase):
    def test_latency_counts_from_due_time(self):
        # Request 0 is sent on time; request 1 is sent 3 ms late (a stall)
        # and its 1 ms service reads as 4 ms.
        lat, late, missing = bs.open_loop([0, 1000], [0, 4000], [1000, 5000])
        self.assertEqual(lat, [1.0, 4.0])
        self.assertEqual(late, [0.0, 3.0])
        self.assertEqual(missing, 0)

    def test_unsent_and_failed_are_missing(self):
        lat, late, missing = bs.open_loop([0, 10, 20], [0, -1, 25], [-1, -1, 45])
        self.assertEqual(lat, [0.025])
        self.assertEqual(late, [0.0, 0.005])
        self.assertEqual(missing, 2)


def span(i, parent, start, end, name="x"):
    return {"id": i, "parent": parent, "start_us": start, "end_us": end,
            "name": name, "request_id": -1}


class SelfTimeTest(unittest.TestCase):
    def test_children_are_subtracted(self):
        spans = [span(0, -1, 0, 100), span(1, 0, 10, 30), span(2, 0, 50, 60)]
        st = bs.self_times(spans)
        self.assertEqual(st[0], 70)
        self.assertEqual(st[1], 20)
        self.assertEqual(st[2], 10)

    def test_overlapping_children_count_once_and_clip(self):
        spans = [span(0, -1, 0, 100), span(1, 0, 10, 40), span(2, 0, 30, 50),
                 span(3, 0, 90, 120)]
        self.assertEqual(bs.self_times(spans)[0], 100 - 40 - 10)

    def test_grandchildren_do_not_count_twice(self):
        spans = [span(0, -1, 0, 100), span(1, 0, 0, 50), span(2, 1, 0, 50)]
        st = bs.self_times(spans)
        self.assertEqual(st[0], 50)
        self.assertEqual(st[1], 0)


class ErrorCountTest(unittest.TestCase):
    def test_sums_phases(self):
        a, f, rate = bs.error_counts([{"attempted": 90, "failed": 1},
                                      {"attempted": 10, "failed": 0}])
        self.assertEqual((a, f), (100, 1))
        self.assertAlmostEqual(rate, 0.01)

    def test_missing_phase_is_a_failure(self):
        a, f, rate = bs.error_counts([{"attempted": 9, "failed": 0}, None])
        self.assertEqual((a, f), (10, 1))
        self.assertAlmostEqual(rate, 0.1)

    def test_never_divides_by_zero(self):
        self.assertEqual(bs.error_counts([]), (1, 0, 0.0))


if __name__ == "__main__":
    unittest.main()
