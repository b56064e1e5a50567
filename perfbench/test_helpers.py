"""Tests of the benchmark's own helpers.

    python3 perfbench/test_helpers.py
"""
import json
import math
import os
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import catalog  # noqa: E402
import schedule  # noqa: E402
import spans  # noqa: E402
import stats  # noqa: E402


class PercentileRule(unittest.TestCase):
    def test_highest_percentile_with_ten_beyond(self):
        self.assertIsNone(stats.tail_percentile(19))
        self.assertEqual(stats.tail_percentile(20), 50.0)
        self.assertEqual(stats.tail_percentile(99), 50.0)
        self.assertEqual(stats.tail_percentile(100), 90.0)
        self.assertEqual(stats.tail_percentile(999), 90.0)
        self.assertEqual(stats.tail_percentile(1000), 99.0)
        self.assertEqual(stats.tail_percentile(10000), 99.9)
        self.assertEqual(stats.tail_percentile(100000), 99.99)

    def test_beyond_counts_samples_above_the_rank(self):
        self.assertEqual(stats.beyond(100, 90), 10)
        self.assertEqual(stats.beyond(101, 90), 10)
        self.assertEqual(stats.beyond(99, 90), 9)

    def test_nearest_rank(self):
        v = list(range(1, 101))
        self.assertEqual(stats.percentile(v, 50), 50)
        self.assertEqual(stats.percentile(v, 90), 90)
        self.assertEqual(stats.percentile(v, 99), 99)
        self.assertEqual(stats.percentile([7.0], 99), 7.0)

    def test_failed_requests_sort_last(self):
        v = [1.0] * 95 + [math.inf] * 5
        self.assertEqual(stats.percentile(v, 90), 1.0)
        self.assertEqual(stats.percentile(v, 99), math.inf)

    def test_windows(self):
        groups = stats.windows([1, 2, 3, 4], [0.0, 0.4, 0.6, 1.0], 1.0, 2)
        self.assertEqual(groups, [[1, 2], [3, 4]])
        self.assertEqual(stats.window_counts([0.1, 0.2, 0.9], 1.0, 2), [2, 1])


class MetricNames(unittest.TestCase):
    def test_name_rule(self):
        for good in ("setup_s", "fft.fwd_trunc_ms", "0x", "a-b.c_d"):
            self.assertTrue(stats.valid_name(good), good)
        for bad in ("", "_x", ".x", "a b", "a/b", "x" * 65, None):
            self.assertFalse(stats.valid_name(bad), bad)
        self.assertTrue(stats.valid_name("x" * 64))

    def test_catalog_names_units_bounds(self):
        e2e = [n for n, _, _, _ in catalog.END_TO_END]
        layer = [n for n, _, _ in catalog.PER_LAYER]
        wl = [n for n, _ in catalog.WORKLOADS]
        names = e2e + layer + wl
        self.assertEqual(len(names), len(set(names)))
        for n in names:
            self.assertTrue(stats.valid_name(n), n)
        for _, unit, better, *bound in catalog.END_TO_END + catalog.PER_LAYER:
            self.assertTrue(stats.valid_unit(unit), unit)
            self.assertIn(better, ("lower", "higher"))
            if bound:
                self.assertTrue(0 < bound[0] <= 0.25)
        self.assertIn(("setup_s", "s", "lower", max(b for *_, b in catalog.END_TO_END)),
                      catalog.END_TO_END)
        self.assertTrue(2 <= len(wl) <= 8 and 1 <= len(e2e) <= 16 and 1 <= len(layer) <= 128)
        for _, why in catalog.WORKLOADS:
            self.assertLessEqual(len(why), 200)
            self.assertNotIn("\n", why)

    def test_benchmark_json_matches_catalog(self):
        with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
            self.assertEqual(json.load(f), catalog.spec())


class ScheduleDeterminism(unittest.TestCase):
    def test_same_seed_same_schedule(self):
        self.assertEqual(schedule.poisson_schedule(7, 5000, 0.5),
                         schedule.poisson_schedule(7, 5000, 0.5))

    def test_seed_and_rate_change_it(self):
        a = schedule.poisson_schedule(7, 5000, 0.5)
        self.assertNotEqual(a, schedule.poisson_schedule(8, 5000, 0.5))
        self.assertNotEqual(a, schedule.poisson_schedule(7, 2000, 0.5))

    def test_shape(self):
        s = schedule.poisson_schedule(3, 10000, 2.0)
        self.assertLess(abs(len(s) - 20000), 600)  # ~4 sigma of Poisson(20000)
        self.assertTrue(all(0 <= t < 2.0 for t, _, _ in s))
        self.assertEqual([t for t, _, _ in s], sorted(t for t, _, _ in s))
        self.assertEqual([m for _, m, _ in s], [i % 2 for i in range(len(s))])
        share = sum(h for _, _, h in s) / len(s)
        self.assertLess(abs(share - schedule.HIGH_SHARE), 0.02)

    def test_file_round_trip(self):
        s = schedule.poisson_schedule(5, 2000, 0.1)
        with tempfile.TemporaryDirectory() as d:
            p = os.path.join(d, "s.txt")
            schedule.write_schedule(p, s)
            with open(p) as f:
                rows = [line.split() for line in f]
        self.assertEqual(len(rows), len(s))
        self.assertEqual([int(r[1]) for r in rows], [m for _, m, _ in s])


class SpanSelfTime(unittest.TestCase):
    def test_self_time_subtracts_union_of_children(self):
        with tempfile.TemporaryDirectory() as d:
            p = os.path.join(d, "spans.tsv")
            with open(p, "w") as f:
                f.write("1\t0\t0\troot\t0.0\t10.0\n")
                f.write("2\t1\t0\tchild\t1.0\t4.0\n")
                f.write("3\t1\t0\tchild\t3.0\t5.0\n")   # overlaps span 2
                f.write("4\t1\t0\tchild\t9.0\t12.0\n")  # clipped at the parent's end
                f.write("5\t2\t7\tleaf\t1.5\t2.0\n")
            got = spans.summarize(spans.read_spans(p))
        self.assertAlmostEqual(got["root"]["self_s"], 10.0 - 4.0 - 1.0)
        self.assertEqual(got["child"]["count"], 3)
        self.assertAlmostEqual(got["child"]["self_s"], 3.0 - 0.5 + 2.0 + 3.0)
        self.assertAlmostEqual(got["leaf"]["median_s"], 0.5)


if __name__ == "__main__":
    unittest.main()
