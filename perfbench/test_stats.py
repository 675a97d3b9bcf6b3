"""Tests of the benchmark's statistics helpers.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import json
import os
import statistics
import unittest

import layers
import stats


class QuartileTest(unittest.TestCase):
    def test_median(self):
        self.assertEqual(stats.median([3, 1, 2]), 2)
        self.assertEqual(stats.median([4, 1, 2, 3]), 2.5)

    def test_quartiles_match_statistics_quantiles(self):
        values = [5.0, 1.0, 9.0, 3.0, 7.0, 2.0, 8.0, 4.0, 6.0, 10.0]
        q1, q2, q3 = statistics.quantiles(values, n=4)
        self.assertEqual(stats.quartiles(values), (q1, q2, q3))
        self.assertEqual(q2, stats.median(values))

    def test_quartiles_of_one_value(self):
        self.assertEqual(stats.quartiles([4.0]), (4.0, 4.0, 4.0))

    def test_spread_is_quartile_distance_over_median(self):
        values = [9.0, 10.0, 10.0, 10.0, 11.0]
        q1, q2, q3 = statistics.quantiles(values, n=4)
        self.assertAlmostEqual(stats.spread(values), (q3 - q1) / q2)
        self.assertEqual(stats.spread([2.0, 2.0, 2.0]), 0.0)


class SecondBestTest(unittest.TestCase):
    def test_second_lowest_and_highest(self):
        self.assertEqual(stats.second_best([5.0, 1.0, 9.0, 3.0]), 3.0)
        self.assertEqual(stats.second_best([5.0, 1.0, 9.0, 3.0], better="higher"), 5.0)

    def test_three_values_give_the_median(self):
        self.assertEqual(stats.second_best([7.0, 2.0, 4.0]), stats.median([7.0, 2.0, 4.0]))

    def test_one_value(self):
        self.assertEqual(stats.second_best([4.0]), 4.0)
        self.assertEqual(stats.second_best([4.0], better="higher"), 4.0)


class TailTest(unittest.TestCase):
    def test_highest_percentile_with_ten_samples_beyond(self):
        # p90 of 1..100 leaves exactly 10 samples beyond it; p99 leaves 1.
        self.assertEqual(stats.tail(range(1, 101)), (0.9, 90, 100))
        self.assertEqual(stats.tail(range(1, 1001)), (0.99, 990, 1000))
        self.assertEqual(stats.tail(range(1, 10001)), (0.999, 9990, 10000))

    def test_order_does_not_matter(self):
        values = list(range(1, 101))
        values.reverse()
        self.assertEqual(stats.tail(values), (0.9, 90, 100))

    def test_too_few_samples(self):
        self.assertIsNone(stats.tail(range(15)))
        self.assertEqual(stats.tail(range(1, 21)), (0.5, 10, 20))


class SelfTimeTest(unittest.TestCase):
    def test_no_children(self):
        self.assertEqual(stats.self_time(0, 100, []), 100)

    def test_disjoint_children(self):
        self.assertEqual(stats.self_time(0, 100, [(10, 10), (50, 20)]), 70)

    def test_overlapping_children_count_once(self):
        # [10, 30) and [20, 40) cover [10, 40): 30 units, not 40.
        self.assertEqual(stats.self_time(0, 100, [(10, 20), (20, 20)]), 70)
        self.assertEqual(stats.self_time(0, 100, [(10, 20), (10, 20)]), 80)

    def test_contained_child_inside_another(self):
        self.assertEqual(stats.self_time(0, 100, [(10, 50), (20, 5)]), 50)

    def test_zero_length_children(self):
        self.assertEqual(stats.self_time(0, 100, [(0, 0), (50, 0), (100, 0)]), 100)

    def test_children_clipped_to_parent(self):
        self.assertEqual(stats.self_time(10, 100, [(0, 20), (100, 50)]), 80)
        self.assertEqual(stats.self_time(10, 100, [(200, 50)]), 100)

    def test_fully_covered(self):
        self.assertEqual(stats.self_time(0, 100, [(0, 60), (40, 60)]), 0)

    def test_tree(self):
        # The benchmark's own grouping: a statement with parse, optimize
        # (zero length) and execute children; a nested span under execute;
        # two overlapping units under a campaign; and a second source whose
        # ids collide with the first one's but whose spans are its own.
        rows = [
            ("a", "statement", 1, 0, 0, 100),
            ("a", "parse", 2, 1, 0, 10),
            ("a", "optimize", 3, 1, 10, 0),
            ("a", "execute", 4, 1, 10, 60),
            ("a", "helper", 5, 4, 20, 30),
            ("a", "bench.run", 6, 0, 0, 50),
            ("a", "shard", 7, 6, 0, 30),
            ("a", "shard", 8, 6, 20, 20),
            ("b", "statement", 1, 0, 0, 40),
            ("b", "execute", 4, 1, 5, 10),
        ]
        spans = [layers.Span(source, kind, sid, parent, start, dur, "-", "-", "-")
                 for source, kind, sid, parent, start, dur in rows]
        children = layers.children_of(spans)
        self.assertEqual(
            {(s.source, s.id): layers.span_self_ns(s, children) for s in spans}, {
                ("a", 1): 30, ("a", 2): 10, ("a", 3): 0, ("a", 4): 30, ("a", 5): 30,
                ("a", 6): 10, ("a", 7): 30, ("a", 8): 20, ("b", 1): 30, ("b", 4): 10,
            })
        self.assertEqual(layers.statement_self_s(spans), ((30 + 30) / 1e9, 140 / 1e9))


class BenchmarkJsonTest(unittest.TestCase):
    def test_metric_lists_match(self):
        path = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..",
                            "BENCHMARK.json")
        with open(path) as f:
            spec = json.load(f)
        self.assertEqual([m["name"] for m in spec["per_layer"]],
                         [name for name, _ in layers.PER_LAYER])
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]},
                         dict(layers.PER_LAYER))
        self.assertEqual([w["name"] for w in spec["workloads"]], list(layers.WORKLOADS))


if __name__ == "__main__":
    unittest.main()
