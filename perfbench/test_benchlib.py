"""Tests for the benchmark's own statistics and span code.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import json
import unittest
from pathlib import Path

import benchlib


class PercentileTest(unittest.TestCase):
    def test_nearest_rank(self):
        values = list(range(1, 101))  # 1..100
        self.assertEqual(benchlib.percentile(values, 90), 90)
        self.assertEqual(benchlib.percentile(values, 50), 50)
        self.assertEqual(benchlib.percentile([5, 1, 3], 50), 3)
        self.assertEqual(benchlib.percentile([7], 99), 7)

    def test_order_does_not_matter(self):
        self.assertEqual(benchlib.percentile([9, 2, 7, 4, 1], 90),
                         benchlib.percentile([1, 2, 4, 7, 9], 90))

    def test_samples_beyond(self):
        self.assertEqual(benchlib.samples_beyond(100, 90), 10)
        self.assertEqual(benchlib.samples_beyond(99, 90), 9)
        self.assertEqual(benchlib.samples_beyond(200, 90), 20)
        self.assertEqual(benchlib.samples_beyond(1000, 99), 10)

    def test_tail_needs_ten_beyond(self):
        self.assertEqual(benchlib.tail_percentile(list(range(100)), 90), 89)
        with self.assertRaises(benchlib.BenchError):
            benchlib.tail_percentile(list(range(99)), 90)
        with self.assertRaises(benchlib.BenchError):
            benchlib.tail_percentile(list(range(500)), 99)

    def test_empty_and_bad_q(self):
        with self.assertRaises(benchlib.BenchError):
            benchlib.percentile([], 50)
        with self.assertRaises(benchlib.BenchError):
            benchlib.median([])
        with self.assertRaises(benchlib.BenchError):
            benchlib.percentile([1, 2], 100)

    def test_median_interpolates(self):
        self.assertEqual(benchlib.median([1, 2, 3, 10]), 2.5)


def span(name, start, end, sid, parent=0, request=1):
    return [name, start, end, sid, parent, request]


class SelfTimeTest(unittest.TestCase):
    def test_no_children(self):
        self.assertEqual(benchlib.self_times([span("a", 0, 100, 1)]), {1: 100})

    def test_disjoint_children(self):
        spans = [span("root", 0, 100, 1), span("x", 10, 20, 2, 1), span("y", 50, 80, 3, 1)]
        self.assertEqual(benchlib.self_times(spans)[1], 100 - 10 - 30)

    def test_overlapping_children_count_once(self):
        # Two children running in parallel over [10, 60) and [40, 90): the
        # union covers 80, not 100.
        spans = [span("root", 0, 100, 1), span("x", 10, 60, 2, 1), span("y", 40, 90, 3, 1)]
        self.assertEqual(benchlib.self_times(spans)[1], 20)

    def test_nested_child_inside_child(self):
        spans = [span("root", 0, 100, 1), span("x", 10, 60, 2, 1),
                 span("y", 20, 30, 3, 1), span("z", 15, 25, 4, 2)]
        st = benchlib.self_times(spans)
        self.assertEqual(st[1], 50)       # x covers [10, 60); y lies inside it
        self.assertEqual(st[2], 40)       # z covers 10 of x's 50
        self.assertEqual(st[4], 10)

    def test_children_clipped_to_parent(self):
        spans = [span("root", 0, 100, 1), span("x", 90, 130, 2, 1), span("y", -20, 5, 3, 1)]
        self.assertEqual(benchlib.self_times(spans)[1], 100 - 10 - 5)

    def test_union_length(self):
        self.assertEqual(benchlib.union_length([]), 0)
        self.assertEqual(benchlib.union_length([(0, 10), (5, 15), (20, 30), (30, 31)]), 26)
        self.assertEqual(benchlib.union_length([(0, 10), (2, 3)]), 10)
        self.assertEqual(benchlib.union_length([(5, 5), (7, 3)]), 0)

    def test_table_sums_to_root(self):
        spans = [span("request", 0, 100, 1), span("protocol.round_trip", 0, 60, 2, 1),
                 span("proof.verify", 60, 90, 3, 1)]
        table, layers = benchlib.self_time_table(spans, requests=1)
        self.assertAlmostEqual(sum(layers.values()), 100e-6)
        self.assertEqual(table[0][1], "protocol.round_trip")
        self.assertEqual(set(layers), {"protocol", "proof", "bench"})

    def test_chrome_trace_shape(self):
        doc = benchlib.chrome_trace([span("proof.prove", 1000, 3000, (2 << 40) + 5, 0, 7)])
        ev = doc["traceEvents"][0]
        self.assertEqual((ev["ph"], ev["ts"], ev["dur"], ev["tid"]), ("X", 1.0, 2.0, 2))
        self.assertEqual(ev["cat"], "proof")
        self.assertEqual(ev["args"]["request"], 7)
        json.dumps(doc)


class NameTest(unittest.TestCase):
    def test_valid_names(self):
        for name in ("query_p50_ms", "proof.prove_p50_ms", "bench.trace-overhead", "9x"):
            benchlib.validate_metric(name, "ms")

    def test_invalid_names(self):
        for name in ("", ".leading", "_leading", "has space", "slash/x", "é", "x" * 65):
            with self.assertRaises(benchlib.BenchError, msg=name):
                benchlib.validate_metric(name, "ms")

    def test_units(self):
        for unit in ("ms", "1/s", "%", "count", "KiB"):
            benchlib.validate_metric("m", unit)
        for unit in ("", "a b", "x" * 17):
            with self.assertRaises(benchlib.BenchError):
                benchlib.validate_metric("m", unit)

    def test_declared_metrics_are_valid(self):
        spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json")
                          .read_text())
        names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
        self.assertEqual(len(names), len(set(names)))
        for m in spec["end_to_end"] + spec["per_layer"]:
            benchlib.validate_metric(m["name"], m["unit"])

    def test_result_rejects_non_finite(self):
        raw = {"attempted": 3, "failed": 0}
        with self.assertRaises(benchlib.BenchError):
            benchlib.result_line(raw, {"x": (float("nan"), "ms")})
        line = benchlib.result_line(raw, {"x": (1.5, "ms")})
        self.assertEqual(line, {"correct": True, "attempted": 3, "failed": 0,
                                "metrics": {"x": {"value": 1.5, "unit": "ms"}}})
        self.assertFalse(benchlib.result_line({"attempted": 3, "failed": 1}, {})["correct"])


class LayerOrderTest(unittest.TestCase):
    def test_holds(self):
        self.assertEqual(benchlib.layer_order_violations(10.0, 12.0, 20.0), [])
        self.assertEqual(benchlib.layer_order_violations(0.0, 0.0, 0.0), [])

    def test_each_inequality_reported(self):
        bad = benchlib.layer_order_violations(13.0, 12.0, 20.0)
        self.assertEqual(len(bad), 1)
        self.assertIn("proof.prove_p50_ms", bad[0])
        bad = benchlib.layer_order_violations(10.0, 21.0, 20.0)
        self.assertEqual(len(bad), 1)
        self.assertIn("query_p50_ms", bad[0])
        self.assertEqual(len(benchlib.layer_order_violations(30.0, 25.0, 20.0)), 2)


class HostSlowdownTest(unittest.TestCase):
    REF = benchlib.REF_PROBE_NS
    PROBES = {"t_ms": [5.0, 10.0, 20.0],
              "wall_ns": [[9 * REF, 9 * REF], [REF, 2 * REF], [2 * REF, 3 * REF]]}

    def test_mean_over_readings_in_window(self):
        # The reading at 5 ms comes before the phase and does not count.
        self.assertAlmostEqual(benchlib.host_slowdown(self.PROBES, 10.0, 20.0), 2.0)
        self.assertAlmostEqual(benchlib.host_slowdown(self.PROBES, 20.0, 20.0), 2.5)

    def test_window_end(self):
        self.assertAlmostEqual(benchlib.host_slowdown(self.PROBES, 0.0, 10.0), 21 / 4)

    def test_no_reading(self):
        with self.assertRaises(benchlib.BenchError):
            benchlib.host_slowdown(self.PROBES, 21.0, 30.0)
        with self.assertRaises(benchlib.BenchError):
            benchlib.host_slowdown(self.PROBES, 11.0, 19.0)

    def test_end_to_end_scales_timings_not_setup(self):
        rt = [float(x) for x in range(1, 101)]
        raw = {
            "workload": "flagship_regime", "setup_s": 7.0,
            "peak_rss_kb": 2048, "store_bytes": 1024 * 1024,
            # Two readings in the timed phase, one after it.
            "probes": {"t_ms": [0.0, 1.0, 20001.0],
                       "wall_ns": [[2 * self.REF], [2 * self.REF], [4 * self.REF]]},
            "updates": {"publish_ms": [40.0, 50.0, 60.0],
                        "publish_cal_ns": [self.REF, self.REF / 2, self.REF * 4]},
            # The client ran its own modexps twice as fast as the reference.
            "timed": {"start_ms": 0.0, "rt_ms": rt, "verify_ms": rt,
                      "verify_cal_ns": [self.REF / 2] * 100, "resp_bytes": [2048] * 100,
                      "verified": 100, "requests": 100, "wall_s": 11.0, "probe_s": 1.0,
                      "proc_cpu_s": 9.0, "client_cpu_s": 3.0, "probe_cpu_s": 1.0},
        }
        m = benchlib.end_to_end(raw)
        self.assertEqual(m["setup_s"], (7.0, "s"))
        self.assertAlmostEqual(m["query_p50_ms"][0], 50.5 / 2)
        self.assertAlmostEqual(m["query_p90_ms"][0], 90 / 2)
        self.assertAlmostEqual(m["verify_p50_ms"][0], 50.5 * 2)
        self.assertAlmostEqual(m["throughput_qps"][0], 100 / 10.0 * 2)
        self.assertAlmostEqual(m["cpu_ms_per_query"][0], 5000.0 / 100 / 2)
        # Each publish by its own thread's modexp time: 40, 100, 15.
        self.assertAlmostEqual(m["publish_p50_ms"][0], 40.0)
        self.assertAlmostEqual(m["response_kb"][0], 2.0)
        self.assertAlmostEqual(m["store_mb"][0], 1.0)


class StealTest(unittest.TestCase):
    STAT = ("cpu  100 0 50 800 10 0 0 40 0 0\n"
            "cpu0 50 0 25 400 5 0 0 20 0 0\n")

    def test_aggregate_line(self):
        self.assertEqual(benchlib.cpu_ticks(self.STAT), (40, 1000))

    def test_share(self):
        self.assertAlmostEqual(benchlib.steal_share((40, 1000), (140, 2000)), 0.1)
        self.assertEqual(benchlib.steal_share((40, 1000), (40, 1000)), 0.0)

    def test_missing_line(self):
        with self.assertRaises(benchlib.BenchError):
            benchlib.cpu_ticks("intr 1 2 3\n")


if __name__ == "__main__":
    unittest.main()
