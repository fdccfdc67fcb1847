"""Self-test of the benchmark's own arithmetic on synthetic traces.

    python3 bench/selftest.py

Covers span self time, the tail-percentile choice, the quartile/median
summary, the per-layer metrics derived from a hand-made trace, and that
BENCHMARK.json and catalog.json name the same metrics the code produces.
Needs neither the program nor a measurement.
"""

from __future__ import annotations

import json
import statistics
import unittest
from pathlib import Path

import run as bench
import spans as sp

HERE = Path(__file__).resolve().parent


def span(name, start, end, parent=None, run=0, probe=False):
    return sp.Span(name, float(start), float(end), parent, run, probe)


class SelfTime(unittest.TestCase):
    def test_children_union_is_subtracted_once(self):
        spans = [
            span("root", 0, 10),
            span("a", 1, 3, parent=0),
            span("b", 2, 5, parent=0),  # overlaps a
            span("c", 9, 12, parent=0),  # sticks out of root
            span("d", 1.5, 2.5, parent=1),  # grandchild: counts against a only
        ]
        self.assertEqual(sp.self_times(spans), [5.0, 1.0, 3.0, 3.0, 1.0])

    def test_leaf_self_time_is_its_duration(self):
        self.assertEqual(sp.self_times([span("x", 2, 2.25)]), [0.25])

    def test_tracer_records_parents_and_runs(self):
        tracer = sp.Tracer()
        tracer.run = 3
        with tracer.span("outer"):
            with tracer.span("inner", probe=True):
                pass
        outer, inner = tracer.spans
        self.assertEqual((outer.parent, inner.parent), (None, 0))
        self.assertEqual((outer.run, inner.run, inner.probe), (3, 3, True))
        self.assertTrue(outer.start <= inner.start <= inner.end <= outer.end)


class Percentiles(unittest.TestCase):
    def test_nearest_rank(self):
        values = list(range(100, 0, -1))
        self.assertEqual(sp.percentile(values, 50), 50)
        self.assertEqual(sp.percentile(values, 90), 90)
        self.assertEqual(sp.percentile(values, 99.9), 100)
        self.assertEqual(sp.percentile([7.0], 50), 7.0)

    def test_tail_needs_ten_samples_beyond(self):
        cases = {19: None, 20: 50.0, 39: 50.0, 40: 75.0, 100: 90.0, 199: 90.0,
                 200: 95.0, 1000: 99.0, 10000: 99.9}
        for n, p in cases.items():
            self.assertEqual(sp.tail_percentile(n), p, n)


class Summary(unittest.TestCase):
    def test_quartiles_match_statistics_quantiles(self):
        values = [3.0, 1.0, 4.0, 1.5, 5.0, 9.0, 2.0, 6.0, 5.5, 3.5]
        s = sp.summary(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        self.assertEqual((s["q1"], s["q3"], s["n"]), (q1, q3, 10))
        self.assertEqual(s["median"], 3.75)
        self.assertAlmostEqual(sp.spread(values), (q3 - q1) / 3.75)

    def test_single_value(self):
        self.assertEqual(sp.summary([2.0]), {"median": 2.0, "q1": 2.0, "q3": 2.0, "n": 1})

    def test_spread_of_negative_median_is_positive(self):
        self.assertGreater(sp.spread([-1.0, -1.2, -1.4, -1.1]), 0.0)


def synthetic_trace():
    """Two rounds of a one-half-iteration command; times in seconds.

    Round i runs the command plain (span run 3i, no spans), with spans at
    its layer boundaries (3i+1) and with probes too (3i+2).
    """
    spans = []
    runs = []
    for i, (hi, fwd, proj, traced_wall) in enumerate(((0.050, 0.004, 0.030, 0.080),
                                                       (0.060, 0.006, 0.034, 0.100))):
        traced, probed = 3 * i + 1, 3 * i + 2
        spans.append(span("scene.generate", 0, 0.015, run=traced))
        refine = len(spans)
        spans.append(span("pocs.refine", 0.015, 0.070, run=traced))
        spans.append(span("pocs.half_iter", 0.015, 0.015 + hi, refine, traced))
        refine = len(spans)
        spans.append(span("pocs.refine", 0, 0.200, run=probed))  # not used
        spans.append(span("pocs.half_iter", 0, 0.100, refine, probed))  # not used
        spans.append(span("warp.forward", 0.100, 0.100 + fwd, refine, probed, True))
        spans.append(span("warp.project0", 0.110, 0.110 + proj, refine, probed, True))
        runs.append({
            "rc": [0, 0, 0],
            "plain_wall_s": 0.075,
            "traced_wall_s": traced_wall,
            "bytes_written": 1000,
            "clipped": 3,
            "coefficients": 64,
        })
    return spans, runs


class LayerMetrics(unittest.TestCase):
    def setUp(self):
        self.values = bench.layer_metrics(*synthetic_trace())["values"]

    def test_program_spans_come_from_the_traced_runs(self):
        v = self.values
        self.assertAlmostEqual(v["pocs.half_iter_ms"], 50.0)  # nearest-rank p50 of 50, 60
        self.assertAlmostEqual(v["pocs.half_iter.total_ms"], 55.0)
        self.assertEqual(v["pocs.half_iters"], 1)
        # refine self time: its 55 ms span minus the half-iteration inside it
        # (50 ms; in round 1 the 60 ms half-iteration covers all of it)
        self.assertAlmostEqual(v["pocs.refine.total_ms"], statistics.median([5.0, 0.0]))

    def test_probe_spans_and_derived_interp(self):
        v = self.values
        self.assertAlmostEqual(v["warp.forward.total_ms"], 5.0)
        self.assertAlmostEqual(v["warp.interp_ms"], 26.0)  # p50 of 26, 28
        self.assertAlmostEqual(v["warp.interp.total_ms"], 27.0)
        self.assertEqual(v["warp.forward.calls"], 1)

    def test_counts_and_overheads(self):
        v = self.values
        self.assertEqual(v["codec.clip_fraction"], 3 / 64)
        self.assertEqual(v["pgm.bytes_written"], 1000)
        self.assertEqual(v["scene.generate.calls"], 1)
        self.assertAlmostEqual(v["scene.generate_ms"], 15.0)
        self.assertEqual(v["pgm.read.calls"], 0)
        self.assertEqual(v["pgm.read_ms"], 0.0)
        # traced wall minus its spans: scene 15 ms + refine 55 ms (round 1: 15 + 60)
        self.assertAlmostEqual(v["cli.self_ms"], statistics.median([80 - 70, 100 - 75]))
        # round 1 only: round 0's plain run is the process's first
        self.assertAlmostEqual(v["trace.overhead_s"], 0.100 - 0.075)


class Declarations(unittest.TestCase):
    def test_benchmark_json_matches_the_code(self):
        spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
        produced = set(bench.layer_metrics(*synthetic_trace())["values"])
        self.assertEqual({m["name"] for m in spec["per_layer"]}, produced)
        self.assertEqual(
            [m["name"] for m in spec["end_to_end"]],
            ["wall_s", "setup_s", "peak_rss_mb", "q_our_db", "q_gain_min_db", "ok_frac"],
        )

    def test_catalog_covers_every_metric_and_workload(self):
        spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
        catalog = json.loads((HERE / "catalog.json").read_text())
        workloads = {w["name"] for w in spec["workloads"]}
        for m in spec["end_to_end"] + spec["per_layer"]:
            entry = catalog["metrics"].get(m["name"]) or catalog["families"].get(
                _family(m["name"])
            )
            self.assertIsNotNone(entry, m["name"])
            for move in entry.get("moves", []):
                self.assertIn(move["workload"], workloads)


def _family(name: str) -> str:
    for suffix in (".total_ms", ".tail_ms", ".calls", "_ms"):
        if name.endswith(suffix):
            return name[: -len(suffix)]
    return "pocs.half_iter" if name == "pocs.half_iters" else name


if __name__ == "__main__":
    unittest.main()
