"""Self-tests of the benchmark's helpers: the percentile rank rule, span
self-time arithmetic, and the printed schema.

    python3 perfbench/tests/test_benchlib.py
"""

import json
import re
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

import benchlib  # noqa: E402

# Every metric the benchmark specifies, with its unit.
SPEC_END_TO_END = {
    "run_s": "s", "item_p50_ms": "ms", "item_p90_ms": "ms", "setup_s": "s",
    "peak_rss_mb": "MB", "slots_mean": "slots", "rounds_mean": "rounds",
    "msgs_mean": "msgs", "churn_mean": "arcs", "wall_run_s": "s",
    "wall_setup_s": "s",
}
SPEC_PER_LAYER = [
    "graph.gen_ms", "coloring.index_ms", "coloring.check_ms",
    "coloring.bound_ms", "algos.distmis_ms", "algos.distmis_allocs",
    "sim.sync_msgs", "sim.sync_ns_per_msg", "algos.dfs_ms",
    "algos.dfs_allocs", "sim.dfs_msgs", "sim.dfs_ns_per_msg",
    "algos.dmgc_ms", "algos.distmis_async_ms", "algos.distmis_async_allocs",
    "sim.async_events", "sim.async_timer_frac", "sim.async_ns_per_event",
    "sim.async_time", "sim.async_over_sync", "tdma.build_ms",
    "tdma.replay_ms", "tdma.convergecast_ms", "tdma.delivered_frac",
    "tdma.epoch_frames", "tdma.slot_utilization", "soak.init_ms",
    "soak.step_ms", "soak.step_allocs", "soak.repairs",
    "soak.fallback_frac", "soak.noop_frac", "soak.changed_edges_mean",
    "trace.overhead_pct",
]
SPEC_SHARE_LAYERS = ["coloring", "algos", "tdma", "soak"]

# The layer calls each workload makes inside one item.
ITEM_CALLS = {
    "sec8-sweep": ["algos.distmis", "coloring.check", "algos.dfs",
                   "coloring.check", "algos.dmgc", "coloring.check",
                   "coloring.bound"],
    "udg-field": ["coloring.index", "algos.distmis", "algos.distmis_async",
                  "coloring.check", "tdma.build", "tdma.replay",
                  "bench.restrict", "tdma.build", "tdma.convergecast"],
    "churn-lossy": ["soak.step", "coloring.check"],
}
SETUP_CALL = {"sec8-sweep": "graph.gen", "udg-field": "graph.gen",
              "churn-lossy": "soak.init"}
COUNTS = {
    "sec8-sweep": {"items": 120, "schedules": 360, "slots_sum": 12600,
                   "rounds_sum": 21600, "distmis_runs": 120,
                   "msgs_sum": 9.6e6, "sim.sync_msgs": 8e6,
                   "sim.dfs_msgs": 1.6e6},
    "udg-field": {"items": 10, "schedules": 10, "slots_sum": 1150,
                  "rounds_sum": 4200, "distmis_runs": 10, "msgs_sum": 4e6,
                  "sim.sync_msgs": 4e6, "sim.async_frames": 2.4e7,
                  "sim.async_timers": 1e6, "sim.async_time_sum": 3600.0,
                  "tdma.scheduled": 56000, "tdma.delivered": 56000,
                  "tdma.epoch_frames_sum": 3700,
                  "tdma.utilization_sum": 5.0},
    "churn-lossy": {"items": 800, "slots_sum": 40000, "recolored_sum": 2800,
                    "changed_edges_sum": 1700, "fallbacks": 0,
                    "events": 800, "repairs": 730, "recomputes": 4,
                    "noops": 66},
}


def fake_raw(workload, traced, items=3):
    """A raw document shaped like bench.cpp's: three untraced passes whose
    items take 95, 90 and 99 ns and whose canary samples run at the
    reference speed, and when traced one traced pass with hand-placed spans
    in which each layer call takes 10 ns."""
    spans = []

    def add(name, start, end, parent, item=-1):
        if item < 0 and parent >= 0:
            item = spans[parent][4]
        spans.append([name, start, end, parent, item])
        return len(spans) - 1

    calls = ITEM_CALLS[workload]
    base = 1000
    phase_end = base + 100 * items + 5
    if traced:
        root = add("bench.setup", 0, 90, -1)
        add(SETUP_CALL[workload], 10, 50, root)
        add(SETUP_CALL[workload], 60, 80, root)
        root = add("bench.phase", base, phase_end, -1)
        for i in range(items):
            start = base + 100 * i
            item = add("bench.item", start, start + 95, root, i)
            for k, name in enumerate(calls):
                add(name, start + 2 + 10 * k, start + 12 + 10 * k, item)

    def phase(latency, is_traced=False, run_ns=None):
        return {
            "traced": is_traced,
            "run_ns": run_ns or 100 * items,
            "failed": 0,
            "fingerprint": "00000000deadbeef",
            "item_ns": [latency] * items,
            "canary_ns": [] if is_traced else [benchlib.CANARY_REFERENCE_NS],
            "counts": dict(COUNTS[workload]),
            "allocs": {"algos.distmis_allocs": 7, "soak.step_allocs": 9},
            "failures": [],
        }

    phases = [phase(95), phase(90, run_ns=310), phase(99, run_ns=290)]
    if traced:
        phases.append(phase(95, True, phase_end - base))
    return {
        "workload": workload, "seed": 1, "seconds": 20.0,
        "compiler": "GNU 12.2.0", "build_type": "Release",
        "warmup_ns": 5, "warmup": dict(phase(1), item_ns=[]),
        "peak_rss_kb": 40960, "setup_ns": [70, 80, 90], "phases": phases,
        "spans": spans,
    }


class PercentileRank(unittest.TestCase):
    def test_nearest_rank(self):
        values = list(range(1, 101))
        self.assertEqual(benchlib.percentile(values, 50), 50)
        self.assertEqual(benchlib.percentile(values, 90), 90)
        self.assertEqual(benchlib.percentile(values, 100), 100)
        self.assertEqual(benchlib.percentile(values, 0.5), 1)

    def test_unsorted_and_single(self):
        self.assertEqual(benchlib.percentile([5, 1, 4, 2, 3], 50), 3)
        self.assertEqual(benchlib.percentile([7.5], 90), 7.5)

    def test_p90_leaves_ten_items_beyond_from_100_items(self):
        for n in range(100, 260):
            values = list(range(n))
            p90 = benchlib.percentile(values, 90)
            self.assertGreaterEqual(sum(v > p90 for v in values), 10, n)

    def test_rejects_empty_and_out_of_range(self):
        with self.assertRaises(ValueError):
            benchlib.percentile([], 50)
        with self.assertRaises(ValueError):
            benchlib.percentile([1], 0)
        with self.assertRaises(ValueError):
            benchlib.percentile([1], 101)


class SelfTime(unittest.TestCase):
    def test_leaf_is_its_duration(self):
        self.assertEqual(benchlib.self_times([["a.x", 3, 10, -1, 0]]), [7])

    def test_nested_children_count_only_once(self):
        spans = [["a.root", 0, 100, -1, 0],
                 ["b.child", 10, 50, 0, 0],
                 ["c.grandchild", 20, 30, 1, 0]]
        self.assertEqual(benchlib.self_times(spans), [60, 30, 10])

    def test_overlapping_children_are_unioned(self):
        spans = [["a.root", 0, 100, -1, 0],
                 ["b.one", 10, 30, 0, 0],
                 ["b.two", 20, 50, 0, 0],
                 ["b.three", 20, 50, 0, 0],
                 ["b.four", 70, 80, 0, 0]]
        self.assertEqual(benchlib.self_times(spans)[0], 100 - 40 - 10)

    def test_children_are_clipped_to_the_parent(self):
        spans = [["a.root", 0, 100, -1, 0],
                 ["b.late", 90, 130, 0, 0],
                 ["b.early", -20, 5, 0, 0]]
        self.assertEqual(benchlib.self_times(spans)[0], 100 - 10 - 5)

    def test_covered_union(self):
        self.assertEqual(benchlib.covered([(0, 10), (5, 15), (20, 25)],
                                          0, 100), 20)
        self.assertEqual(benchlib.covered([], 0, 100), 0)


class LayerBreakdown(unittest.TestCase):
    def test_shares_add_up_to_the_traced_run(self):
        for workload in benchlib.WORKLOADS:
            raw = fake_raw(workload, traced=True)
            metrics, breakdown = benchlib.per_layer(raw)
            shares = [metrics["self_share." + layer]
                      for layer in benchlib.SHARE_LAYERS]
            self.assertAlmostEqual(sum(shares) + metrics["self_share.bench"],
                                   1.0, places=12)
            total = (sum(breakdown["layer_self_ns"].values())
                     + breakdown["remainder_ns"])
            self.assertEqual(total, breakdown["traced_run_ns"])

    def test_sec8_layers(self):
        raw = fake_raw("sec8-sweep", traced=True, items=3)
        metrics, _ = benchlib.per_layer(raw)
        self.assertAlmostEqual(metrics["algos.dfs_ms"], 30 / 1e6)
        self.assertAlmostEqual(metrics["coloring.check_ms"], 90 / 1e6)
        self.assertAlmostEqual(metrics["self_share.algos"], 90 / 305)
        self.assertAlmostEqual(metrics["graph.gen_ms"], 60 / 1e6)
        self.assertAlmostEqual(metrics["sim.dfs_ns_per_msg"], 30 / 1.6e6)
        self.assertAlmostEqual(metrics["trace.overhead_pct"],
                               100 * (305 - 300) / 300)
        self.assertEqual(metrics["algos.distmis_allocs"], 7)
        for name in ("tdma.build_ms", "soak.step_ms", "sim.async_events",
                     "self_share.tdma", "soak.init_ms"):
            self.assertEqual(metrics[name], 0.0, name)

    def test_udg_async_over_sync_is_a_ratio_of_the_bases(self):
        metrics, _ = benchlib.per_layer(fake_raw("udg-field", traced=True))
        self.assertAlmostEqual(
            metrics["sim.async_over_sync"],
            metrics["sim.async_ns_per_event"] / metrics["sim.sync_ns_per_msg"])
        self.assertEqual(metrics["sim.async_events"], 2.5e7)
        self.assertAlmostEqual(metrics["sim.async_timer_frac"], 1e6 / 2.5e7)
        self.assertEqual(metrics["tdma.delivered_frac"], 1.0)

    def test_churn_counts(self):
        metrics, _ = benchlib.per_layer(fake_raw("churn-lossy", traced=True))
        self.assertEqual(metrics["soak.repairs"], 730)
        self.assertAlmostEqual(metrics["soak.noop_frac"], 66 / 800)
        self.assertAlmostEqual(metrics["soak.init_ms"], 60 / 1e6)
        self.assertEqual(metrics["soak.step_allocs"], 9)


class EndToEnd(unittest.TestCase):
    def test_run_s_sums_each_items_median_over_passes(self):
        raw = fake_raw("sec8-sweep", False, items=120)
        raw["phases"][1]["item_ns"] = [90] * 119 + [400]
        e2e = benchlib.end_to_end(raw)
        self.assertAlmostEqual(e2e["run_s"], (95 * 119 + 99) / 1e9)
        self.assertAlmostEqual(e2e["item_p50_ms"], 95 / 1e6)
        self.assertAlmostEqual(e2e["setup_s"], 80 / 1e9)
        self.assertAlmostEqual(e2e["peak_rss_mb"], 40.0)
        self.assertAlmostEqual(e2e["slots_mean"], 35.0)
        self.assertAlmostEqual(e2e["rounds_mean"], 180.0)
        self.assertAlmostEqual(e2e["msgs_mean"], 80000.0)

    def test_canary_scales_each_pass_by_its_own_samples(self):
        raw = fake_raw("sec8-sweep", False, items=120)
        ref = benchlib.CANARY_REFERENCE_NS
        # Pass 1 ran on a host twice as slow and pass 2 at the reference
        # speed; pass 0's samples have a median of 1.25x the reference.
        raw["phases"][0]["canary_ns"] = [ref, 1.25 * ref, 3 * ref]
        raw["phases"][1]["item_ns"] = [180] * 120
        raw["phases"][1]["canary_ns"] = [2 * ref]
        raw["setup_ns"] = [100, 160, 90]
        e2e = benchlib.end_to_end(raw)
        # Scaled item times are 76, 90 and 99 ns: the median is 90.
        self.assertAlmostEqual(e2e["run_s"], 90 * 120 / 1e9)
        self.assertAlmostEqual(e2e["wall_run_s"], 99 * 120 / 1e9)
        # Scaled set-ups are 80, 80 and 90 ns.
        self.assertAlmostEqual(e2e["setup_s"], 80 / 1e9)
        self.assertAlmostEqual(e2e["wall_setup_s"], 100 / 1e9)

    def test_churn_means_are_per_event(self):
        e2e = benchlib.end_to_end(fake_raw("churn-lossy", False, items=800))
        self.assertAlmostEqual(e2e["slots_mean"], 50.0)
        self.assertAlmostEqual(e2e["churn_mean"], 3.5)
        self.assertNotIn("rounds_mean", e2e)


class PrintedSchema(unittest.TestCase):
    def test_catalog_covers_the_specification(self):
        for name, unit in SPEC_END_TO_END.items():
            self.assertEqual(benchlib.END_TO_END[name][0], unit, name)
        for name in SPEC_PER_LAYER:
            self.assertIn(name, benchlib.PER_LAYER)
        for layer in SPEC_SHARE_LAYERS:
            self.assertIn("self_share." + layer, benchlib.PER_LAYER)

    def test_benchmark_json_matches_the_catalog(self):
        spec = benchlib.BENCHMARK
        for metric in spec["end_to_end"]:
            unit, workloads = benchlib.END_TO_END[metric["name"]]
            self.assertEqual(metric["unit"], unit)
            self.assertEqual(tuple(workloads), benchlib.WORKLOADS)
            self.assertLessEqual(metric["bound"], 0.25)
        bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
        self.assertEqual(bounds["setup_s"], max(bounds.values()))
        self.assertEqual(
            [(m["name"], m["unit"]) for m in spec["per_layer"]],
            [(name, unit) for name, (unit, _) in benchlib.PER_LAYER.items()])
        self.assertEqual([w["name"] for w in spec["workloads"]],
                         list(benchlib.WORKLOADS))
        for name in benchlib.END_TO_END:
            self.assertLessEqual(benchlib.bound(name), 0.25)

    def test_every_applicable_metric_is_printed_with_its_unit(self):
        for workload in benchlib.WORKLOADS:
            for traced in (False, True):
                items = 120 if workload != "udg-field" else 10
                raw = fake_raw(workload, traced, items=items)
                lines, result = benchlib.render(raw, traced)
                text = "\n".join(lines)
                for name in benchlib.applicable(workload):
                    unit = benchlib.END_TO_END[name][0]
                    self.assertRegex(
                        text, rf"\n  {name} +\S+ {re.escape(unit)} ")
                if traced:
                    for name, (unit, _) in benchlib.PER_LAYER.items():
                        self.assertRegex(
                            text, rf"\n  {re.escape(name)} +\S+ "
                            rf"{re.escape(unit)}(\s|$)")

    def test_result_line_shape(self):
        for workload in benchlib.WORKLOADS:
            for traced in (False, True):
                _, result = benchlib.render(fake_raw(workload, traced),
                                            traced)
                self.assertEqual(set(result),
                                 {"correct", "attempted", "failed",
                                  "metrics"})
                expected = (benchlib.PER_LAYER if traced else benchlib.GATED)
                self.assertEqual(list(result["metrics"]), list(expected))
                for metric in result["metrics"].values():
                    self.assertEqual(set(metric), {"value", "unit"})
                    self.assertIsInstance(metric["value"], (int, float))
                json.dumps(result)

    def test_gated_metrics_are_never_zero(self):
        for workload in benchlib.WORKLOADS:
            _, result = benchlib.render(fake_raw(workload, False), False)
            for name, metric in result["metrics"].items():
                self.assertGreater(metric["value"], 0, (workload, name))

    def test_percentiles_need_one_hundred_items(self):
        raw = fake_raw("churn-lossy", False, items=99)
        self.assertNotIn("item_p90_ms", benchlib.end_to_end(raw))
        raw = fake_raw("churn-lossy", False, items=100)
        self.assertIn("item_p90_ms", benchlib.end_to_end(raw))
        raw = fake_raw("udg-field", False, items=150)
        self.assertNotIn("item_p50_ms", benchlib.end_to_end(raw))

    def test_failures_make_the_run_incorrect(self):
        raw = fake_raw("sec8-sweep", False)
        raw["phases"][0]["failed"] = 2
        raw["phases"][0]["failures"] = ["udg plan=15 n=50: DFS infeasible"]
        lines, result = benchlib.render(raw, False)
        self.assertFalse(result["correct"])
        self.assertEqual(result["failed"], 2)
        self.assertIn("FAILED udg plan=15 n=50: DFS infeasible", lines)


if __name__ == "__main__":
    unittest.main()
