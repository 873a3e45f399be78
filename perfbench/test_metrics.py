"""Self-tests of the metric derivations on synthetic inputs.

    python3 perfbench/run.py --selftest      (or python3 -m unittest in perfbench/)
"""

import array
import json
import os
import tempfile
import unittest

import metrics


class PercentileRule(unittest.TestCase):
    def test_needs_ten_samples_beyond(self):
        self.assertFalse(metrics.percentile_reportable(999, 99))
        self.assertTrue(metrics.percentile_reportable(1000, 99))
        self.assertFalse(metrics.percentile_reportable(19, 50))
        self.assertTrue(metrics.percentile_reportable(20, 50))

    def test_too_few_samples_gives_none(self):
        self.assertIsNone(metrics.percentile(list(range(999)), 99))
        self.assertIsNone(metrics.percentile([], 50))

    def test_nearest_rank(self):
        vals = list(range(1, 1001))  # 1..1000
        self.assertEqual(metrics.percentile(vals, 50), 500)
        self.assertEqual(metrics.percentile(vals, 99), 990)
        # exactly ten samples lie beyond the reported p99
        self.assertEqual(sum(1 for v in vals if v > 990), 10)


class Ladder(unittest.TestCase):
    def test_increments(self):
        rungs = {1: 50.0, 2: 48.0, 3: 66.0, 4: 72.0, 5: 76.0, 6: 80.0, 7: 200.0}
        inc = metrics.ladder_increments(rungs)
        self.assertEqual(inc["ring"], 50.0)
        self.assertEqual(inc["list"], -2.0)  # a layer may measure as free
        self.assertEqual(inc["hazard"], 18.0)
        self.assertEqual(inc["async_queue"], 120.0)
        # the increments telescope back to the top rung
        self.assertAlmostEqual(sum(inc.values()), rungs[7])

    def test_missing_lower_rung_drops_layer(self):
        inc = metrics.ladder_increments({2: 100.0, 3: 130.0, 4: 120.0})
        self.assertNotIn("list", inc)
        self.assertEqual(inc["hazard"], 30.0)
        self.assertEqual(inc["segment_pool"], -10.0)

    def test_ns_per_op_pools_thread_time(self):
        ws = [{"active_ns": 4000, "ops": 100}, {"active_ns": 2000, "ops": 20}]
        self.assertEqual(metrics.ns_per_op(ws), 50.0)


class RatioBases(unittest.TestCase):
    def test_empty_base_is_zero(self):
        self.assertEqual(metrics.ratio(5, 0), 0.0)
        self.assertEqual(metrics.ratio(1, 4), 0.25)

    def test_window_mops_is_median_slice_rate(self):
        # 2 ms slices at 8 ops/us, one cut short by a 10 ms host stall
        w = {"slices": [[2_000_000, 16_000]] * 4 + [[12_000_000, 16_000]]}
        self.assertAlmostEqual(metrics.window_mops(w), 8.0)

    def test_setup_is_median_of_round_sums(self):
        ws = [{"round": r, "setup_ns": ns}
              for r, ns in ((0, 1e6), (0, 9e6), (1, 2e6), (1, 9e6), (2, 3e6), (2, 30e6))]
        self.assertAlmostEqual(metrics.setup_seconds(ws), 11e-3)
        self.assertAlmostEqual(metrics.setup_seconds(ws, once_ns=1e9), 1.011)

    def test_failures_count_items(self):
        ok = {"enqueued": 10, "dequeued": 10, "fifo_violations": 0, "correct": True}
        lost = dict(ok, dequeued=7, correct=False)
        corrupt = dict(ok, correct=False)
        self.assertEqual(metrics.window_failures(ok), 0)
        self.assertEqual(metrics.window_failures(lost), 3)
        self.assertEqual(metrics.window_failures(corrupt), 1)

    def test_counter_ratios_and_bases(self):
        counters = {k: 0 for k in ("faa", "cas2_failure", "spin_wait", "empty_transition",
                                   "unsafe_transition", "crq_close", "wcq_slow_path",
                                   "crq_append", "segment_alloc", "segment_reuse")}
        counters.update(faa=1200, crq_append=4, segment_alloc=2, segment_reuse=6,
                        crq_close=4)
        raw = {"nproc": 4, "windows": [
            {"pass": "traced", "backend": b, "threads": 4, "ops": 1000, "empties": 0,
             "counters": counters} for b in metrics.BACKENDS]}
        m = metrics._counter_ratios(raw)
        self.assertAlmostEqual(m["ring.faa_per_op"], 1.2)
        self.assertAlmostEqual(m["ring.ticket_yield"], 1000 / 1200)
        self.assertEqual(m["ring.faa_base"], 1200)
        self.assertAlmostEqual(m["list.append_win_ratio"], 0.5)      # 4 of 8 obtained
        self.assertAlmostEqual(m["segment_pool.reuse_ratio"], 0.75)  # 6 of 8 obtained
        self.assertEqual(m["lscq.list.segments_obtained"], 8)
        self.assertAlmostEqual(m["lwcq.ring.close_per_kop"], 4.0)


class Spec(unittest.TestCase):
    def test_benchmark_json_matches_derivation_tables(self):
        with open(os.path.join(os.path.dirname(__file__), "..", "BENCHMARK.json")) as f:
            spec = json.load(f)
        self.assertEqual([(m["name"], m["unit"]) for m in spec["per_layer"]],
                         metrics.per_layer_spec())
        self.assertEqual([(m["name"], m["unit"], m["better"], m["bound"])
                          for m in spec["end_to_end"]], list(metrics.END_TO_END))
        names = [m["name"] for m in spec["per_layer"] + spec["end_to_end"]]
        self.assertEqual(len(names), len(set(names)))


def synthetic_pairs_run(lost=0):
    """An untraced pairs run: 3 rounds of every backend at 1 and 4 threads,
    with lcrq's round-0 window at 4 threads carrying latency samples; `lost`
    items go missing from that window."""
    windows = []
    for r in range(3):
        for b in metrics.BACKENDS:
            for t in (1, 4):
                sampled = b == "lcrq" and t == 4 and r == 0
                windows.append({
                    "pass": "main", "kind": "pairs", "backend": b, "rung": 0,
                    "round": r, "threads": t, "ops": 1_000_000 * (r + 1),
                    "active_ns": t * 100_000_000, "setup_ns": 1_000_000,
                    "slices": [[2_000_000, 20_000 * (r + 1)]] * 3,
                    "empties": 0, "refused": 0, "enqueued": 10,
                    "dequeued": 10 - (lost if sampled else 0),
                    "fifo_violations": 0, "rss_peak_mb": 4.0 + r,
                    "correct": not (lost and sampled), "error": "",
                    "lat_file": "lat.u32" if sampled and not lost else "",
                    "span_file": "", "counters": {}})
    return {"workload": "pairs", "trace": 0, "nproc": 4, "tsc_per_ns": 2.0,
            "host": {"span_ns": 100, "stalled_ns": 10, "gaps": 1, "longest_ns": 10},
            "windows": windows, "dispatch": []}


class Derive(unittest.TestCase):
    """derive() end to end on synthetic untraced pairs runs."""

    def test_failed_run_still_reports(self):
        # the thread that lost items left no latency samples
        m, correct, attempted, failed, notes = metrics.derive(
            synthetic_pairs_run(lost=3), "/nonexistent")
        self.assertFalse(correct)
        self.assertEqual((attempted, failed), (180, 3))
        self.assertEqual({v for v, _ in m.values()}, {0.0})
        self.assertEqual([n for n, *_ in metrics.END_TO_END], list(m))
        with self.assertRaises(metrics.DerivationError):  # a correct run must measure all
            run = synthetic_pairs_run()
            next(w for w in run["windows"] if w["lat_file"])["lat_file"] = ""
            metrics.derive(run, "/nonexistent")

    def test_untraced_pairs(self):
        with tempfile.TemporaryDirectory() as d:
            with open(os.path.join(d, "lat.u32"), "wb") as f:
                array.array("I", range(1000, 3000)).tofile(f)
            m, correct, attempted, failed, _ = metrics.derive(synthetic_pairs_run(), d)
        self.assertTrue(correct)
        self.assertEqual((attempted, failed), (180, 0))
        self.assertAlmostEqual(m["lcrq.mops"][0], 20.0)    # median of 10, 20, 30
        self.assertAlmostEqual(m["lwcq.peak_rss_mb"][0], 5.0)
        self.assertAlmostEqual(m["setup_s"][0], 6e-3)      # six windows a round
        self.assertAlmostEqual(m["e2e_p50_us"][0], 1.999)
        self.assertEqual([n for n, *_ in metrics.END_TO_END], list(m))


if __name__ == "__main__":
    unittest.main()
