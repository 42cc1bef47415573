"""Tests of the benchmark's own arithmetic (perfbench/benchstats.py).

    python3 perfbench/test_benchstats.py
"""

import copy
import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import benchstats  # noqa: E402

COUNT_NAMES = list(benchstats.COUNT_METRICS.values()) + ["dir.llc_read_hits"]


def sim(mode, batch, label, run_s=1.0, ok=True, image="00ab", counts=None):
    c = {name: 0 for name in COUNT_NAMES}
    c.update(counts or {})
    return {"kind": "sim", "mode": mode, "batch": batch, "label": label,
            "ok": ok, "error": "" if ok else "verify failed",
            "cycles": 100, "events": 40, "image": image, "records": 0,
            "construct_s": 0.25, "setup_s": 0.05, "run_s": run_s,
            "verify_s": 0.01, "decode_s": 0.0, "footprint_mb": 2.0,
            "counts": c}


def batch(mode, index, wall_s, slowdown=1.0):
    """A batch whose calibration slices ran ``slowdown`` times slower
    than the reference."""
    return {"kind": "batch", "mode": mode, "batch": index, "wall_s": wall_s,
            "slices": 10, "calib_s": 10 * benchstats.REF_SLICE_S * slowdown}


def span(sim_id, span_id, parent, name, t0, t1):
    return {"kind": "span", "sim": sim_id, "id": span_id, "parent": parent,
            "name": name, "t0": t0, "t1": t1}


def plain_run(walls):
    """An untraced run: a warm-up batch, then one plain batch of two
    simulations per wall time."""
    rows = []
    for i, w in enumerate([1.0] + walls):
        mode = "plain" if i else "warmup"
        rows.append(batch(mode, i, w))
        rows.append(sim(mode, i, "a", run_s=w / 2))
        rows.append(sim(mode, i, "b", run_s=w / 4))
    rows.append({"kind": "process", "peak_rss_mb": 12.5})
    return rows


def traced_run():
    """Two plain, two traced and one check-off batch."""
    rows = plain_run([2.0, 2.2])
    counts = {"dir.llc_reads": 80, "dir.llc_read_hits": 20}
    for b in (3, 4):
        rows.append(batch("traced", b, 2.5))
        rows.append(sim("traced", b, "a", counts=counts))
        rows.append(sim("traced", b, "b", counts=counts))
        for sid in (1, 2):
            sid += 10 * b
            rows.append(span(sid, 1, 0, "sim", 0.0, 1.0))
            rows.append(span(sid, 2, 1, "run", 0.0, 0.5))
    rows.append(batch("checkoff", 5, 1.0))
    rows.append(sim("checkoff", 5, "a", run_s=0.3))
    rows.append(sim("checkoff", 5, "b", run_s=0.3))
    return rows


class Percentiles(unittest.TestCase):
    def test_median(self):
        self.assertEqual(benchstats.median([3, 1, 2]), 2)
        self.assertEqual(benchstats.median([4, 1, 3, 2]), 2.5)

    def test_tail_has_ten_samples_beyond(self):
        values = list(range(1, 26))  # 25 samples
        pct, value = benchstats.tail_percentile(values)
        self.assertEqual(value, 15)
        self.assertEqual(sum(1 for v in values if v > value), 10)
        self.assertAlmostEqual(pct, 60.0)

    def test_tail_needs_eleven_samples(self):
        self.assertIsNone(benchstats.tail_percentile(list(range(10))))
        pct, value = benchstats.tail_percentile(list(range(11)))
        self.assertEqual(value, 0)
        self.assertAlmostEqual(pct, 100.0 / 11)

    def test_tail_ignores_input_order(self):
        values = [5.0, 1.0, 9.0, 3.0] * 5  # 20 samples
        pct, value = benchstats.tail_percentile(values)
        self.assertEqual(value, 3.0)
        self.assertAlmostEqual(pct, 50.0)


class SelfTime(unittest.TestCase):
    def test_children_overlap_counted_once(self):
        spans = [span(1, 1, 0, "sim", 0.0, 10.0),
                 span(1, 2, 1, "construct", 1.0, 3.0),
                 span(1, 3, 1, "setup", 2.0, 4.0),
                 span(1, 4, 1, "run", 5.0, 6.0)]
        got = {s["name"]: t for s, t in benchstats.self_times(spans)}
        self.assertAlmostEqual(got["sim"], 10.0 - 3.0 - 1.0)
        self.assertAlmostEqual(got["construct"], 2.0)
        self.assertAlmostEqual(got["run"], 1.0)

    def test_child_clipped_to_parent(self):
        self.assertAlmostEqual(
            benchstats.covered_length([(-1.0, 2.0), (9.0, 12.0)], 0.0, 10.0),
            3.0)

    def test_spans_of_other_simulations_are_not_children(self):
        spans = [span(1, 1, 0, "sim", 0.0, 4.0),
                 span(2, 1, 0, "sim", 4.0, 8.0),
                 span(2, 2, 1, "run", 4.0, 7.0)]
        got = [t for _, t in benchstats.self_times(spans)]
        self.assertEqual(got[:2], [4.0, 1.0])


class Ratios(unittest.TestCase):
    def test_empty_base_is_zero(self):
        self.assertEqual(benchstats.ratio(5, 0), 0.0)
        self.assertEqual(benchstats.ratio(1, 4), 0.25)

    def test_llc_hit_ratio_and_base(self):
        m = benchstats.per_layer(traced_run())
        self.assertEqual(m["protocol.dir.llc_reads"][0], 160)
        self.assertAlmostEqual(m["protocol.dir.llc_hit_ratio"][0], 0.25)

    def test_checker_share_and_base(self):
        m = benchstats.per_layer(traced_run())
        # plain run_s per batch: 1.5 and 1.65 -> median 1.575
        self.assertAlmostEqual(m["sim.checker.run_on_s"][0], 1.575)
        self.assertAlmostEqual(m["sim.checker.share"][0], 1 - 0.6 / 1.575)

    def test_self_times_per_traced_batch(self):
        m = benchstats.per_layer(traced_run())
        self.assertEqual(m["bench.traced_batches"][0], 2)
        self.assertAlmostEqual(m["core.run_s"][0], 1.0)
        self.assertAlmostEqual(m["bench.sim_self_s"][0], 1.0)
        self.assertAlmostEqual(m["bench.trace_overhead_s"][0], 2.5 - 2.1)
        self.assertEqual(m["sim.samples"][0], 4)
        self.assertEqual(m["sim.wall_ms.tail"][0], 0.0)

    def test_end_to_end(self):
        rows = plain_run([2.0, 3.0, 2.5])
        rows[5]["ok"] = False
        m = benchstats.end_to_end(rows)
        self.assertEqual(m["wall_s"], (2.5, "s"))
        self.assertAlmostEqual(m["setup_s"][0], 0.6)
        self.assertAlmostEqual(m["run_s"][0], 2.5 * 0.75)
        self.assertEqual(m["peak_rss_mb"], (12.5, "MB"))
        self.assertEqual(benchstats.outcome(rows), (8, 1))
        self.assertAlmostEqual(m["pass_ratio"][0], 7 / 8)


class SpeedFactor(unittest.TestCase):
    def test_slow_host_scaled_back(self):
        rows = plain_run([2.0, 3.0])
        for r in rows:
            if r["kind"] == "batch":
                r["calib_s"] *= 2.0
        m = benchstats.end_to_end(rows)
        self.assertAlmostEqual(m["wall_s"][0], 1.25)
        self.assertAlmostEqual(m["run_s"][0], 1.25 * 0.75)

    def test_factor_pools_slices_over_batches(self):
        batches = [batch("plain", 0, 1.0, slowdown=1.0),
                   batch("plain", 1, 1.0, slowdown=3.0)]
        batches[1]["slices"] = 30  # 3x the slices, each 1x slower
        batches[1]["calib_s"] = 30 * benchstats.REF_SLICE_S
        self.assertAlmostEqual(benchstats.speed_factor(batches), 1.0)
        batches[1]["calib_s"] *= 3.0  # 40 slices in 100 slice-times
        self.assertAlmostEqual(benchstats.speed_factor(batches), 0.4)

    def test_per_layer_reports_raw_time_and_slowdown(self):
        rows = traced_run()
        for r in rows:
            if r["kind"] == "batch":
                r["calib_s"] *= 2.0
        m = benchstats.per_layer(rows)
        self.assertAlmostEqual(m["bench.host_slowdown"][0], 2.0)
        self.assertAlmostEqual(m["bench.raw_wall_s"][0], 2.1)
        self.assertAlmostEqual(m["core.run_s"][0], 0.5)


class Digests(unittest.TestCase):
    def test_identical_batches_pass(self):
        self.assertEqual(benchstats.check(plain_run([1.0, 1.1, 1.2])), [])

    def test_perturbed_image_detected(self):
        rows = plain_run([1.0, 1.1, 1.2])
        rows[-3]["image"] = "00ac"  # batch 3, simulation "a"
        problems = benchstats.check(rows)
        self.assertEqual(len(problems), 1)
        self.assertIn("batch 3", problems[0])

    def test_traced_batch_disagreeing_with_plain_detected(self):
        rows = plain_run([1.0])
        traced = sim("traced", 2, "a")
        traced["cycles"] += 1
        rows += [batch("traced", 2, 1.0), traced, sim("traced", 2, "b")]
        self.assertEqual(len(benchstats.check(rows)), 1)

    def test_counts_must_repeat(self):
        a = sim("traced", 0, "a", counts={"mem.reads": 5})
        b = copy.deepcopy(a)
        b["batch"] = 1
        self.assertEqual(benchstats.count_mismatches([a, b]), [])
        b["counts"]["mem.reads"] = 6
        self.assertEqual(benchstats.count_mismatches([a, b]), [(1, "a")])

    def test_failed_simulation_reported(self):
        rows = plain_run([1.0])
        rows[4].update(ok=False, error="verify failed")
        self.assertEqual(benchstats.check(rows), ["a: verify failed"])


if __name__ == "__main__":
    unittest.main()
