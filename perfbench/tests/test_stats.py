"""Self-tests of the metric aggregation (run by `run.py --self-test`)."""

import json
import os
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))

import bench_stats  # noqa: E402


def job(sweep, index, pair, system, total_time, cycles, ok=True,
        digest="d", iterations=200, wall_s=1.0):
    return {"kind": "job", "sweep": sweep, "job": index, "label": "j%d" % index,
            "pair": pair, "system": system, "ok": ok,
            "reason": "" if ok else "deadline", "errors": [],
            "iterations": iterations if ok else 0, "wall_s": wall_s,
            "total_time": total_time, "digest": digest, "cycles_ms": cycles}


class Percentiles(unittest.TestCase):
    def test_linear_interpolation(self):
        xs = [float(v) for v in range(1, 101)]  # 1..100
        self.assertEqual(bench_stats.percentile(xs, 50), 50.5)
        self.assertAlmostEqual(bench_stats.percentile(xs, 95), 95.05)
        self.assertEqual(bench_stats.percentile(xs, 0), 1.0)
        self.assertEqual(bench_stats.percentile(xs, 100), 100.0)
        self.assertEqual(bench_stats.percentile([3.0, 1.0, 2.0], 50), 2.0)

    def test_tail_keeps_ten_samples_beyond(self):
        cases = {19: 50.0, 20: 50.0, 39: 50.0, 40: 75.0, 78: 75.0,
                 99: 75.0, 100: 90.0, 156: 90.0, 199: 90.0, 200: 95.0,
                 312: 95.0, 999: 95.0, 1000: 99.0, 9999: 99.0, 10000: 99.9}
        for n, p in cases.items():
            self.assertEqual(bench_stats.tail_percentile(n), p, n)

    def test_tail_metric_uses_first_sweep_count(self):
        # 2 sweeps x 50 samples: the first sweep's 50 samples select p75,
        # computed over all 100 samples.
        cycles = [float(v) for v in range(1, 51)]
        jobs = [job(0, 0, 0, True, 10.0, cycles), job(1, 0, 0, True, 10.0, cycles)]
        setup = {"setup_s": 1e-5, "jobs": 1}
        metrics, info = bench_stats.end_to_end(setup, {"peak_rss_kb": 2048}, jobs)
        self.assertEqual(info["tail_percentile"], 75.0)
        self.assertEqual(metrics["cycle_tail_ms"],
                         bench_stats.percentile(cycles + cycles, 75.0))
        self.assertEqual(metrics["peak_rss_mb"], 2.0)


class EndToEnd(unittest.TestCase):
    def test_failed_run_counts_wall_but_no_iterations(self):
        jobs = [job(0, 0, 0, True, 90.0, [1.0, 2.0], wall_s=1.0),
                job(0, 1, 0, False, None, [], ok=False, wall_s=9.0)]
        metrics, info = bench_stats.end_to_end(
            {"setup_s": 1e-5, "jobs": 2}, {"peak_rss_kb": 1024}, jobs)
        self.assertEqual(metrics["iters_per_s"], 200 / 10.0)
        self.assertEqual(info["failed_frac"], 0.5)
        self.assertIsNone(info["het_gain_pct"])  # the pair is incomplete

    def test_het_gain_is_mean_over_pairs_of_first_sweep(self):
        jobs = [job(0, 0, 0, True, 90.0, [1.0]), job(0, 1, 0, False, 100.0, [1.0]),
                job(0, 2, 1, True, 80.0, [1.0]), job(0, 3, 1, False, 100.0, [1.0]),
                job(1, 0, 0, True, 50.0, [1.0])]
        self.assertAlmostEqual(bench_stats.het_gain_pct(jobs), 15.0)


class Checks(unittest.TestCase):
    def test_digest_mismatch_fails_the_run(self):
        jobs = [job(0, 0, 0, True, 90.0, [1.0], digest="aa"),
                job(0, 1, 0, False, 100.0, [1.0], digest="bb")]
        expected = {"digests": ["aa", "cc"], "het_gain_pct": repr(10.0)}
        errors = bench_stats.check_outputs(jobs, expected)
        self.assertTrue(jobs[0]["ok"])
        self.assertFalse(jobs[1]["ok"])
        self.assertIn("digest bb, recorded cc", errors[0])

    def test_sweeps_must_repeat_the_first(self):
        jobs = [job(0, 0, 0, True, 90.0, [1.0], digest="aa"),
                job(1, 0, 0, True, 90.0, [1.0], digest="ab")]
        errors = bench_stats.check_outputs(jobs, None)
        self.assertFalse(jobs[1]["ok"])
        self.assertEqual(len(errors), 1)

    def test_het_gain_is_pinned(self):
        jobs = [job(0, 0, 0, True, 90.0, [1.0]), job(0, 1, 0, False, 100.0, [1.0])]
        ok = {"digests": ["d", "d"], "het_gain_pct": repr(10.0)}
        bad = {"digests": ["d", "d"], "het_gain_pct": repr(10.5)}
        self.assertEqual(bench_stats.check_outputs(jobs, ok), [])
        self.assertEqual(len(bench_stats.check_outputs(jobs, bad)), 1)


class BenchmarkJson(unittest.TestCase):
    def test_metric_lists_match(self):
        path = os.path.join(os.path.dirname(os.path.dirname(HERE)),
                            "BENCHMARK.json")
        with open(path) as f:
            spec = json.load(f)
        e2e = {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]}
        self.assertEqual(e2e, bench_stats.END_TO_END)
        layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
        self.assertEqual(layer, bench_stats.PER_LAYER)


if __name__ == "__main__":
    unittest.main()
