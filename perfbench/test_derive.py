"""Tests of the benchmark's metric derivation (no build needed).

    python3 perfbench/test_derive.py
"""

import json
import os
import statistics
import unittest

import derive

HERE = os.path.dirname(os.path.abspath(__file__))


def run_record(digest="d1", dur=2.0, role="timed", input=0, **overrides):
    record = {
        "span": "core/run", "start_s": 0.0, "dur_s": dur, "role": role,
        "input": input,
        "spin_ms": 30.0, "cpu_s": dur, "ok": True, "episodes_expected": 4,
        "episodes_completed": 4, "interrupted": False, "base_score": 0.5,
        "best_score": 0.7, "total_steps": 40, "downstream_evaluations": 10,
        "digest": digest,
    }
    record.update(overrides)
    return record


def setup_records(durations):
    return [{"span": "setup", "start_s": 0.0, "dur_s": d} for d in durations]


PROCESS = {"span": "process", "peak_rss_mb": 30.0, "threads": 2}


class SummaryTest(unittest.TestCase):
    def test_median_and_quartiles_carry_the_sample_count(self):
        values = [5.0, 1.0, 4.0, 2.0, 3.0, 9.0, 7.0]
        s = derive.summarize(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        self.assertEqual((s.median, s.q1, s.q3, s.n), (4.0, q1, q3, 7))

    def test_one_sample_is_its_own_quartiles(self):
        self.assertEqual(derive.summarize([2.5]), derive.Summary(2.5, 2.5, 2.5, 1))

    def test_no_samples_is_an_error(self):
        with self.assertRaises(ValueError):
            derive.summarize([])


class RatioTest(unittest.TestCase):
    def test_ratio_keeps_its_base(self):
        r = derive.ratio(3, 12)
        self.assertEqual((r.value, r.numerator, r.base), (0.25, 3, 12))

    def test_zero_base_reads_zero_with_the_base_stated(self):
        self.assertEqual(derive.ratio(0, 0), derive.Ratio(0.0, 0, 0))


class DigestTest(unittest.TestCase):
    def test_reference_is_the_majority_digest(self):
        self.assertEqual(derive.reference_digest(["b", "a", "a"]), "a")

    def test_tie_goes_to_the_earliest_digest(self):
        self.assertEqual(derive.reference_digest(["b", "a"]), "b")
        self.assertIsNone(derive.reference_digest([]))

    def test_a_run_with_another_digest_fails_and_leaves_the_medians(self):
        records = [run_record("d1", 2.0), run_record("d1", 2.2),
                   run_record("dX", 9.0), run_record("d1", 2.4)]
        inv = derive.Invocation(records + setup_records([0.1]) + [PROCESS])
        self.assertEqual(inv.reference, "d1")
        self.assertEqual((inv.attempted, inv.failed), (4, 1))
        self.assertIn("digest dX != d1", inv.failures[0][1])
        mean, summary = inv.end_to_end()["run_s"]
        self.assertAlmostEqual(mean, 2.2)
        self.assertEqual((summary.median, summary.n), (2.2, 3))

    def test_traced_and_untraced_runs_share_one_reference(self):
        records = [run_record("d1"), run_record("d2", role="traced")]
        inv = derive.Invocation(records + [PROCESS])
        self.assertEqual(inv.failed, 1)
        self.assertEqual(inv.traced(), [])

    def test_each_input_has_its_own_reference(self):
        records = [run_record("a", role="warmup"), run_record("a"),
                   run_record("b", input=1)]
        inv = derive.Invocation(records + [PROCESS])
        self.assertEqual(inv.failed, 0)
        self.assertEqual(inv.references, {0: "a", 1: "b"})


class RunGateTest(unittest.TestCase):
    def test_a_good_run_passes(self):
        self.assertEqual(derive.run_failures(run_record(), "d1"), [])

    def test_each_check(self):
        cases = {
            "status": dict(ok=False, error="Internal: boom"),
            "incomplete": dict(episodes_completed=3),
            "interrupted": dict(interrupted=True),
            "non-finite": dict(best_score=None),
            "below": dict(best_score=0.4),
        }
        for name, overrides in cases.items():
            with self.subTest(name):
                self.assertEqual(
                    len(derive.run_failures(run_record(**overrides), "d1")), 1)

    def test_probe_outputs_must_repeat(self):
        same = [{"output": 1.5}, {"output": 1.5}]
        self.assertEqual(derive.probe_failures(same), [])
        self.assertEqual(len(derive.probe_failures(
            [{"output": 1.5}, {"output": 1.6}])), 1)
        self.assertEqual(len(derive.probe_failures(
            [{"output": 2, "columns": 12, "covered": 11}])), 1)


class PhaseTest(unittest.TestCase):
    def test_sequential_phases_and_ignored_containers(self):
        spans = [("engine/step", 0, 100), ("engine/select_action", 0, 30),
                 ("engine/evaluate", 40, 50), ("engine/select_action", 100, 10)]
        busy, calls = derive.phase_self_times(spans)
        self.assertAlmostEqual(busy["core.select"], 40e-9)
        self.assertAlmostEqual(busy["ml.evaluator"], 50e-9)
        self.assertEqual(calls["core.select"], 2)
        self.assertEqual(calls["nn.train"], 0)

    def test_nested_phase_time_goes_to_the_inner_phase(self):
        spans = [("engine/finetune", 0, 100), ("engine/evaluate", 10, 30)]
        busy, _ = derive.phase_self_times(spans)
        self.assertAlmostEqual(busy["nn.train"], 70e-9)
        self.assertAlmostEqual(busy["ml.evaluator"], 30e-9)

    def test_phases_plus_remainder_sum_to_the_traced_run(self):
        spans = [("engine/select_action", 0, 400_000_000),
                 ("engine/evaluate", 500_000_000, 300_000_000)]
        busy, _, rest = derive.phase_accounting(spans, 1.0)
        self.assertAlmostEqual(rest, 0.3)
        self.assertAlmostEqual(sum(busy.values()) + rest, 1.0)

    def test_phases_longer_than_the_run_are_an_error(self):
        with self.assertRaises(derive.AccountingError):
            derive.phase_accounting([("engine/evaluate", 0, 2_000_000_000)], 1.0)


def trace(spans, **counters):
    return {"main_spans": spans, "span_totals": {"forest/fit_tree": [3, 5e8]},
            "dropped_spans": 0, "counters": counters,
            "histograms": {"pool.queue_wait_us": {"bounds": [10.0, 100.0],
                                                  "counts": [1, 1, 0]}},
            "cache": {"lookups": 4, "hits": 1, "tokens_reused": 30,
                      "tokens_encoded": 10},
            "recorded_events": 5, "recorded_dropped": 0,
            "checkpoint_bytes": 100}


class PerLayerTest(unittest.TestCase):
    def test_traced_inputs_are_summed_and_ratios_keep_their_base(self):
        second = 1_000_000_000
        records = [
            run_record("a", dur=1.0), run_record("b", dur=3.0, input=1),
            run_record("a", dur=1.5, role="traced", trace=trace(
                [("engine/select_action", 0, second // 2)],
                **{"evaluator.evaluations": 2})),
            run_record("b", dur=3.5, role="traced", input=1, trace=trace(
                [("engine/evaluate", 0, 3 * second)],
                **{"evaluator.evaluations": 6})),
            {"span": "data/generate", "dur_s": 0.01},
            {"span": "ml/evaluate_call", "dur_s": 0.002, "output": 0.5},
            {"span": "core/cluster_call", "dur_s": 1e-4, "output": 2,
             "columns": 8, "covered": 8},
            {"span": "nn/predict_call", "dur_s": 2e-4, "output": 0.1},
        ] + setup_records([0.1]) + [PROCESS]
        values, phases = derive.Invocation(records).per_layer()
        self.assertAlmostEqual(values["core.engine.traced_run_s"], 5.0)
        self.assertAlmostEqual(values["core.select.busy_s"], 0.5)
        self.assertAlmostEqual(values["ml.evaluator.busy_s"], 3.0)
        self.assertAlmostEqual(values["core.engine.unattributed_s"], 1.5)
        self.assertAlmostEqual(sum(busy for busy, _ in phases.values()), 5.0)
        self.assertEqual(values["ml.evaluator.evaluations"], 8)
        self.assertAlmostEqual(values["ml.forest.fit_tree_s"], 1.0)
        self.assertAlmostEqual(values["trace.overhead_ratio"], 0.25)
        self.assertAlmostEqual(values["trace.untraced_run_s"], 4.0)
        self.assertEqual(values["nn.encode_cache.hit_ratio"], 0.25)
        self.assertEqual(values["nn.encode_cache.lookups"], 8)
        self.assertEqual(values["nn.encode_cache.reuse_ratio"], 0.75)
        self.assertEqual(values["nn.encode_cache.tokens_requested"], 80)
        self.assertEqual(values["common.pool.queue_wait_us.p50"], 10.0)
        self.assertAlmostEqual(values["common.pool.parallel_eff"], 0.5)
        self.assertEqual((values["bench.failed_ratio"], values["bench.attempted"]),
                         (0.0, 7))
        self.assertEqual(set(values), set(derive.PER_LAYER))


class HistogramTest(unittest.TestCase):
    def test_quantile_is_the_bucket_upper_bound(self):
        h = {"bounds": [10.0, 100.0, 1000.0], "counts": [5, 4, 1, 0]}
        self.assertEqual(derive.histogram_quantile(h, 0.5), 10.0)
        self.assertEqual(derive.histogram_quantile(h, 0.9), 100.0)
        self.assertEqual(derive.histogram_quantile(h, 0.99), 1000.0)

    def test_empty_and_overflow(self):
        self.assertEqual(derive.histogram_quantile(None, 0.5), 0.0)
        h = {"bounds": [10.0], "counts": [0, 3]}
        self.assertEqual(derive.histogram_quantile(h, 0.5), 10.0)


class ContractTest(unittest.TestCase):
    def test_metric_tables_match_benchmark_json(self):
        with open(os.path.join(HERE, os.pardir, "BENCHMARK.json")) as f:
            spec = json.load(f)
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]},
                         derive.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]},
                         derive.PER_LAYER)


if __name__ == "__main__":
    unittest.main()
