"""Tests of the benchmark's own arithmetic.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import json
import pathlib
import unittest

import harness
import run

ROOT = pathlib.Path(__file__).resolve().parent.parent


class TailPercentile(unittest.TestCase):
    def test_too_few_samples_give_no_tail(self):
        self.assertIsNone(harness.tail(list(range(99))))

    def test_p90_needs_ten_samples_beyond_it(self):
        p, v = harness.tail([float(i) for i in range(1, 101)])
        self.assertEqual(p, 90.0)
        self.assertEqual(v, 90.0)

    def test_p99_from_a_thousand_samples(self):
        p, v = harness.tail([float(i) for i in range(1, 1001)])
        self.assertEqual(p, 99.0)
        self.assertEqual(v, 990.0)

    def test_median(self):
        self.assertEqual(harness.median([3.0, 1.0, 2.0]), 2.0)
        self.assertEqual(harness.median([4.0, 1.0, 2.0, 3.0]), 2.5)

    def test_p50_metric_is_the_median_of_its_samples(self):
        defs = [{"name": "pstrainer.step_ms_p50"}, {"name": "codec.decode_ms"}]
        got = harness.reduce_samples(defs, {"pstrainer.step_ms": [5.0, 1.0, 9.0], "codec.decode_ms": [7.0]})
        self.assertEqual(got, {"pstrainer.step_ms_p50": (5.0, 3), "codec.decode_ms": (7.0, 1)})

    def test_missing_samples_are_an_error(self):
        with self.assertRaises(KeyError):
            harness.reduce_samples([{"name": "flat_s"}], {})


class MetricNames(unittest.TestCase):
    def test_pattern(self):
        for ok in ("setup_s", "nn.gat.L1.fwd_ms", "vectorize.active_rows_frac.L2", "uug-infer"):
            self.assertTrue(harness.NAME_RE.fullmatch(ok), ok)
        for bad in ("a b", "x/y", "ms×", "", "p99%"):
            self.assertFalse(harness.NAME_RE.fullmatch(bad), bad)

    def test_every_spec_name_matches(self):
        harness.validate_spec(harness.SPEC)

    def test_bad_names_are_refused(self):
        spec = json.loads(harness.dump_spec(harness.SPEC))
        spec["per_layer"].append({"name": "bad name", "unit": "ms", "better": "lower"})
        with self.assertRaises(ValueError):
            harness.validate_spec(spec)

    def test_every_per_layer_metric_names_what_it_moves(self):
        e2e = {m["name"] for m in harness.SPEC["end_to_end"]}
        workloads = {w["name"] for w in harness.SPEC["workloads"]}
        for m in harness.SPEC["per_layer"]:
            target, wls = harness.moves(m["name"])
            self.assertIn(target, e2e)
            self.assertTrue(set(wls) <= workloads)


class Regressions(unittest.TestCase):
    spec = {"end_to_end": [
        {"name": "pipeline_s", "unit": "s", "better": "lower", "bound": 0.1},
        {"name": "infer_nodes_per_s", "unit": "1/s", "better": "higher", "bound": 0.1},
    ]}

    def test_within_bound_passes(self):
        base = {"w": {"pipeline_s": [10.0, 10.0, 10.0], "infer_nodes_per_s": [100.0]}}
        new = {"w": {"pipeline_s": [10.9, 11.0, 10.5], "infer_nodes_per_s": [91.0]}}
        self.assertEqual(harness.regressions(self.spec, base, new), [])

    def test_slower_time_beyond_bound_fails(self):
        base = {"w": {"pipeline_s": [10.0, 10.0, 10.0]}}
        new = {"w": {"pipeline_s": [11.5, 11.2, 9.0]}}
        self.assertEqual(harness.regressions(self.spec, base, new), [("w", "pipeline_s", 10.0, 11.2)])

    def test_lower_throughput_beyond_bound_fails(self):
        base = {"w": {"infer_nodes_per_s": [100.0]}}
        new = {"w": {"infer_nodes_per_s": [89.0]}}
        self.assertEqual(len(harness.regressions(self.spec, base, new)), 1)

    def test_improvement_is_not_a_regression(self):
        base = {"w": {"pipeline_s": [10.0], "infer_nodes_per_s": [100.0]}}
        new = {"w": {"pipeline_s": [5.0], "infer_nodes_per_s": [300.0]}}
        self.assertEqual(harness.regressions(self.spec, base, new), [])

    def test_missing_workload_is_a_regression(self):
        base = {"w": {"pipeline_s": [10.0]}, "v": {"pipeline_s": [1.0]}}
        new = {"w": {"pipeline_s": [10.0]}}
        self.assertEqual(harness.regressions(self.spec, base, new), [("v", "pipeline_s", 1.0, None)])

    def test_missing_metric_is_a_regression(self):
        base = {"w": {"pipeline_s": [10.0], "infer_nodes_per_s": [100.0]}}
        new = {"w": {"pipeline_s": [10.0]}}
        self.assertEqual(harness.regressions(self.spec, base, new), [("w", "infer_nodes_per_s", 100.0, None)])

    @staticmethod
    def record(wl, seed, correct, value, trace=0):
        return {"workload": wl, "seed": seed, "trace": trace,
                "result": {"correct": correct, "metrics": {"pipeline_s": {"value": value, "unit": "s"}}}}

    def test_failed_runs_are_left_out_and_reported(self):
        per, failed = harness.gather([self.record("w", 1, True, 10.0), self.record("w", 2, False, 1.0),
                                      self.record("w", 3, True, 99.0, trace=1)])
        self.assertEqual(per, {"w": {"pipeline_s": [10.0]}})
        self.assertEqual(failed, [("w", 2)])

    def test_workload_whose_runs_all_failed_is_a_regression(self):
        base, _ = harness.gather([self.record("w", 1, True, 10.0)])
        new, failed = harness.gather([self.record("w", 1, False, 10.0)])
        self.assertEqual(failed, [("w", 1)])
        self.assertEqual(harness.regressions(self.spec, base, new), [("w", "pipeline_s", 10.0, None)])


class SpecFile(unittest.TestCase):
    def test_committed_benchmark_json_is_the_spec(self):
        text = (ROOT / "BENCHMARK.json").read_text(encoding="utf-8")
        self.assertEqual(json.loads(text), harness.SPEC)
        self.assertEqual(harness.dump_spec(json.loads(text)), text)

    def test_result_object_keys(self):
        samples = {m["name"]: [1.0, 2.0, 3.0] for m in harness.SPEC["end_to_end"]}
        raw = {"samples": samples, "calls": 3, "checks": [{"name": "c", "ok": True}, {"name": "d", "ok": False}]}
        result, lines = run.result_of(raw, trace=False)
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertEqual((result["correct"], result["attempted"], result["failed"]), (False, 5, 1))
        self.assertEqual(set(result["metrics"]), {m["name"] for m in harness.SPEC["end_to_end"]})
        self.assertEqual(result["metrics"]["setup_s"], {"value": 2.0, "unit": "s"})
        self.assertTrue(any(line.startswith("error_rate") for line in lines))


if __name__ == "__main__":
    unittest.main()
