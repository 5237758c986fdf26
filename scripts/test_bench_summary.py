"""Tests the arithmetic of bench_summary.py on hand-made records.

    python3 -m unittest discover -s scripts -p 'test_*.py'
"""
import json
import pathlib
import tempfile
import unittest

import bench_summary

SPEC = {"command": ["python3", "perfbench/run.py"],
        "end_to_end": [{"name": "speed", "unit": "1/s", "better": "higher", "bound": 0.25},
                       {"name": "time_s", "unit": "s", "better": "lower", "bound": 0.25}]}


def record(workload, seed, speed, time_s, correct=True, trace=0, sha="abc"):
    return {"workload": workload, "seed": seed, "trace": trace,
            "env": {"nproc": 4, "heap_mb": 8192, "bench_mem": "8g", "java": "17", "spark": "3.5", "git_sha": sha},
            "result": {"correct": correct, "metrics": {"speed": {"value": speed, "unit": "1/s"},
                                                       "time_s": {"value": time_s, "unit": "s"}}}}


class BenchSummaryTest(unittest.TestCase):
    def test_quartiles_of_one_and_five_runs(self):
        self.assertEqual(bench_summary.quartiles([3.0]), (3.0, 3.0, 3.0))
        self.assertEqual(bench_summary.quartiles([1.0, 2.0, 3.0, 4.0, 5.0]), (2.0, 3.0, 4.0))

    def test_side_leaves_out_failed_runs_and_lists_them(self):
        recs = [record("w", 1, 10.0, 2.0), record("w", 2, 1000.0, 9.0, correct=False), record("w", 3, 12.0, 4.0)]
        s = bench_summary.side(recs, SPEC["end_to_end"])
        self.assertEqual(s["metrics"]["speed"]["median"], 11.0)
        self.assertEqual(s["metrics"]["speed"]["n"], 2)
        self.assertEqual(s["failed_seeds"], [2])
        self.assertEqual(s["seeds"], [1, 2, 3])
        self.assertEqual(s["machine"]["nproc"], 4)
        self.assertEqual(s["git_sha"], "abc")

    def test_pairs_respect_the_direction_of_each_metric(self):
        parent = [record("w", 1, 10.0, 5.0), record("w", 2, 10.0, 5.0), record("w", 3, 10.0, 5.0)]
        change = [record("w", 1, 11.0, 6.0), record("w", 2, 9.0, 4.0), record("w", 4, 50.0, 1.0)]
        p = bench_summary.pairs(parent, change, SPEC["end_to_end"])
        self.assertEqual(p["speed"], {"better": 1, "of": 2})
        self.assertEqual(p["time_s"], {"better": 1, "of": 2})

    def test_main_writes_one_file_per_workload_and_skips_traced_runs(self):
        with tempfile.TemporaryDirectory() as d:
            root = pathlib.Path(d)
            for name in ("parent", "change", "out"):
                (root / name).mkdir()
            (root / "spec.json").write_text(json.dumps(SPEC), encoding="utf-8")
            runs = {"parent": [record("a", 1, 1.0, 1.0, sha="p"), record("b", 1, 2.0, 2.0, sha="p"),
                               record("a", 2, 100.0, 100.0, trace=1, sha="p")],
                    "change": [record("a", 1, 3.0, 1.0, sha="c"), record("b", 1, 4.0, 2.0, sha="c")]}
            for side, recs in runs.items():
                for i, r in enumerate(recs):
                    (root / side / f"{i}.json").write_text(json.dumps(r), encoding="utf-8")
            bench_summary.main([str(root / "parent"), str(root / "change"), "--out-dir", str(root / "out"),
                                "--spec", str(root / "spec.json"), "--date", "2026-01-01"])
            a = json.loads((root / "out" / "BENCH_a.json").read_text(encoding="utf-8"))
            self.assertEqual(sorted(p.name for p in (root / "out").iterdir()), ["BENCH_a.json", "BENCH_b.json"])
            self.assertEqual(a["parent"]["seeds"], [1])
            self.assertEqual(a["parent"]["git_sha"], "p")
            self.assertEqual(a["change"]["metrics"]["speed"]["median"], 3.0)
            self.assertEqual(a["pairs"]["speed"], {"better": 1, "of": 1})
            self.assertEqual(a["date"], "2026-01-01")


if __name__ == "__main__":
    unittest.main()
