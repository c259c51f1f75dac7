#!/usr/bin/env python3
"""Tests of the benchmark harness itself, on tiny problems (--smoke).

    python3 hplbench/test_hplbench.py

Builds the harness on first use, like run.py.
"""

import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(workload, trace, seed=1, cwd=ROOT):
    """Runs the benchmark in smoke mode; returns (exit code, record, result)."""
    p = subprocess.run(
        [sys.executable, "hplbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", "0.5", "--trace", str(trace),
         "--smoke"], cwd=cwd, capture_output=True, text=True, timeout=600)
    lines = p.stdout.strip().splitlines()
    if len(lines) < 2:
        return p.returncode, None, None
    return p.returncode, json.loads(lines[-2])["record"], json.loads(lines[-1])


def spans_file(workload, seed=1):
    return ROOT / ".bench_out" / f"spans-{workload}-seed{seed}-trace1.json"


class MetricSets(unittest.TestCase):
    def test_smoke_emits_exactly_the_declared_metrics(self):
        for w in WORKLOADS:
            for trace, key in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=w, trace=trace):
                    code, record, result = run(w, trace)
                    self.assertEqual(code, 0, record)
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    declared = {m["name"]: m["unit"] for m in SPEC[key]}
                    got = {k: v["unit"] for k, v in result["metrics"].items()}
                    self.assertEqual(got, declared)
                    for name, v in result["metrics"].items():
                        self.assertIsInstance(v["value"], (int, float), name)
                    self.assertEqual(set(record["samples"]), set(declared))

    def test_every_metric_is_tagged(self):
        doc = json.loads((HERE / "metrics.json").read_text())
        self.assertEqual(set(doc["per_layer"]), {m["name"] for m in SPEC["per_layer"]})
        self.assertEqual(set(doc["end_to_end"]), {m["name"] for m in SPEC["end_to_end"]})
        for name, tag in doc["per_layer"].items():
            self.assertIn(tag["source"], {"reported", "probe", "ceiling", "derived", "modeled"}, name)
            self.assertIn(tag["clock"], {"measured", "modeled", "count"}, name)
            self.assertEqual(tag["clock"] == "modeled", tag["source"] == "modeled", name)
            self.assertTrue(tag["moves"] and tag["definition"], name)


class Spans(unittest.TestCase):
    def test_spans_nest_and_self_times_are_non_negative(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                code, record, _ = run(w, 1)
                self.assertEqual(code, 0, record)
                events = json.loads(spans_file(w).read_text())["traceEvents"]
                by_id = {e["args"]["id"]: e for e in events}
                children = {}
                eps = 1e-3  # microseconds; timestamps are printed to 1 ns
                for e in events:
                    parent = e["args"]["parent"]
                    if parent == 0:
                        continue
                    self.assertIn(parent, by_id)
                    p = by_id[parent]
                    self.assertEqual(e["args"]["group"], p["args"]["group"])
                    self.assertGreaterEqual(e["ts"], p["ts"] - eps, e)
                    self.assertLessEqual(e["ts"] + e["dur"], p["ts"] + p["dur"] + eps, e)
                    children.setdefault(parent, []).append((e["ts"], e["ts"] + e["dur"]))
                for sid, e in by_id.items():
                    covered, hi = 0.0, None
                    for a, b in sorted(children.get(sid, [])):
                        if hi is None or a > hi:
                            covered += b - a
                            hi = b
                        elif b > hi:
                            covered += b - hi
                            hi = b
                    self_us = e["dur"] - covered
                    self.assertGreaterEqual(self_us, -eps, e)
                    self.assertAlmostEqual(self_us, e["args"]["self_us"], delta=1e-2)
                names = {e["name"] for e in events}
                self.assertTrue({"world.run", "core.run_hpl", "core.iteration"} <= names)
                ranks = record["config"]["ranks"]
                for world in (e for e in events if e["name"] == "world.run"):
                    kids = [e for e in events if e["args"]["parent"] == world["args"]["id"]]
                    self.assertEqual(len(kids), ranks)
                    self.assertTrue(all(k["name"] == "core.run_hpl" for k in kids))


class Seeds(unittest.TestCase):
    def test_seed_changes_the_matrix_not_the_shape(self):
        w = WORKLOADS[0]
        _, rec1, res1 = run(w, 0, seed=1)
        _, rec1b, _ = run(w, 0, seed=1)
        _, rec2, res2 = run(w, 0, seed=2)
        self.assertEqual(rec1["residuals"], rec1b["residuals"])
        self.assertNotEqual(rec1["residuals"], rec2["residuals"])
        self.assertEqual(set(rec1["residuals"]), set(rec2["residuals"]))
        self.assertEqual(rec1["config"], rec2["config"])
        self.assertEqual(set(res1["metrics"]), set(res2["metrics"]))


class Refusal(unittest.TestCase):
    def test_fails_without_the_solver_sources(self):
        bare = ROOT / ".bench_out"
        bare.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=bare) as d:
            shutil.copy(ROOT / "BENCHMARK.json", d)
            shutil.copytree(HERE, Path(d) / HERE.name,
                            ignore=shutil.ignore_patterns("__pycache__"))
            code, record, result = run(WORKLOADS[0], 0, cwd=d)
            self.assertNotEqual(code, 0)
            self.assertIsNone(result)


if __name__ == "__main__":
    unittest.main(verbosity=2)
