#!/usr/bin/env python3
"""Tests of the repository benchmark itself.

    python3 perfbench/tests/test_perfbench.py

Runs every workload at a tiny scale through perfbench/run.py (building
it first if needed) and checks that:
  - every run prints every named metric with its unit and exits 0;
  - the same seed repeats every simulated count exactly;
  - a different seed changes them;
  - the traced run writes a Chrome trace Perfetto can load;
  - a directory holding only the benchmark fails without a result;
  - records from different hosts are never judged against each other.
Scratch files go under .bench_build/ in the checkout.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
SCRATCH = os.path.join(ROOT, ".bench_build", "perfbench-tests")
sys.path.insert(0, BENCH)

import compare  # noqa: E402

SPEC = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
TINY = {"paper-figures": "0.05", "sampled-sweep": "0.1",
        "farm-store": "0.05"}
SEED, OTHER_SEED = 11, 12

# Per-layer metrics that are simulated (or counted from simulated
# outputs) and so must repeat exactly for one seed.
SIMULATED = ["memory.l1_miss_rate", "memory.mshr_full_rejects",
             "branch.mispredict_rate", "pipeline.cycles",
             "pipeline.cache_stall_frac", "core.handler_insts",
             "memory.classify_refs", "sample.windows", "sample.lib_bytes",
             "sample.lib_reused", "sampled_mr_err_pct",
             "sampled_cpi_ci_pct", "farm.store_hit_rate"]


def run_bench(workload, seed, trace, cwd=ROOT, results=None):
    cmd = [sys.executable, os.path.join(cwd, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed), "--seconds", "0.2",
           "--trace", str(trace), "--scale", TINY[workload]]
    if results:
        cmd += ["--results", results]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=900)


class BenchmarkRuns(unittest.TestCase):
    runs = {}

    @classmethod
    def setUpClass(cls):
        os.makedirs(SCRATCH, exist_ok=True)
        for workload in TINY:
            for label, seed, trace in (("a", SEED, 1), ("b", SEED, 1),
                                       ("other", OTHER_SEED, 1),
                                       ("plain", SEED, 0)):
                record = os.path.join(
                    SCRATCH, "%s-%s.json" % (workload, label))
                proc = run_bench(workload, seed, trace, results=record)
                cls.runs[workload, label] = (proc, record)

    def record(self, workload, label):
        proc, path = self.runs[workload, label]
        self.assertEqual(proc.returncode, 0, proc.stderr[-3000:])
        with open(path) as f:
            return json.load(f)

    def test_every_metric_printed_with_unit(self):
        for (workload, label), (proc, _) in self.runs.items():
            with self.subTest(workload=workload, run=label):
                self.assertEqual(proc.returncode, 0, proc.stderr[-3000:])
                lines = proc.stdout.rstrip("\n").split("\n")
                result = json.loads(lines[-1])
                self.assertEqual(sorted(result), ["attempted", "correct",
                                                  "failed", "metrics"])
                self.assertTrue(result["correct"])
                self.assertEqual(result["failed"], 0)
                self.assertGreaterEqual(result["attempted"], 1)
                kind = "end_to_end" if label == "plain" else "per_layer"
                want = {m["name"]: m["unit"] for m in SPEC[kind]}
                got = {k: v["unit"] for k, v in result["metrics"].items()}
                self.assertEqual(got, want)
                for name, v in result["metrics"].items():
                    self.assertIsInstance(v["value"], (int, float), name)
                    if kind == "end_to_end":
                        self.assertGreater(v["value"], 0, name)
                text = "\n".join(lines[:-1])
                for name in ["failed_frac", "point_samples",
                             "sampled_mr_err_pct", "sampled_cpi_ci_pct"]:
                    self.assertIn("metric " + name, text)
                self.assertIn('"fingerprint"', text)

    def test_same_seed_repeats_simulated_counts(self):
        for workload in TINY:
            with self.subTest(workload=workload):
                a = self.record(workload, "a")
                b = self.record(workload, "b")
                self.assertEqual(a["report_digest"], b["report_digest"])
                self.assertEqual(a["instructions"], b["instructions"])
                for name in SIMULATED:
                    self.assertEqual(a["per_layer"][name],
                                     b["per_layer"][name], name)

    def test_other_seed_changes_simulated_counts(self):
        for workload in TINY:
            with self.subTest(workload=workload):
                a = self.record(workload, "a")
                o = self.record(workload, "other")
                self.assertNotEqual(a["report_digest"], o["report_digest"])
                self.assertNotEqual(a["instructions"], o["instructions"])

    def test_trace_loads_as_chrome_trace(self):
        for workload in TINY:
            with self.subTest(workload=workload):
                path = os.path.join(ROOT, ".bench_build", "perfbench",
                                    "traces", "%s-seed%d-trace1.json"
                                    % (workload, OTHER_SEED))
                with open(path) as f:
                    trace = json.load(f)
                spans = [e for e in trace["traceEvents"] if e["ph"] == "X"]
                self.assertTrue(spans)
                ids = {e["args"]["id"] for e in spans}
                for e in spans:
                    self.assertGreaterEqual(e["ts"], 0)
                    self.assertGreaterEqual(e["dur"], 0)
                    parent = e["args"]["parent"]
                    self.assertTrue(parent == 0 or parent in ids, e)
                    self.assertIn("run_label", e["args"])


class Contract(unittest.TestCase):
    def test_bare_directory_fails_without_result(self):
        os.makedirs(SCRATCH, exist_ok=True)
        bare = tempfile.mkdtemp(dir=SCRATCH)
        try:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            shutil.copytree(BENCH, os.path.join(bare, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = run_bench("paper-figures", 1, 0, cwd=bare)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"metrics"', proc.stdout)
        finally:
            shutil.rmtree(bare)

    def test_other_host_is_not_comparable(self):
        def rec(fingerprint, wall):
            return {"workload": "paper-figures", "seed": 1,
                    "host": {"cpu_model": "x", "commit": "c",
                             "fingerprint": fingerprint},
                    "end_to_end": {m["name"]: {"value": wall}
                                   for m in SPEC["end_to_end"]}}
        lines = compare.compare(rec("aaaa", 1.0), rec("bbbb", 9.0), SPEC)
        self.assertTrue(any("not comparable" in l for l in lines))
        self.assertFalse(any("worse" in l for l in lines))
        lines = compare.compare(rec("aaaa", 1.0), rec("aaaa", 9.0), SPEC)
        self.assertTrue(any(l.startswith("wall_s") and "worse" in l
                            for l in lines))


if __name__ == "__main__":
    unittest.main()
