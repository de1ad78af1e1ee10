#!/usr/bin/env python3
"""The benchmark's own tests.

    python3 perfbench/test_perfbench.py [-v]

Run from the repository root; builds urm_perfbench like run.py does. The
paper_suite count test runs two traced runs of one pass each (about 45 s
together).
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402
import trace_reader  # noqa: E402

WORKLOADS = ("paper_suite", "serve_hot", "serve_live")
# Counts the paper_suite trace must repeat exactly from run to run.
EXACT_COUNTS = ([m + ".tuples" for m in trace_reader.KINDS]
                + [m + ".source_queries" for m in trace_reader.METHODS]
                + [m + ".partitions" for m in trace_reader.METHODS]
                + ["algebra.operators", "algebra.scans", "osharing.memo_hits",
                   "osharing.memo_misses", "columnar.scans",
                   "relational.row_scans", "columnar.bytes_scanned",
                   "columnar.logical_bytes_scanned", "topk.leaves_visited",
                   "threshold.leaves_visited", "live.batches",
                   "live.rows_inserted", "live.rows_deleted"])


def perfbench(args):
    proc = subprocess.run([BINARY] + args, capture_output=True, text=True,
                          timeout=170)
    return proc.returncode, proc.stdout.strip().splitlines()


def digests(workload, seed):
    code, lines = perfbench(["--workload", workload, "--seed", str(seed),
                          "--seconds", "40", "--plan-only"])
    assert code == 0, lines
    return json.loads(lines[-1][len("meta "):])["sequence_digests"]


class DeterministicInputs(unittest.TestCase):
    def test_same_seed_same_digest(self):
        for workload in WORKLOADS:
            self.assertEqual(digests(workload, 7), digests(workload, 7))

    def test_seed_changes_serving_sequences(self):
        for workload in ("serve_hot", "serve_live"):
            self.assertNotEqual(digests(workload, 7), digests(workload, 8))

    def test_paper_suite_counts_repeat(self):
        counts = []
        for attempt in range(2):
            with tempfile.TemporaryDirectory(dir=run.build_dir()) as tmp:
                path = os.path.join(tmp, "trace.jsonl")
                code, lines = perfbench(["--workload", "paper_suite", "--seed",
                                      "5", "--seconds", "13",
                                      "--trace-out", path])
                self.assertEqual(code, 0, lines[-1:])
                metrics = trace_reader.per_layer_metrics(path)
            counts.append({n: metrics[n][0] for n in EXACT_COUNTS})
        self.assertGreater(counts[0]["basic.tuples"], 0)
        self.assertEqual(counts[0], counts[1])


class Contract(unittest.TestCase):
    def test_per_layer_list_matches_benchmark_json(self):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            bench = json.load(f)
        self.assertEqual([(m["name"], m["unit"]) for m in bench["per_layer"]],
                         list(trace_reader.PER_LAYER))

    def test_fails_without_the_sources(self):
        # A tree holding only BENCHMARK.json and the benchmark directory
        # must fail without printing a result.
        with tempfile.TemporaryDirectory(dir=run.build_dir()) as tmp:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
            shutil.copytree(HERE, os.path.join(tmp, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            env = dict(os.environ, CARGO_TARGET_DIR=".bench_build")
            proc = subprocess.run(
                ["python3", "perfbench/run.py", "--workload", "serve_hot",
                 "--seed", "1", "--seconds", "40", "--trace", "0"],
                cwd=tmp, env=env, capture_output=True, text=True, timeout=170)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"metrics"', proc.stdout)


if __name__ == "__main__":
    BINARY = run.build()
    unittest.main()
