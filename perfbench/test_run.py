#!/usr/bin/env python3
"""Tests of perfbench/run.py: result output, digest comparison, the trace
consistency check, the ETHSIM_* refusal and, when the study program is built,
an injected oracle failure end to end.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import contextlib
import io
import json
import os
import unittest
from pathlib import Path
from unittest import mock

import run

BENCHMARK = json.loads(
    (Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


def study(digest="aa", **counts):
    base = {"sim.events": 10, "workload.submitted": 3, "nodes": 5}
    base.update(counts)
    return {"setup_s": 0.5, "run_s": 2.0, "study_s": 2.6, "setup_rss_mb": 20.0,
            "peak_rss_mb": 90.0, "digest": digest, "oracle_failures": [],
            "counts": base, "timings": {"analysis.pipeline_s": 0.01,
                                        "check.oracles_s": 0.02}}


def traced_study(handler_s=1.5):
    rec = study(**{"sim.heap_high_water": 7, "net.bytes": 100,
                   "eth.tx_received": 12, "eth.blocks_imported": 4,
                   "net.msgs.transactions": 6, "net.msgs.new_block": 2,
                   "net.msgs.announcement": 3, "net.msgs.get_block": 1,
                   "net.msgs.block_response": 1, "net.drops": 0,
                   "eth.peer_links": 8, "eth.known_entries": 9,
                   "chain.blocks": 4, "chain.txpool_pending": 2,
                   "miner.blocks_minted": 3, "measure.records": 11,
                   "fault.churn_leaves": 0})
    rec["run_s"] = 2.2
    rec["timings"].update({"sim.handler_s": handler_s, "chain.tree_add_us": 3.0,
                           "p2p.table_fill_s": 0.1, "p2p.lookup_us": 40.0})
    return rec


class JudgeTest(unittest.TestCase):
    def test_identical_studies_pass(self):
        records = [study(), study()]
        self.assertEqual(run.judge(records), 0)

    def test_digest_mismatch_fails_the_later_study(self):
        records = [study("aa"), study("bb"), study("aa")]
        self.assertEqual(run.judge(records), 1)
        self.assertIn("digest bb", records[1]["failure"])

    def test_count_mismatch_fails(self):
        records = [study(), study(**{"sim.events": 11})]
        self.assertEqual(run.judge(records), 1)
        self.assertIn("sim.events", records[1]["failure"])

    def test_counts_only_in_the_traced_study_are_not_compared(self):
        records = [study(), traced_study()]
        self.assertEqual(run.judge(records), 0)

    def test_crash_and_oracle_failure_fail(self):
        bad = study()
        bad["oracle_failures"] = [{"oracle": "tx-conservation", "detail": "x"}]
        records = [{"error": "exit -11"}, bad, study()]
        self.assertEqual(run.judge(records), 2)
        self.assertIn("tx-conservation", records[1]["failure"])


class OutputTest(unittest.TestCase):
    def result(self, records, metrics):
        return json.loads(run.result_line(records, metrics))

    def test_end_to_end_metrics_match_benchmark_json(self):
        records = [study(), study()]
        run.judge(records)
        out = self.result(records, run.end_to_end_metrics(records))
        self.assertEqual(set(out), {"correct", "attempted", "failed", "metrics"})
        self.assertEqual((out["correct"], out["attempted"], out["failed"]),
                         (True, 2, 0))
        declared = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
        self.assertEqual({k: v["unit"] for k, v in out["metrics"].items()},
                         declared)
        self.assertEqual(out["metrics"]["run_s"]["value"], 2.0)

    def test_per_layer_metrics_match_benchmark_json(self):
        timed, traced = study(), traced_study()
        metrics = run.per_layer_metrics(timed, traced)
        declared = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
        self.assertEqual({k: unit for k, (_, unit, _) in metrics.items()},
                         declared)
        self.assertAlmostEqual(metrics["sim.queue_s"][0], 0.7)
        self.assertAlmostEqual(metrics["trace_overhead"][0], 1.1)
        self.assertAlmostEqual(metrics["eth.tx_redundancy"][0], 12 / 15)
        self.assertAlmostEqual(metrics["eth.block_msgs_per_import"][0], 0.75)

    def test_failed_study_makes_the_result_incorrect(self):
        records = [study("aa"), study("bb")]
        run.judge(records)
        out = self.result(records, run.end_to_end_metrics(records))
        self.assertEqual((out["correct"], out["attempted"], out["failed"]),
                         (False, 2, 1))

    def test_trace_consistency(self):
        self.assertIsNone(run.trace_inconsistency(traced_study(handler_s=1.5)))
        self.assertIsNone(run.trace_inconsistency(traced_study(handler_s=2.3)))
        self.assertIn("exceeds",
                      run.trace_inconsistency(traced_study(handler_s=2.4)))


class MainTest(unittest.TestCase):
    def test_refuses_ethsim_gates_without_a_result(self):
        out = io.StringIO()
        with mock.patch.dict(os.environ, {"ETHSIM_PROGRESS": "1"}), \
                contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(io.StringIO()):
            code = run.main(["--workload", "block_relay_1k", "--seed", "1",
                             "--seconds", "1", "--trace", "0"])
        self.assertEqual(code, 2)
        self.assertEqual(out.getvalue(), "")

    @unittest.skipUnless(run.STUDY.exists(), "study program not built")
    def test_injected_oracle_failure_is_counted_and_exits_nonzero(self):
        out = io.StringIO()
        with mock.patch.object(run, "MIN_STUDIES", 1), \
                contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(io.StringIO()):
            code = run.main(["--workload", "block_relay_1k", "--seed", "1",
                             "--seconds", "0", "--trace", "0",
                             "--inject-oracle-failure", "tx-conservation"])
        self.assertEqual(code, 1)
        result = json.loads(out.getvalue().strip().splitlines()[-1])
        self.assertEqual((result["correct"], result["attempted"],
                          result["failed"]), (False, 1, 1))


if __name__ == "__main__":
    unittest.main()
