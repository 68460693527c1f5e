#!/usr/bin/env python3
"""Study benchmark: end-to-end and per-layer cost of one simulated study.

Builds the simulator and the study program (perfbench/study.cpp) from source
into .bench_build/perfbench, then runs studies of one workload, each in its
own single-threaded process, one at a time:

    python3 perfbench/run.py --workload tx_flood_300 --seed 1 \\
        --seconds 20 --trace 0

--trace 0 repeats timed studies (every telemetry stream off) for --seconds,
at least MIN_STUDIES of them, and reports the end-to-end metrics as medians. --trace 1 runs one timed
study and one traced study (metrics registry and engine profiler on, replay
probes after the study) and reports the per-layer metrics; its spans go to
.bench_build/perfbench/traces/. Every study is checked: a crash, an oracle
failure, or a digest or simulated count that differs between studies of the
same workload and seed fails the run. The last line of stdout is one JSON
object {"correct", "attempted", "failed", "metrics"}; the exit code is
nonzero when any study failed.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
BUILD_DIR = HERE.parent / ".bench_build" / "perfbench"
STUDY = BUILD_DIR / "ethsim_study"

WORKLOADS = ("tx_flood_300", "block_relay_1k", "world_5k_churn")
# At least three timed studies, so one slow outlier cannot move a median
# (single studies of one seed vary by up to ~15% on a shared host).
MIN_STUDIES = 3
STUDY_TIMEOUT_S = 150
TRACE_CONSISTENCY = 0.05  # handler_s + queue_s vs traced run_s

END_TO_END = (
    ("setup_s", "s"),
    ("run_s", "s"),
    ("study_s", "s"),
    ("setup_rss_mb", "MB"),
    ("peak_rss_mb", "MB"),
)

# Per-layer metric -> unit, in the order they are printed. The counts come
# from the traced study (and must equal the timed study's); the derived
# ratios are computed in per_layer_metrics().
PER_LAYER = (
    ("sim.events", "count"),
    ("sim.events_per_s", "1/s"),
    ("sim.handler_s", "s"),
    ("sim.queue_s", "s"),
    ("sim.heap_high_water", "count"),
    ("net.msgs.transactions", "count"),
    ("net.msgs.new_block", "count"),
    ("net.msgs.announcement", "count"),
    ("net.msgs.get_block", "count"),
    ("net.msgs.block_response", "count"),
    ("net.bytes", "bytes"),
    ("net.drops", "count"),
    ("eth.peer_links", "count"),
    ("eth.known_entries", "count"),
    ("eth.tx_received", "count"),
    ("eth.tx_redundancy", "ratio"),
    ("eth.blocks_imported", "count"),
    ("eth.block_msgs_per_import", "ratio"),
    ("chain.blocks", "count"),
    ("chain.txpool_pending", "count"),
    ("chain.tree_add_us", "us"),
    ("p2p.table_fill_s", "s"),
    ("p2p.lookup_us", "us"),
    ("miner.blocks_minted", "count"),
    ("workload.submitted", "count"),
    ("measure.records", "count"),
    ("fault.churn_leaves", "count"),
    ("analysis.pipeline_s", "s"),
    ("check.oracles_s", "s"),
    ("check.oracle_failures", "count"),
    ("trace_overhead", "ratio"),
)


def log(message):
    print(message, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the study program; True on success."""
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD_DIR),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD_DIR), "--target",
                  "ethsim_study", "-j", str(min(4, os.cpu_count() or 1))])
    for cmd in steps:
        proc = subprocess.run(cmd, capture_output=True, text=True)
        if proc.returncode:
            log(f"build failed: {' '.join(cmd)}\n{proc.stdout[-2000:]}"
                f"{proc.stderr[-2000:]}")
            return False
    return True


def run_study(workload, seed, *extra):
    """Runs one study process; returns its record, or {"error": ...}."""
    cmd = [str(STUDY), "--workload", workload, "--seed", str(seed), *extra]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=STUDY_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"error": f"timed out after {STUDY_TIMEOUT_S} s"}
    if proc.returncode != 0:
        return {"error": f"exit {proc.returncode}: {proc.stderr.strip()[-400:]}"}
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        return {"error": "no JSON result line"}


def judge(records):
    """Sets record["failure"] (None when correct) on every record.

    A study fails when it crashed, when an oracle failed, or when its digest
    or any simulated count differs from the first complete study of this
    workload and seed.
    """
    ref = None
    for rec in records:
        rec["failure"] = rec.get("error")
        if rec["failure"]:
            continue
        if rec.get("oracle_failures"):
            names = ", ".join(f["oracle"] for f in rec["oracle_failures"])
            rec["failure"] = f"oracle failure: {names}"
            continue
        if ref is None:
            ref = rec
        if rec["digest"] != ref["digest"]:
            rec["failure"] = f"digest {rec['digest']} differs from {ref['digest']}"
            continue
        common = rec["counts"].keys() & ref["counts"].keys()
        differs = sorted(k for k in common if rec["counts"][k] != ref["counts"][k])
        if differs:
            rec["failure"] = f"simulated counts differ: {', '.join(differs)}"
    return sum(1 for rec in records if rec["failure"])


def median_of(records, key):
    values = [rec[key] for rec in records if not rec["failure"]]
    return (statistics.median(values), len(values)) if values else (None, 0)


def end_to_end_metrics(records):
    """{name: (value, unit, runs)} for the timed studies."""
    metrics = {}
    for name, unit in END_TO_END:
        value, runs = median_of(records, name)
        if value is not None:
            metrics[name] = (value, unit, runs)
    return metrics


def per_layer_metrics(timed, traced):
    """{name: (value, unit, 1)} from one timed and one traced study."""
    counts, timings = traced["counts"], traced["timings"]
    run_s, handler_s = traced["run_s"], timings["sim.handler_s"]
    submitted, nodes = counts["workload.submitted"], counts["nodes"]
    imports = counts["eth.blocks_imported"]
    block_msgs = counts["net.msgs.new_block"] + counts["net.msgs.block_response"]
    values = dict(counts)
    values.update({
        "sim.events_per_s": timed["counts"]["sim.events"] / timed["run_s"],
        "sim.handler_s": handler_s,
        "sim.queue_s": max(0.0, run_s - handler_s),
        "eth.tx_redundancy": (counts["eth.tx_received"] / (submitted * nodes)
                              if submitted else 0.0),
        "eth.block_msgs_per_import": block_msgs / imports if imports else 0.0,
        "chain.tree_add_us": timings["chain.tree_add_us"],
        "p2p.table_fill_s": timings["p2p.table_fill_s"],
        "p2p.lookup_us": timings["p2p.lookup_us"],
        "analysis.pipeline_s": timed["timings"]["analysis.pipeline_s"],
        "check.oracles_s": timed["timings"]["check.oracles_s"],
        "check.oracle_failures": len(timed["oracle_failures"]),
        "trace_overhead": run_s / timed["run_s"],
    })
    return {name: (values[name], unit, 1) for name, unit in PER_LAYER}


def trace_inconsistency(traced):
    """Why handler_s + queue_s does not account for the traced run_s, or None.

    queue_s = max(0, run_s - handler_s), so the sum leaves the 5% band only
    when the profiler books more callback time than the run's wall time.
    """
    run_s, handler_s = traced["run_s"], traced["timings"]["sim.handler_s"]
    if handler_s - run_s > TRACE_CONSISTENCY * run_s:
        return (f"sim.handler_s {handler_s:.4f} s exceeds the traced run_s "
                f"{run_s:.4f} s by more than {TRACE_CONSISTENCY:.0%}")
    return None


def print_table(metrics):
    print(f"{'metric':28} {'value':>16} {'unit':>6} {'runs':>5}")
    for name, (value, unit, runs) in metrics.items():
        print(f"{name:28} {value:16.6g} {unit:>6} {runs:5d}")


def result_line(records, metrics):
    failed = sum(1 for rec in records if rec["failure"])
    return json.dumps({
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in metrics.items()},
    })


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    # Test hook: the named oracle reports a failure in every full study.
    parser.add_argument("--inject-oracle-failure", default="")
    return parser.parse_args(argv)


def main(argv):
    args = parse_args(argv)
    gates = sorted(k for k in os.environ if k.startswith("ETHSIM_"))
    if gates:
        log(f"refusing to run with {', '.join(gates)} set: these gates "
            "change what a study does or measures")
        return 2
    if not build():
        return 1

    extra = (["--inject-oracle-failure", args.inject_oracle_failure]
             if args.inject_oracle_failure else [])
    records = []

    def study(*flags):
        rec = run_study(args.workload, args.seed, *flags, *extra)
        records.append(rec)
        return rec

    if args.trace == 0:
        # After MIN_STUDIES, start another study only if one of the median
        # length still ends within --seconds.
        start = time.monotonic()
        walls = []
        while (len(records) < MIN_STUDIES or time.monotonic() - start
               + statistics.median(walls) <= args.seconds):
            began = time.monotonic()
            study()
            walls.append(time.monotonic() - began)
        judge(records)
        metrics = end_to_end_metrics(records)
    else:
        trace_dir = BUILD_DIR / "traces"
        trace_dir.mkdir(parents=True, exist_ok=True)
        spans = trace_dir / f"{args.workload}-seed{args.seed}.json"
        timed, traced = study(), study("--traced", str(spans))
        judge(records)
        if not traced["failure"]:
            traced["failure"] = trace_inconsistency(traced)
        metrics = ({} if timed["failure"] or traced["failure"]
                   else per_layer_metrics(timed, traced))
        if not traced["failure"]:
            print(f"spans: {spans}")

    failed = [rec for rec in records if rec["failure"]]
    for rec in failed:
        log(f"FAILED study: {rec['failure']}")
    digests = {rec["digest"] for rec in records if "digest" in rec}
    print(f"{args.workload} seed {args.seed}: digest {' '.join(sorted(digests))}")
    print_table(metrics)
    print(f"{'runs_failed':28} {len(failed) / len(records):16.6g} "
          f"{'':>6} {len(records):5d}")
    print(result_line(records, metrics))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
