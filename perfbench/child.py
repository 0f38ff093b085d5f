"""One cold sample of one workload, run in a fresh interpreter.

``run.py`` starts this script once per sample, so the process-wide
plan cache, batch statistics and ``lru_cache`` helpers always start
cold and peak memory is this sample's own.  Usage (from the repository
root, with ``src`` on ``PYTHONPATH``)::

    python3 perfbench/child.py --workload curated_seeds --seed 1 \
        --sample 0 [--trace --spans FILE]

``broker_campaign`` is ``generated_campaign``'s sample run through a
loopback broker: it starts one more process of this script with
``--node``, the worker node, which claims and runs the jobs.
The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import os
import resource
import shutil
import subprocess
import sys
import tempfile
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import tracing  # noqa: E402  (the benchmark's own module, beside this one)

perf_counter = time.perf_counter

WORKLOADS = ("curated_seeds", "generated_campaign", "broker_campaign")

# curated_seeds: each of the 8 seed files gets CURATED_ROUNDS mutants
# per sample, round-robin.  Sample k always draws the same mutants
# (mutation seeds k * stride + round).  Per-mutant cost is heavy-tailed
# (the slowest 5% of phi_undef_poison's mutants take 31% of its time),
# and drawing fresh mutants per workload seed made the spread between
# seeds 16% on mutants_per_sec and 34% on iter_p99_ms.  The workload
# seed sets the refinement checker's input-generation seeds instead.
# The checker draws one input set per function and reuses it for every
# check of that function, and the heavy mutants' cost depends on it, so
# each sample makes CURATED_TV_DRAWS drivers per file, each with its own
# input seed, taking an equal share of the rounds.
SEEDS_GLOB = os.path.join("examples", "seeds", "*.ll")
CURATED_ROUNDS = 32
CURATED_TV_DRAWS = 4
CURATED_SEED_STRIDE = 10_007

# The campaigns: many small generated files with few mutants each.
# Per-file cost is heavy-tailed too (loop archetypes with large trip
# counts), so a run spreads its mutants over many files: several
# samples of 64 files x 8 mutants, each with its own corpus.  The
# workload seed picks the corpora and the mutation seeds.
CAMPAIGN_FILES = 64
CAMPAIGN_MUTANTS_PER_FILE = 8
CAMPAIGN_PIPELINES = ("O2", "backend")
CAMPAIGN_MAX_INPUTS = 16
CAMPAIGN_SEED_STRIDE = 64
BROKER_WAIT_SECONDS = 150.0


def _digest(value) -> str:
    text = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _finding_key(finding) -> list:
    return [finding.kind, finding.file, finding.seed, finding.function,
            sorted(finding.bug_ids), finding.detail]


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def snapshot(tracer, registries) -> dict:
    """What this process measured, in a form two processes can merge."""
    from repro.obs import MetricsRegistry
    from repro.tv import global_batch_stats, global_plan_cache
    counters = dict(MetricsRegistry.merged(registries).counters)
    plan_hit, plan_miss, _fallback = global_plan_cache().stats()
    batches, lanes, _splits, fallbacks = global_batch_stats().stats()
    counters.update({"plan_cache.hit": plan_hit, "plan_cache.miss": plan_miss,
                     "batch.batches": batches, "batch.lanes": lanes,
                     "batch.scalar_fallbacks": fallbacks})
    return {"spans": tracer.summary() if tracer else {},
            "counts": dict(tracer.counts) if tracer else {},
            "counters": counters,
            "intervals": tracer.intervals() if tracer else []}


def merge_snapshots(first: dict, second: dict) -> dict:
    def add(a: dict, b: dict) -> dict:
        out = dict(a)
        for key, value in b.items():
            out[key] = out.get(key, 0) + value
        return out

    spans = {name: dict(entry) for name, entry in first["spans"].items()}
    for name, entry in second["spans"].items():
        spans[name] = add(spans.get(name, {}), entry)
    return {"spans": spans,
            "counts": add(first["counts"], second["counts"]),
            "counters": add(first["counters"], second["counters"]),
            "intervals": tracing.merge_intervals(
                [tuple(i) for i in first["intervals"] + second["intervals"]])}


# ---------------------------------------------------------------------------
# Workloads.  Each returns (sample dict, snapshot).
# ---------------------------------------------------------------------------


def run_curated(seed: int, sample_index: int, clock, tracer):
    from repro.fuzz.driver import FuzzConfig, FuzzDriver
    from repro.ir.parser import parse_module
    from repro.tv import RefinementConfig

    texts = []
    for path in sorted(glob.glob(SEEDS_GLOB)):
        with open(path) as stream:
            texts.append((os.path.basename(path), stream.read()))
    base = sample_index * CURATED_SEED_STRIDE
    rounds = CURATED_ROUNDS // CURATED_TV_DRAWS
    begin = perf_counter()
    # blocks[d]: one driver per seed file, all with input seed draw d.
    blocks = []
    for draw in range(CURATED_TV_DRAWS):
        tv_seed = ((seed * CURATED_SEED_STRIDE + sample_index)
                   * CURATED_TV_DRAWS + draw)
        config = FuzzConfig(base_seed=base,
                            tv=RefinementConfig(seed=tv_seed))
        blocks.append([FuzzDriver(parse_module(text, name), config,
                                  file_name=name)
                       for name, text in texts])
    loop_begin = perf_counter()
    for draw, block in enumerate(blocks):
        for round_index in range(draw * rounds, (draw + 1) * rounds):
            for driver in block:
                driver.run_one(base + round_index)
    end = perf_counter()
    drivers = [driver for block in blocks for driver in block]

    checks = []
    if len(texts) != 8:
        checks.append(f"expected 8 curated seeds under {SEEDS_GLOB}, "
                      f"found {len(texts)}")
    for driver in drivers:
        if not driver.target_functions:
            checks.append(f"{driver.file_name}: every function was dropped "
                          f"in preprocessing: {driver.report.dropped_functions}")
    findings = [finding for driver in drivers
                for finding in driver.report.findings]
    if findings:
        checks.append(f"{len(findings)} findings with every bug disarmed, "
                      f"first: {findings[0].file}: {findings[0].detail}")
    iterations = CURATED_ROUNDS * len(texts)
    sample = {
        "begin": begin, "end": end,
        "setup_s": clock.first_mutant_at - begin,
        "elapsed_s": end - loop_begin,
        "iterations": iterations,
        "attempted": iterations,
        "failed": 0,
        "bugs_found": 0,
        "digest": _digest({
            "findings": sorted(_finding_key(f) for f in findings),
            "deterministic": {f"{driver.file_name}/{draw}":
                              driver.metrics.deterministic()
                              for draw, block in enumerate(blocks)
                              for driver in block},
        }),
        "checks": checks,
        "latencies_ms": [value * 1e3 for value in clock.latencies],
        "peak_rss_mb": _peak_rss_mb(),
    }
    return sample, snapshot(tracer, [driver.metrics for driver in drivers])


def campaign_config(sub_seed: int, queue_addr: str = ""):
    from repro.fuzz import CampaignConfig, DistConfig
    return CampaignConfig(
        corpus_size=CAMPAIGN_FILES,
        corpus_seed=sub_seed,
        base_seed=sub_seed,
        mutants_per_file=CAMPAIGN_MUTANTS_PER_FILE,
        pipelines=CAMPAIGN_PIPELINES,
        max_inputs=CAMPAIGN_MAX_INPUTS,
        enabled_bugs=None,
        confirm_attributions=True,
        workers=1,
        dist=(DistConfig(queue_addr=queue_addr,
                         wait_timeout=BROKER_WAIT_SECONDS)
              if queue_addr else None))


def report_digest(report) -> str:
    """Everything a campaign computes, independent of its transport."""
    return _digest({
        "iterations": report.total_iterations,
        "findings": report.total_findings,
        "unattributed": sorted(_finding_key(f) for f in report.unattributed),
        "outcomes": {bug_id: [o.found, o.first_file, o.first_seed,
                              o.findings]
                     for bug_id, o in report.outcomes.items()},
        "deterministic": report.metrics.deterministic(),
    })


def run_node(clock, tracer) -> dict:
    """The worker node of a ``broker_campaign`` sample.

    It starts, imports the program, says ``ready`` and then waits for
    the broker's address on standard input: a standing node that joins
    as soon as a campaign is published, so its interpreter start is not
    part of the campaign's time.
    """
    from repro.fuzz.dist import NodeRunner
    from repro.fuzz.net import SocketQueue
    print("ready", flush=True)
    address = sys.stdin.readline().strip()
    queue = SocketQueue(address, node="node-1")
    try:
        report = NodeRunner(queue, workers=1).run(
            time_budget=BROKER_WAIT_SECONDS, wait_for_manifest=60.0)
    finally:
        queue.close()
    return {"jobs_run": report.jobs_run,
            "first_mutant_at": clock.first_mutant_at,
            "latencies_ms": [value * 1e3 for value in clock.latencies],
            "peak_rss_mb": _peak_rss_mb(),
            "snapshot": snapshot(tracer, [report.metrics])}


def run_broker(sub_seed: int, tracer, spans: str):
    """Broker and coordinator here, the node in its own process.

    Returns the campaign report, the campaign's start and end times,
    the node's output and the merged snapshot.
    """
    from repro.fuzz import run_campaign
    from repro.fuzz.net import QueueBroker
    command = [sys.executable, os.path.abspath(__file__), "--node"]
    if tracer is not None:
        command.append("--trace")
        if spans:
            command += ["--spans", spans + ".node"]
    # Coordinator, broker and node share one CPU: the same CPU budget as
    # the in-process campaign, so the gap between the two is the
    # transport's cost.  Spread over two CPUs, the rate swung by 30%
    # with the load other tenants put on the second one.
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    journal_dir = tempfile.mkdtemp(prefix="broker-")
    queue_broker = None
    node = subprocess.Popen(command, stdin=subprocess.PIPE,
                            stdout=subprocess.PIPE, text=True)
    try:
        if node.stdout.readline().strip() != "ready":
            raise RuntimeError("node process did not start")
        begin = perf_counter()
        queue_broker = QueueBroker(journal_dir=journal_dir)
        queue_broker.start()
        node.stdin.write(queue_broker.address + "\n")
        node.stdin.flush()
        report = run_campaign(campaign_config(sub_seed, queue_broker.address))
        end = perf_counter()
        output, _ = node.communicate(timeout=BROKER_WAIT_SECONDS)
    finally:
        if node.poll() is None:
            node.kill()
            node.wait()
        if queue_broker is not None:
            queue_broker.stop()
        shutil.rmtree(journal_dir, ignore_errors=True)
    lines = output.strip().splitlines()
    if node.returncode != 0 or not lines:
        raise RuntimeError(f"node process exited with {node.returncode}")
    node_out = json.loads(lines[-1])
    measured = merge_snapshots(
        snapshot(tracer, [report.metrics, queue_broker.metrics]),
        node_out["snapshot"])
    return report, begin, end, node_out, measured


def run_campaign_sample(seed: int, sample_index: int, clock, tracer,
                        broker: bool, spans: str):
    from repro.fuzz import run_campaign

    sub_seed = seed * CAMPAIGN_SEED_STRIDE + sample_index
    jobs = CAMPAIGN_FILES * len(CAMPAIGN_PIPELINES)
    checks = []
    if broker:
        report, begin, end, node_out, measured = run_broker(sub_seed, tracer,
                                                            spans)
        if node_out["jobs_run"] != jobs:
            checks.append(f"node ran {node_out['jobs_run']} of {jobs} jobs")
        first_mutant_at = node_out["first_mutant_at"]
        latencies = node_out["latencies_ms"]
        # Coordinator (with the broker) plus node: the campaign's
        # footprint.
        peak_rss = _peak_rss_mb() + node_out["peak_rss_mb"]
    else:
        begin = perf_counter()
        report = run_campaign(campaign_config(sub_seed))
        end = perf_counter()
        first_mutant_at = clock.first_mutant_at
        latencies = [value * 1e3 for value in clock.latencies]
        peak_rss = _peak_rss_mb()
        measured = snapshot(tracer, [report.metrics])

    lost_jobs = (len(report.failed_shards) + len(report.quarantined)
                 + len(report.parse_failures) + report.skipped_jobs)
    if report.unattributed:
        checks.append(f"{len(report.unattributed)} unattributed findings")
    for failure in report.failed_shards + report.parse_failures:
        checks.append(f"failed shard ({failure.kind}) {failure.file} "
                      f"[{failure.pipeline}]: {failure.error}")
    for job in report.quarantined:
        checks.append(f"quarantined {job.file} [{job.pipeline}]")
    if report.skipped_jobs:
        checks.append(f"{report.skipped_jobs} jobs skipped")
    planned = jobs * CAMPAIGN_MUTANTS_PER_FILE
    if report.total_iterations != planned - lost_jobs \
            * CAMPAIGN_MUTANTS_PER_FILE:
        checks.append(f"{report.total_iterations} iterations, expected "
                      f"{planned}")
    sample = {
        "begin": begin, "end": end,
        "setup_s": first_mutant_at - begin,
        "elapsed_s": end - begin,
        "iterations": report.total_iterations,
        "attempted": planned,
        "failed": lost_jobs * CAMPAIGN_MUTANTS_PER_FILE,
        "bugs_found": len(report.found_bugs()),
        "digest": report_digest(report),
        "checks": checks,
        "latencies_ms": latencies,
        "peak_rss_mb": peak_rss,
    }
    return sample, measured


# ---------------------------------------------------------------------------
# Per-layer numbers (traced samples only).
# ---------------------------------------------------------------------------

PASSES = ("instcombine", "simplifycfg", "early-cse", "gvn", "dce",
          "constfold", "instsimplify", "codegen")


def layer_metrics(measured: dict, sample: dict) -> dict:
    """Totals this sample contributes to the per-layer metrics.

    Ratios come as numerator/denominator pairs (``*.num``/``*.den``) so
    ``run.py`` can pool them over samples before dividing.
    """
    spans, counts = measured["spans"], measured["counts"]

    def seconds(name: str) -> float:
        return spans.get(name, {}).get("seconds", 0.0)

    def self_seconds(name: str) -> float:
        return spans.get(name, {}).get("self_seconds", 0.0)

    def calls(name: str) -> float:
        return float(spans.get(name, {}).get("calls", 0))

    def counter(name: str) -> float:
        return float(measured["counters"].get(name, 0.0))

    skips = (counter("opt.incremental.memo_skips")
             + counter("opt.incremental.memo_crash_skips"))
    dispatches = (skips + counter("opt.incremental.full_runs")
                  + counter("opt.incremental.worklist_runs"))
    out = {
        "mutate.seconds": seconds("mutate"),
        "mutate.calls": calls("mutate"),
        "mutate.valid_ratio.num": counts.get("mutate.valid", 0.0),
        "mutate.valid_ratio.den": calls("mutate"),
        "mutate.functions_copied_per_mutant.num":
            counts.get("mutate.functions_copied", 0.0),
        "mutate.functions_copied_per_mutant.den": calls("mutate"),
        "ir.fingerprint.seconds": seconds("ir.fingerprint"),
        "ir.fingerprint.calls": calls("ir.fingerprint"),
        "ir.clone.seconds": seconds("ir.clone"),
        "ir.parse.seconds": seconds("ir.parse"),
        "opt.seconds": seconds("opt"),
        "opt.calls": calls("opt"),
        "opt.memo.hit_ratio.num": counter("cache.optimize.hit"),
        "opt.memo.hit_ratio.den": counter("cache.optimize.hit")
        + counter("cache.optimize.miss"),
        "opt.incremental.skip_ratio.num": skips,
        "opt.incremental.skip_ratio.den": dispatches,
        "opt.incremental.worklist_runs":
            counter("opt.incremental.worklist_runs"),
        "opt.crashes": float(spans.get("opt", {}).get("raised", 0)),
        "tv.seconds": seconds("tv"),
        "tv.checks": calls("tv"),
        "tv.memo.hit_ratio.num": counter("cache.verify.hit"),
        "tv.memo.hit_ratio.den": counter("cache.verify.hit")
        + counter("cache.verify.miss"),
        "tv.inputs.seconds": seconds("tv.inputs"),
        "tv.prepare.seconds": seconds("tv.prepare"),
        "tv.interp_setup.seconds": seconds("tv.interp_setup"),
        "tv.lane_setup.seconds": seconds("tv.lane_setup"),
        "tv.execute.seconds": seconds("tv.execute"),
        "tv.execute.calls": calls("tv.execute"),
        "tv.compare.seconds": seconds("tv.compare"),
        "tv.plan_cache.hit_ratio.num": counter("plan_cache.hit"),
        "tv.plan_cache.hit_ratio.den": counter("plan_cache.hit")
        + counter("plan_cache.miss"),
        "tv.batch.lanes_per_batch.num": counter("batch.lanes"),
        "tv.batch.lanes_per_batch.den": counter("batch.batches"),
        "tv.batch.scalar_fallbacks": counter("batch.scalar_fallbacks"),
        "tv.inconclusive_ratio.num": counts.get("tv.inconclusive_inputs",
                                                0.0),
        "tv.inconclusive_ratio.den": counts.get("tv.inputs_checked", 0.0),
        "fuzz.setup.seconds": self_seconds("fuzz.setup"),
        "fuzz.iteration.self.seconds": self_seconds("fuzz.iteration"),
        "fuzz.job.seconds": seconds("fuzz.job"),
        "fuzz.findings.seconds": seconds("fuzz.findings"),
        "fuzz.bugs_found.num": float(sample["bugs_found"]),
        "fuzz.bugs_found.den": 1.0,
        "fuzz.failed_op_ratio.num": sample["failed"]
        + counter("mutants.created") - counter("mutants.valid"),
        "fuzz.failed_op_ratio.den": float(sample["attempted"]),
        "wire.encode.seconds": seconds("wire.encode"),
        "wire.decode.seconds": seconds("wire.decode"),
        "wire.bytes_sent": counter("wire.bytes.sent"),
        "wire.decode_hit_ratio.num": counter("bitcode.decode_cache.hit"),
        "wire.decode_hit_ratio.den": counter("bitcode.decode_cache.hit")
        + counter("bitcode.decode_cache.miss"),
        "net.claim.seconds": seconds("net.claim"),
        "net.publish.seconds": seconds("net.publish"),
        "net.collect.seconds": seconds("net.collect"),
        "net.requests": calls("net.request"),
        "dist.node.idle.seconds": (seconds("dist.node") - seconds("fuzz.job")
                                   if "dist.node" in spans else 0.0),
    }
    for name in PASSES:
        out[f"opt.pass.{name}.seconds"] = \
            counter(f"optimize.pass.{name}.seconds")
    wall = sample["end"] - sample["begin"]
    covered = tracing.covered_seconds(measured["intervals"], sample["begin"],
                                      sample["end"])
    out["trace.unattributed_share.num"] = wall - covered
    out["trace.unattributed_share.den"] = wall
    return out


# Counts that repeat exactly for a fixed seed and code.  The broker's
# ``wire.bytes.sent`` is left out: it includes the coordinator's and
# the node's timed polls.  The payload bytes the codec produced stand in.
EXACT_COUNTS = ("mutate.calls", "tv.checks", "tv.execute.calls", "opt.calls",
                "ir.fingerprint.calls", "opt.memo.hit_ratio.num",
                "opt.memo.hit_ratio.den", "tv.memo.hit_ratio.num",
                "tv.memo.hit_ratio.den")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--sample", type=int, default=0)
    parser.add_argument("--node", action="store_true",
                        help="run as a broker_campaign sample's worker node")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--spans", default="",
                        help="write the traced sample's spans here (JSONL)")
    args = parser.parse_args()
    if not args.node and not args.workload:
        parser.error("--workload or --node is required")

    tracer = None
    if args.trace:
        tracer = tracing.SpanTracer()
        tracing.install(tracer)
    clock = tracing.IterationClock()
    clock.install()

    if args.node:
        result = run_node(clock, tracer)
    else:
        if args.workload == "curated_seeds":
            result, measured = run_curated(args.seed, args.sample, clock,
                                           tracer)
        else:
            result, measured = run_campaign_sample(
                args.seed, args.sample, clock, tracer,
                broker=args.workload == "broker_campaign", spans=args.spans)
        if tracer is not None:
            layers = layer_metrics(measured, result)
            result["layers"] = layers
            result["exact_counts"] = {name: layers[name]
                                      for name in EXACT_COUNTS}
            result["exact_counts"]["wire.payload_bytes"] = \
                measured["counts"].get("wire.payload_bytes", 0.0)
            result["spans"] = measured["spans"]
    if tracer is not None and args.spans:
        tracer.dump(args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
