"""The repository's end-to-end benchmark: mutants per second through the
in-process mutate -> optimize -> verify loop, on curated seeds and on
generated campaigns run in-process and through the socket broker.

Run from the repository root::

    python3 perfbench/run.py                      # every workload, table
    python3 perfbench/run.py --workload curated_seeds --seed 1 \
        --seconds 50 --trace 0

Each run starts several samples, each in a fresh interpreter
(``child.py``), and prints one JSON object as its last line:
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0``
the metrics are the end-to-end metrics; with ``--trace 1`` they are the
per-layer metrics of traced samples.  A failed correctness check
prints ``"correct": false`` and exits 1.  See ``README.md`` beside this
file for every metric, the workloads and how to read a traced run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
OUT_DIR = os.path.join(BENCH_DIR, "out")
CHILD = os.path.join(BENCH_DIR, "child.py")
HISTORY = os.path.join(OUT_DIR, "history.json")

# The default workload seed, and the held-out seed kept for confirming
# a claimed gain on inputs not looked at while the change was written.
SEEDS = {"default": 1, "held-out": 7331}

# A run must end well within 180 seconds, whatever --seconds says.
RUN_DEADLINE_S = 170.0


@dataclass(frozen=True)
class Workload:
    name: str
    # Typical wall seconds of one untraced sample, interpreter start
    # included, on a shared 2-vCPU x86 machine: how many samples fit
    # into --seconds.
    sample_seconds: float
    # Repeat sample 0 at the end of the run and require the same digest.
    repeat_first: bool = False
    # Run sample 0's job matrix through a loopback broker and a node
    # process too, and require the same digest (transport invariance).
    broker_reference: bool = False


WORKLOADS = {
    workload.name: workload for workload in (
        Workload("curated_seeds", sample_seconds=5.0, repeat_first=True),
        Workload("generated_campaign", sample_seconds=4.0,
                 broker_reference=True),
    )
}

# Every run takes at least this many samples (pairs when traced), even
# when --seconds is shorter than that.
MIN_SAMPLES = 2

END_TO_END = {
    "mutants_per_sec": "1/s",
    "setup_s": "s",
    "iter_p50_ms": "ms",
    "peak_rss_mb": "MB",
}

# Per-layer metric -> unit.  Names in POOLED are pooled numerators over
# pooled denominators across the traced samples; the rest are sums.
PER_LAYER = {
    "mutate.seconds": "s",
    "mutate.calls": "count",
    "mutate.valid_ratio": "ratio",
    "mutate.functions_copied_per_mutant": "count",
    "ir.fingerprint.seconds": "s",
    "ir.fingerprint.calls": "count",
    "ir.clone.seconds": "s",
    "ir.parse.seconds": "s",
    "opt.seconds": "s",
    "opt.calls": "count",
    "opt.pass.instcombine.seconds": "s",
    "opt.pass.simplifycfg.seconds": "s",
    "opt.pass.early-cse.seconds": "s",
    "opt.pass.gvn.seconds": "s",
    "opt.pass.dce.seconds": "s",
    "opt.pass.constfold.seconds": "s",
    "opt.pass.instsimplify.seconds": "s",
    "opt.pass.codegen.seconds": "s",
    "opt.memo.hit_ratio": "ratio",
    "opt.incremental.skip_ratio": "ratio",
    "opt.incremental.worklist_runs": "count",
    "opt.crashes": "count",
    "tv.seconds": "s",
    "tv.checks": "count",
    "tv.memo.hit_ratio": "ratio",
    "tv.inputs.seconds": "s",
    "tv.prepare.seconds": "s",
    "tv.interp_setup.seconds": "s",
    "tv.lane_setup.seconds": "s",
    "tv.execute.seconds": "s",
    "tv.execute.calls": "count",
    "tv.compare.seconds": "s",
    "tv.plan_cache.hit_ratio": "ratio",
    "tv.batch.lanes_per_batch": "ratio",
    "tv.batch.scalar_fallbacks": "count",
    "tv.inconclusive_ratio": "ratio",
    "fuzz.setup.seconds": "s",
    "fuzz.iteration.self.seconds": "s",
    "fuzz.iteration.p99_ms": "ms",
    "fuzz.job.seconds": "s",
    "fuzz.findings.seconds": "s",
    "fuzz.bugs_found": "count",
    "fuzz.failed_op_ratio": "ratio",
    "wire.encode.seconds": "s",
    "wire.decode.seconds": "s",
    "wire.bytes_sent": "bytes",
    "wire.decode_hit_ratio": "ratio",
    "net.claim.seconds": "s",
    "net.publish.seconds": "s",
    "net.collect.seconds": "s",
    "net.requests": "count",
    "dist.node.idle.seconds": "s",
    "dist.broker.slowdown": "ratio",
    "trace.unattributed_share": "ratio",
    "trace.overhead": "ratio",
    "trace.count_mismatches": "count",
}
# Pooled as numerator/denominator (the child reports both halves).
POOLED = {"mutate.valid_ratio", "mutate.functions_copied_per_mutant",
          "opt.memo.hit_ratio", "opt.incremental.skip_ratio",
          "tv.memo.hit_ratio", "tv.plan_cache.hit_ratio",
          "tv.batch.lanes_per_batch", "tv.inconclusive_ratio",
          "fuzz.bugs_found", "fuzz.failed_op_ratio", "wire.decode_hit_ratio",
          "trace.unattributed_share"}


class BenchError(Exception):
    """A sample could not be taken (not a correctness failure)."""


@dataclass(frozen=True)
class SampleSpec:
    index: int              # the sample's inputs: child.py --sample
    traced: bool = False
    role: str = "sample"    # "sample" | "repeat" | "broker"


def plan(workload: Workload, seconds: int,
         trace: bool) -> List[SampleSpec]:
    """The samples of one run, in order.

    Fixed by (workload, --seconds, --trace), and sample ``k`` always
    computes the same thing for a given seed, so a seed always gives
    the same inputs.  The samples fill about ``seconds``, then come the
    workload's check samples.  With ``trace`` every sample runs
    untraced and then traced on the same inputs: the pair's rate ratio
    is the tracing overhead, and their digests must agree.
    """
    per_sample = workload.sample_seconds * (2.2 if trace else 1.0)
    specs: List[SampleSpec] = []
    for index in range(max(MIN_SAMPLES, round(seconds / per_sample))):
        specs.append(SampleSpec(index))
        if trace:
            specs.append(SampleSpec(index, traced=True))
    if workload.repeat_first and not trace:
        specs.append(SampleSpec(0, role="repeat"))
    if workload.broker_reference:
        specs.append(SampleSpec(0, role="broker"))
        if trace:
            specs.append(SampleSpec(0, traced=True, role="broker"))
    return specs


# ---------------------------------------------------------------------------
# Samples.
# ---------------------------------------------------------------------------


def code_hash() -> str:
    """Identity of the code under test: program sources, curated seeds,
    the benchmark itself and the interpreter version."""
    digest = hashlib.sha256(sys.version.encode())
    paths = []
    for top, suffixes in (("src", (".py",)), ("examples/seeds", (".ll",)),
                          ("perfbench", (".py",))):
        for directory, dirs, files in os.walk(os.path.join(ROOT, top)):
            dirs[:] = sorted(d for d in dirs if d not in ("out",
                                                          "__pycache__"))
            paths.extend(os.path.join(directory, name) for name in files
                         if name.endswith(suffixes))
    for path in sorted(paths):
        digest.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as stream:
            digest.update(stream.read())
    return digest.hexdigest()[:16]


def run_sample(workload: str, seed: int, spec: SampleSpec, tmp_dir: str,
               deadline: float, spans_path: Optional[str]) -> dict:
    command = [sys.executable, CHILD, "--workload",
               "broker_campaign" if spec.role == "broker" else workload,
               "--seed", str(seed), "--sample", str(spec.index)]
    if spec.traced:
        command.append("--trace")
        if spans_path:
            command += ["--spans", spans_path]
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    # Temporary directories the program makes (broker journals, node
    # scratch) land inside the checkout and are removed with the run.
    env["TMPDIR"] = tmp_dir
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before starting a sample")
    # Its own session, so a timeout stops the sample's node process too.
    process = subprocess.Popen(command, cwd=ROOT, env=env,
                               stdout=subprocess.PIPE,
                               stderr=subprocess.PIPE, text=True,
                               start_new_session=True)
    try:
        stdout, stderr = process.communicate(timeout=timeout)
    except BaseException as exc:
        os.killpg(process.pid, signal.SIGKILL)
        process.communicate()
        if isinstance(exc, subprocess.TimeoutExpired):
            raise BenchError(f"{workload} sample {spec} timed out") from None
        raise
    if process.returncode != 0:
        raise BenchError(f"{workload} sample {spec} exited with "
                         f"{process.returncode}:\n{stderr[-4000:]}")
    lines = stdout.strip().splitlines()
    if not lines:
        raise BenchError(f"{workload} sample {spec} printed nothing")
    return json.loads(lines[-1])


def load_history(code: str) -> dict:
    try:
        with open(HISTORY) as stream:
            history = json.load(stream)
    except (OSError, ValueError):
        history = {}
    if history.get("code") != code:
        history = {"code": code, "digests": {}, "counts": {}}
    return history


def save_history(history: dict) -> None:
    tmp = HISTORY + ".tmp"
    with open(tmp, "w") as stream:
        json.dump(history, stream, indent=1, sort_keys=True)
    os.replace(tmp, HISTORY)


# ---------------------------------------------------------------------------
# Aggregation.
# ---------------------------------------------------------------------------


def percentile(values: List[float], fraction: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, math.ceil(fraction * len(ordered)))
    return ordered[rank - 1]


def rate(samples: List[dict]) -> float:
    return (sum(s["iterations"] for s in samples)
            / sum(s["elapsed_s"] for s in samples))


def end_to_end(samples: List[dict]) -> Tuple[Dict[str, float], List[str]]:
    latencies = [value for s in samples for value in s["latencies_ms"]]
    # p99 is printed, not reported: see fuzz.iteration.p99_ms.
    notes = [f"{len(samples)} samples, {len(latencies)} run_one latencies, "
             f"p99 {percentile(latencies, 0.99):.1f} ms"]
    values = {
        "mutants_per_sec": rate(samples),
        "setup_s": statistics.median(s["setup_s"] for s in samples),
        "iter_p50_ms": percentile(latencies, 0.50),
        "peak_rss_mb": statistics.median(s["peak_rss_mb"] for s in samples),
    }
    return values, notes


# Per-layer metrics of the transport.  They come from the traced broker
# sample alone; every other per-layer metric comes from the traced
# in-process samples alone.
DIST_PREFIXES = ("wire.", "net.", "dist.")


def per_layer(traced: Dict[int, dict], untraced: Dict[int, dict],
              broker: Dict[bool, dict], mismatches: int) -> Dict[str, float]:
    totals: Dict[str, float] = {}
    for sample in traced.values():
        for name, value in sample["layers"].items():
            if not name.startswith(DIST_PREFIXES):
                totals[name] = totals.get(name, 0.0) + value
    if True in broker:
        for name, value in broker[True]["layers"].items():
            if name.startswith(DIST_PREFIXES):
                totals[name] = totals.get(name, 0.0) + value
    values: Dict[str, float] = {}
    for name in PER_LAYER:
        if name in POOLED:
            denominator = totals.get(name + ".den", 0.0)
            values[name] = (totals.get(name + ".num", 0.0) / denominator
                            if denominator else 0.0)
        else:
            values[name] = totals.get(name, 0.0)
    # The same job matrix through the broker and in-process, untraced,
    # a few seconds apart in the same run.
    values["dist.broker.slowdown"] = (
        broker[False]["elapsed_s"] / untraced[0]["elapsed_s"]
        if False in broker else 0.0)
    # The tail of run_one latency, untraced.  Its spread between runs of
    # the same code is wider than any bound an end-to-end metric may
    # have: under load from other tenants the heaviest iterations slow
    # down about twice as much as the median one.
    values["fuzz.iteration.p99_ms"] = percentile(
        [value for sample in untraced.values()
         for value in sample["latencies_ms"]], 0.99)
    overheads = [1.0 - rate([sample]) / rate([untraced[index]])
                 for index, sample in traced.items()]
    values["trace.overhead"] = statistics.median(overheads)
    values["trace.count_mismatches"] = float(mismatches)
    return values


def run_workload(workload: Workload, seed: int, seconds: int,
                 trace: bool) -> dict:
    deadline = time.monotonic() + RUN_DEADLINE_S
    os.makedirs(OUT_DIR, exist_ok=True)
    tmp_dir = os.path.join(OUT_DIR, f"tmp-{os.getpid()}")
    spans_dir = os.path.join(OUT_DIR, "spans")
    os.makedirs(tmp_dir, exist_ok=True)
    if trace:
        os.makedirs(spans_dir, exist_ok=True)
    code = code_hash()
    history = load_history(code)
    results: List[Tuple[SampleSpec, dict]] = []
    try:
        for position, spec in enumerate(plan(workload, seconds, trace)):
            spans_path = (os.path.join(spans_dir,
                                       f"{workload.name}-{position}.jsonl")
                          if spec.traced else None)
            results.append((spec, run_sample(workload.name, seed, spec,
                                             tmp_dir, deadline, spans_path)))
    finally:
        shutil.rmtree(tmp_dir, ignore_errors=True)

    failures: List[str] = []
    for spec, sample in results:
        failures.extend(f"sample {spec.index}: {check}"
                        for check in sample["checks"])
    # Digests: equal for equal inputs within the run, and equal to what
    # the same code computed for the same inputs in earlier runs.
    first_digest: Dict[int, str] = {}
    for spec, sample in results:
        known = first_digest.setdefault(spec.index, sample["digest"])
        if sample["digest"] != known:
            what = {"broker": "broker campaign differs from the in-process "
                              "one",
                    "repeat": "repeated sample differs"}.get(
                spec.role, "traced and untraced samples differ")
            failures.append(f"sample {spec.index}: {what}")
        key = f"{workload.name}/{seed}/{spec.index}"
        previous = history["digests"].setdefault(key, sample["digest"])
        if previous != sample["digest"]:
            failures.append(f"{key}: digest differs from an earlier run of "
                            "the same code")
    mismatches = 0
    for spec, sample in results:
        if not spec.traced:
            continue
        key = f"{workload.name}/{seed}/{spec.index}/{spec.role}"
        previous = history["counts"].get(key)
        if previous is not None and previous != sample["exact_counts"]:
            changed = sorted(name for name in sample["exact_counts"]
                             if previous.get(name)
                             != sample["exact_counts"][name])
            mismatches += len(changed)
            print(f"perfbench: FLAG {key}: exact counts changed since the "
                  f"previous run of this code: {', '.join(changed)}",
                  file=sys.stderr)
        history["counts"][key] = sample["exact_counts"]
    save_history(history)

    measured = [sample for spec, sample in results
                if spec.role != "broker" and not spec.traced]
    traced = {spec.index: sample for spec, sample in results
              if spec.traced and spec.role != "broker"}
    counted = list(traced.values()) or measured
    attempted = sum(sample["attempted"] for sample in counted)
    failed = sum(sample["failed"] for sample in counted)
    if trace:
        untraced = {spec.index: sample for spec, sample in results
                    if spec.role == "sample" and not spec.traced}
        broker = {spec.traced: sample for spec, sample in results
                  if spec.role == "broker"}
        values = per_layer(traced, untraced, broker, mismatches)
        units = PER_LAYER
        summary = {"workload": workload.name, "seed": seed,
                   "metrics": values,
                   "spans": {f"{spec.index}/{spec.role}": sample["spans"]
                             for spec, sample in results if spec.traced}}
        with open(os.path.join(OUT_DIR, f"trace-{workload.name}.json"),
                  "w") as stream:
            json.dump(summary, stream, indent=1, sort_keys=True)
        notes = [f"{len(traced)} traced samples"]
    else:
        values, notes = end_to_end(measured)
        units = END_TO_END
    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in units},
        "_failures": failures,
        "_notes": notes,
    }


def declared_mismatch() -> str:
    """Names and units BENCHMARK.json declares but this runner does not
    report the same way (empty when they agree)."""
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as stream:
            declared = json.load(stream)
    except (OSError, ValueError) as exc:
        return str(exc)
    for key, reported in (("end_to_end", END_TO_END),
                          ("per_layer", PER_LAYER)):
        units = {entry["name"]: entry["unit"] for entry in declared[key]}
        if units != reported:
            return f"{key} metrics differ"
    if sorted(w["name"] for w in declared["workloads"]) != sorted(WORKLOADS):
        return "workloads differ"
    return ""


def parse_seed(text: str) -> int:
    if text in SEEDS:
        return SEEDS[text]
    seed = int(text)
    if seed < 0:
        raise argparse.ArgumentTypeError("seed must be >= 0")
    return seed


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all",
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=parse_seed, default=SEEDS["default"],
                        help="workload seed: an integer, 'default' (%d) or "
                             "'held-out' (%d)" % (SEEDS["default"],
                                                  SEEDS["held-out"]))
    parser.add_argument("--seconds", type=int, default=50)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # A terminated run still stops its samples and removes its files.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))

    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print("perfbench: the program's sources (src/repro) are missing; "
              "run from a full checkout", file=sys.stderr)
        return 2
    mismatch = declared_mismatch()
    if mismatch:
        print(f"perfbench: BENCHMARK.json disagrees with run.py: {mismatch}",
              file=sys.stderr)
        return 2
    names = sorted(WORKLOADS) if args.workload == "all" \
        else [args.workload]
    all_correct = True
    for name in names:
        try:
            result = run_workload(WORKLOADS[name], args.seed, args.seconds,
                                  bool(args.trace))
        except BenchError as exc:
            print(f"perfbench: {exc}", file=sys.stderr)
            return 1
        failures = result.pop("_failures")
        notes = result.pop("_notes")
        for failure in failures:
            print(f"perfbench: CHECK FAILED [{name}] {failure}",
                  file=sys.stderr)
        print(f"{name} (seed {args.seed}; {'; '.join(notes)})")
        for metric, entry in result["metrics"].items():
            print(f"  {metric:<40} {entry['value']:>14.6g} {entry['unit']}")
        print(json.dumps(result))
        all_correct = all_correct and result["correct"]
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
