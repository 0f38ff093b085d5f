"""Distributed campaigns: a coordinator and worker nodes around one broker.

One coordinated campaign across many hosts, built from the pieces the
single-host runtime already guarantees: deterministic per-job seeds,
scheduling-invariant campaign fingerprints, associative metric merges,
and idempotent per-job results.  The queue itself lives in a
:class:`repro.fuzz.net.QueueBroker` — a small TCP server that owns the
lease/result state in memory and journals every accepted mutation — and
the coordinator (:func:`run_coordinator`) and each
:class:`NodeRunner` talk to it through a
:class:`repro.fuzz.net.SocketQueue`.  A campaign with no standing
broker daemon starts one in-process with ``QueueBroker(journal_dir=...)``.

Protocol
--------
The coordinator publishes the job matrix and a manifest naming the
campaign fingerprint; node runners then race over the jobs:

* **claim** — the broker hands a node an unleased job under a
  time-bounded lease naming the node, the attempt number, and an
  expiry timestamp.  Claims are decided under the broker's lock on the
  broker's clock, so two nodes never own one lease.
* **heartbeat** — the owning node periodically renews its lease.  A
  node that stops heartbeating simply stops renewing and the lease
  expires on its own; a node whose last connection drops has its
  leases expired at once.
* **reclaim** — a later claim of an expired lease bumps the attempt
  number and honors the quarantine machinery's exponential backoff
  (plus the campaign's optional decorrelation jitter).  Node loss is
  therefore *the existing hang/retry path*: attempts are bounded, and a
  job whose every lease expired is retired as
  ``ShardFailure(kind="node_lost")``.
* **result** — a finished job's :class:`~repro.fuzz.parallel.ShardResult`
  is parked at the broker.  Jobs are *at-least-once*: a resurrected node
  may finish a job that was already reclaimed and re-run elsewhere, but
  results are keyed by job index and only the first publish lands —
  duplicates are dropped deterministically, and since job execution is
  deterministic the dropped copy is bit-identical anyway.
* **tombstone** — a job retired without a usable result (attempts
  exhausted) gets a tombstone so nodes stop reclaiming it.

The failure matrix (node, coordinator and broker kills, disconnects,
torn journal tails) is DESIGN §10.
"""

from __future__ import annotations

import json
import os
import tempfile
import threading
import time
from dataclasses import asdict, dataclass, field
from typing import (TYPE_CHECKING, Callable, Dict, List, Optional, Sequence,
                    Set, Tuple)

from ..mutate import MutatorConfig
from ..obs import MetricsRegistry
from ..tv import RefinementConfig
from ..tv.interp import ExecutionLimits
from .campaign import CampaignReport, new_report
from .checkpoint import CheckpointJournal, jobs_fingerprint
from .driver import FuzzConfig
from .feedback import FeedbackConfig
from .parallel import (KIND_NODE_LOST, JobRunner, ShardJob, ShardResult,
                       _SignalGuard, execute_job, run_jobs)

if TYPE_CHECKING:
    from .net import SocketQueue

__all__ = ["DistConfig", "NodeReport", "NodeRunner", "QueueError",
           "QueueMismatch", "job_from_wire", "job_to_wire",
           "run_coordinator"]

MERGED_CORPUS_NAME = "merged.corpus.jsonl"

#: Tombstone/terminal reasons.
REASON_NODE_LOST = KIND_NODE_LOST
REASON_QUARANTINE = "quarantine"


class QueueError(RuntimeError):
    """The queue broker cannot be used (unreachable or protocol problem)."""


class QueueMismatch(QueueError):
    """The broker serves a different campaign.

    Raised when a manifest's fingerprint disagrees with the campaign
    about to be published or joined: mixing two campaigns in one queue
    would merge findings across configurations.
    """


@dataclass
class DistConfig:
    """Coordinator-side knobs for a distributed campaign.

    Operational only — none of these affect what any job computes, so
    (like ``checkpoint_dir``) they are excluded from the campaign
    fingerprint and may differ between a run and its resume.
    """

    # The ``host:port`` of the :class:`repro.fuzz.net.QueueBroker`
    # serving the queue.
    queue_addr: str = ""
    # Seconds a lease lives between heartbeats.  Short leases detect
    # node loss quickly but demand frequent heartbeats; the node
    # heartbeats every lease_duration / 3 by default.
    lease_duration: float = 30.0
    # Total attempts (initial + reclaims) before a job is retired.
    max_attempts: int = 3
    # Coordinator poll interval while waiting for results, seconds.
    poll_interval: float = 0.05
    # Coordinator wait cap, seconds (None = wait for every job; the
    # campaign's global_time_budget also applies if set).
    wait_timeout: Optional[float] = None

    def validate(self) -> "DistConfig":
        if not self.queue_addr:
            raise ValueError("dist.queue_addr is required")
        if self.lease_duration <= 0:
            raise ValueError("dist.lease_duration must be positive, "
                             f"got {self.lease_duration}")
        if self.max_attempts < 1:
            raise ValueError("dist.max_attempts must be >= 1, "
                             f"got {self.max_attempts}")
        if self.poll_interval <= 0:
            raise ValueError("dist.poll_interval must be positive, "
                             f"got {self.poll_interval}")
        if self.wait_timeout is not None and self.wait_timeout < 0:
            raise ValueError("dist.wait_timeout must be >= 0, "
                             f"got {self.wait_timeout}")
        return self


# ---------------------------------------------------------------------------
# ShardJob <-> the broker's job records.
# ---------------------------------------------------------------------------


def config_from_dict(config: dict) -> FuzzConfig:
    """Rebuild a :class:`FuzzConfig` from its ``asdict`` flattening."""
    config = dict(config)
    mutator = dict(config.pop("mutator"))
    tv = dict(config.pop("tv"))
    limits = dict(tv.pop("limits"))
    feedback = dict(config.pop("feedback"))
    return FuzzConfig(
        mutator=MutatorConfig(**mutator),
        tv=RefinementConfig(limits=ExecutionLimits(**limits), **tv),
        feedback=FeedbackConfig(**feedback),
        **config)


def _jsonified(value):
    """``value`` normalized through a JSON round-trip (tuples -> lists),
    so configs hydrated from the wire diff cleanly against fresh ones."""
    return json.loads(json.dumps(value, sort_keys=True, default=str))


def _dict_diff(full: dict, base: dict) -> dict:
    """The sparse nested overrides turning ``base`` into ``full``.

    Both sides are same-shape ``asdict`` flattenings of the same config
    dataclasses, so keys always align; only differing values (recursing
    into nested dicts) appear in the result.
    """
    overrides = {}
    for key, value in full.items():
        other = base.get(key)
        if isinstance(value, dict) and isinstance(other, dict):
            nested = _dict_diff(value, other)
            if nested:
                overrides[key] = nested
        elif value != other:
            overrides[key] = value
    return overrides


def _dict_merge(base: dict, overrides: dict) -> dict:
    """Apply :func:`_dict_diff` overrides to a deep copy of ``base``."""
    merged = dict(base)
    for key, value in overrides.items():
        other = merged.get(key)
        if isinstance(value, dict) and isinstance(other, dict):
            merged[key] = _dict_merge(other, value)
        else:
            merged[key] = value
    return merged


def job_to_wire(job: ShardJob, shared_config: dict,
                payload_sha: str, payload_format: str) -> dict:
    """The deduped queue record for one job.

    The shared :class:`FuzzConfig` lives once in the manifest
    (``shared_config``); each job carries only its sparse config
    overrides (seeds, pipeline) and references its module payload by
    content hash — so a re-published retry job whose state is unchanged
    re-serializes nothing.
    """
    full = _jsonified(asdict(job.config))
    return {
        "job_index": job.job_index,
        "file_name": job.file_name,
        "payload": {"sha": payload_sha, "format": payload_format},
        "config": _dict_diff(full, shared_config),
        "iterations": job.iterations,
        "time_budget": job.time_budget,
        "confirm_attributions": job.confirm_attributions,
        "deadline": job.deadline,
        "trace_dir": job.trace_dir,
        "trace_sample": job.trace_sample,
    }


def job_from_wire(record: dict, shared_config: dict,
                  text: str) -> ShardJob:
    """Rehydrate a job from its deduped record + resolved module text."""
    config = _dict_merge(shared_config, record.get("config", {}))
    return ShardJob(
        job_index=record["job_index"],
        file_name=record["file_name"],
        text=text,
        config=config_from_dict(config),
        iterations=record.get("iterations"),
        time_budget=record.get("time_budget"),
        confirm_attributions=record.get("confirm_attributions", False),
        deadline=record.get("deadline"),
        trace_dir=record.get("trace_dir"),
        trace_sample=record.get("trace_sample", 1.0),
    )


# ---------------------------------------------------------------------------
# Leases.
# ---------------------------------------------------------------------------


@dataclass
class Lease:
    """One job's lease as the broker holds it (soft state, never
    journaled)."""

    node: str
    attempt: int
    claimed_at: float
    expires_at: float
    # A node that watched its own job hang/crash *releases* the lease
    # (expiry now, failure recorded) instead of silently vanishing, so
    # the reclaim path can tell a retryable failure from node loss.
    released: bool = False
    failure_kind: str = ""
    error: str = ""

    def to_dict(self) -> dict:
        return {"kind": "lease", **asdict(self)}

    @classmethod
    def from_dict(cls, data: dict) -> "Lease":
        return cls(node=data["node"], attempt=int(data["attempt"]),
                   claimed_at=float(data["claimed_at"]),
                   expires_at=float(data["expires_at"]),
                   released=bool(data.get("released", False)),
                   failure_kind=data.get("failure_kind", ""),
                   error=data.get("error", ""))


# ---------------------------------------------------------------------------
# The node runner.
# ---------------------------------------------------------------------------


@dataclass
class NodeReport:
    """What one node did with its share of the queue."""

    node: str
    jobs_run: int = 0
    published: int = 0
    duplicates: int = 0
    released: int = 0
    elapsed: float = 0.0
    metrics: MetricsRegistry = field(default_factory=MetricsRegistry)


class NodeRunner:
    """Pull jobs from a broker queue and run them to completion.

    Claimed jobs run through the existing execution stack —
    :func:`repro.fuzz.parallel.run_jobs` in isolated (process-per-job)
    mode whenever a deadline is present, so the hard watchdog and crash
    containment of single-host campaigns apply unchanged on a node.  A
    heartbeat thread renews every active lease at
    ``lease_duration / 3``; if the node is SIGKILLed the thread dies
    with it and the leases expire on their own, which *is* the
    node-loss protocol.

    Hang/crash results are not published: the lease is released for
    retry instead, so the queue-level backoff/quarantine machinery —
    not the node — decides the job's fate.  Deterministic in-job errors
    (a raising job, a parse failure) are terminal and publish normally,
    matching single-host semantics where only hangs and crashes retry.
    """

    def __init__(self, queue: "SocketQueue", workers: int = 1,
                 runner: JobRunner = execute_job,
                 poll_interval: float = 0.05,
                 work_dir: Optional[str] = None) -> None:
        self.queue = queue
        self.workers = max(1, workers)
        self.runner = runner
        self.poll_interval = poll_interval
        self.work_dir = work_dir
        self.report = NodeReport(node=queue.node, metrics=queue.metrics)
        self._active: Dict[int, Lease] = {}
        self._active_lock = threading.Lock()
        self._hb_stop = threading.Event()

    # -- the heartbeat thread ----------------------------------------------

    def _heartbeat_loop(self, lease_duration: float) -> None:
        interval = max(0.01, lease_duration / 3.0)
        while not self._hb_stop.wait(interval):
            with self._active_lock:
                active = list(self._active)
            for job_index in active:
                if not self.queue.heartbeat(job_index, lease_duration):
                    # Lease lost (expired + reclaimed elsewhere): stop
                    # renewing; the in-flight run still publishes and
                    # dedups.
                    with self._active_lock:
                        self._active.pop(job_index, None)

    # -- running ------------------------------------------------------------

    def run(self, time_budget: Optional[float] = None,
            max_jobs: Optional[int] = None,
            should_stop: Optional[Callable[[], bool]] = None,
            wait_for_manifest: Optional[float] = None) -> NodeReport:
        """Drain the queue: claim, run, publish, until nothing is left.

        Exits when every published job is settled (or ``time_budget``
        / ``max_jobs`` / ``should_stop`` says so).  With
        ``wait_for_manifest`` the node waits up to that many seconds
        for a coordinator to publish before giving up.
        """
        started = time.monotonic()

        def out_of_time() -> bool:
            if time_budget is not None \
                    and time.monotonic() - started >= time_budget:
                return True
            return should_stop is not None and should_stop()

        manifest = self.queue.manifest()
        while manifest is None:
            if out_of_time() or wait_for_manifest is None \
                    or time.monotonic() - started >= wait_for_manifest:
                self.report.elapsed = time.monotonic() - started
                return self.report
            time.sleep(self.poll_interval)
            manifest = self.queue.manifest()
        lease_duration = float(manifest.get("lease_duration", 30.0))
        heartbeat = threading.Thread(target=self._heartbeat_loop,
                                     args=(lease_duration,), daemon=True)
        heartbeat.start()
        try:
            while not out_of_time():
                if max_jobs is not None \
                        and self.report.jobs_run >= max_jobs:
                    break
                claimed = self.queue.claim_next(limit=self.workers)
                if not claimed:
                    if self.queue.drained():
                        break
                    time.sleep(self.poll_interval)
                    continue
                self._run_batch(claimed, manifest)
        finally:
            self._hb_stop.set()
            heartbeat.join()
        self.report.elapsed = time.monotonic() - started
        return self.report

    def run_once(self) -> Optional[int]:
        """Claim and run at most one job (test/chaos hook).

        Returns the settled job's index, or None if nothing was
        claimable.
        """
        manifest = self.queue.manifest()
        if manifest is None:
            return None
        claimed = self.queue.claim_next(limit=1)
        if not claimed:
            return None
        self._run_batch(claimed, manifest)
        return claimed[0][0].job_index

    def _run_batch(self, claimed: Sequence[Tuple[ShardJob, Lease]],
                   manifest: dict) -> None:
        fingerprint = manifest.get("fingerprint", "")
        leases = {job.job_index: lease for job, lease in claimed}
        jobs = [self._localize(job) for job, _lease in claimed]
        with self._active_lock:
            self._active.update(leases)
        isolate = any(job.deadline is not None for job in jobs)

        def publish(result: ShardResult) -> None:
            with self._active_lock:
                self._active.pop(result.job_index, None)
            self.report.jobs_run += 1
            lease = leases[result.job_index]
            result.worker = f"{self.queue.node}/{result.worker}" \
                if result.worker else self.queue.node
            result.attempts = lease.attempt
            if result.failure_kind in ("hang", "crash"):
                self.queue.release_for_retry(
                    result.job_index, lease, result.failure_kind,
                    result.error)
                self.report.released += 1
                return
            self._publish_corpus(result.job_index)
            if self.queue.publish_result(result, fingerprint,
                                         attempt=lease.attempt):
                self.report.published += 1
            else:
                self.report.duplicates += 1

        try:
            run_jobs(jobs, workers=self.workers, runner=self.runner,
                     on_result=publish, isolate=isolate)
        finally:
            with self._active_lock:
                for job_index in leases:
                    self._active.pop(job_index, None)

    # -- node-local paths ---------------------------------------------------

    def _localize(self, job: ShardJob) -> ShardJob:
        """Point a job's corpus journal at node-local scratch space.

        The coordinator's ``feedback.corpus_dir`` (if any) names a path
        on *its* filesystem; on the node the journal is written to a
        private per-job directory and *published* to the broker after
        the job completes — the queue sees only whole, settled
        deltas.  ``corpus_dir`` is excluded from the campaign
        fingerprint, so the rewrite does not change the job's identity.
        """
        if not job.config.feedback.enabled:
            return job
        from dataclasses import replace
        work_dir = self.work_dir or os.path.join(
            tempfile.gettempdir(), f"repro-dist-{self.queue.node}")
        job_dir = os.path.join(work_dir, f"job-{job.job_index:06d}")
        os.makedirs(job_dir, exist_ok=True)
        feedback = replace(job.config.feedback, corpus_dir=job_dir)
        return replace(job, config=replace(job.config, feedback=feedback))

    def _publish_corpus(self, job_index: int) -> None:
        work_dir = self.work_dir or os.path.join(
            tempfile.gettempdir(), f"repro-dist-{self.queue.node}")
        job_dir = os.path.join(work_dir, f"job-{job_index:06d}")
        try:
            names = sorted(os.listdir(job_dir))
        except OSError:
            return
        for name in names:
            if name.endswith(".corpus.jsonl"):
                self.queue.publish_corpus(job_index,
                                          os.path.join(job_dir, name))
                return


# ---------------------------------------------------------------------------
# The coordinator.
# ---------------------------------------------------------------------------


def synthesize_tombstone_result(job: ShardJob, stone: dict) -> ShardResult:
    """A terminal :class:`ShardResult` for a tombstoned job.

    ``node_lost`` retirements surface as
    ``ShardFailure(kind="node_lost")`` in the merged report; released
    hang/crash retirements ride the existing quarantine path.
    """
    reason = stone.get("reason", REASON_NODE_LOST)
    kind = REASON_QUARANTINE if reason == REASON_QUARANTINE \
        else KIND_NODE_LOST
    return ShardResult(
        job_index=job.job_index, file_name=job.file_name,
        pipeline=job.config.pipeline, seed=job.config.base_seed,
        error=stone.get("error", "job retired"),
        failure_kind=kind,
        attempts=int(stone.get("attempts", 1)))


def merge_corpus_journals(queue: "SocketQueue", out_path: str,
                          max_size: int = 4096) -> int:
    """Merge every published corpus delta into one campaign journal.

    This closes the cross-job corpus sharing loop: per-job corpora are
    admitted in job-index order (deterministic regardless of which node
    produced which delta) into one campaign-level corpus via
    :func:`repro.fuzz.corpus.merge_journals`, and the merged journal
    can seed the next campaign via ``Corpus.load``.  Returns the number
    of entries in the merged corpus; with no deltas nothing is written.
    """
    from .corpus import merge_journals
    deltas = queue.corpus_deltas()
    if not deltas:
        return 0
    with tempfile.TemporaryDirectory(prefix="repro-dist-corpus-") as scratch:
        paths = []
        for index, data in deltas:
            path = os.path.join(scratch, f"job-{index:06d}.corpus.jsonl")
            with open(path, "wb") as stream:
                stream.write(data)
            paths.append(path)
        return merge_journals(paths, out_path, max_size=max_size)


def run_coordinator(executor, resume: bool = False) -> CampaignReport:
    """Drive a distributed campaign from the coordinator seat.

    Publishes the job matrix to the queue, then polls: collected
    results are journaled to the campaign checkpoint (if configured) as
    they arrive, expired leases are swept, and tombstones become
    terminal failures.  The merge is the single-host merge —
    job-index-ordered over deduplicated results — so the report is
    bit-identical to an uninterrupted single-host run whenever every
    job eventually completed.

    A killed coordinator loses nothing: nodes keep draining their
    leases and parking results; re-running with ``resume=True`` (or
    even without a checkpoint — the broker itself holds every parked
    result) collects them and continues.

    Corpus deltas the nodes published are merged into
    ``merged.corpus.jsonl`` under ``checkpoint_dir``, or else under the
    campaign's ``feedback.corpus_dir``; with neither set there is
    nowhere durable to put it and the merge is skipped.
    """
    config = executor.config
    dist = config.dist.validate()
    report = new_report(config)
    started = time.perf_counter()
    jobs = executor.build_jobs()
    by_index = {job.job_index: job for job in jobs}
    fingerprint = jobs_fingerprint(jobs)
    journal: Optional[CheckpointJournal] = None
    cached: Dict[int, ShardResult] = {}
    if config.checkpoint_dir:
        journal = CheckpointJournal(config.checkpoint_dir)
        cached = journal.start(fingerprint, total_jobs=len(jobs),
                               resume=resume)
    from .net import SocketQueue
    queue = SocketQueue(dist.queue_addr, node="coordinator")
    todo = [job for job in jobs if job.job_index not in cached]
    queue.publish(todo, fingerprint, total_jobs=len(jobs),
                  lease_duration=dist.lease_duration,
                  max_attempts=dist.max_attempts,
                  retry_backoff=config.retry_backoff,
                  retry_jitter=config.retry_jitter)
    stop = executor._stop
    collected: Dict[int, ShardResult] = {}
    stones: Dict[int, dict] = {}
    outstanding: Set[int] = {job.job_index for job in todo}

    def out_of_time() -> bool:
        elapsed = time.perf_counter() - started
        if config.global_time_budget is not None \
                and elapsed >= config.global_time_budget:
            return True
        if dist.wait_timeout is not None and elapsed >= dist.wait_timeout:
            return True
        return stop.requested

    try:
        with _SignalGuard(stop):
            while outstanding:
                results = queue.collect_results(fingerprint)
                for index, result in results.items():
                    if index in collected or index not in outstanding:
                        continue
                    collected[index] = result
                    outstanding.discard(index)
                    if journal is not None:
                        journal.append(result)
                queue.sweep()
                for index, stone in queue.collect_tombstones().items():
                    if index in stones or index not in outstanding:
                        continue
                    stones[index] = stone
                    outstanding.discard(index)
                if not outstanding or out_of_time():
                    break
                time.sleep(dist.poll_interval)
    finally:
        if journal is not None:
            journal.close()
    terminal: List[ShardResult] = list(cached.values()) \
        + list(collected.values())
    for index, stone in stones.items():
        job = by_index.get(index)
        if job is not None:
            terminal.append(synthesize_tombstone_result(job, stone))
    terminal.sort(key=lambda result: result.job_index)
    executor._merge(report, jobs, terminal)
    report.metrics.merge(queue.metrics)
    feedback = config.feedback or config.fuzz.feedback
    merged_dir = config.checkpoint_dir or feedback.corpus_dir
    if merged_dir:
        merged_entries = merge_corpus_journals(
            queue, os.path.join(merged_dir, MERGED_CORPUS_NAME))
        if merged_entries:
            report.metrics.count("dist.corpus.merged_entries",
                                 merged_entries)
    queue.close()
    report.resumed_jobs = len(cached)
    report.interrupted = stop.requested
    report.interrupt_signal = stop.signal_name
    report.elapsed = time.perf_counter() - started
    return report
