"""Distributed campaigns: lease protocol, node runners, coordinator merge.

Protocol-level tests drive an in-process :class:`QueueBroker` through
:class:`SocketQueue` clients under a fake broker clock (no wall-clock
sleeps: lease expiry and backoff windows are simulated by advancing the
clock), so every lease state transition is exercised deterministically.
Campaign-level tests prove the headline invariant — kill any node (or
the coordinator, or the broker) mid-campaign, resume, and the merged
findings + ``deterministic()`` metrics equal an uninterrupted
single-host run, with reclaimed-job duplicates deduplicated.
"""

from __future__ import annotations

import json
import os
import tempfile
import threading
import time
from dataclasses import asdict

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.fuzz import CampaignConfig, run_campaign
from repro.fuzz.checkpoint import jobs_fingerprint
from repro.fuzz.dist import (DistConfig, NodeRunner, _jsonified,
                             job_from_wire, job_to_wire,
                             merge_corpus_journals)
from repro.fuzz.driver import FuzzConfig
from repro.fuzz.faults import damage_journal
from repro.fuzz.net import QueueBroker, SocketQueue
from repro.fuzz.parallel import CampaignExecutor, ShardJob, ShardResult

SMALL = dict(corpus_size=4, mutants_per_file=8, max_inputs=8,
             pipelines=("O2",))
# The hypothesis property re-runs campaigns per example; keep them tiny.
TINY = dict(corpus_size=2, mutants_per_file=4, max_inputs=6,
            pipelines=("O2",))

IR = """define i32 @f(i32 %a) {
entry:
  %t = add i32 %a, 1
  ret i32 %t
}
"""


def report_key(report):
    """Everything that must be identical across distribution patterns."""
    return (
        report.total_iterations,
        report.total_findings,
        [(f.kind, f.seed, f.file, tuple(f.bug_ids))
         for f in report.unattributed],
        {bug_id: (o.found, o.first_file, o.first_seed, o.findings)
         for bug_id, o in report.outcomes.items()},
    )


class FakeClock:
    def __init__(self, now: float = 1000.0) -> None:
        self.now = now

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def make_jobs(count=3):
    return [ShardJob(job_index=index, file_name=f"f{index}.ll", text=IR,
                     config=FuzzConfig(base_seed=index * 100),
                     iterations=2)
            for index in range(count)]


def make_result(index, worker="w"):
    return ShardResult(job_index=index, file_name=f"f{index}.ll",
                       pipeline="O2", worker=worker, seed=index * 100,
                       iterations=2)


def client(broker, node="n1", **kwargs):
    kwargs.setdefault("connect_timeout", 10.0)
    kwargs.setdefault("retry_interval", 0.05)
    return SocketQueue(broker.address, node=node, **kwargs)


def published(broker, node="n1", jobs=None, **manifest):
    """Publish ``jobs`` as a coordinator; a client for ``node``."""
    jobs = make_jobs() if jobs is None else jobs
    fingerprint = jobs_fingerprint(jobs)
    coordinator = client(broker, node="coordinator")
    coordinator.publish(jobs, fingerprint, **manifest)
    coordinator.close()
    return client(broker, node=node), fingerprint


def claimed_indexes(queue, limit=3):
    return [job.job_index for job, _lease in queue.claim_next(limit=limit)]


def restart_broker(broker, damage=False):
    """Stop ``broker`` cold and revive it from its journal on its port.

    With ``damage`` the journal's final record is torn first, as a crash
    mid-append leaves it.
    """
    broker.stop()
    if damage:
        damage_journal(broker.journal_path())
    # The port needs a beat to shake off dying connection sockets —
    # retry the bind like a supervisor would.
    deadline = time.monotonic() + 30
    while True:
        revived = QueueBroker(host=broker.host, port=broker.port,
                              journal_dir=broker.journal_dir)
        try:
            revived.start()
            return revived
        except OSError:
            if time.monotonic() > deadline:
                raise
            time.sleep(0.1)


def wait_for(predicate, timeout=10.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.02)
    return False


@pytest.fixture(scope="module")
def reference():
    return run_campaign(CampaignConfig(workers=1, **SMALL))


def dist_config(address, **extra):
    return CampaignConfig(
        workers=1,
        dist=DistConfig(queue_addr=address, wait_timeout=120.0,
                        **extra.pop("dist", {})),
        **extra, **SMALL)


def run_distributed(config, node_names=("n1",), node_workers=1,
                    resume=False, queues=None):
    """A coordinator thread plus in-process node runners.

    ``queues`` overrides the nodes' clients (chaos tests pass their own).
    """
    box = {}

    def coordinate():
        box["report"] = run_campaign(config, resume=resume)

    coordinator = threading.Thread(target=coordinate)
    coordinator.start()
    if queues is None:
        queues = [SocketQueue(config.dist.queue_addr, node=name)
                  for name in node_names]
    reports = []
    try:
        for queue in queues:
            runner = NodeRunner(queue, workers=node_workers)
            try:
                reports.append(runner.run(time_budget=120,
                                          wait_for_manifest=60))
            finally:
                queue.close()
    finally:
        coordinator.join(timeout=180)
    assert not coordinator.is_alive(), "coordinator did not finish"
    return box["report"], reports


# ---------------------------------------------------------------------------
# Job records.
# ---------------------------------------------------------------------------


def wire_round_trip(job, shared_config):
    record = json.loads(json.dumps(
        job_to_wire(job, shared_config, "0" * 64, "bitcode")))
    return job_from_wire(record, shared_config, job.text)


class TestJobSerialization:
    def test_round_trip_preserves_fingerprint(self):
        jobs = make_jobs()
        shared = _jsonified(asdict(jobs[0].config))
        rebuilt = [wire_round_trip(job, shared) for job in jobs]
        assert jobs_fingerprint(rebuilt) == jobs_fingerprint(jobs)

    def test_round_trip_preserves_budgets_and_deadline(self):
        job = make_jobs(1)[0]
        job.deadline = 12.5
        job.time_budget = 3.0
        job.confirm_attributions = True
        shared = _jsonified(asdict(make_jobs(2)[1].config))
        rebuilt = wire_round_trip(job, shared)
        assert rebuilt.deadline == 12.5
        assert rebuilt.time_budget == 3.0
        assert rebuilt.confirm_attributions is True
        assert rebuilt.config.base_seed == job.config.base_seed


# ---------------------------------------------------------------------------
# The lease protocol (fake broker clock; no campaign runs).
# ---------------------------------------------------------------------------


class TestLeaseProtocol:
    def test_claim_is_exclusive(self, broker):
        queue, _ = published(broker, jobs=make_jobs(1))
        other = client(broker, node="n2")
        (job, lease), = queue.claim_next()
        assert job.job_index == 0 and lease.attempt == 1
        assert other.claim_next() == []  # live lease
        queue.close()
        other.close()

    def test_expired_lease_reclaims_with_bumped_attempt(self, broker):
        clock = FakeClock()
        broker.clock = clock
        queue, _ = published(broker, jobs=make_jobs(1),
                             lease_duration=10.0, retry_backoff=1.0)
        queue.claim_next()
        other = client(broker, node="n2")
        clock.advance(10.5)           # expired, but inside backoff
        assert other.claim_next() == []
        clock.advance(1.0)            # past expiry + backoff
        (_job, lease), = other.claim_next()
        assert lease.attempt == 2 and lease.node == "n2"
        # The first owner finds out on its next heartbeat.
        assert not queue.heartbeat(0, 10.0)
        queue.close()
        other.close()

    def test_reclaim_honors_exponential_backoff(self, broker):
        clock = FakeClock()
        broker.clock = clock
        queue, _ = published(broker, jobs=make_jobs(1), lease_duration=10.0,
                             retry_backoff=2.0, max_attempts=5)
        queue.claim_next()
        clock.advance(12.5)           # 10 + backoff 2*2^0
        assert claimed_indexes(queue) == [0]  # attempt 2
        clock.advance(10.5)
        assert queue.claim_next() == []  # attempt-2 backoff is 4s
        clock.advance(4.0)
        (_job, lease), = queue.claim_next()
        assert lease.attempt == 3
        queue.close()

    def test_attempts_exhausted_tombstones_as_node_lost(self, broker):
        clock = FakeClock()
        broker.clock = clock
        queue, _ = published(broker, jobs=make_jobs(1), lease_duration=5.0,
                             max_attempts=2, retry_backoff=0.1)
        queue.claim_next()
        clock.advance(100.0)
        assert claimed_indexes(queue) == [0]  # attempt 2 (the last allowed)
        clock.advance(100.0)
        assert queue.claim_next() == []  # exhausted: tombstoned instead
        stones = queue.collect_tombstones()
        assert stones[0]["reason"] == "node_lost"
        assert stones[0]["attempts"] == 2
        assert queue.drained()
        queue.close()

    def test_released_lease_tombstones_as_quarantine(self, broker):
        clock = FakeClock()
        broker.clock = clock
        queue, _ = published(broker, jobs=make_jobs(1), max_attempts=1)
        (_job, lease), = queue.claim_next()
        queue.release_for_retry(0, lease, "hang", "deadline exceeded")
        assert queue.claim_next() == []
        stones = queue.collect_tombstones()
        assert stones[0]["reason"] == "quarantine"
        assert "deadline exceeded" in stones[0]["error"]
        queue.close()

    def test_released_lease_is_reclaimable_before_exhaustion(self, broker):
        clock = FakeClock()
        broker.clock = clock
        queue, _ = published(broker, jobs=make_jobs(1), max_attempts=3,
                             retry_backoff=1.0)
        (_job, lease), = queue.claim_next()
        queue.release_for_retry(0, lease, "crash", "worker died")
        assert queue.claim_next() == []  # inside backoff
        clock.advance(2.0)
        (_job, lease), = queue.claim_next()
        assert lease.attempt == 2
        queue.close()

    def test_heartbeat_renews_and_detects_loss(self, broker):
        clock = FakeClock()
        broker.clock = clock
        queue, _ = published(broker, jobs=make_jobs(1), lease_duration=10.0,
                             retry_backoff=0.1)
        queue.claim_next()
        clock.advance(8.0)
        assert queue.heartbeat(0, 10.0)
        clock.advance(8.0)            # would be past the original expiry
        assert broker.leases()[0].expires_at > clock()
        # Another node steals after expiry; our next heartbeat reports loss.
        clock.advance(20.0)
        thief = client(broker, node="thief")
        assert claimed_indexes(thief) == [0]
        assert not queue.heartbeat(0, 10.0)
        assert broker.metrics.counter("dist.lease.lost") == 1
        queue.close()
        thief.close()

    def test_sweep_retires_exhausted_leases(self, broker):
        clock = FakeClock()
        broker.clock = clock
        queue, _ = published(broker, lease_duration=5.0, max_attempts=1)
        assert claimed_indexes(queue, limit=2) == [0, 1]
        clock.advance(100.0)
        sweeper = client(broker, node="coordinator")
        assert sweeper.sweep() == 2
        stones = sweeper.collect_tombstones()
        assert set(stones) == {0, 1}
        assert all(s["reason"] == "node_lost" for s in stones.values())
        assert broker.metrics.counter("dist.node_lost") == 2
        queue.close()
        sweeper.close()


# ---------------------------------------------------------------------------
# Result publishing: dedup, repair, foreign fingerprints.
# ---------------------------------------------------------------------------


class TestResultPublishing:
    def test_duplicate_result_is_dropped_deterministically(self, broker):
        queue, fingerprint = published(broker)
        first = make_result(0, worker="n1")
        assert queue.publish_result(first, fingerprint)
        dupe = make_result(0, worker="n2")
        dupe.iterations = 999  # would corrupt totals if it won
        assert not queue.publish_result(dupe, fingerprint)
        collected = queue.collect_results(fingerprint)
        assert collected[0].worker == "n1"
        assert collected[0].iterations == 2
        assert broker.metrics.counter("dist.results.duplicate") == 1
        queue.close()

    def test_torn_result_reads_as_absent_and_is_repaired(self, tmp_path):
        broker = QueueBroker(journal_dir=str(tmp_path / "broker"))
        broker.start()
        queue, fingerprint = published(broker)
        assert queue.publish_result(make_result(0), fingerprint)
        assert queue.publish_result(make_result(1), fingerprint)
        queue.close()
        # A crash mid-append tears result 1's journal record.
        revived = restart_broker(broker, damage=True)
        try:
            queue = client(revived)
            assert set(queue.collect_results(fingerprint)) == {0}
            assert queue.publish_result(make_result(1), fingerprint)
            assert queue.collect_results(fingerprint)[1].iterations == 2
            queue.close()
        finally:
            revived.stop()

    def test_foreign_fingerprint_results_are_dropped(self, broker):
        queue, fingerprint = published(broker)
        queue.publish_result(make_result(0), "cafebabe" * 8)
        assert queue.collect_results(fingerprint) == {}
        assert broker.metrics.counter("dist.results.foreign") == 1
        queue.close()

    def test_republish_same_campaign_is_idempotent(self, broker):
        queue, fingerprint = published(broker)
        coordinator = client(broker, node="coordinator")
        coordinator.publish(make_jobs(), fingerprint)
        coordinator.close()
        assert queue.manifest()["fingerprint"] == fingerprint
        assert claimed_indexes(queue) == [0, 1, 2]
        queue.close()


# ---------------------------------------------------------------------------
# Distributed campaigns end to end.
# ---------------------------------------------------------------------------


class TestDistributedCampaign:
    def test_single_node_matches_single_host(self, broker, reference):
        config = dist_config(broker.address)
        report, (node_report,) = run_distributed(config)
        assert report_key(report) == report_key(reference)
        assert report.metrics.deterministic() == \
            reference.metrics.deterministic()
        assert node_report.published == node_report.jobs_run
        assert not report.failed_shards and not report.quarantined

    def test_two_nodes_match_single_host(self, broker, reference):
        config = dist_config(broker.address)
        report, node_reports = run_distributed(
            config, node_names=("n1", "n2"), node_workers=2)
        assert report_key(report) == report_key(reference)
        assert report.metrics.deterministic() == \
            reference.metrics.deterministic()
        assert sum(r.published for r in node_reports) == SMALL["corpus_size"]

    def test_node_loss_recovers_with_parity(self, broker, reference):
        """A node claims a job and its connection drops without a
        result (kill -9); a healthy node reclaims and finishes; the
        merged report shows parity."""
        config = dist_config(broker.address,
                             dist=dict(lease_duration=30.0, max_attempts=3))
        box = {}

        def coordinate():
            box["report"] = run_campaign(config)

        coordinator = threading.Thread(target=coordinate)
        coordinator.start()
        try:
            doomed = client(broker, node="doomed")
            assert wait_for(lambda: doomed.manifest() is not None, 60)
            assert doomed.claim_next(limit=1)
            doomed.close()            # never runs the job: simulated kill -9
            # A healthy node drains everything, including the reclaim.
            healthy = NodeRunner(client(broker, node="healthy"), workers=1)
            healthy.run(time_budget=120, wait_for_manifest=60)
            healthy.queue.close()
        finally:
            coordinator.join(timeout=120)
        assert not coordinator.is_alive()
        report = box["report"]
        assert report_key(report) == report_key(reference)
        assert report.metrics.deterministic() == \
            reference.metrics.deterministic()
        assert not report.failed_shards
        assert broker.metrics.counter("dist.lease.reclaims") >= 1

    def test_coordinator_death_nodes_park_results_for_resume(
            self, broker, reference):
        """Kill the coordinator before any result lands: nodes drain the
        queue on their own and park results; a restarted coordinator
        collects them without re-running anything."""
        config = dist_config(broker.address)
        executor = CampaignExecutor(config)
        jobs = executor.build_jobs()
        fingerprint = jobs_fingerprint(jobs)
        # "Coordinator died right after publishing": only the broker's
        # state exists, no coordinator process is polling.
        coordinator_queue = client(broker, node="coordinator")
        coordinator_queue.publish(
            jobs, fingerprint, lease_duration=config.dist.lease_duration,
            max_attempts=config.dist.max_attempts,
            retry_backoff=config.retry_backoff)
        coordinator_queue.close()
        node = NodeRunner(client(broker, node="n1"), workers=2)
        node_report = node.run(time_budget=120, wait_for_manifest=5)
        node.queue.close()
        assert node_report.published == len(jobs)
        # The restarted coordinator collects the parked results.
        report = run_campaign(config)
        assert report_key(report) == report_key(reference)
        assert report.metrics.deterministic() == \
            reference.metrics.deterministic()
        assert broker.metrics.counter("dist.results.published") == len(jobs)

    def test_torn_results_are_repaired_with_parity(self, tmp_path,
                                                   reference):
        """The broker is killed mid-campaign and its journal's final
        result record torn; the revived broker has forgotten that
        result, the job re-runs, and parity holds."""
        broker = QueueBroker(journal_dir=str(tmp_path / "broker"))
        broker.start()
        config = dist_config(broker.address)
        revived_box = {}

        def assassin():
            if wait_for(lambda: len(broker._results) >= 2, timeout=60):
                revived_box["broker"] = restart_broker(broker, damage=True)

        hitman = threading.Thread(target=assassin)
        hitman.start()
        try:
            report, _nodes = run_distributed(
                config, queues=[client(broker, connect_timeout=60.0)])
        finally:
            hitman.join(timeout=90)
            revived_box.get("broker", broker).stop()
        assert "broker" in revived_box, "broker was never killed"
        assert revived_box["broker"].metrics.counter(
            "net.journal.torn_tail") == 1
        assert report_key(report) == report_key(reference)
        assert report.metrics.deterministic() == \
            reference.metrics.deterministic()

    def test_checkpointed_distributed_run_resumes(self, broker, tmp_path,
                                                  reference):
        checkpoint = os.path.join(str(tmp_path), "ckpt")
        config = dist_config(broker.address, checkpoint_dir=checkpoint)
        report, _ = run_distributed(config)
        assert report_key(report) == report_key(reference)
        # Resume with every job cached: nothing left to dispatch.
        resumed = run_campaign(config, resume=True)
        assert resumed.resumed_jobs == SMALL["corpus_size"]
        assert report_key(resumed) == report_key(reference)
        assert resumed.metrics.deterministic() == \
            reference.metrics.deterministic()

    def test_feedback_corpus_deltas_merge_across_nodes(self, broker,
                                                       tmp_path):
        from repro.fuzz import Corpus
        from repro.fuzz.dist import MERGED_CORPUS_NAME
        from repro.fuzz.feedback import FeedbackConfig
        corpus_dir = os.path.join(str(tmp_path), "cd")
        config = dist_config(broker.address, feedback=FeedbackConfig(
            enabled=True, corpus_dir=corpus_dir))
        baseline = run_campaign(CampaignConfig(
            workers=1, feedback=FeedbackConfig(enabled=True), **SMALL))
        report, _ = run_distributed(config, node_names=("n1", "n2"))
        assert report_key(report) == report_key(baseline)
        queue = client(broker, node="inspector")
        deltas = queue.corpus_deltas()
        queue.close()
        if deltas:                    # deltas only exist if jobs admitted
            per_job = []
            for index, data in deltas:
                path = os.path.join(str(tmp_path), f"delta{index}.jsonl")
                with open(path, "wb") as stream:
                    stream.write(data)
                per_job.append(len(Corpus.load(path, max_size=4096)))
            merged = Corpus.load(os.path.join(corpus_dir,
                                              MERGED_CORPUS_NAME),
                                 max_size=4096)
            assert 1 <= len(merged) <= sum(per_job)
            assert report.metrics.counter(
                "dist.corpus.merged_entries") == len(merged)

    def test_broker_campaign_leaves_no_temp_dirs(self, broker, reference):
        """Without a checkpoint or corpus directory there is nowhere
        durable for the merged corpus: the coordinator skips the merge
        instead of inventing a temp directory nobody is told about."""
        from repro.fuzz.feedback import FeedbackConfig
        scratch = tempfile.gettempdir()
        before = set(os.listdir(scratch))
        config = dist_config(broker.address,
                             feedback=FeedbackConfig(enabled=True))
        run_distributed(config)
        leaked = [name for name in set(os.listdir(scratch)) - before
                  if name.startswith(("repro-dist-corpus-", "repro-net-"))]
        assert leaked == []


# ---------------------------------------------------------------------------
# Hypothesis: any interleaving of node deaths yields the same findings.
# ---------------------------------------------------------------------------


_property_state = {}


def _property_reference():
    if "reference" not in _property_state:
        _property_state["reference"] = run_campaign(
            CampaignConfig(workers=1, **TINY))
    return _property_state["reference"]


class TestNodeDeathInterleavings:
    @settings(max_examples=8, deadline=None,
              suppress_health_check=[HealthCheck.too_slow,
                                     HealthCheck.function_scoped_fixture])
    @given(deaths=st.lists(st.booleans(), min_size=0, max_size=6))
    def test_any_death_interleaving_preserves_findings(self, deaths):
        """Each drawn boolean is one scheduling step: True = a node
        claims a job and dies mid-lease (kill -9), False = a node runs
        one job to completion.  Whatever the interleaving, the drained
        queue merges to the uninterrupted run's findings and
        deterministic metrics."""
        reference = _property_reference()
        clock = FakeClock()
        broker = QueueBroker(clock=clock)
        broker.start()
        try:
            config = CampaignConfig(
                workers=1,
                dist=DistConfig(queue_addr=broker.address,
                                wait_timeout=120.0, lease_duration=30.0,
                                max_attempts=100, poll_interval=0.01),
                **TINY)
            jobs = CampaignExecutor(config).build_jobs()
            coordinator = client(broker, node="coordinator")
            coordinator.publish(jobs, jobs_fingerprint(jobs),
                                lease_duration=30.0, max_attempts=100,
                                retry_backoff=0.0)
            coordinator.close()
            for step, dies in enumerate(deaths):
                queue = client(broker, node=f"node-{step}")
                if dies:
                    if queue.claim_next(limit=1):
                        clock.advance(31.0)  # the dead node's lease expires
                else:
                    NodeRunner(queue, workers=1).run_once()
                queue.close()
            # A final healthy node drains whatever is left.
            clock.advance(1000.0)
            survivor = NodeRunner(client(broker, node="survivor"),
                                  workers=1)
            while survivor.run_once() is not None:
                pass
            survivor.queue.close()
            report = run_campaign(config)   # restarted coordinator collects
        finally:
            broker.stop()
        assert report_key(report) == report_key(reference)
        assert report.metrics.deterministic() == \
            reference.metrics.deterministic()


# ---------------------------------------------------------------------------
# Corpus-journal merging.
# ---------------------------------------------------------------------------


def publish_delta(queue, tmp_path, index, features):
    from repro.fuzz.corpus import Corpus, CorpusEntry, CorpusJournal
    path = os.path.join(str(tmp_path), f"delta{index}.jsonl")
    journal = CorpusJournal(path)
    corpus = Corpus(max_size=16, journal=journal)
    corpus.consider(CorpusEntry(text=f"m{index}", fingerprint=f"fp{index}",
                                features=frozenset(features)))
    journal.close()
    assert queue.publish_corpus(index, path)


class TestMergeCorpusJournals:
    def test_merges_in_job_index_order(self, broker, tmp_path):
        from repro.fuzz.corpus import Corpus
        queue, _ = published(broker)
        for index, features in ((0, ("a", "b")), (1, ("b", "c"))):
            publish_delta(queue, tmp_path, index, features)
        out = os.path.join(str(tmp_path), "merged.jsonl")
        merged = merge_corpus_journals(queue, out)
        assert merged == 2
        loaded = Corpus.load(out, max_size=16)
        assert {e.fingerprint for e in loaded.entries()} == {"fp0", "fp1"}
        queue.close()

    def test_duplicate_features_deduplicate(self, broker, tmp_path):
        from repro.fuzz.corpus import Corpus
        queue, _ = published(broker)
        for index in (1, 0):          # publish order must not matter
            publish_delta(queue, tmp_path, index, ("same",))
        out = os.path.join(str(tmp_path), "merged.jsonl")
        assert merge_corpus_journals(queue, out) == 1
        loaded = Corpus.load(out, max_size=16)
        # Job-index order decides the surviving witness deterministically.
        assert [e.fingerprint for e in loaded.entries()] == ["fp0"]
        queue.close()


# ---------------------------------------------------------------------------
# Binary payloads and deduplicated job records.
# ---------------------------------------------------------------------------


class TestWirePayloads:
    def test_config_requires_exactly_one_transport(self):
        with pytest.raises(ValueError):
            DistConfig().validate()
        with pytest.raises(ValueError):
            DistConfig(queue_addr="127.0.0.1:1",
                       lease_duration=0.0).validate()
        assert DistConfig(queue_addr="127.0.0.1:1").validate()

    def test_identical_modules_share_one_blob(self, broker):
        # make_jobs() publishes three jobs over the same module text:
        # content addressing stores the bitcode exactly once.
        queue, _ = published(broker)
        assert len(broker.blobs.digests()) == 1
        queue.close()

    def test_unchanged_republish_skips_serialization(self, broker):
        queue, fingerprint = published(broker)
        coordinator = client(broker, node="coordinator")
        coordinator.publish(make_jobs(), fingerprint)
        coordinator.close()
        assert broker.metrics.counter("dist.jobs.unchanged") == 3
        assert broker.metrics.counter("dist.jobs.published") == 3
        assert broker.metrics.counter("wire.blob.stored") == 1
        queue.close()

    def test_bitcode_payload_travels_by_default(self, broker, reference):
        config = dist_config(broker.address)
        report, _nodes = run_distributed(config)
        assert report_key(report) == report_key(reference)
        assert report.metrics.counter("bitcode.encode.count") > 0
