"""Fuzzing harnesses: in-process driver, discrete baseline, corpus,
radamsa study, bug campaign (sequential, sharded, or distributed across
nodes via the lease-based queue broker — with checkpoint/resume, watchdog
deadlines, and quarantine), the fault-injection/chaos test harness, the
throughput experiment, and the ``Session`` facade tying them
together."""

from .campaign import (JOB_SEED_STRIDE, BugOutcome, CampaignConfig,
                       CampaignReport, QuarantinedJob, ShardFailure,
                       run_campaign)
from .checkpoint import (CheckpointError, CheckpointJournal,
                         CheckpointMismatch, jobs_fingerprint)
from .corpus import (Corpus, CorpusEntry, CorpusJournal, merge_journals,
                     module_fingerprint)
from .discrete import DiscreteConfig, DiscreteReport, run_discrete_workflow
from .dist import (DistConfig, NodeReport, NodeRunner, QueueError,
                   QueueMismatch)
from .driver import (ConfigError, DeadlineExceeded, FuzzConfig, FuzzDriver,
                     FuzzReport, StageTimings)
from .feedback import Feedback, FeedbackConfig, FeedbackMap, FeedbackStats
from .faults import (ChaosSocketQueue, FaultInjected, FaultSpec,
                     FaultyRunner, damage_journal, torn_write)
from .findings import CRASH, MISCOMPILATION, BugLog, Finding
from .net import QueueBroker, SocketQueue
from .wire import BlobStore, DecodeCache
from .parallel import (CampaignExecutor, ShardJob, ShardResult, execute_job,
                       run_jobs)
from .radamsa import (BORING, INTERESTING, INVALID, ValidityStats,
                      classify_mutant, radamsa_mutate, run_validity_study)
from .reduce import ReductionResult, reduce_module
from .schedule import BanditScheduler
from .seeds import (ARCHETYPES, corpus_modules, generate_corpus,
                    generate_large_corpus)
from .session import Session
from .throughput import (FileTiming, ThroughputConfig, ThroughputReport,
                         run_throughput_experiment)

__all__ = [
    "JOB_SEED_STRIDE", "BugOutcome", "CampaignConfig", "CampaignReport",
    "QuarantinedJob", "ShardFailure", "run_campaign",
    "CheckpointError", "CheckpointJournal", "CheckpointMismatch",
    "jobs_fingerprint",
    "Corpus", "CorpusEntry", "CorpusJournal", "merge_journals",
    "module_fingerprint",
    "DiscreteConfig", "DiscreteReport", "run_discrete_workflow",
    "DistConfig", "NodeReport", "NodeRunner", "QueueError", "QueueMismatch",
    "QueueBroker", "SocketQueue", "BlobStore", "DecodeCache",
    "ConfigError", "DeadlineExceeded", "FuzzConfig", "FuzzDriver",
    "FuzzReport", "StageTimings",
    "Feedback", "FeedbackConfig", "FeedbackMap", "FeedbackStats",
    "ChaosSocketQueue", "FaultInjected", "FaultSpec", "FaultyRunner",
    "damage_journal", "torn_write",
    "CRASH", "MISCOMPILATION", "BugLog", "Finding",
    "CampaignExecutor", "ShardJob", "ShardResult", "execute_job", "run_jobs",
    "BORING", "INTERESTING", "INVALID", "ValidityStats", "classify_mutant",
    "radamsa_mutate", "run_validity_study",
    "ReductionResult", "reduce_module",
    "BanditScheduler",
    "ARCHETYPES", "corpus_modules", "generate_corpus",
    "generate_large_corpus",
    "Session",
    "FileTiming", "ThroughputConfig", "ThroughputReport",
    "run_throughput_experiment",
]
