"""The ``Session`` facade: one front door to parse → drive → report.

A session holds IR sources (one file, several files, or a generated
corpus) plus the fuzzing configuration, and exposes the two workflows of
the paper behind two methods:

* :meth:`Session.run` — the in-process mutate→optimize→verify loop,
  returning a (merged) :class:`~repro.fuzz.driver.FuzzReport`;
* :meth:`Session.run_campaign` — the Table-I bug campaign over the
  session's sources, optionally sharded across worker processes,
  returning a :class:`~repro.fuzz.campaign.CampaignReport`.

>>> from repro import FuzzConfig, Session
>>> report = Session.from_text(ir_text,
...                            FuzzConfig(pipeline="O2")).run(iterations=100)
>>> campaign = Session.from_corpus(size=24).run_campaign(workers=4)
"""

from __future__ import annotations

from dataclasses import replace
from typing import List, Optional, Sequence, Tuple

from ..ir.module import Module
from ..ir.parser import parse_module
from .campaign import CampaignConfig, CampaignReport
from .driver import FuzzConfig, FuzzDriver, FuzzReport
from .feedback import FeedbackStats
from .seeds import generate_corpus

__all__ = ["Session"]


class Session:
    """IR sources + configuration, ready to fuzz."""

    def __init__(self, sources: Sequence[Tuple[str, str]],
                 fuzz: Optional[FuzzConfig] = None,
                 campaign: Optional[CampaignConfig] = None) -> None:
        self.sources: List[Tuple[str, str]] = list(sources)
        self.fuzz_config = (fuzz or FuzzConfig()).validate()
        self.campaign_config = campaign

    # -- constructors -------------------------------------------------------

    @classmethod
    def from_text(cls, text: str, fuzz: Optional[FuzzConfig] = None,
                  file_name: str = "input.ll",
                  campaign: Optional[CampaignConfig] = None) -> "Session":
        """A session over one in-memory ``.ll`` source."""
        return cls([(file_name, text)], fuzz=fuzz, campaign=campaign)

    @classmethod
    def from_file(cls, path: str, fuzz: Optional[FuzzConfig] = None,
                  campaign: Optional[CampaignConfig] = None) -> "Session":
        """A session over one ``.ll`` file on disk."""
        with open(path) as stream:
            return cls([(path, stream.read())], fuzz=fuzz, campaign=campaign)

    @classmethod
    def from_corpus(cls, size: int = 48, seed: int = 0,
                    fuzz: Optional[FuzzConfig] = None,
                    campaign: Optional[CampaignConfig] = None) -> "Session":
        """A session over the deterministic generated corpus.

        ``Session.from_corpus(size, seed).run_campaign()`` is equivalent
        to ``run_campaign(CampaignConfig(corpus_size=size,
        corpus_seed=seed))``.
        """
        return cls(generate_corpus(size, seed), fuzz=fuzz, campaign=campaign)

    # -- the two workflows --------------------------------------------------

    def driver(self, index: int = 0) -> FuzzDriver:
        """A fresh :class:`FuzzDriver` for source ``index``."""
        file_name, text = self.sources[index]
        return FuzzDriver(parse_module(text, file_name), self.fuzz_config,
                          file_name=file_name)

    def run(self, iterations: Optional[int] = None,
            time_budget: Optional[float] = None,
            strict: bool = False) -> FuzzReport:
        """Fuzz every source with the session's config; merge the reports.

        The budget applies per source.  For a single-source session this
        is exactly ``FuzzDriver.run``.
        """
        self.fuzz_config.validate(iterations=iterations,
                                  time_budget=time_budget,
                                  require_budget=True)
        merged = FuzzReport()
        for index in range(len(self.sources)):
            driver = self.driver(index)
            try:
                report = driver.run(iterations=iterations,
                                    time_budget=time_budget,
                                    strict=strict)
            finally:
                driver.close()
            merged.iterations += report.iterations
            merged.findings.extend(report.findings)
            merged.dropped_functions.update(report.dropped_functions)
            merged.inconclusive += report.inconclusive
            merged.timings.mutate += report.timings.mutate
            merged.timings.optimize += report.timings.optimize
            merged.timings.verify += report.timings.verify
            merged.metrics.merge(report.metrics)
            if report.feedback is not None:
                if merged.feedback is None:
                    merged.feedback = FeedbackStats()
                merged.feedback.merge(report.feedback)
            for operator, count in report.mutation_counts.items():
                merged.mutation_counts[operator] = \
                    merged.mutation_counts.get(operator, 0) + count
        return merged

    def run_campaign(self, campaign: Optional[CampaignConfig] = None,
                     workers: Optional[int] = None,
                     resume: bool = False) -> CampaignReport:
        """The Table-I campaign over this session's sources.

        ``resume=True`` (requires ``campaign.checkpoint_dir``) merges
        results journaled by a previous — possibly killed — run and
        fuzzes only the remaining jobs.
        """
        from .parallel import CampaignExecutor
        config = campaign or self.campaign_config or CampaignConfig()
        if workers is not None:
            config = replace(config, workers=workers)
        executor = CampaignExecutor(config, corpus=self.sources)
        return executor.execute(resume=resume)

    @staticmethod
    def run_node(queue_addr: str, node: str = "", workers: int = 1,
                 time_budget: Optional[float] = None,
                 max_jobs: Optional[int] = None,
                 wait_for_manifest: Optional[float] = 30.0,
                 work_dir: Optional[str] = None):
        """Join a distributed campaign as a worker node.

        The node needs no sources or config of its own — the job matrix
        (seed text included) comes from the broker at ``queue_addr``
        (``HOST:PORT``) the coordinator published to.  Blocks until the
        queue drains (or the budget/count limit hits) and returns the
        :class:`~repro.fuzz.dist.NodeReport`.  The coordinator side is
        ``run_campaign`` with ``campaign.dist`` set.
        """
        from .dist import NodeRunner
        from .net import SocketQueue
        queue = SocketQueue(queue_addr, node=node)
        try:
            runner = NodeRunner(queue, workers=workers, work_dir=work_dir)
            return runner.run(time_budget=time_budget, max_jobs=max_jobs,
                              wait_for_manifest=wait_for_manifest)
        finally:
            queue.close()

    def replay(self, seed: int, index: int = 0) -> Module:
        """Re-create the mutant a finding's seed denotes (paper §III-E)."""
        return self.driver(index).recreate(seed)
