"""Ablation variants of DisGFD (Section 7's baselines).

* ``ParGFDn``  — DisGFD *without the pruning strategies of Lemma 4*.  The
  paper reports it "fails to complete on all real-life graphs even when
  n = 20; it quickly consumes the available memory, due to a large number of
  GFD candidates."  Here the un-pruned run aborts through the candidate
  budget and reports how far it got.
* ``ParGFDnb`` — DisGFD *without load balancing* (skewed match shards stay
  where the joins produced them), used across Figures 5(a)-(h).
* ``ParCovern`` — ParCover *without GFD grouping* (Lemma 6 unused), used in
  Figures 5(i)-(l); re-exported from :mod:`repro.parallel.parcover`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Tuple

from ..core.config import CandidateBudgetExceeded, DiscoveryConfig
from ..core.results import DiscoveryResult
from ..graph.graph import Graph
from ..parallel.backend import WorkLedger
from ..parallel.parcover import parallel_cover_ungrouped
from ..parallel.pardis import ParallelDiscovery

__all__ = [
    "UnprunedRun",
    "run_pargfd_n",
    "run_pargfd_nb",
    "parallel_cover_ungrouped",
]


@dataclass
class UnprunedRun:
    """Outcome of a ``ParGFDn`` attempt."""

    completed: bool
    result: Optional[DiscoveryResult] = None
    candidates_checked: int = 0
    patterns_spawned: int = 0


def run_pargfd_n(
    graph: Graph,
    config: DiscoveryConfig,
    num_workers: int = 4,
    candidate_budget: Optional[int] = 500_000,
    stats=None,
    index=None,
) -> UnprunedRun:
    """``ParGFDn``: parallel discovery with Lemma 4 pruning disabled.

    A candidate budget stands in for the paper's memory exhaustion; the run
    reports ``completed=False`` when it trips.
    """
    unpruned = replace(config, prune=False, max_candidates=candidate_budget)
    runner = ParallelDiscovery(graph, unpruned, num_workers, stats=stats, index=index)
    try:
        result = runner.run()
    except CandidateBudgetExceeded as blowup:
        return UnprunedRun(
            completed=False,
            candidates_checked=blowup.candidates_checked,
            patterns_spawned=blowup.patterns_spawned,
        )
    return UnprunedRun(
        completed=True,
        result=result,
        candidates_checked=result.stats.candidates_checked,
        patterns_spawned=result.stats.patterns_spawned,
    )


def run_pargfd_nb(
    graph: Graph,
    config: DiscoveryConfig,
    num_workers: int = 4,
    stats=None,
    index=None,
) -> Tuple[DiscoveryResult, WorkLedger]:
    """``ParGFDnb``: parallel discovery with load balancing disabled.

    Returns the result and the run's per-worker
    :class:`~repro.parallel.backend.WorkLedger`.
    """
    runner = ParallelDiscovery(
        graph, config, num_workers, balance=False, stats=stats, index=index
    )
    result = runner.run()
    return result, runner.work
