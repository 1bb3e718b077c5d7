"""Ablation variants of DisGFD (Section 7's baselines).

* ``ParGFDn``  — DisGFD *without the pruning strategies of Lemma 4*.  The
  paper reports it "fails to complete on all real-life graphs even when
  n = 20; it quickly consumes the available memory, due to a large number of
  GFD candidates."  Here the un-pruned run aborts through the candidate
  budget and reports how far it got.
* ``ParCovern`` — ParCover *without GFD grouping* (Lemma 6 unused), used in
  Figures 5(i)-(l); re-exported from :mod:`repro.parallel.parcover`.

There is no ``ParGFDnb`` (DisGFD *without load balancing*, Figures
5(a)-(h)): DisGFD itself keeps every joined row on the worker that joined
it, so the two would be one run.  Re-dealing a skewed join never moved the
largest per-worker share by more than 0.1 % on the scale models
(``docs/CLAIMS.md``), so it was dropped.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

from ..core.config import CandidateBudgetExceeded, DiscoveryConfig
from ..core.results import DiscoveryResult
from ..graph.graph import Graph
from ..parallel.parcover import parallel_cover_ungrouped
from ..parallel.pardis import ParallelDiscovery

__all__ = [
    "UnprunedRun",
    "run_pargfd_n",
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

