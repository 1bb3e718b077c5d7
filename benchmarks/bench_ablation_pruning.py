"""Exp-1 preamble: infeasibility of ParGFDn and ParArab.

Paper: "Without effective pruning, ParGFDn fails to complete on all
real-life graphs even when n = 20 ... Without integrated discovery,
ParArab fails at the parallel verification step."  The reproduction gives
both a candidate budget several times what DisGFD needs and shows they blow
through it while DisGFD completes.
"""

from __future__ import annotations

from _harness import dataset, discovery_config, record, run_once

from repro.baselines import run_pararab, run_pargfd_n
from repro.parallel import ParallelDiscovery

BUDGET_MULTIPLIER = 5


def _ablate():
    graph = dataset("yago2")
    config = discovery_config("yago2", max_lhs_size=2)
    result = ParallelDiscovery(graph, config, num_workers=4).run()
    baseline_candidates = result.stats.candidates_checked
    budget = baseline_candidates * BUDGET_MULTIPLIER
    unpruned = run_pargfd_n(graph, config, num_workers=4, candidate_budget=budget)
    split = run_pararab(graph, config, candidate_budget=budget)
    return baseline_candidates, budget, unpruned, split


def test_ablation_pruning(benchmark):
    baseline, budget, unpruned, split = run_once(benchmark, _ablate)
    record(
        "ablation_pruning",
        [
            f"DisGFD candidates\t{baseline}",
            f"budget (5x DisGFD)\t{budget}",
            f"ParGFDn completed\t{unpruned.completed}"
            f"\t(candidates {unpruned.candidates_checked})",
            f"ParArab completed\t{split.completed}"
            f"\t(candidates {split.candidates_generated})",
        ],
    )
    assert not unpruned.completed, "no-pruning run must blow the budget"
    assert not split.completed, "split-phase run must blow the budget"
