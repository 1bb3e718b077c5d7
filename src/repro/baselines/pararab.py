"""``ParArab`` — the split-phase baseline (Section 7, "Infeasibility of ...").

The paper's first baseline decouples what ``DisGFD`` integrates:

1. **Phase 1** mines all frequent patterns with a general-purpose pattern
   miner (Arabesque [39] in the paper) — *without* any dependency-awareness:
   no pivoted support pruning of the literal space, no covered-pair
   inheritance, and materializing every frequent pattern's full embedding
   set up front;
2. **Phase 2** extends each mined pattern with literals and validates every
   resulting GFD candidate — with none of Lemma 4's early termination,
   because phase 2 sees patterns only after phase 1 has committed to them.

The candidate space is the full per-pattern literal lattice; on real graphs
the paper reports that the verification step fails outright.  This
reimplementation reproduces the *protocol* and reports how many candidates
it generates; a configurable budget lets benches demonstrate the blow-up
without exhausting memory (the run is marked ``completed=False``, matching
"fails to complete").
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from itertools import combinations
from typing import List, Optional

from ..core.config import DiscoveryConfig
from ..core.discovery import SequentialDiscovery
from ..core.generation_tree import TreeNode
from ..gfd.gfd import GFD, is_trivial
from ..graph.graph import Graph

__all__ = ["ParArabResult", "run_pararab"]


@dataclass
class ParArabResult:
    """Outcome of a split-phase run."""

    completed: bool
    gfds: List[GFD] = field(default_factory=list)
    patterns_mined: int = 0
    candidates_generated: int = 0
    elapsed_seconds: float = 0.0


class _PatternOnlyMiner(SequentialDiscovery):
    """Phase 1: frequent-pattern mining with literal processing disabled."""

    def _hspawn(self, node: TreeNode) -> None:  # noqa: D102 - phase 1 skips FD mining
        return


def run_pararab(
    graph: Graph,
    config: Optional[DiscoveryConfig] = None,
    candidate_budget: Optional[int] = 2_000_000,
    stats=None,
    index=None,
) -> ParArabResult:
    """Execute the split-phase protocol; see the module docstring."""
    started = time.perf_counter()
    config = config or DiscoveryConfig()

    # ---- phase 1: pattern mining only --------------------------------
    miner = _PatternOnlyMiner(graph, config, stats=stats, index=index)
    phase1 = miner.run()
    tree = phase1.tree
    assert tree is not None
    frequent = [
        node
        for node in tree.all_nodes()
        if node.support >= config.sigma and node.table is not None
        and not node.table.truncated
    ]

    # ---- phase 2: exhaustive literal extension and validation --------
    candidates = 0
    gfds: List[GFD] = []
    for node in frequent:
        table = node.table
        literals = list(
            table.candidate_constant_literals(config.max_constants)
        )
        if config.variable_literals and node.pattern.num_nodes > 1:
            literals.extend(
                table.candidate_variable_literals(
                    config.variable_literals_same_attr_only
                )
            )
        for rhs in literals:
            others = [l for l in literals if l != rhs]
            # the full lattice: every LHS subset up to the size cap, with no
            # early termination on validity — the integrated algorithm's
            # Lemma 4(b)/(c) prunes are exactly what is missing here.
            subsets = [()]
            for size in range(1, config.max_lhs_size + 1):
                subsets.extend(combinations(others, size))
            for subset in subsets:
                candidates += 1
                if candidate_budget is not None and candidates > candidate_budget:
                    return ParArabResult(
                        completed=False,
                        gfds=[],
                        patterns_mined=len(frequent),
                        candidates_generated=candidates,
                        elapsed_seconds=time.perf_counter() - started,
                    )
                lhs = frozenset(subset)
                gfd = GFD(node.pattern, lhs, rhs)
                if is_trivial(gfd):
                    continue
                rows_lhs = table.full_mask()
                for literal in lhs:
                    rows_lhs = rows_lhs & table.literal_mask(literal)
                rows_both = rows_lhs & table.literal_mask(rhs)
                count = table.mask_count(rows_lhs)
                if not count or table.mask_count(rows_both) != count:
                    continue
                if table.mask_support(rows_both) >= config.sigma:
                    gfds.append(gfd)
    return ParArabResult(
        completed=True,
        gfds=gfds,
        patterns_mined=len(frequent),
        candidates_generated=candidates,
        elapsed_seconds=time.perf_counter() - started,
    )
