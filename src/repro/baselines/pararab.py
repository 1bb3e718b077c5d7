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
   It reads the product :class:`~repro.core.match_table.MatchTable`'s
   mining API: the alphabet as ``ParDis`` builds it, one row bitset per
   literal, and the bitset distinct-pivot support.

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

import numpy as np

from ..core.config import DiscoveryConfig
from ..core.generation_tree import TreeNode
from ..core.match_table import MatchTable, literal_alphabet
from ..gfd.closure import is_trivial_dependency
from ..gfd.gfd import GFD
from ..gfd.literals import Literal
from ..graph.graph import Graph
from ..parallel.pardis import ParallelDiscovery
from ..pattern.matcher import compile_plans

__all__ = ["ParArabResult", "run_pararab"]


@dataclass
class ParArabResult:
    """Outcome of a split-phase run."""

    completed: bool
    gfds: List[GFD] = field(default_factory=list)
    patterns_mined: int = 0
    candidates_generated: int = 0
    elapsed_seconds: float = 0.0


class _PatternOnlyMiner(ParallelDiscovery):
    """Phase 1: frequent-pattern mining with literal processing disabled."""

    def _mine_nodes(self, nodes: List[TreeNode]) -> None:  # phase 1 skips HSpawn
        return


def _full_table(miner: _PatternOnlyMiner, node: TreeNode) -> Optional[MatchTable]:
    """A frequent pattern's whole match table, matched anew on the index's
    plan trie (``None`` when the re-match reaches
    ``max_matches_per_pattern``: a truncated table certifies nothing).  As
    in the engine, the cap bounds joined patterns, not the single-node
    seeds."""
    cap = miner.config.max_matches_per_pattern if node.pattern.num_edges else None
    trie = compile_plans([(None, node.pattern, node.pattern.pivot)])
    blocks, total = [], 0
    for _, block in trie.match(miner.index):
        blocks.append(block)
        total += block.shape[0]
        if cap is not None and total >= cap:
            return None
    matches = np.concatenate(blocks) if blocks else []
    return MatchTable(miner.index, node.pattern, matches, miner.gamma)


def _alphabet(table: MatchTable, config: DiscoveryConfig) -> List[Literal]:
    """The pattern's candidate literals, built as ``ParDis`` builds them."""
    want_variable = config.variable_literals and table.pattern.num_nodes > 1
    values, agreements = table.alphabet_counts(
        config.variable_literals_same_attr_only if want_variable else None
    )
    return literal_alphabet(
        table.index, table.pattern, table.attributes, [values], agreements,
        config.max_constants,
    )


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
    miner = _PatternOnlyMiner(
        graph, config, num_workers=1, backend="serial", stats=stats, index=index
    )
    tree = miner.run().tree
    assert tree is not None
    # every frequent pattern's full embedding set, materialized up front
    tables = [
        _full_table(miner, node)
        for node in tree.all_nodes()
        if node.support >= config.sigma
    ]
    frequent = [table for table in tables if table is not None]

    # ---- phase 2: exhaustive literal extension and validation --------
    candidates = 0
    gfds: List[GFD] = []
    for table in frequent:
        literals = _alphabet(table, config)
        packed = table.literal_bits(literals)
        bits = dict(zip(literals, table.as_bitsets(packed)))
        all_rows = table.full_bits()
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
                if is_trivial_dependency(lhs, rhs):
                    continue
                rows_lhs = all_rows
                for literal in lhs:
                    rows_lhs &= bits[literal]
                rows_both = rows_lhs & bits[rhs]
                count = rows_lhs.bit_count()
                if not count or rows_both.bit_count() != count:
                    continue
                if table.bits_support(rows_both) >= config.sigma:
                    gfds.append(GFD(table.pattern, lhs, rhs))
    return ParArabResult(
        completed=True,
        gfds=gfds,
        patterns_mined=len(frequent),
        candidates_generated=candidates,
        elapsed_seconds=time.perf_counter() - started,
    )
