"""``SeqDis`` — the discovery oracle (Section 5.1).

The algorithm interleaves two levelwise processes over a generation tree:

* **vertical spawning** (``VSpawn``): extend frequent patterns by one edge,
  verify the new patterns by incremental matching, and merge isomorphic
  spawns;
* **horizontal spawning** (``HSpawn``): over each verified pattern's match
  table, grow LHS literal sets levelwise per RHS literal, emitting GFDs that
  are valid, σ-frequent, nontrivial and reduced.

Negative GFDs are discovered *simultaneously* (``NVSpawn`` finds zero-match
extensions of frequent patterns; ``NHSpawn`` finds literal extensions of
valid positives that no match satisfies), per Section 5.1.

Pruning follows Lemma 4: (a) trivial GFDs are never emitted, (b) once
``G ⊨ Q(X → l)``, supersets of ``X`` are not generated for ``(Q, l)``, and
(c) patterns below the support threshold are not extended.  ``ParGFDn``
(the paper's no-pruning baseline) disables these via ``config.prune``.

:class:`SequentialDiscovery` states that algorithm plainly, one pattern at
a time, on the dict adjacency — independent of the CSR index — as the
oracle behind :func:`reference_discover`.  The one mining engine is
``ParDis`` (:class:`~repro.parallel.pardis.ParallelDiscovery`), which
:func:`discover` runs at ``n = 1`` on the ``serial`` backend: ``SeqDis``.
"""

from __future__ import annotations

import time
from typing import Dict, FrozenSet, List, Optional, Tuple

from ..graph.graph import Graph
from ..graph.index import GraphIndex
from ..graph.statistics import GraphStatistics, compute_statistics
from ..gfd.closure import is_trivial_dependency, lhs_unsatisfiable
from ..gfd.gfd import GFD
from ..gfd.literals import FALSE, Literal
from ..pattern.incremental import Extension, apply_extension, extend_matches
from ..pattern.pattern import Pattern
from .config import DiscoveryConfig
from .generation_tree import GenerationTree, TreeNode
from .match_table import MatchTable
from .reduction import gfd_identity, minimal_cover_by_reduction
from .results import DiscoveryResult, MiningStats
from .spawning import (
    extension_counts,
    extensions_from_counts,
    speculative_closing_extensions,
    wildcard_extensions_from_counts,
)

__all__ = ["SequentialDiscovery", "discover", "reference_discover"]


class SequentialDiscovery:
    """One run of ``SeqDis`` over the dict graph: the discovery oracle.

    Usage::

        result = SequentialDiscovery(graph, DiscoveryConfig(k=3, sigma=50)).run()

    Every other path — ``ParDis`` on either backend, :func:`discover`,
    ``Session`` — must reproduce its Σ and supports exactly
    (``tests/test_differential.py``).
    """

    def __init__(self, graph: Graph, config: DiscoveryConfig) -> None:
        self.graph = graph
        self.config = config
        self.graph_stats = compute_statistics(graph)
        if config.active_attributes is not None:
            self.gamma = list(config.active_attributes)
        else:
            self.gamma = self.graph_stats.top_attributes(config.max_active_attributes)
        self.stats = MiningStats()
        self._found: Dict[Tuple, Tuple[GFD, int]] = {}

    def run(self) -> DiscoveryResult:
        """Mine level 0, then alternate ``VSpawn``/``HSpawn`` up to level ``k``."""
        started = time.perf_counter()
        tree = GenerationTree()
        self._seed_single_nodes(tree)
        nodes = list(tree.level(0))
        for level in range(self.config.k + 1):
            if level:
                nodes = self._vspawn(tree, level)
                if not nodes:
                    break
            for node in nodes:
                self._hspawn(node)
        supports = {gfd: supp for gfd, supp in self._found.values()}
        gfds = minimal_cover_by_reduction(list(supports))
        self.stats.positives_found = sum(1 for gfd in gfds if gfd.is_positive)
        self.stats.negatives_found = sum(1 for gfd in gfds if gfd.is_negative)
        self.stats.elapsed_seconds = time.perf_counter() - started
        return DiscoveryResult(
            gfds=gfds,
            supports={gfd: supports[gfd] for gfd in gfds},
            stats=self.stats,
            tree=tree,
        )

    # ------------------------------------------------------------------
    # vertical spawning
    # ------------------------------------------------------------------
    def _seed_single_nodes(self, tree: GenerationTree) -> None:
        """Cold start: one single-node pattern per frequent node label."""
        for label in sorted(self.graph_stats.node_label_counts):
            count = self.graph_stats.node_label_counts[label]
            if count < self.config.sigma:
                continue
            pattern = Pattern([label])
            node, created = tree.add(pattern, level=0)
            if not created:
                continue
            matches = [(v,) for v in self.graph.nodes_with_label(label)]
            node.table = MatchTable(self.graph, pattern, matches, self.gamma)
            node.support = count
            self.stats.patterns_spawned += 1
            self.stats.patterns_frequent += 1

    def _vspawn(self, tree: GenerationTree, level: int) -> List[TreeNode]:
        """``VSpawn(level)``: extend every frequent level-1 pattern by one edge."""
        created_nodes: List[TreeNode] = []
        parents = list(tree.level(level - 1))
        for parent in parents:
            if parent.table is None:
                continue
            if parent.table.truncated:
                continue  # a capped sample certifies nothing downstream
            if self.config.prune and parent.support < self.config.sigma:
                continue  # Lemma 4(c): no frequent GFD below this pattern
            if parent.support == 0:
                continue  # zero-support (negative) patterns are leaves
            for extension in self._generate_extensions(parent):
                pattern = apply_extension(parent.pattern, extension)
                if pattern.num_nodes > self.config.k:
                    continue
                node, created = tree.add(pattern, level, parent)
                if not created:
                    continue
                self.stats.patterns_spawned += 1
                self._verify_pattern(parent, node, extension)
                created_nodes.append(node)
        return created_nodes

    def _generate_extensions(self, parent: TreeNode) -> List[Extension]:
        """All one-edge extensions to try from ``parent``."""
        tallies = extension_counts(
            self.graph,
            parent.pattern,
            parent.table.matches,
            can_add_node=parent.pattern.num_nodes < self.config.k,
        )
        extensions = extensions_from_counts(parent.pattern, tallies, self.config)
        extensions += wildcard_extensions_from_counts(
            parent.pattern, tallies, self.config
        )
        if self.config.mine_negative:
            extensions += speculative_closing_extensions(
                self.graph_stats, parent, self.config
            )
        return extensions

    def _verify_pattern(
        self, parent: TreeNode, node: TreeNode, extension: Extension
    ) -> None:
        """Incremental matching ``Q'(G) = Q(G) ⋈ e`` plus ``NVSpawn``."""
        cap = self.config.max_matches_per_pattern
        matches = extend_matches(
            self.graph, parent.table.matches, extension, max_matches=cap
        )
        truncated = cap is not None and len(matches) >= cap
        node.table = MatchTable(
            self.graph, node.pattern, matches, self.gamma, truncated=truncated
        )
        if truncated:
            self.stats.truncated_patterns += 1
        node.support = node.table.support(node.table.all_rows())
        if node.support >= self.config.sigma:
            self.stats.patterns_frequent += 1
        if node.support == 0:
            self.stats.patterns_zero_support += 1
            if self.config.mine_negative and parent.support >= self.config.sigma:
                # NVSpawn: a frequent base pattern with a zero-match
                # extension — the "illegal structure" negative GFD.
                negative = GFD(node.pattern, frozenset(), FALSE)
                self._emit(negative, parent.support)

    # ------------------------------------------------------------------
    # horizontal spawning
    # ------------------------------------------------------------------
    def _literal_alphabet(self, table: MatchTable) -> List[Literal]:
        """The candidate literals of a pattern's match table."""
        literals: List[Literal] = list(
            table.candidate_constant_literals(self.config.max_constants)
        )
        if self.config.variable_literals and table.pattern.num_nodes > 1:
            literals.extend(
                table.candidate_variable_literals(
                    self.config.variable_literals_same_attr_only
                )
            )
        return literals

    def _hspawn(self, node: TreeNode) -> None:
        """``HSpawn``: mine dependencies ``X → l`` over one pattern's table."""
        table = node.table
        if table is None or table.truncated:
            return
        if node.support < self.config.sigma and self.config.prune:
            return
        literals = self._literal_alphabet(table)
        if not literals:
            return
        if self.config.prune:
            # alphabet prefilter: a literal below σ pivot-support can appear
            # in no frequent GFD at this pattern (anti-monotonicity), so the
            # lattice never needs to see it.  NHSpawn keeps the full
            # alphabet — a negative's support comes from its base.
            lattice_literals = [
                literal
                for literal in literals
                if self._literal_support_reaches_sigma(table, literal)
            ]
        else:
            lattice_literals = literals
        all_rows = table.full_mask()
        for rhs in lattice_literals:
            self._mine_rhs(node, table, lattice_literals, rhs, all_rows, literals)

    def _literal_support_reaches_sigma(self, table: MatchTable, literal) -> bool:
        """Whether a literal's exact distinct-pivot support reaches ``σ``."""
        mask = table.literal_mask(literal)
        return table.mask_support(mask) >= self.config.sigma

    def _mine_rhs(
        self,
        node: TreeNode,
        table: MatchTable,
        literals: List[Literal],
        rhs: Literal,
        all_rows,
        nh_literals: Optional[List[Literal]] = None,
    ) -> None:
        """Levelwise LHS lattice search for one RHS literal.

        Row subsets travel as numpy boolean masks; literal evaluation is a
        mask AND, validity a count comparison, support a distinct-pivot
        count over the masked pivot column.
        """
        empty: FrozenSet[Literal] = frozenset()
        nh_literals = nh_literals if nh_literals is not None else literals
        total_rows = table.num_rows
        rhs_mask = table.literal_mask(rhs)
        count_rhs = table.mask_count(rhs_mask)
        support_rhs = table.mask_support(rhs_mask)
        if self.config.prune and support_rhs < self.config.sigma:
            return  # supp(X ∧ l) ≤ supp(l): nothing below can be frequent
        self._charge_candidate()
        if (empty, rhs) in node.covered:
            return  # valid at an ancestor pattern: not pattern-reduced here
        if count_rhs == total_rows and total_rows:
            node.valid_pairs.add((empty, rhs))
            if support_rhs >= self.config.sigma:
                gfd = GFD(node.pattern, empty, rhs)
                self._emit(gfd, support_rhs)
                self._nhspawn(
                    node, table, nh_literals, empty, rhs, all_rows, support_rhs
                )
            return  # Lemma 4(b): supersets of a valid LHS are not reduced
        # indexable alphabet for rymon-tree (prefix-ordered) enumeration
        indexed = [
            (index, literal)
            for index, literal in enumerate(literals)
            if literal != rhs
        ]
        valid_sets: List[FrozenSet[Literal]] = []
        frontier = [(empty, -1, all_rows)]
        for _ in range(self.config.max_lhs_size):
            next_frontier = []
            for lhs, max_index, rows in frontier:
                for index, literal in indexed:
                    if index <= max_index:
                        continue
                    extended = lhs | {literal}
                    if any(valid <= extended for valid in valid_sets):
                        continue  # a subset already valid: not left-reduced
                    if is_trivial_dependency(extended, rhs):
                        continue
                    self._charge_candidate()
                    rows_lhs = rows & table.literal_mask(literal)
                    rows_both = rows_lhs & rhs_mask
                    count_lhs = table.mask_count(rows_lhs)
                    count_both = table.mask_count(rows_both)
                    if self.config.prune and count_both < self.config.sigma:
                        continue  # supp ≤ |rows|: cannot be frequent below
                    supp = table.mask_support(rows_both)
                    if self.config.prune and supp < self.config.sigma:
                        continue  # anti-monotone: no extension recovers support
                    if count_lhs and count_both == count_lhs:
                        valid_sets.append(extended)
                        node.valid_pairs.add((extended, rhs))
                        if (extended, rhs) in node.covered:
                            continue
                        if supp >= self.config.sigma:
                            gfd = GFD(node.pattern, extended, rhs)
                            self._emit(gfd, supp)
                            self._nhspawn(
                                node, table, nh_literals, extended, rhs,
                                rows_lhs, supp,
                            )
                        continue  # Lemma 4(b)
                    next_frontier.append((extended, index, rows_lhs))
            frontier = next_frontier
            if not frontier:
                break

    def _nhspawn(
        self,
        node: TreeNode,
        table: MatchTable,
        literals: List[Literal],
        lhs: FrozenSet[Literal],
        rhs: Literal,
        rows_lhs,
        base_support: int,
    ) -> None:
        """``NHSpawn``: negative GFDs by one-literal extension of a valid base.

        The base ``Q(X → l)`` is valid and frequent; for each extra literal
        ``l''`` with no match satisfying ``X ∪ {l''}``, emit
        ``Q(X ∪ {l''} → false)`` with the base's support (Section 4.2).
        """
        if not self.config.mine_negative:
            return
        emitted = 0
        for literal in literals:
            if literal == rhs or literal in lhs:
                continue
            extended = lhs | {literal}
            if lhs_unsatisfiable(extended):
                continue  # trivial negative
            if bool((rows_lhs & table.literal_mask(literal)).any()):
                continue  # some match satisfies X ∪ {l''}: not a negative
            if table.literal_count(literal) < self.config.sigma:
                continue  # l'' itself is rare: the negative is uninteresting
            negative = GFD(node.pattern, extended, FALSE)
            self._emit(negative, base_support)
            emitted += 1
            if emitted >= self.config.max_negatives_per_pattern:
                break

    # ------------------------------------------------------------------
    def _charge_candidate(self) -> None:
        """Count one candidate check."""
        self.stats.candidates_checked += 1

    def _emit(self, gfd: GFD, support: int) -> None:
        key = gfd_identity(gfd)
        existing = self._found.get(key)
        if existing is None or existing[1] < support:
            self._found[key] = (gfd, support)


def discover(
    graph: Graph,
    config: Optional[DiscoveryConfig] = None,
    stats: Optional[GraphStatistics] = None,
    index: Optional[GraphIndex] = None,
) -> DiscoveryResult:
    """Discover minimum σ-frequent GFDs in ``graph``: ``ParDis`` at ``n = 1``.

    One in-process worker on the ``serial`` backend, whatever
    ``config.parallel_backend`` and ``config.num_workers`` say — the
    paper's ``SeqDis``.  ``stats``/``index`` accept precomputed snapshots of
    the graph (by default both come from its cached frozen index).
    """
    from ..parallel.pardis import ParallelDiscovery  # parallel builds on core

    return ParallelDiscovery(
        graph,
        config or DiscoveryConfig(),
        num_workers=1,
        backend="serial",
        stats=stats,
        index=index,
    ).run()


def reference_discover(
    graph: Graph, config: Optional[DiscoveryConfig] = None
) -> DiscoveryResult:
    """The discovery oracle: ``SeqDis`` over the dict graph, no index.

    This function is the only way to reach it: no config field, environment
    variable or CLI flag selects the dict path.
    """
    return SequentialDiscovery(graph, config or DiscoveryConfig()).run()
