"""``ParDis`` — parallel GFD mining over a fragmented graph (Section 6.2).

The algorithm runs in supersteps on a master + ``n`` workers.  The graph is
vertex-cut fragmented: node ``v`` belongs to worker ``v mod n`` and every
worker reads the one shared index.  Each worker *owns* a shard of every
verified pattern's matches (seeded from the fragment's nodes, then carried
along by the incremental joins ``Q'(F_s) = Q(F_s) ⋈ e(F_t)``).  Per
superstep, mirroring Figure 3:

1. **Parallel pattern verification** — the master spawns extensions (from
   merged per-worker tally counts, so the spawned patterns do not depend
   on ``n``); workers join their local match shards with the shipped
   extension edges of *every* parent of the tree level in one round and
   park the joined rows for the children's installs — a
   closing child whose tally count already makes it a leaf is not joined
   at all.  A child's rows never leave the worker that joined them: the
   paper's re-distribution of a skewed ``Q'(F_s)`` is not done, since on
   the scale models it never moves the largest per-worker share by more
   than 0.1 % (``docs/CLAIMS.md``);
2. **Parallel GFD validation** — the master grows the LHS lattices of all
   RHS literals level-by-level; each lattice level — of all the tree
   level's patterns jointly — is validated as one batch ``ΣC_{ij}`` in a
   single superstep: workers intersect boolean row
   masks on their shards, the master aggregates counts and (exactly)
   unions pivot-support sets.

Every emitted GFD is reduced (§4.1): a rule a parent holds, mapped
through any embedding, is not emitted, nor a negative with a smaller held
one (:mod:`repro.core.generation_tree`) — so ``run()`` applies no
``≪``-filter, and an exhausted ``run_iter()`` stream is its Σ.

Worker-side execution is delegated to an
:class:`~repro.parallel.backend.ExecutionBackend`: the ``serial`` backend
runs the shard ops inline (the default), while the ``multiprocess`` backend
runs them in real worker processes over shared-memory graph buffers
(:func:`~repro.parallel.backend.resolve_execution` picks one).  The
backend counts the supersteps and each worker's exact work
(:class:`~repro.parallel.backend.WorkLedger`; a run's share is
:attr:`ParallelDiscovery.work`).  This is the one mining engine:
at ``n = 1`` on the ``serial`` backend it is ``SeqDis``
(:func:`~repro.core.discovery.discover`).  On any backend and any ``n`` the
discovered set equals the dict-adjacency oracle's
(:func:`~repro.oracle.reference_discover`) — parallel scalability
(Theorem 5) is about the work per worker, not results — which the
randomized differential harness (``tests/test_differential.py``) asserts.

``config.max_matches_per_pattern`` is enforced per shard: a pattern whose
global join reaches the cap is marked *truncated* and becomes a leaf — it
emits no GFDs and spawns no children, exactly like a capped table of the
oracle — so the two agree on the discovered set even when the cap binds.
"""

from __future__ import annotations

import time
from typing import Any, Dict, FrozenSet, Iterator, List, Optional, Set, Tuple, Union

import numpy as np

from ..core.config import CandidateBudgetExceeded, DiscoveryConfig
from ..core.generation_tree import GenerationTree, TreeNode, generality
from ..core.match_table import literal_alphabet, merge_agreement_counts
from ..core.reduction import gfd_identity
from ..core.results import DiscoveryResult, MiningStats
from ..core.spawning import (
    ExtensionCounts,
    extensions_from_counts,
    merge_extension_counts,
    speculative_closing_extensions,
    wildcard_extensions_from_counts,
)
from ..gfd.closure import is_trivial_dependency, lhs_unsatisfiable
from ..gfd.gfd import GFD
from ..gfd.literals import FALSE, Literal, rename_literal
from ..graph.graph import Graph
from ..graph.index import GraphIndex
from ..graph.statistics import GraphStatistics
from ..obs.tracer import NULL_TRACER
from ..pattern.embedding import embedding_batch
from ..pattern.incremental import Extension, apply_extension
from ..pattern.pattern import WILDCARD, Pattern
from .backend import (
    ExecutionBackend,
    WorkLedger,
    make_backend,
    next_node_key,
    resolve_execution,
)

__all__ = ["ParallelDiscovery", "StructuralFrontier", "check_budgets"]


def check_budgets(max_rules: Optional[int], max_levels: Optional[int]) -> None:
    """Reject a negative streaming budget (``None`` means unbudgeted)."""
    for name, value in (("max_rules", max_rules), ("max_levels", max_levels)):
        if value is not None and value < 0:
            raise ValueError(f"{name} must be >= 0 or None, got {value}")

#: One verified pattern of a recorded level: ``(its parents' positions in
#: the level above, primary first — empty for a seed —, pattern, support,
#: worker key or None, per-worker row counts or None)``.
_Recorded = Tuple[Tuple[int, ...], Pattern, int, Optional[int], Optional[List[int]]]


class StructuralFrontier:
    """The structural outcome of budgeted discoveries at one graph structure.

    ``VSpawn`` reads labels and edges only, so what it found — the patterns
    of each level in creation order, their supports, and the worker-
    resident match tables of the patterns it installed — holds for as long
    as :attr:`~repro.graph.graph.Graph.structure_version` does.  A
    :class:`~repro.session.Session` keeps one for its budgeted streams; a
    ``ParallelDiscovery`` given it records each level once its ``VSpawn``
    completes and replays a recorded level instead of tallying, joining
    and installing it again.  Only ``HSpawn`` reads attribute values, and a
    replayed table is re-bound to the workers' current index by an
    ``install`` before its first scan.

    The frontier owns the worker keys of its levels: the discovery that
    recorded them does not drop them, the session drops them (:meth:`drop`)
    when the structure version moves and on close.
    """

    def __init__(self, structure_version: int) -> None:
        self.structure_version = structure_version
        #: per recorded level: its patterns, and how many were truncated
        self.levels: List[Tuple[List[_Recorded], int]] = []
        #: every worker key the recorded levels hold
        self.keys: Set[int] = set()
        self.dropped = False

    def drop(self, backend: ExecutionBackend) -> None:
        """Release every worker key the recorded levels hold."""
        self.dropped = True
        if self.keys:
            backend.run_unmetered(
                [
                    (worker, "drop", key, {})
                    for key in sorted(self.keys)
                    for worker in range(backend.num_workers)
                ],
                wait=False,
            )
        self.keys = set()


_EMPTY: FrozenSet[Literal] = frozenset()
#: ``∅ → false``: held by a zero-support pattern whose negative is emitted
#: or dominated.
_NEGATIVE = (_EMPTY, FALSE)


class _Task:
    """Master-side lattice state for one RHS literal."""

    __slots__ = ("rhs", "rhs_position", "valid_sets", "frontier", "_next_frontier")

    def __init__(self, rhs: Literal, rhs_position: int) -> None:
        self.rhs = rhs
        self.rhs_position = rhs_position
        self.valid_sets: List[FrozenSet[Literal]] = []
        # frontier entries: (lhs set, max literal index used, worker mask id)
        self.frontier: List[Tuple[FrozenSet[Literal], int, int]] = [
            (frozenset(), -1, 0)
        ]
        self._next_frontier: List[Tuple[FrozenSet[Literal], int, int]] = []


class _NodeMining:
    """Master-side ``HSpawn`` state for one pattern of a level's batch.

    Emissions are *buffered* (``emits``) instead of landing in ``_found``
    directly: a level's patterns advance their lattices jointly, so live
    emission would interleave them — replaying the buffers in node order
    afterwards gives a node-major insertion order that no ``n`` and no
    budget slicing changes.
    """

    __slots__ = (
        "node", "key", "literals", "lattice_literals", "literal_count",
        "total_rows", "indexed", "tasks", "next_mask_id", "pending_drops",
        "nh_bases", "probes", "emits", "done",
    )

    def __init__(self, node: TreeNode, key: int, literals: List[Literal]) -> None:
        self.node = node
        self.key = key
        self.literals = literals
        self.lattice_literals: List[Literal] = []
        self.literal_count: Dict[Literal, int] = {}
        self.total_rows = 0
        self.indexed: List[Tuple[int, Literal]] = []
        self.tasks: List[_Task] = []
        self.next_mask_id = 1
        #: mask ids retired last level, pruned lazily with the next round
        self.pending_drops: List[int] = []
        #: NHSpawn bases: (lhs, rhs, rows mask id, base support)
        self.nh_bases: List[Tuple[FrozenSet[Literal], Literal, int, int]] = []
        #: NHSpawn probes: (base index, lhs, l'', base support, rows mask id)
        self.probes: List[Tuple[int, FrozenSet[Literal], Literal, int, int]] = []
        #: buffered ``(gfd, support)`` emissions, replayed in node order
        self.emits: List[Tuple[GFD, int]] = []
        self.done = False

    def accept(
        self, lhs: FrozenSet[Literal], rhs: Literal, rows_id: int, support: int
    ) -> None:
        """A valid, σ-frequent ``X → l``: emitted unless inherited (a
        ``≪``-smaller rule is out), an ``NHSpawn`` base either way — the
        smaller pattern probed only ``l''`` of ≥ σ match rows, and an edge
        more can raise that count, so this one's negatives are new."""
        if (lhs, rhs) not in self.node.inherited:
            self.emits.append((GFD(self.node.pattern, lhs, rhs), support))
        self.nh_bases.append((lhs, rhs, rows_id, support))


class ParallelDiscovery:
    """``ParDis``: GFD discovery on ``n`` workers — the product engine.

    At ``n = 1`` on the ``serial`` backend it is the paper's ``SeqDis``
    (:func:`~repro.core.discovery.discover` runs it so); the dict-adjacency
    oracle :class:`~repro.oracle.SequentialDiscovery` finds the
    same Σ with the same supports.

    Args:
        graph: the data graph.
        config: discovery parameters.
        num_workers: the number ``n`` of workers (``None``: the
            :func:`~repro.parallel.backend.resolve_execution` default of
            the backend).
        stats, index: precomputed :class:`GraphStatistics` /
            :class:`GraphIndex` snapshots, so repeated runs (baseline
            sweeps, benchmark series) don't rescan the graph per run; by
            default both come from the graph's cached frozen index.
        backend: a backend name (``None``: the
            :func:`~repro.parallel.backend.resolve_execution` default) for
            a backend the engine starts, supervises as ``$REPRO_FAULT_PLAN``
            says and shuts down itself, or a pre-started
            :class:`~repro.parallel.backend.ExecutionBackend` to reuse
            across runs (the caller keeps ownership and its supervision
            policy; worker counts must match).
        frontier: a :class:`StructuralFrontier` of the graph's current
            structure, shared across runs on the same backend: recorded
            levels are replayed, new ones recorded, and its worker keys
            are left to its owner.

    After a run, :attr:`work` holds that run's supersteps and per-worker
    work; the engine traces into its backend's tracer.
    """

    def __init__(
        self,
        graph: Graph,
        config: DiscoveryConfig,
        num_workers: Optional[int] = None,
        *,
        stats: Optional[GraphStatistics] = None,
        index: Optional[GraphIndex] = None,
        backend: Union[None, str, ExecutionBackend] = None,
        frontier: Optional[StructuralFrontier] = None,
    ) -> None:
        self.graph = graph
        self.config = config
        self.index = index if index is not None else graph.index()
        self.graph_stats = stats if stats is not None else self.index.statistics()
        if config.active_attributes is not None:
            self.gamma = list(config.active_attributes)
        else:
            self.gamma = self.graph_stats.top_attributes(config.max_active_attributes)
        self.stats = MiningStats()
        self._found: Dict[Tuple, Tuple[GFD, int]] = {}
        #: How many ``_found`` entries :meth:`_drain_found` has handed out.
        self._drained = 0
        if isinstance(backend, ExecutionBackend):
            if num_workers is not None and num_workers != backend.num_workers:
                raise ValueError(
                    f"num_workers={num_workers} conflicts with the supplied "
                    f"backend's {backend.num_workers} workers"
                )
            self._backend: Optional[ExecutionBackend] = backend
            self._owns_backend = False
            self._backend_name = backend.name
            num_workers = backend.num_workers
        else:
            self._backend = None
            self._owns_backend = True
            self._backend_name, num_workers, self._fault = resolve_execution(
                backend, num_workers
            )
        self._num_workers = num_workers
        #: The last run's supersteps and per-worker work (all zero before).
        self.work = WorkLedger.for_workers(num_workers)
        self.tracer: Any = NULL_TRACER
        # master-side bookkeeping per tree node (worker state lives in the
        # backend): node identity -> backend key, per-worker row counts,
        # column statistics collected at install time
        self._keys: Dict[int, int] = {}
        self._shard_rows: Dict[int, List[int]] = {}
        self._column_stats: Dict[int, tuple] = {}
        self._frontier = frontier
        #: the current level's same-level generalizations, per pattern
        #: (:meth:`GenerationTree.generalizations`)
        self._generals: Dict[TreeNode, List] = {}

    # ------------------------------------------------------------------
    @property
    def num_workers(self) -> int:
        """The worker count ``n``."""
        return self._num_workers

    @property
    def backend_name(self) -> str:
        """The execution backend this engine runs on."""
        return self._backend_name

    # ------------------------------------------------------------------
    # the level driver
    # ------------------------------------------------------------------
    def run(self) -> DiscoveryResult:
        """Execute discovery and return the minimum frequent GFDs."""
        started = time.perf_counter()
        self._drained = 0
        self._start_backend()
        tree = GenerationTree()
        try:
            for _level, _fresh in self._levels(tree):
                pass
        finally:
            self._finish_backend()
        supports = {gfd: supp for gfd, supp in self._found.values()}
        gfds = list(supports)
        self.stats.positives_found = sum(1 for gfd in gfds if gfd.is_positive)
        self.stats.negatives_found = sum(1 for gfd in gfds if gfd.is_negative)
        self.stats.elapsed_seconds = time.perf_counter() - started
        return DiscoveryResult(
            gfds=gfds, supports=supports, stats=self.stats, tree=tree
        )

    def run_iter(
        self,
        max_rules: Optional[int] = None,
        max_levels: Optional[int] = None,
    ) -> Iterator[Tuple[int, List[Tuple[GFD, int]]]]:
        """Stream discovery: yield ``(level, [(gfd, support), ...])`` batches.

        Rules arrive as their generation-tree level (or, under a rule
        budget, a node-order prefix of it) completes, so a consumer can act
        on early rules without waiting for the full run — the engine behind
        ``Session.discover_iter``.  The budgets are enforced here: at most
        ``max_rules`` rules are yielded, none from a level above
        ``max_levels`` (level 0 = single-node patterns), and the engine
        mines only what those rules need (see :meth:`_levels`).  A negative
        budget raises ``ValueError``.  Closing the iterator early releases
        the engine's execution resources (the ``finally`` below runs on
        ``GeneratorExit``).

        Exhausted, the stream is :meth:`run`'s Σ, in its order and with its
        supports: every rule is reduced when it is emitted.
        """
        check_budgets(max_rules, max_levels)
        self._drained = 0
        self._start_backend()
        tree = GenerationTree()
        try:
            yield from self._levels(tree, max_rules, max_levels)
        finally:
            self._finish_backend()

    def _levels(
        self,
        tree: GenerationTree,
        max_rules: Optional[int] = None,
        max_levels: Optional[int] = None,
    ) -> Iterator[Tuple[int, List[Tuple[GFD, int]]]]:
        """Drive the levelwise search, yielding ``(level, batch)`` pairs.

        The shared core of :meth:`run` and :meth:`run_iter`: seed, mine
        level 0, then alternate ``VSpawn``/``HSpawn`` up to level ``k``
        or level ``max_levels``, whichever comes first; a level the
        structural frontier recorded is replayed instead.  A batch is a
        list of ``(gfd, support)`` emissions.  Backend lifecycle is the
        caller's concern.

        Without ``max_rules`` each level is mined in one :meth:`_mine_nodes`
        call and yields one batch.  With it, the level's ``VSpawn``
        emissions count first; its patterns are then mined in node-order
        prefixes of doubling size (1, 1, 2, 4, … nodes), each drained as
        its own batch, and the search stops as soon as ``max_rules`` rules
        are out (the last batch is cut to the budget).  A level of *n*
        patterns costs at most ⌈log₂ n⌉ + 1 ``HSpawn`` calls.  Emissions
        replay in node order, so the batches are exactly a prefix of the
        unbudgeted stream; ``max_rules=0`` mines nothing.
        """
        self._tree = tree  # HSpawn reads it: a pattern inherits when mined
        last = self.config.k
        if max_levels is not None:
            last = min(last, max_levels)
        remaining = max_rules
        if remaining == 0:
            return
        for level in range(last + 1):
            nodes = self._replay_level(tree, level)
            if nodes is None:  # not recorded: seed or VSpawn, then record
                truncated = self.stats.truncated_patterns
                if level == 0:
                    with self.tracer.span("seed", "level", level=0):
                        self._seed_parallel(tree)
                    nodes = list(tree.level(0))
                else:
                    with self.tracer.span(
                        f"vspawn level {level}", "level", level=level
                    ):
                        nodes = self._vspawn_level(tree, level)
                self._record_level(tree, level, nodes, truncated)
            if level and not nodes:
                return
            if remaining is None:
                self._mine_nodes(nodes)
                yield level, self._drain_found()
                continue
            batch = self._drain_found()  # VSpawn's negatives come first
            end = 0
            while True:
                if batch:
                    batch = batch[:remaining]
                    remaining -= len(batch)
                    yield level, batch
                    if remaining == 0:
                        return
                if end == len(nodes):
                    break
                start, end = end, min(len(nodes), max(1, 2 * end))
                end = self._past_generalizations(nodes, start, end)
                self._mine_nodes(nodes[start:end])
                batch = self._drain_found()

    def _past_generalizations(
        self, nodes: List[TreeNode], start: int, end: int
    ) -> int:
        """The end of the prefix slice ``nodes[start:end]`` grown until it
        holds every same-level generalization of its patterns, which must
        be mined with them or before (see :meth:`_nhspawn_joint`)."""
        position = {node: index for index, node in enumerate(nodes)}
        index = start
        while index < end:  # the slice grows as generalizations join it
            for general, _ in self._generals.get(nodes[index], ()):
                end = max(end, position[general] + 1)
            index += 1
        return end

    def _mine_nodes(self, nodes: List[TreeNode]) -> None:
        """``HSpawn`` over a node-order prefix of one level's patterns.

        Mining a pattern reads only its own table, the mined level above
        and its same-level generalizations (mined with it or before), so a
        level can be mined in consecutive slices (see :meth:`_levels`).
        """
        self._check_frontier()
        with self.tracer.span(
            f"hspawn {len(nodes)} nodes", "level", nodes=len(nodes)
        ):
            self._mine_nodes_batch(nodes)

    def _drain_found(self) -> List[Tuple[GFD, int]]:
        """The ``(gfd, support)`` pairs emitted since the previous drain.

        ``_found`` is insertion-ordered by GFD identity; a re-emission that
        only raises a support does not re-append, so drained batches are
        exactly the *newly discovered* rules.
        """
        items = list(self._found.values())
        fresh = items[self._drained:]
        self._drained = len(items)
        return fresh

    def _emit(self, gfd: GFD, support: int) -> None:
        key = gfd_identity(gfd)
        existing = self._found.get(key)
        if existing is None or existing[1] < support:
            self._found[key] = (gfd, support)

    def _charge_candidate(self) -> None:
        """Count one candidate check; abort when over the configured budget."""
        self.stats.candidates_checked += 1
        budget = self.config.max_candidates
        if budget is not None and self.stats.candidates_checked > budget:
            raise CandidateBudgetExceeded(
                self.stats.candidates_checked, self.stats.patterns_spawned
            )

    # ------------------------------------------------------------------
    # the execution backend
    # ------------------------------------------------------------------
    def _start_backend(self) -> None:
        """Acquire (or validate) the execution backend before level 0."""
        if self._owns_backend:
            self._backend = make_backend(
                self._backend_name,
                self.num_workers,
                self.graph,
                self.index,
                fault=self._fault,
            )
        elif self._backend.source_token != (id(self.graph), id(self.index)):
            raise ValueError(
                "the supplied backend was built for a different graph "
                "snapshot; rebuild it from this graph's current index"
            )
        self.tracer = self._backend.tracer
        self._work_before = self._backend.work.snapshot()

    def _finish_backend(self) -> None:
        """Drop this run's live worker keys; shut down an owned backend.

        Runs on success, on error and on an abandoned ``run_iter``, so the
        other engines on a borrowed backend keep their state (an
        enforcement engine's resident shards survive a discovery); the
        keys of a :class:`StructuralFrontier`'s levels stay too.  Best
        effort: a backend that just broke mid-run must not displace the
        original error with its cleanup failure.  The run's share of the
        backend's :class:`~repro.parallel.backend.WorkLedger` becomes
        :attr:`work`.
        """
        try:
            self._backend.run_unmetered(
                [
                    (worker, "drop", key, {})
                    for key in self._keys.values()
                    if not self._in_frontier(key)
                    for worker in range(self.num_workers)
                ]
            )
        except Exception:
            pass
        self.work = self._backend.work.since(self._work_before)
        if self._owns_backend:
            self._backend.shutdown()
            self._backend = None

    # ------------------------------------------------------------------
    # the structural frontier: record a level once, replay it after
    # ------------------------------------------------------------------
    def _in_frontier(self, key: int) -> bool:
        return self._frontier is not None and key in self._frontier.keys

    def _check_frontier(self) -> None:
        if self._frontier is not None and self._frontier.dropped:
            raise RuntimeError(
                "the graph's structure changed while this budgeted stream "
                "was open; its recorded patterns are gone — start a new one"
            )

    def _record_level(
        self,
        tree: GenerationTree,
        level: int,
        nodes: List[TreeNode],
        truncated_before: int,
    ) -> None:
        """Keep a completed level's structural outcome in the frontier."""
        if self._frontier is None:
            return
        parents = tree.level(level - 1) if level else []
        positions = {
            id(parent): position for position, parent in enumerate(parents)
        }
        entries: List[_Recorded] = []
        for node in nodes:
            key = self._keys.get(id(node))
            entries.append((
                tuple(positions[id(parent)] for parent in node.parents),
                node.pattern, node.support, key,
                None if key is None else self._shard_rows[key],
            ))
            if key is not None:
                self._frontier.keys.add(key)
        self._frontier.levels.append(
            (entries, self.stats.truncated_patterns - truncated_before)
        )

    def _replay_level(
        self, tree: GenerationTree, level: int
    ) -> Optional[List[TreeNode]]:
        """A recorded level rebuilt without a tally, join or install.

        The patterns are added to the tree in their recorded order and
        re-linked to every recorded parent, primary first, so each
        inherits ``covered`` from its freshly mined parents as in
        ``VSpawn``; the counters and the zero-support negatives follow
        :meth:`_settle`.  ``None`` when the level is not recorded.
        """
        self._check_frontier()
        if self._frontier is None or level >= len(self._frontier.levels):
            return None
        entries, truncated = self._frontier.levels[level]
        parents = tree.level(level - 1) if level else []
        nodes: List[TreeNode] = []
        for positions, pattern, support, key, rows in entries:
            node, _ = tree.add(
                pattern, level, parents[positions[0]] if positions else None
            )
            node.parents.extend(parents[position] for position in positions[1:])
            node.support = support
            if key is not None:
                self._keys[id(node)] = key
                self._shard_rows[key] = rows
            nodes.append(node)
        self.stats.patterns_spawned += len(nodes)
        self.stats.truncated_patterns += truncated
        self._settle(tree, nodes)
        if self.tracer.enabled:
            self.tracer.event(
                "frontier_replay", level=level, patterns=len(nodes)
            )
        return nodes

    def _settle(self, tree: GenerationTree, nodes: List[TreeNode]) -> None:
        """Count a level's verified patterns and emit ``NVSpawn``'s
        zero-support negatives, in node order.

        ``Q(∅ → false)`` is not reduced when a pattern holding ``∅ → false``
        (emitted there, or dominated in turn) embeds in ``Q``: one of a
        level below — parent or not — or a same-level generalization.  It
        is skipped, and held here for the patterns above.
        """
        self._generals = tree.generalizations(nodes)
        zero = [n for n in nodes if self.config.mine_negative and not n.support]
        held = [n for n in tree.all_nodes() if _NEGATIVE in n.valid_pairs]
        pairs = [(smaller, node) for node in zero for smaller in held]
        found = embedding_batch([(a.pattern, b.pattern, True) for a, b in pairs], 1)
        below = {node for (_, node), mappings in zip(pairs, found) if mappings}
        negated: Set[TreeNode] = set()
        for node in generality(zero):  # a generalization decides first
            wider = [general for general, _ in self._generals.get(node, ())]
            if node in below or any(_NEGATIVE in g.valid_pairs for g in wider):
                node.valid_pairs.add(_NEGATIVE)
            elif node.parents[0].support >= self.config.sigma:
                node.valid_pairs.add(_NEGATIVE)
                negated.add(node)
        for node in nodes:
            if node.support >= self.config.sigma:
                self.stats.patterns_frequent += 1
            if node.support == 0:
                self.stats.patterns_zero_support += 1
            if node in negated:
                self._emit(GFD(node.pattern, _EMPTY, FALSE), node.parents[0].support)

    # ------------------------------------------------------------------
    # seeding and vertical spawning
    # ------------------------------------------------------------------
    def _seed_parallel(self, tree: GenerationTree) -> None:
        """Cold start: single-node patterns, matches sharded by node id.

        Node ownership follows the vertex cut: node ``v`` is seeded on the
        fragment ``v mod n`` (deterministic and even).
        """
        n = self.num_workers
        for label in sorted(self.graph_stats.node_label_counts):
            count = self.graph_stats.node_label_counts[label]
            if count < self.config.sigma:
                continue
            pattern = Pattern([label])
            node, created = tree.add(pattern, level=0)
            if not created:
                continue
            owners = self.index.nodes_with_label(label)
            sources = [
                {"matches": owners[owners % n == worker][:, None]}
                for worker in range(n)
            ]
            node.support = count
            self._install_shards_many([(node, False, sources)])
            self.stats.patterns_spawned += 1
        self._settle(tree, list(tree.level(0)))

    def _install_shards_many(
        self, batch: List[Tuple[TreeNode, bool, List[Dict[str, Any]]]]
    ) -> None:
        """Install per-worker match tables + column statistics in one superstep.

        ``batch`` holds ``(node, truncated, per-worker row sources)``
        entries — ``VSpawn`` installs a whole level's children in one
        round, seeding one label at a time.  The column statistics feed
        the master's alphabet generation, saving a dedicated round per
        pattern.  A seed's source ships its fragment's matches
        (``{"matches": rows}``); a child's names the join slot its rows
        were parked in worker-side (``{"adopt": slot}``), so no joined row
        crosses the master boundary.
        Truncated patterns are leaves: no worker state is installed, so
        they are skipped by both spawning directions (matching the
        oracle's refusal to certify anything from a capped table).  The
        workers hold the only copy of the rows — the master keeps no match
        table (``TreeNode.table`` stays ``None``).
        """
        pending: List[Tuple[TreeNode, int, List[Dict[str, Any]]]] = []
        for node, truncated, sources in batch:
            if truncated:
                self.stats.truncated_patterns += 1
                continue
            key = next_node_key()
            self._keys[id(node)] = key
            pending.append((node, key, sources))
        self._install(pending)

    def _install(
        self, pending: List[Tuple[TreeNode, int, List[Dict[str, Any]]]]
    ) -> None:
        """One ``install`` superstep: ``(node, key, per-worker row source)``
        entries, a source being ``{"matches": rows}``, ``{"adopt": slot}``
        or ``{"resident": True}`` (the worker's own table under ``key``,
        re-bound to its current index)."""
        if not pending:
            return
        requests = []
        for node, key, sources in pending:
            base_payload = {
                "pattern": node.pattern,
                "mined": self._is_mined(node),
                "want_variable": (
                    self.config.variable_literals
                    and node.pattern.num_nodes > 1
                ),
                "same_attr_only": self.config.variable_literals_same_attr_only,
                # Γ is the engine's, so it travels with every install
                "gamma": self.gamma,
            }
            for worker, source in enumerate(sources):
                requests.append(
                    (worker, "install", key, {**base_payload, **source})
                )
        parts_all = self._backend.run_superstep(requests)
        n = self.num_workers
        for index, (node, key, _) in enumerate(pending):
            parts = parts_all[index * n:(index + 1) * n]
            self._shard_rows[key] = [part[0] for part in parts]
            if self._is_mined(node):
                self._column_stats[key] = (
                    [part[1] for part in parts],
                    [part[2] for part in parts],
                )

    def _is_mined(self, node: TreeNode) -> bool:
        """Whether ``HSpawn`` mines the pattern (it needs its alphabet)."""
        return not self.config.prune or node.support >= self.config.sigma

    def _mines(self, node: TreeNode) -> bool:
        """Whether ``HSpawn`` mines an installed pattern: not a truncated
        leaf, nor a leaf by the tally."""
        return id(node) in self._keys and self._is_mined(node)

    def _drop_parent(self, parent: TreeNode, parent_key: int) -> None:
        """Free a finished pattern's worker-side state (unless the frontier
        keeps it) and master bookkeeping."""
        if not self._in_frontier(parent_key):
            self._backend.run_unmetered(
                [
                    (worker, "drop", parent_key, {})
                    for worker in range(self.num_workers)
                ],
                wait=False,
            )
        self._keys.pop(id(parent), None)
        self._shard_rows.pop(parent_key, None)
        self._column_stats.pop(parent_key, None)

    def _extensions_from_tallies(
        self, parent: TreeNode, merged: ExtensionCounts
    ) -> List[Extension]:
        """Master-side extension generation from one parent's merged tally."""
        extensions = extensions_from_counts(parent.pattern, merged, self.config)
        extensions += wildcard_extensions_from_counts(
            parent.pattern, merged, self.config
        )
        if self.config.mine_negative:
            extensions += speculative_closing_extensions(
                self.graph_stats, parent, self.config
            )
        return extensions

    def _leaf_support(
        self, merged: ExtensionCounts, extension: Extension
    ) -> Optional[int]:
        """The support of a closing child the parent's tally already makes a leaf.

        The closing tally records pivot ``p`` under ``(s, d, l)`` iff some
        match ``h`` of the parent with ``h(z) = p`` has the graph edge
        ``h(s) -[l]-> h(d)``; the child ``Q + (s, d, l)`` has the same
        variables, so its matches are exactly those ``h`` and its
        distinct-pivot support is that count (absent key = 0).  Parents
        with truncated tables are never extended, so the tally saw every
        row; and the child's rows are a subset of an untruncated parent's,
        so the child can never hit ``max_matches_per_pattern`` either.

        Returns ``None`` when the child must be joined: a new-node or
        wildcard extension (no such key in the tally) or a child that will
        be mined or extended.
        """
        if not extension.is_closing or extension.edge_label == WILDCARD:
            return None
        count = merged.closing.get(
            (extension.src, extension.dst, extension.edge_label), 0
        )
        if count == 0 or (self.config.prune and count < self.config.sigma):
            return count
        return None

    def _vspawn_level(
        self, tree: GenerationTree, level: int
    ) -> List[TreeNode]:
        """``VSpawn(level)``: three supersteps for the whole level.

        Every surviving parent tallies in one superstep, every novel child
        that will be mined or extended joins in one superstep, and every
        non-truncated joined child installs in one superstep, adopting the
        rows its join parked on each worker.  A closing child the
        tally already fixes as a leaf (:meth:`_leaf_support`) takes its
        support from the tally: no join, no install, no worker key — it
        only keeps its slot in the per-child bookkeeping.  Master-side
        dedup, support aggregation and the zero-support negative emissions
        run in per-parent, per-child order, so the discovered set does not
        depend on ``n``.
        """
        created_nodes: List[TreeNode] = []
        parents = list(tree.level(level - 1))
        n = self.num_workers
        cap = self.config.max_matches_per_pattern

        eligible: List[Tuple[TreeNode, int]] = []
        for parent in parents:
            parent_key = self._keys.get(id(parent))
            if parent_key is None:
                continue  # never installed (e.g. truncated leaf)
            if (
                self.config.prune and parent.support < self.config.sigma
            ) or parent.support == 0:
                # a leaf (infrequent or zero-support): its HSpawn already
                # ran last level, so its worker-side shards are dead weight
                self._drop_parent(parent, parent_key)
                continue
            eligible.append((parent, parent_key))
        if not eligible:
            return created_nodes

        # round 1 — every parent's distributed tally in one superstep
        requests = [
            (
                worker,
                "tally",
                parent_key,
                {"can_add": parent.pattern.num_nodes < self.config.k},
            )
            for parent, parent_key in eligible
            for worker in range(n)
        ]
        parts_all = self._backend.run_superstep(requests)

        # master-side extension generation + dedup, in parent order (the
        # dedup against earlier parents' children is order-sensitive); a
        # child the tally makes a leaf carries ``None`` for its extension
        novel_by_parent: List[
            Tuple[TreeNode, int, List[Tuple[TreeNode, Optional[Extension]]]]
        ] = []
        for index, (parent, parent_key) in enumerate(eligible):
            parts = parts_all[index * n:(index + 1) * n]
            novel: List[Tuple[TreeNode, Optional[Extension]]] = []
            with self.tracer.span("master", "master"):
                # pivot-disjoint sharding makes the aggregation a plain sum,
                # so only small count dictionaries are shipped
                merged = merge_extension_counts(parts)
                for extension in self._extensions_from_tallies(parent, merged):
                    pattern = apply_extension(parent.pattern, extension)
                    if pattern.num_nodes > self.config.k:
                        continue
                    node, created = tree.add(pattern, level, parent)
                    if not created:
                        continue
                    self.stats.patterns_spawned += 1
                    leaf_support = self._leaf_support(merged, extension)
                    if leaf_support is None:
                        novel.append((node, extension))
                    else:
                        node.support = leaf_support
                        novel.append((node, None))
            novel_by_parent.append((parent, parent_key, novel))

        # round 2 — every parent's incremental joins in one superstep: each
        # worker joins its shard with ALL extension edges still to verify
        # (the (Q, e) work units); positions index the extensions sent.
        # Workers park the joined rows locally (the upcoming install adopts
        # them in place) and ship scalars only.
        join_parents: List[Tuple[int, List[Tuple[TreeNode, Extension]]]] = []
        for _, parent_key, novel in novel_by_parent:
            sent = [(node, ext) for node, ext in novel if ext is not None]
            if sent:
                join_parents.append((parent_key, sent))
        joined_by_parent: Dict[int, List] = {}
        if join_parents:
            requests = [
                (
                    worker,
                    "join",
                    parent_key,
                    {
                        "extensions": [
                            (extension, node.pattern.pivot)
                            for node, extension in sent
                        ],
                        "cap": cap,
                    },
                )
                for parent_key, sent in join_parents
                for worker in range(n)
            ]
            joined_all = self._backend.run_superstep(requests)
            for offset, (parent_key, _) in enumerate(join_parents):
                joined_by_parent[parent_key] = joined_all[
                    offset * n:(offset + 1) * n
                ]

        # per-child support aggregation in (parent, child) order; installs
        # collect into one batch
        install_batch: List[Tuple[TreeNode, bool, List[Dict[str, Any]]]] = []
        for parent, parent_key, novel in novel_by_parent:
            joined = joined_by_parent.get(parent_key)
            position = -1
            for node, extension in novel:
                created_nodes.append(node)
                if extension is None:
                    continue  # a leaf by the tally: support already set
                position += 1
                supports, sizes, hit_caps = zip(
                    *(joined[worker][position] for worker in range(n))
                )
                truncated = cap is not None and (
                    any(hit_caps) or sum(sizes) >= cap
                )
                # pivot-disjoint shards: global support is a plain sum
                node.support = sum(supports)
                install_batch.append(
                    (node, truncated, [{"adopt": (parent_key, position)}] * n)
                )

        # round 3 — every joined child's install in one superstep
        self._install_shards_many(install_batch)
        self._settle(tree, created_nodes)

        # the level's children are joined (installs adopted the parked rows
        # above) and no parent of this level is visited again: free the
        # worker-side state, also of parents that spawned no child
        for parent, parent_key in eligible:
            self._drop_parent(parent, parent_key)
        return created_nodes

    # ------------------------------------------------------------------
    # horizontal spawning (parallel validation)
    # ------------------------------------------------------------------
    def _literal_alphabet_parallel(self, node: TreeNode) -> List[Literal]:
        """The candidate alphabet from merged per-worker column statistics.

        The per-worker statistics were collected in the table-building
        superstep (:meth:`_install_shards_many`).
        """
        want_variable = (
            self.config.variable_literals and node.pattern.num_nodes > 1
        )
        value_parts, agreement_parts = self._column_stats.pop(
            self._keys[id(node)]
        )
        with self.tracer.span("master", "master"):
            return literal_alphabet(
                self.index,
                node.pattern,
                self.gamma,
                value_parts,
                merge_agreement_counts(agreement_parts) if want_variable else {},
                self.config.max_constants,
            )

    def _mine_nodes_batch(self, nodes: List[TreeNode]) -> None:
        """``HSpawn`` for a node-order prefix of one level's verified
        patterns, jointly — the whole level in an unbudgeted run, a
        doubling slice of it under a rule budget (``_levels``).

        One ``scan`` superstep opens every pattern's mask store; the LHS
        lattices then advance *jointly* — one ``eval`` superstep per
        lattice depth carries every still-active pattern's candidate batch
        (the ``ΣC_{ij}`` rounds of Figure 3, summed over patterns too) —
        and one ``probe`` superstep resolves all NHSpawn bases.  The
        superstep count per call is therefore bounded by
        ``2 + max_lhs_size``, independent of the number of patterns.

        Emissions are buffered per node and replayed in node order at the
        end, so ``_found``'s insertion order — which downstream cover
        ordering observes — is node-major at every ``n``: within a node,
        its positives in lattice order, then its ``NHSpawn`` negatives.
        (Candidates are charged lattice-depth-major across the batch, so
        where a binding ``max_candidates`` budget aborts depends on how the
        level is sliced; a completed run's total does not.)

        A pattern replayed from the frontier arrives without column
        statistics: one more ``install`` superstep re-binds its resident
        table to the workers' current index and collects them, so the
        alphabet always reads the current attribute values.
        """
        n = self.num_workers
        mined = [
            (node, self._keys[id(node)]) for node in nodes if self._mines(node)
        ]
        self._tree.inherit([node for node, _ in mined])
        self._install(
            [
                (node, key, [{"resident": True}] * n)
                for node, key in mined
                if key not in self._column_stats
            ]
        )
        miners: List[_NodeMining] = []
        for node, key in mined:
            literals = self._literal_alphabet_parallel(node)
            if not literals:
                continue
            miners.append(_NodeMining(node, key, literals))
        if not miners:
            return

        # batch 0 — one superstep: per-literal counts and *local* distinct
        # pivot counts on every shard of every pattern (warms the workers'
        # mask caches and opens the mask stores); pivot-disjoint sharding
        # makes the global support a plain sum.
        requests = [
            (worker, "scan", miner.key, {"literals": miner.literals})
            for miner in miners
            for worker in range(n)
        ]
        parts_all = self._backend.run_superstep(requests)

        empty: FrozenSet[Literal] = frozenset()
        for index, miner in enumerate(miners):
            parts = parts_all[index * n:(index + 1) * n]
            count_parts = [part[0] for part in parts]
            support_parts = [part[1] for part in parts]
            literal_support: Dict[Literal, int] = {}
            for position, literal in enumerate(miner.literals):
                miner.literal_count[literal] = sum(
                    part[position] for part in count_parts
                )
                literal_support[literal] = sum(
                    part[position] for part in support_parts
                )
            if self.config.prune:
                miner.lattice_literals = [
                    literal
                    for literal in miner.literals
                    if literal_support[literal] >= self.config.sigma
                ]
            else:
                miner.lattice_literals = miner.literals
            miner.indexed = list(enumerate(miner.lattice_literals))
            miner.total_rows = sum(self._shard_rows[miner.key])
            node = miner.node
            with self.tracer.span("master", "master"):
                # per RHS, the covered LHS sets a candidate can contain
                alphabet = set(miner.lattice_literals)
                covered: Dict[Literal, List[FrozenSet[Literal]]] = {}
                for lhs, rhs in node.covered:
                    if rhs in alphabet and lhs <= alphabet:
                        covered.setdefault(rhs, []).append(lhs)
                for position, rhs in enumerate(miner.lattice_literals):
                    count_rhs = miner.literal_count[rhs]
                    support_rhs = literal_support[rhs]
                    if self.config.prune and support_rhs < self.config.sigma:
                        continue
                    self._charge_candidate()
                    held = covered.get(rhs, [])
                    if empty in held:
                        continue
                    if count_rhs == miner.total_rows and miner.total_rows:
                        node.valid_pairs.add((empty, rhs))
                        if support_rhs >= self.config.sigma:
                            miner.accept(empty, rhs, 0, support_rhs)
                        continue
                    task = _Task(rhs, position)
                    # a covered LHS and its supersets are never evaluated
                    task.valid_sets = held
                    miner.tasks.append(task)

        # the joint lattice: one superstep per depth carries every still-
        # active pattern's candidate batch; workers evaluate candidates
        # sharing a parent mask and LHS literal in one numpy pass
        for _ in range(self.config.max_lhs_size):
            round_specs: List[Tuple[_NodeMining, List, List]] = []
            for miner in miners:
                if miner.done:
                    continue
                specs: List[Tuple[int, Literal, Literal, int]] = []
                meta: List[Tuple[_Task, FrozenSet[Literal], int, int]] = []
                with self.tracer.span("master", "master"):
                    for task in miner.tasks:
                        for lhs, max_index, rows_id in task.frontier:
                            for index, literal in miner.indexed:
                                if index <= max_index or literal == task.rhs:
                                    continue
                                extended = lhs | {literal}
                                if any(v <= extended for v in task.valid_sets):
                                    continue
                                if is_trivial_dependency(extended, task.rhs):
                                    continue
                                self._charge_candidate()
                                mask_id = miner.next_mask_id
                                miner.next_mask_id += 1
                                specs.append(
                                    (rows_id, literal, task.rhs, mask_id)
                                )
                                meta.append((task, extended, index, mask_id))
                if not specs:
                    miner.done = True
                    continue
                round_specs.append((miner, specs, meta))
            if not round_specs:
                break
            requests = [
                (
                    worker,
                    "eval",
                    miner.key,
                    {"specs": specs, "drop": miner.pending_drops},
                )
                for miner, specs, meta in round_specs
                for worker in range(n)
            ]
            results_all = self._backend.run_superstep(requests)
            cursor = 0
            for miner, specs, meta in round_specs:
                miner.pending_drops = []
                results = results_all[cursor:cursor + n]
                cursor += n
                total_lhs = np.zeros(len(specs), dtype=np.int64)
                total_both = np.zeros(len(specs), dtype=np.int64)
                total_supp = np.zeros(len(specs), dtype=np.int64)
                for lhs_arr, both_arr, supp_arr in results:
                    total_lhs += lhs_arr
                    total_both += both_arr
                    total_supp += supp_arr
                node = miner.node
                with self.tracer.span("master", "master"):
                    for position, (task, extended, index, mask_id) in enumerate(meta):
                        count_lhs = int(total_lhs[position])
                        count_both = int(total_both[position])
                        supp = int(total_supp[position])
                        keep = False
                        if not (
                            self.config.prune and supp < self.config.sigma
                        ):
                            if count_lhs and count_both == count_lhs:
                                task.valid_sets.append(extended)
                                node.valid_pairs.add((extended, task.rhs))
                                if supp >= self.config.sigma:
                                    miner.accept(extended, task.rhs, mask_id, supp)
                                    keep = True
                            else:
                                task._next_frontier.append(
                                    (extended, index, mask_id)
                                )
                                keep = True
                        if not keep:
                            miner.pending_drops.append(mask_id)
                for task in miner.tasks:
                    task.frontier = task._next_frontier
                    task._next_frontier = []
                miner.tasks = [task for task in miner.tasks if task.frontier]
                if not miner.tasks and not miner.nh_bases:
                    miner.done = True

        self._nhspawn_joint(miners)
        # every lattice is exhausted: free the workers' mask stores
        self._backend.run_unmetered(
            [
                (worker, "drop_store", miner.key, {})
                for miner in miners
                for worker in range(n)
            ],
            wait=False,
        )
        # replay the buffered emissions in node order
        for miner in miners:
            for gfd, support in miner.emits:
                self._emit(gfd, support)

    def _nhspawn_joint(self, miners: List[_NodeMining]) -> None:
        """``NHSpawn`` for every base of every batched pattern in one
        superstep, then each pattern's emissions settled.

        A pattern first absorbs what its same-level generalizations hold
        (settled before it: in an earlier batch, or in this one, which
        settles more general patterns first): a positive they hold is not
        emitted, though it stays a base.  A negative ``X ∪ {l''} → false``
        is counted against ``max_negatives_per_pattern``, then dropped when
        a held negative's LHS is a subset of it — one inherited from a
        smaller pattern, or a proper subset emitted here under some
        automorphism (bases come in ``|X|`` order, so that one is out).
        """
        for miner in miners if self.config.mine_negative else ():
            with self.tracer.span("master", "master"):
                miner.probes = [
                    (base_index, lhs, literal, base_support, rows_id)
                    for base_index, (lhs, rhs, rows_id, base_support)
                    in enumerate(miner.nh_bases)
                    for literal in miner.literals
                    if literal != rhs
                    and literal not in lhs
                    and not lhs_unsatisfiable(lhs | {literal})
                    and miner.literal_count.get(literal, 0) >= self.config.sigma
                ]
        probed = [miner for miner in miners if miner.probes]
        n = self.num_workers
        requests = [
            (worker, "probe", miner.key, {
                "specs": [(probe[4], probe[2]) for probe in miner.probes],
                "drop": miner.pending_drops,
            })
            for miner in probed
            for worker in range(n)
        ]
        parts_all = self._backend.run_superstep(requests) if requests else []
        overlaps = {
            miner: parts_all[index * n:(index + 1) * n]
            for index, miner in enumerate(probed)
        }
        # another automorphism than the identity needs two alike labels
        symmetric = [
            miner for miner in probed
            if len(set(miner.node.pattern.labels)) < miner.node.pattern.num_nodes
        ]
        symmetries = dict(zip(symmetric, embedding_batch(
            (miner.node.pattern, miner.node.pattern, True) for miner in symmetric
        )))
        by_node = {miner.node: miner for miner in miners}
        for node in generality(list(by_node)):
            miner = by_node[node]
            with self.tracer.span("master", "master"):
                for general, mappings in self._generals.get(node, ()):
                    node.absorb(general, mappings)
                if node in self._generals:
                    miner.emits = [
                        (gfd, support) for gfd, support in miner.emits
                        if (gfd.lhs, gfd.rhs) not in node.inherited
                    ]
                if miner in overlaps:
                    self._settle_negatives(
                        miner, overlaps[miner], symmetries.get(miner, ())
                    )

    def _settle_negatives(
        self, miner: _NodeMining, overlaps: List[Any], symmetries: Tuple
    ) -> None:
        """Emit one pattern's probed ``NHSpawn`` negatives (see
        :meth:`_nhspawn_joint`), given its automorphisms (none listed when
        the identity is the only one)."""
        node = miner.node
        inherited = None  # the inherited negatives, read at the first need
        # the negatives emitted here, under every automorphism
        own: List[FrozenSet[Literal]] = []
        emitted_per_base: Dict[int, int] = {}
        for position, (base_index, lhs, literal, base_support, _) in enumerate(
            miner.probes
        ):
            if any(part[position] for part in overlaps):
                continue  # some match satisfies X ∪ {l''}
            emitted = emitted_per_base.get(base_index, 0)
            if emitted >= self.config.max_negatives_per_pattern:
                continue
            emitted_per_base[base_index] = emitted + 1
            negative = lhs | {literal}
            if inherited is None:
                inherited = [y for y, rhs in node.inherited if rhs == FALSE]
            if any(held <= negative for held in inherited) or any(
                held < negative for held in own
            ):
                continue
            node.valid_pairs.add((negative, FALSE))
            own.append(negative)
            own.extend(
                frozenset(rename_literal(l, f) for l in negative)
                for f in symmetries
            )
            miner.emits.append((GFD(node.pattern, negative, FALSE), base_support))
