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
   single superstep: workers count the depth's LHS groups against every
   alphabet literal on their shards, and the master sums the counts
   (pivot-disjoint shards make a support a sum too).

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
from itertools import combinations
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
from ..gfd.closure import entailed_literals, lhs_unsatisfiable
from ..gfd.gfd import GFD
from ..gfd.literals import FALSE, Literal, rename_literal
from ..graph.graph import Graph
from ..graph.index import GraphIndex
from ..graph.statistics import GraphStatistics
from ..obs.tracer import NULL_TRACER
from ..pattern.embedding import DistinctPatterns, embedding_batch
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


class _NodeMining:
    """Master-side ``HSpawn`` state for one pattern of a level's batch.

    The LHS lattice is decided a depth at a time from counts, the way TANE
    validates a level (Huhtala et al., Comput. J. 1999): an LHS is an int
    bitmask over the lattice literals, a depth's *groups* are the distinct
    LHS sets it evaluates, and the workers count each group against every
    alphabet literal, so validity, support and every ``NHSpawn`` overlap
    are read off one matrix with numpy.

    Emissions are *buffered* (``emits``): a level's patterns advance their
    lattices jointly, so replaying the buffers in node order afterwards
    gives a node-major insertion order that no ``n`` and no budget slicing
    changes.
    """

    __slots__ = (
        "node", "key", "literals", "counts", "lattice", "lattice_literals",
        "valid", "level", "frontier", "groups", "candidates", "nh_bases",
        "emits",
    )

    def __init__(self, node: TreeNode, key: int, literals: List[Literal]) -> None:
        self.node = node
        self.key = key
        self.literals = literals
        #: the alphabet's global row counts (the scan's)
        self.counts = np.zeros(0, dtype=np.int64)
        #: the lattice literals' alphabet positions (σ-frequent ones under
        #: pruning) and the literals, in RHS column order
        self.lattice = np.zeros(0, dtype=np.int64)
        self.lattice_literals: List[Literal] = []
        #: per LHS bitmask, the RHS it holds for (found valid or covered)
        self.valid: Dict[int, np.ndarray] = {}
        #: the last depth's groups ``(bitmask, last lattice position,
        #: literals)`` in the workers' store order, and groups × RHS: the
        #: group is on that RHS's frontier
        self.level: List[Tuple[int, int, Tuple[Literal, ...]]] = [(0, -1, ())]
        self.frontier = np.zeros((1, 0), dtype=bool)
        #: the depth under evaluation: ``(bitmask, parent position, lattice
        #: position, literals)`` per group, and its groups × RHS candidates
        self.groups: List[Tuple[int, int, int, Tuple[Literal, ...]]] = []
        self.candidates = np.zeros((0, 0), dtype=bool)
        #: NHSpawn bases: (lhs, rhs, global row counts of lhs ∧ each
        #: alphabet literal, base support)
        self.nh_bases: List[Tuple[FrozenSet[Literal], Literal, np.ndarray, int]] = []
        #: buffered ``(gfd, support)`` emissions, replayed in node order
        self.emits: List[Tuple[GFD, int]] = []

    def accept(
        self, lhs: FrozenSet[Literal], rhs: Literal, counts: np.ndarray,
        support: int,
    ) -> None:
        """A valid, σ-frequent ``X → l``: emitted unless inherited (a
        ``≪``-smaller rule is out), an ``NHSpawn`` base either way — the
        smaller pattern admitted only ``l''`` of ≥ σ match rows, and an
        edge more can raise that count, so this one's negatives are new."""
        if (lhs, rhs) not in self.node.inherited:
            self.emits.append((GFD(self.node.pattern, lhs, rhs), support))
        self.nh_bases.append((lhs, rhs, counts, support))

    def open(self, counts: np.ndarray, supports: np.ndarray, total: int,
             config: DiscoveryConfig) -> int:
        """Depth 0 from the scan's global counts; returns the candidates
        checked, one per lattice literal as an RHS.

        The covered pairs over the lattice literals seed :attr:`valid`, so
        no candidate containing a covered LHS is evaluated.  An RHS a
        covered ``∅`` holds gets no lattice, nor one on every row, where
        ``∅ → l`` is valid; every other RHS's frontier is ``{∅}``.
        """
        self.counts = counts
        self.lattice = (
            np.flatnonzero(supports >= config.sigma) if config.prune
            else np.arange(len(self.literals))
        )
        lattice = self.lattice_literals = [
            self.literals[position] for position in self.lattice.tolist()
        ]
        position = {literal: index for index, literal in enumerate(lattice)}
        for lhs, rhs in self.node.covered:
            if rhs in position and all(literal in position for literal in lhs):
                self.valid.setdefault(
                    sum(1 << position[literal] for literal in lhs),
                    np.zeros(len(lattice), dtype=bool),
                )[position[rhs]] = True
        held = self.valid.get(0, np.zeros(len(lattice), dtype=bool))
        whole = (counts[self.lattice] == total) & (total > 0) & ~held
        for index in np.flatnonzero(whole).tolist():
            self.node.valid_pairs.add((_EMPTY, lattice[index]))
            support = int(supports[self.lattice[index]])
            if support >= config.sigma:
                self.accept(_EMPTY, lattice[index], counts, support)
        self.frontier = (~held & ~whole)[None, :]
        return len(lattice)

    def expand(self) -> int:
        """The next depth's :attr:`groups` and :attr:`candidates`; returns
        the candidates checked.

        A frontier group ``X`` extends by each later lattice literal ``l``
        to ``X ∧ l`` (lexicographic order, in which the one-at-a-time
        search met them), a candidate for each RHS whose frontier holds
        ``X``, except ``l``, an RHS that a valid or covered subset of
        ``X ∧ l`` holds for (``X`` held none, so only subsets with ``l``
        are looked up) and one ``X ∧ l`` entails
        (:func:`~repro.gfd.closure.entailed_literals`).
        """
        lattice = self.lattice_literals
        position = {literal: index for index, literal in enumerate(lattice)}
        self.groups, rows = [], []
        for parent in np.flatnonzero(self.frontier.any(axis=1)).tolist():
            mask, top, literals = self.level[parent]
            for index in range(top + 1, len(lattice)):
                bit = 1 << index
                row = self.frontier[parent].copy()
                row[index] = False
                subset = mask
                while True:
                    held = self.valid.get(subset | bit)
                    if held is not None:
                        row &= ~held
                    if not subset:
                        break
                    subset = (subset - 1) & mask
                extended = literals + (lattice[index],)
                if literals:  # one literal entails only itself
                    entailed = entailed_literals(extended)
                    if entailed is None:
                        continue  # unsatisfiable: trivial for every RHS
                    for literal in entailed:
                        if literal in position:
                            row[position[literal]] = False
                if row.any():
                    self.groups.append((mask | bit, parent, index, extended))
                    rows.append(row)
        self.candidates = np.array(rows, dtype=bool).reshape(len(rows), len(lattice))
        if not self.groups:
            self.frontier = self.frontier[:0]
        return int(self.candidates.sum())

    def decide(self, parts: List[Tuple], config: DiscoveryConfig) -> None:
        """The depth's outcome from its workers' counts.

        ``X ∧ l → r`` is valid when ``r`` holds on every one of the group's
        rows (and there is one); its support is then the group's.  Under
        pruning a candidate below σ is dropped (Lemma 4).  A valid one
        holds for its RHS from now on and is accepted when σ-frequent, in
        RHS order then LHS order; an invalid one stays on its RHS's
        frontier.  The groups become the level the next depth extends.
        """
        counts, supports, overlaps = (sum(part[i] for part in parts) for i in range(3))
        holds = overlaps[:, self.lattice] == counts[:, None]
        holds &= (counts > 0)[:, None]
        pair_supports = np.zeros(self.candidates.shape, dtype=np.int64)
        if parts[0][3] is not None:
            pair_supports[np.nonzero(self.candidates)] = sum(part[3] for part in parts)
        frequent = np.where(holds, supports[:, None], pair_supports) >= config.sigma
        kept = self.candidates & frequent if config.prune else self.candidates
        valid = kept & holds
        lattice = self.lattice_literals
        lhs_sets = {}
        for group in np.flatnonzero(valid.any(axis=1)).tolist():
            mask, _, _, literals = self.groups[group]
            held = self.valid.get(mask)
            self.valid[mask] = valid[group] if held is None else held | valid[group]
            lhs = lhs_sets[group] = frozenset(literals)
            self.node.valid_pairs.update(
                (lhs, lattice[rhs]) for rhs in np.flatnonzero(valid[group]).tolist()
            )
        for rhs, group in zip(*np.nonzero((valid & frequent).T)):
            self.accept(
                lhs_sets[group], lattice[rhs], overlaps[group], int(supports[group])
            )
        self.level = [(mask, top, literals) for mask, _, top, literals in self.groups]
        self.frontier = kept & ~holds


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
        #: the distinct patterns holding ``∅ → false`` in this run so far
        #: (:meth:`_settle`)
        self._held: Dict[Pattern, None] = {}
        #: Subset lookups :meth:`_settle_negatives` made (exact work count).
        self.subset_lookups = 0

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
        self._held = {}
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

    def _charge(self, candidates: int) -> None:
        """Count a batch of candidate checks; abort once the count passes
        the configured budget, carrying the count a one-at-a-time charge
        stops at (the budget plus one)."""
        checked = self.stats.candidates_checked + candidates
        budget = self.config.max_candidates
        if budget is not None and checked > budget:
            self.stats.candidates_checked = budget + 1
            raise CandidateBudgetExceeded(budget + 1, self.stats.patterns_spawned)
        self.stats.candidates_checked = checked

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
        is skipped, and held here for the patterns above.  Only the held
        patterns that pass the label-count prefilter
        (:meth:`DistinctPatterns.may_embed_into`) into a zero-support
        pattern are searched for an embedding.
        """
        self._generals = tree.generalizations(nodes)
        zero = [n for n in nodes if self.config.mine_negative and not n.support]
        below: Set[TreeNode] = set()
        if zero and self._held:
            held = DistinctPatterns(self._held)
            pairs = [
                (held.patterns[slot], node)
                for node, slots in zip(
                    zero, held.may_embed_into([node.pattern for node in zero])
                )
                for slot in slots
            ]
            found = embedding_batch(
                [(smaller, node.pattern, True) for smaller, node in pairs], 1
            )
            below = {node for (_, node), mappings in zip(pairs, found) if mappings}
        negated: Set[TreeNode] = set()
        for node in generality(zero):  # a generalization decides first
            wider = [general for general, _ in self._generals.get(node, ())]
            if node in below or any(_NEGATIVE in g.valid_pairs for g in wider):
                node.valid_pairs.add(_NEGATIVE)
            elif node.parents[0].support >= self.config.sigma:
                node.valid_pairs.add(_NEGATIVE)
                negated.add(node)
        self._held.update(
            (node.pattern, None) for node in zero if _NEGATIVE in node.valid_pairs
        )
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

    def _truncated_support(
        self, merged: ExtensionCounts, extension: Extension
    ) -> Optional[int]:
        """The support of a new-node child the parent's tally already truncates.

        The tally knows a concrete-label new-node child's exact join size
        (``merged.rows``, summed over shards).  The capped join truncates
        the child iff that sum reaches ``max_matches_per_pattern``, and its
        support is then the sum of each shard's support over its first
        ``cap`` rows (``merged.capped``; ``merged.new_node`` where no shard
        reached the cap alone).  Returns ``None`` when the child is not
        truncated or the tally has no key for it (a closing or wildcard
        extension).
        """
        cap = self.config.max_matches_per_pattern
        if cap is None or extension.is_closing or (
            extension.new_node_label == WILDCARD
        ):
            return None
        key = (
            extension.src, extension.outward, extension.edge_label,
            extension.new_node_label,
        )
        if merged.rows.get(key, 0) < cap:
            return None
        return merged.capped.get(key, merged.new_node[key])

    @staticmethod
    def _tallied_support(
        merged: ExtensionCounts, extension: Extension
    ) -> Optional[int]:
        """The support of a joined, untruncated child, read off the tally.

        A concrete-label new-node child's ``merged.new_node`` count and a
        concrete-label closing child's ``merged.closing`` count are its
        distinct-pivot support (see :mod:`repro.core.spawning`); a joined
        child of either kind is not truncated (:meth:`_truncated_support`,
        :meth:`_leaf_support`), so its join holds every row.  Returns
        ``None`` for a wildcard child, whose support its join counts.
        """
        if extension.edge_label == WILDCARD:
            return None
        if extension.is_closing:
            return merged.closing.get(
                (extension.src, extension.dst, extension.edge_label), 0
            )
        if extension.new_node_label == WILDCARD:
            return None
        return merged.new_node[(
            extension.src, extension.outward, extension.edge_label,
            extension.new_node_label,
        )]

    def _vspawn_level(
        self, tree: GenerationTree, level: int
    ) -> List[TreeNode]:
        """``VSpawn(level)``: three supersteps for the whole level.

        Every surviving parent tallies in one superstep, every novel child
        that will be mined or extended joins in one superstep, and every
        joined child installs in one superstep, adopting the rows its join
        parked on each worker.  Two kinds of child take their support from
        the tally and are never joined: a closing child the tally fixes as
        a leaf (:meth:`_leaf_support`), which gets no install, no worker
        key and only keeps its slot in the per-child bookkeeping; and a
        new-node child whose tallied join size reaches the match cap
        (:meth:`_truncated_support`), which goes to the install batch
        flagged truncated, as the capped join's verdict did.  So the join
        superstep carries installable children only.  Master-side dedup,
        support aggregation and the zero-support negative emissions run in
        per-parent, per-child order, so the discovered set does not depend
        on ``n``.
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
                {
                    "can_add": parent.pattern.num_nodes < self.config.k,
                    "cap": cap,
                },
            )
            for parent, parent_key in eligible
            for worker in range(n)
        ]
        parts_all = self._backend.run_superstep(requests)

        # master-side extension generation + dedup, in parent order (the
        # dedup against earlier parents' children is order-sensitive); a
        # child the tally makes a leaf or truncates carries ``None`` for its
        # extension
        novel_by_parent: List[
            Tuple[TreeNode, int, List[Tuple[TreeNode, Optional[Extension]]]]
        ] = []
        truncated_by_tally: Set[TreeNode] = set()
        # joined children whose support the tally already knows: their
        # joins count rows, not distinct pivots
        tallied: Dict[TreeNode, int] = {}
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
                    support = self._leaf_support(merged, extension)
                    if support is None:
                        support = self._truncated_support(merged, extension)
                        if support is not None:
                            truncated_by_tally.add(node)
                    if support is None:
                        support = self._tallied_support(merged, extension)
                        if support is not None:
                            tallied[node] = support
                        novel.append((node, extension))
                    else:
                        node.support = support
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
                            (
                                extension,
                                None if node in tallied else node.pattern.pivot,
                            )
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
                if extension is None:  # support already set by the tally
                    if node in truncated_by_tally:
                        install_batch.append((node, True, []))
                    continue
                position += 1
                supports, sizes, hit_caps = zip(
                    *(joined[worker][position] for worker in range(n))
                )
                truncated = cap is not None and (
                    any(hit_caps) or sum(sizes) >= cap
                )
                # pivot-disjoint shards: global support is a plain sum
                node.support = (
                    tallied[node] if node in tallied else sum(supports)
                )
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
        superstep (:meth:`_install_shards_many`).  Under pruning a literal
        on fewer than σ rows is left out (Lemma 4: its support is lower
        still, and ``NHSpawn`` takes no ``l''`` of fewer than σ rows).
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
                self.config.sigma if self.config.prune else 1,
            )

    def _mine_nodes_batch(self, nodes: List[TreeNode]) -> None:
        """``HSpawn`` for a node-order prefix of one level's verified
        patterns, jointly — the whole level in an unbudgeted run, a
        doubling slice of it under a rule budget (``_levels``).

        One ``scan`` superstep opens every pattern's lattice; the LHS
        lattices then advance *jointly* — one ``eval`` superstep per
        lattice depth carries every still-active pattern's LHS groups (the
        ``ΣC_{ij}`` rounds of Figure 3, summed over patterns too), and its
        count matrices decide the depth and every ``NHSpawn`` overlap
        (:meth:`_NodeMining.decide`, :meth:`_nhspawn_joint`).  The superstep count
        per call is therefore bounded by ``1 + max_lhs_size``, independent
        of the number of patterns.

        Emissions are buffered per node and replayed in node order at the
        end, so ``_found``'s insertion order — which downstream cover
        ordering observes — is node-major at every ``n``: within a node,
        its positives in lattice order (by depth, then RHS, then LHS), then
        its ``NHSpawn`` negatives.  (Candidates are charged a depth at a
        time across the batch, so where a binding ``max_candidates`` budget
        aborts depends on how the level is sliced; a completed run's total
        does not.)

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
        miners = [
            _NodeMining(node, key, self._literal_alphabet_parallel(node))
            for node, key in mined
        ]
        scanned = [miner for miner in miners if miner.literals]
        # one superstep: per-literal row counts and *local* distinct pivot
        # counts on every shard of every pattern; pivot-disjoint sharding
        # makes the global support a plain sum
        parts_all = self._backend.run_superstep([
            (worker, "scan", miner.key, {"literals": miner.literals})
            for miner in scanned
            for worker in range(n)
        ]) if scanned else []
        for index, miner in enumerate(scanned):
            parts = parts_all[index * n:(index + 1) * n]
            with self.tracer.span("master", "master"):
                self._charge(miner.open(
                    sum(part[1] for part in parts),
                    np.sum([part[2] for part in parts], axis=0),
                    sum(self._shard_rows[miner.key]), self.config,
                ))
        for depth in range(1, self.config.max_lhs_size + 1):
            with self.tracer.span("master", "master"):
                checked = sum(m.expand() for m in scanned if m.frontier.any())
                active = [miner for miner in scanned if miner.groups]
            self._charge(checked)
            if not active:
                break
            # a lattice that goes on needs each invalid candidate's support
            goes_on = self.config.prune and depth < self.config.max_lhs_size
            floor = self.config.sigma if n == 1 else 1
            requests = []
            for miner in active:
                parents, literals = zip(*(group[1:3] for group in miner.groups))
                payload: Dict[str, Any] = {"groups": (
                    np.array(parents, dtype=np.int64), miner.lattice[list(literals)]
                )}
                if goes_on:
                    payload.update(pairs=(miner.candidates, miner.lattice), floor=floor)
                requests += [
                    (worker, "eval", miner.key, payload) for worker in range(n)
                ]
            results_all = self._backend.run_superstep(requests)
            for index, miner in enumerate(active):
                with self.tracer.span("master", "master"):
                    miner.decide(results_all[index * n:(index + 1) * n], self.config)
                miner.groups = []

        self._nhspawn_joint(miners)
        # every lattice is exhausted: free the workers' stores
        self._backend.run_unmetered(
            [
                (worker, "drop_store", miner.key, {})
                for miner in scanned
                for worker in range(n)
            ],
            wait=False,
        )
        # replay the buffered emissions in node order
        for miner in miners:
            for gfd, support in miner.emits:
                self._emit(gfd, support)

    def _nhspawn_joint(self, miners: List[_NodeMining]) -> None:
        """``NHSpawn`` for every base of every batched pattern, then each
        pattern's emissions settled.

        A base ``X → l`` extends by ``l''`` into ``X ∪ {l''} → false`` when
        ``l''`` holds on ≥ σ rows and on none of ``X``'s — read off the
        base's count row (the scan's counts for ``X = ∅``), before any
        satisfiability test — and ``X ∪ {l''}`` is satisfiable.  (``l`` and
        ``X``'s own literals hold on all of ``X``'s rows, so they never
        qualify.)

        Every mined pattern first absorbs what its same-level
        generalizations hold (settled before it: in an earlier batch, or
        in this one, which settles more general patterns first), also one
        whose alphabet is empty: a positive they hold is not emitted,
        though it stays a base.  A negative is counted against
        ``max_negatives_per_pattern``, then dropped when a held negative's
        LHS is a subset of it — one inherited from a smaller pattern, or a
        proper subset emitted here under some automorphism (bases come in
        ``|X|`` order, so that one is out).
        """
        found: Dict[_NodeMining, List] = {}
        for miner in miners if self.config.mine_negative else ():
            with self.tracer.span("master", "master"):
                eligible = miner.counts >= self.config.sigma
                negatives = [
                    (base, lhs, miner.literals[position], support)
                    for base, (lhs, _, counts, support) in enumerate(miner.nh_bases)
                    for position in np.flatnonzero((counts == 0) & eligible).tolist()
                    if not lhs_unsatisfiable(lhs | {miner.literals[position]})
                ]
            if negatives:
                found[miner] = negatives
        # another automorphism than the identity needs two alike labels
        symmetric = [
            miner for miner in found
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
                if miner in found:
                    self._settle_negatives(
                        miner, found[miner], symmetries.get(miner, ())
                    )

    def _settle_negatives(
        self, miner: _NodeMining, negatives: List[Tuple], symmetries: Tuple
    ) -> None:
        """Emit one pattern's ``NHSpawn`` negatives ``(base index, X, l'',
        base support)`` (see :meth:`_nhspawn_joint`), given its
        automorphisms (none listed when the identity is the only one)."""
        node = miner.node
        # the inherited negatives, read at the first need
        inherited: Optional[Set[FrozenSet[Literal]]] = None
        # the negatives emitted here, under every automorphism
        own: Set[FrozenSet[Literal]] = set()
        emitted_per_base: Dict[int, int] = {}
        for base_index, lhs, literal, base_support in negatives:
            emitted = emitted_per_base.get(base_index, 0)
            if emitted >= self.config.max_negatives_per_pattern:
                continue
            emitted_per_base[base_index] = emitted + 1
            negative = lhs | {literal}
            if inherited is None:
                inherited = {y for y, rhs in node.inherited if rhs == FALSE}
            if (inherited or own) and self._holds_subset(
                negative, inherited, own
            ):
                continue
            node.valid_pairs.add((negative, FALSE))
            own.add(negative)
            own.update(
                frozenset(rename_literal(l, f) for l in negative)
                for f in symmetries
            )
            miner.emits.append((GFD(node.pattern, negative, FALSE), base_support))

    def _holds_subset(
        self,
        negative: FrozenSet[Literal],
        inherited: Set[FrozenSet[Literal]],
        own: Set[FrozenSet[Literal]],
    ) -> bool:
        """Whether ``inherited`` holds a subset of ``negative`` or ``own`` a
        proper one: set lookups of the subsets, smallest size first, so a
        candidate costs at most ``2^|negative|`` lookups
        (``|negative| ≤ max_lhs_size + 1``), not a scan of either set.  A
        size is probed whole, which keeps the count independent of the
        literals' iteration order."""
        literals = tuple(negative)
        for size in range(len(literals) + 1):
            subsets = [frozenset(chosen) for chosen in combinations(literals, size)]
            self.subset_lookups += len(subsets)
            if any(subset in inherited for subset in subsets) or (
                size < len(literals) and any(subset in own for subset in subsets)
            ):
                return True
        return False
