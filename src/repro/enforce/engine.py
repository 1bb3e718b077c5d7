"""The enforcement engine: grouped, sharded, incrementally maintained.

:class:`EnforcementEngine` binds a compiled plan (:mod:`repro.enforce.plan`)
to one live graph and serves two entry points:

* :meth:`EnforcementEngine.validate` — full validation: match every group
  pattern against the current graph snapshot in one walk of the plan's
  join trie on the frozen CSR index (a stem shared by several patterns is
  joined once) and evaluate all grouped rules as columnar masks, sharded
  over the :class:`~repro.parallel.backend.ShardWorker` backend (in-process
  shards, or real worker processes attaching the index via shared memory);
* :meth:`EnforcementEngine.refresh` — delta-aware revalidation that costs
  what the delta touched: consume the attached
  :class:`~repro.enforce.delta.DeltaLog` by kind.  Stored matches that
  contain a *structural* node (an edge end, a relabelled or new node) are
  dropped, and the matches that contain one are re-derived by one walk of
  the anchored trie (every group × variable) seeded with the structural
  nodes.  Stored matches whose touched nodes only had attributes written
  keep their place and are re-judged — a match depends only on labels
  and edges.  When the delta exceeds
  ``EnforcementConfig.max_delta_fraction`` of the graph the engine falls
  back to :meth:`validate`.

The match shards — and each rule's violating slots in them — stay
*resident in the workers* between passes, each a
:class:`~repro.parallel.backend.RowStore` the master mirrors slot for slot.
A full pass installs them once.  A refresh finds the slots its delta
reaches on the mirrors (one node-kind lookup table per refresh) and ships
only ``(drop slots, re-judge slots, fresh rows)`` per reached shard:
dropped rows become tombstones, fresh rows are appended, and nothing
copies a group's stored rows.  A worker answers with the rules whose
violating slots changed, and every other rule keeps its report entry
verbatim, so a report costs its changes.  A clean pass ships nothing at
all (the backend's :class:`~repro.parallel.backend.TransferLedger` makes
the zero-row claims testable).  Graph mutations re-point the backend at
the new index snapshot
(:meth:`~repro.parallel.backend.ExecutionBackend.refresh_index`) instead of
rebuilding the worker processes.

Reports are deterministic across backends, worker counts and refresh modes:
violating matches are mapped back to each rule's original variable order,
sorted lexicographically, and (when ``max_violation_samples`` binds) sampled
with a seeded RNG — never "first ``k`` in enumeration order".
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from operator import itemgetter
from typing import Any, Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

import numpy as np

from ..core.config import EnforcementConfig
from ..gfd.gfd import GFD
from ..gfd.satisfaction import Violation
from ..graph.graph import Graph
from ..graph.index import GraphIndex
from ..obs.tracer import NULL_TRACER
from ..parallel.backend import (
    ExecutionBackend,
    Request,
    RowStore,
    make_backend,
    next_node_key,
)
from ..pattern.matcher import Match
from .delta import DeltaLog
from .plan import CompiledRule, EnforcementPlan, compile_plan

__all__ = ["RuleReport", "EnforcementReport", "EnforcementEngine"]


@dataclass(frozen=True)
class RuleReport:
    """Per-rule outcome of one validation pass.

    ``violation_count`` is always exact (a mask popcount per shard).
    ``nodes`` is exact too unless ``EnforcementConfig.
    max_violations_per_rule`` bound — then ``witnesses_truncated`` is set
    and the node set, ``sample`` and ``distinct_pivots`` cover only the
    retained violating rows (the graceful-degradation mode for adversarial
    rules).  ``sample`` is additionally capped by ``max_violation_samples``
    (``sample_truncated``).  ``distinct_pivots`` is the exact number of
    distinct graph nodes the pivot takes over (retained) violating matches.
    ``text`` is ``format_gfd(gfd)``, rendered once per compiled plan.
    """

    gfd: GFD
    violation_count: int
    nodes: FrozenSet[int]
    sample: Tuple[Match, ...]
    sample_truncated: bool
    distinct_pivots: int
    text: str
    witnesses_truncated: bool = False

    def violations(self) -> List[Violation]:
        """The sampled violations as :class:`Violation` objects."""
        return [Violation(self.gfd, match) for match in self.sample]


@dataclass
class EnforcementReport:
    """Structured result of one :meth:`EnforcementEngine.validate`/`refresh`.

    ``rules`` aligns with the engine's ``Σ`` (one report per input rule,
    shared-pattern rules included individually).
    """

    rules: List[RuleReport]
    mode: str
    backend: str
    num_workers: int
    patterns_matched: int
    #: Pattern groups whose shards this pass installed or spliced — equals
    #: ``patterns_matched`` on a full pass; on an incremental pass, a group
    #: the delta reached in no stored row and no re-derived match keeps its
    #: rule reports verbatim (no match of it contains a touched node, so no
    #: violation status changed).
    groups_revalidated: int
    elapsed_seconds: float
    graph_version: int

    @property
    def total_violations(self) -> int:
        """Sum of exact per-rule violation counts."""
        return sum(rule.violation_count for rule in self.rules)

    @property
    def is_clean(self) -> bool:
        """``G ⊨ Σ`` — no rule has a violating match."""
        return self.total_violations == 0

    def flagged_nodes(self) -> Set[int]:
        """``V^GFD``: every node contained in some violating match.

        Exact, unless ``EnforcementConfig.max_violations_per_rule`` bound on
        some rule — then that rule's contribution covers only its retained
        witness rows (its report entry has ``witnesses_truncated`` set).
        """
        flagged: Set[int] = set()
        for rule in self.rules:
            flagged.update(rule.nodes)
        return flagged

    def violations(self) -> List[Violation]:
        """All sampled violations, grouped per rule in ``Σ`` order."""
        result: List[Violation] = []
        for rule in self.rules:
            result.extend(rule.violations())
        return result


class EnforcementEngine:
    """Continuous validation of a fixed ``Σ`` against one live graph.

    The engine compiles ``Σ`` once, attaches a :class:`DeltaLog` to the
    graph, and mirrors every worker's match shard between passes so
    :meth:`refresh` can splice localized re-matches by slot instead of
    re-matching the world.  The evaluation backend (``config.backend``) is
    long-lived: its workers keep each group's match shard and each rule's
    violating slots across passes, so repeated refreshes against a
    mutating graph exchange deltas and changed rules only.  Call
    :meth:`close` (or use as a context manager) to detach the log and
    release backend resources (worker processes, shared memory).

    Args:
        graph: the live graph to validate; its mutators feed the engine's
            delta log from the moment the engine is constructed.
        sigma: the rule set ``Σ`` (compiled once, grouped by canonical
            pattern).
        config: evaluation parameters; ``None`` uses the
            :class:`~repro.core.config.EnforcementConfig` defaults.
        backend: a pre-started
            :class:`~repro.parallel.backend.ExecutionBackend` to *borrow*
            — e.g. the pool set a :class:`repro.session.Session` shares
            across discover/cover/enforce.  The caller keeps ownership: on
            :meth:`close` the engine only drops its resident groups, never
            the pools, and a graph-snapshot change re-points the borrowed
            backend via ``refresh_index`` instead of rebuilding it.
            ``None`` (the default) makes the engine construct and own a
            backend per ``config``.
        delta: a :class:`~repro.enforce.delta.DeltaLog` already attached to
            ``graph`` (session-owned).  ``None`` attaches (and on close
            detaches) a private log.
        monitor: an optional :class:`~repro.enforce.monitor.
            RuleSketchMonitor`: every evaluated rule's distinct violating
            pivot ids are unioned into its exact per-rule count as passes
            run.

    Thread-safety: none — one engine serves one caller, like the discovery
    engines.  A serving layer must serialize passes against mutations on
    one lane; the engine's own guarantee under a racing mutation is
    narrower but exact: every pass captures ``graph.version`` and drains
    the delta log *at pass start*, so the report is stamped with the
    version whose delta it consumed and a mutation landing mid-pass stays
    queued for the next refresh — never silently absorbed into a report
    that does not reflect it, never lost.
    """

    def __init__(
        self,
        graph: Graph,
        sigma: Sequence[GFD],
        config: Optional[EnforcementConfig] = None,
        backend: Optional[ExecutionBackend] = None,
        delta: Optional[DeltaLog] = None,
        tracer: Any = NULL_TRACER,
        monitor: Any = None,
    ) -> None:
        self.graph = graph
        self.sigma = list(sigma)
        #: Optional streaming violation monitor (duck-typed: ``absorb(gfd,
        #: pivots)``); fed from every evaluated rule's violating rows.
        self.monitor = monitor
        #: The session tracer (``NULL_TRACER`` by default): validation
        #: passes open ``validate``/``refresh`` stage spans and report an
        #: ``enforce_pass`` typed event; worker-lane op spans come from the
        #: (shared) backend's own instrumentation.
        self.tracer = tracer
        self.config = config if config is not None else EnforcementConfig()
        self.plan: EnforcementPlan = compile_plan(self.sigma)
        self._owns_delta = delta is None
        self.delta = delta if delta is not None else DeltaLog()
        if self._owns_delta:
            graph.attach_delta_log(self.delta)
        #: Per pattern group, the master's mirror of each worker shard
        #: (slot for slot), and each shard's latest per-rule result parts.
        self._stores: List[List[RowStore]] = [[] for _ in self.plan.groups]
        self._parts: List[List[List[Optional[Tuple]]]] = [
            [] for _ in self.plan.groups
        ]
        self._report: Optional[EnforcementReport] = None
        #: Exact work of the latest pass: search ``plans`` asked for,
        #: ``trie_nodes`` they compile to, ``joins`` (fan-outs) run after
        #: pruning; the delta's ``structural_nodes`` and ``attribute_nodes``;
        #: stored rows ``rows_dropped``, ``rows_rejudged`` in place and
        #: ``rows_added`` (every installed row on a full pass); and
        #: ``rules_reused``, the rules whose report entry was kept verbatim.
        self.last_pass: Dict[str, int] = {}
        #: ``backend.lifecycle.respawns`` when the latest pass ended.
        self._respawns_seen = 0
        self._validated_version: Optional[int] = None
        self._owns_backend = backend is None
        self._backend: Optional[ExecutionBackend] = backend
        self._backend_index: Optional[GraphIndex] = None
        #: Worker-state keys of the pattern groups — allocated from the
        #: process-wide counter so engines sharing one backend (sessions,
        #: or an engine rebuilt over the same pools) never collide.
        self._group_keys: List[int] = [
            next_node_key() for _ in self.plan.groups
        ]
        #: Group positions whose match shards are resident in the current
        #: backend's workers (valid only while that backend lives).
        self._resident: set = set()
        self._closed = False

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    @property
    def num_workers(self) -> int:
        """The evaluation shard count in effect."""
        if self._backend is not None:
            return self._backend.num_workers
        return self.config.resolved_workers

    def _drop_resident(self) -> None:
        """Free this engine's resident groups on a backend that outlives it."""
        if not self._resident or self._backend is None:
            return
        try:
            self._backend.run_unmetered(
                [
                    (worker, "enforce_drop", self._group_keys[position], {})
                    for position in sorted(self._resident)
                    for worker in range(self._backend.num_workers)
                ],
                wait=False,
            )
        except Exception:  # pragma: no cover - best-effort cleanup
            pass
        self._resident.clear()

    def close(self) -> None:
        """Release (or hand back) the delta log and backend (idempotent)."""
        if self._closed:
            return
        self._closed = True
        if self._owns_delta:
            self.graph.detach_delta_log(self.delta)
        if self._backend is not None:
            if self._owns_backend:
                self._backend.shutdown()
            else:
                self._drop_resident()
            self._backend = None

    def __enter__(self) -> "EnforcementEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - GC safety net
        try:
            self.close()
        except Exception:
            pass

    # ------------------------------------------------------------------
    # validation entry points
    # ------------------------------------------------------------------
    def validate(self) -> EnforcementReport:
        """Full validation of ``Σ`` against the current graph state."""
        with self.tracer.span(
            "validate", "stage", groups=len(self.plan.groups)
        ):
            started = time.perf_counter()
            # capture the version this pass is about *before* consuming the
            # delta: a mutation racing the pass bumps graph.version but its
            # touched nodes land in the drained log, so the next refresh
            # sees version != _validated_version and consumes them
            version = self.graph.version
            self.delta.drain()
            index = self.graph.index()
            matches = self._group_matches(index)
            backend = self._ensure_backend(index)
            shards = backend.num_workers
            requests: List[Request] = []
            targets: List[Tuple[int, int]] = []
            cap = self.config.max_violations_per_rule
            for position, group in enumerate(self.plan.groups):
                rules = [(rule.lhs, rule.rhs) for rule in group.rules]
                chunks = np.array_split(matches[position], shards)
                self._stores[position] = [RowStore(chunk) for chunk in chunks]
                self._parts[position] = [[None] * len(rules) for _ in chunks]
                key = self._group_keys[position]
                for worker, chunk in enumerate(chunks):
                    requests.append((worker, "enforce_install", key, {
                        "pattern": group.pattern,
                        "matches": chunk,
                        "rules": rules,
                        "cap": cap,
                    }))
                    targets.append((position, worker))
                self._resident.add(position)
            self.last_pass.update(
                structural_nodes=0,
                attribute_nodes=0,
                rows_dropped=0,
                rows_rejudged=0,
                rows_added=sum(int(rows.shape[0]) for rows in matches),
            )
            del matches
            return self._finish(backend, requests, targets, "full", started,
                                version)

    def refresh(self) -> EnforcementReport:
        """Revalidate at the cost of what the delta touched.

        Returns the cached report when nothing changed; falls back to
        :meth:`validate` on the first call or when the touched-node
        fraction exceeds ``config.max_delta_fraction``.
        """
        if self._report is None:
            return self.validate()
        if self.graph.version == self._validated_version and not self.delta:
            return self._report
        # version + delta are taken atomically at pass start: mutations
        # recorded after the drain belong to the *next* pass
        version = self.graph.version
        structural, attribute = self.delta.drain_kinds()
        touched = len(structural) + len(attribute)
        limit = self.config.max_delta_fraction * max(1, self.graph.num_nodes)
        if not touched or touched > limit:
            # version moved without touched nodes (cannot happen while the
            # log is attached) or the delta is too wide to localize
            return self.validate()
        with self.tracer.span("refresh", "stage", touched_nodes=touched):
            started = time.perf_counter()
            index = self.graph.index()
            # per node: 2 structural, 1 attribute-only, 0 untouched
            kinds = np.zeros(index.num_nodes, dtype=np.int8)
            kinds[list(attribute)] = 1
            kinds[list(structural)] = 2
            seeds = np.fromiter(sorted(structural), dtype=np.int64,
                                count=len(structural))
            fresh_of = self._group_matches(index, seeds, kinds)
            shards = self.num_workers
            requests: List[Request] = []
            targets: List[Tuple[int, int]] = []
            dropped = rejudged = added = 0
            for position, stores in enumerate(self._stores):
                key = self._group_keys[position]
                fresh = fresh_of[position]
                chunks = (
                    np.array_split(fresh, shards)
                    if fresh.shape[0]
                    else [fresh] * shards
                )
                for worker, store in enumerate(stores):
                    drop, rejudge = store.hits(kinds)
                    chunk = chunks[worker]
                    if not (drop.size or rejudge.size or chunk.shape[0]):
                        continue
                    # the mirror takes the splice the worker is sent
                    store.drop(drop)
                    store.append(chunk)
                    requests.append((worker, "enforce_update", key, {
                        "drop": drop,
                        "rejudge": rejudge,
                        "fresh": chunk,
                    }))
                    targets.append((position, worker))
                    dropped += drop.size
                    rejudged += rejudge.size
                    added += chunk.shape[0]
            self.last_pass.update(
                structural_nodes=len(structural),
                attribute_nodes=len(attribute),
                rows_dropped=dropped,
                rows_rejudged=rejudged,
                rows_added=added,
            )
            # a delta that reached no stored row leaves the backend alone
            backend = (
                self._ensure_backend(index) if requests else self._backend
            )
            return self._finish(backend, requests, targets, "incremental",
                                started, version)

    def stored_matches(self) -> List[np.ndarray]:
        """Per pattern group, its live stored canonical matches (copies)."""
        return [
            np.concatenate([store.live() for store in stores])
            for stores in self._stores
        ]

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _group_matches(
        self,
        index: GraphIndex,
        seeds: Optional[np.ndarray] = None,
        kinds: Optional[np.ndarray] = None,
    ) -> List[np.ndarray]:
        """Per pattern group, its canonical matches as an ``(N, vars)`` array.

        All of them — or, with ``seeds`` (the structural nodes; ``kinds``
        marks them 2), every match containing a seed, once: anchored at
        each variable in turn and kept from the anchor of its first seeded
        variable only.  One walk of the plan's join trie;
        ``find_violations`` is the layer's oracle.
        """
        anchored = seeds is not None
        trie = self.plan.anchored_trie if anchored else self.plan.full_trie
        # per group ``(anchor, rows)`` blocks; the empty head types the
        # result of a group that matched nothing
        found: List[List[Tuple[int, np.ndarray]]] = [
            [(-1, np.empty((0, group.pattern.num_nodes), dtype=np.int64))]
            for group in self.plan.groups
        ]
        for (position, anchor), rows in trie.match(index, seeds):
            if anchored and anchor:
                rows = rows[(kinds[rows[:, :anchor]] != 2).all(axis=1)]
            found[position].append((anchor, rows))
        self.last_pass = {
            "plans": trie.plans,
            "trie_nodes": trie.nodes,
            "joins": trie.joins,
        }
        return [
            group[0][1] if len(group) == 1 else np.concatenate(
                [rows for _, rows in sorted(group, key=itemgetter(0))]
            )
            for group in found
        ]

    def _ensure_backend(self, index: GraphIndex) -> ExecutionBackend:
        """The evaluation backend for this snapshot.

        An existing backend — owned or borrowed — is *re-pointed* at a new
        index snapshot via :meth:`~repro.parallel.backend.ExecutionBackend.
        refresh_index` (free on the serial backend, one shared-memory index
        export on the multiprocess backend), so the worker-resident match
        shards and violating slots survive graph mutations.
        """
        if self._backend is not None:
            if self._backend_index is not index:
                # a backend already holding this snapshot (e.g. the owning
                # session re-pointed it) is adopted without re-shipping
                if self._backend.source_token != (id(self.graph), id(index)):
                    self._backend.refresh_index(index)
                self._backend_index = index
            return self._backend
        self._backend = make_backend(
            self.config.backend,
            self.num_workers,
            self.graph,
            index,
            fault=self.config.fault,
            tracer=self.tracer,
        )
        self._backend_index = index
        return self._backend

    def _finish(
        self,
        backend: ExecutionBackend,
        requests: List[Request],
        targets: List[Tuple[int, int]],
        mode: str,
        started: float,
        version: int,
    ) -> EnforcementReport:
        """Run one pass's install/update ops and assemble the report.

        ``targets[i]`` is the ``(group position, shard)`` of request ``i``.
        A shard's result lists, per rule of its group, the rule's part — or
        ``None`` when an update left the rule's violating slots unchanged.
        A rule gets a new report entry only if some shard shipped a part;
        every other rule keeps its previous entry verbatim: reports depend
        only on the violating set (lexsort plus a seeded sample), and the
        monitor's union already holds its pivots.

        Workers judge "unchanged" against their own prior verdicts, which a
        respawned worker rebuilt by replaying its journal against the
        *current* index.  The rows such a replay can judge differently all
        hold a node of this pass's delta, so after any recovery since the
        last pass the shards this pass updated are re-read in full
        (``enforce_results``).

        ``version`` is the graph version captured at pass start; the report
        is stamped with it (not with ``graph.version`` at finish time) so a
        mutation racing the pass cannot make the report claim a version it
        does not reflect.
        """
        outcomes = backend.run_unmetered(requests) if requests else []
        respawns = backend.lifecycle.respawns
        if mode == "incremental" and respawns != self._respawns_seen:
            outcomes = backend.run_unmetered([
                (worker, "enforce_results", self._group_keys[position], {})
                for position, worker in targets
            ])
        self._respawns_seen = respawns
        moved: Dict[int, Set[int]] = {}
        for (position, worker), parts in zip(targets, outcomes):
            held = self._parts[position][worker]
            changed = moved.setdefault(position, set())
            for offset, part in enumerate(parts):
                if part is not None:
                    held[offset] = part
                    changed.add(offset)
        rule_reports: List[Optional[RuleReport]] = (
            [None] * len(self.sigma)
            if mode == "full"
            else list(self._report.rules)
        )
        rebuilt = 0
        for position, changed in moved.items():
            group = self.plan.groups[position]
            held = self._parts[position]
            for offset in sorted(changed):
                rule = group.rules[offset]
                rule_reports[rule.position] = self._rule_report(
                    rule, [shard[offset] for shard in held]
                )
                rebuilt += 1
        self.last_pass["rules_reused"] = (
            0 if mode == "full" else len(self.sigma) - rebuilt
        )
        report = EnforcementReport(
            rules=rule_reports,
            mode=mode,
            backend=backend.name,
            num_workers=backend.num_workers,
            patterns_matched=len(self.plan.groups),
            groups_revalidated=len(moved),
            elapsed_seconds=time.perf_counter() - started,
            graph_version=version,
        )
        self._report = report
        self._validated_version = version
        if self.tracer.enabled:
            self.tracer.event(
                "enforce_pass",
                mode=mode,
                backend=backend.name,
                groups_revalidated=len(moved),
                graph_version=version,
                **self.last_pass,
            )
        return report

    def _rule_report(
        self, rule: CompiledRule, parts: List[Tuple]
    ) -> RuleReport:
        """Merge one rule's per-shard results into its report entry."""
        count = sum(part[0] for part in parts)
        witnesses_truncated = any(part[3] for part in parts)
        node_arrays = [part[1] for part in parts if part[1].size]
        nodes = (
            frozenset(np.unique(np.concatenate(node_arrays)).tolist())
            if node_arrays
            else frozenset()
        )
        width = rule.gfd.pattern.num_nodes
        row_arrays = [part[2] for part in parts if part[2].shape[0]]
        if row_arrays:
            canonical = np.concatenate(row_arrays)
        else:
            canonical = np.empty((0, width), dtype=np.int64)
        pivots = np.unique(canonical[:, 0])
        if self.monitor is not None and pivots.size:
            # union the distinct violating pivots into the monitor;
            # incremental passes re-evaluate only dirty groups, and the
            # monitor's store is a monotone union, so clean groups' pivots
            # (absorbed on earlier passes) stay counted
            self.monitor.absorb(rule.gfd, pivots)
        distinct_pivots = int(pivots.size)
        # back to the rule's original variable order, then a lexicographic
        # sort: the retained sample must not depend on shard boundaries,
        # backend, or match enumeration order (under the per-rule violation
        # cap the retained rows already depend on shard boundaries — the
        # documented degradation — but the sort keeps the sample stable for
        # a fixed sharding)
        mapped = canonical[:, rule.column_map]
        if mapped.shape[0] > 1:
            mapped = mapped[np.lexsort(mapped.T[::-1])]
        cap = self.config.max_violation_samples
        retained = int(mapped.shape[0])
        truncated = cap is not None and retained > cap
        if truncated:
            chosen = sorted(
                random.Random(self.config.sample_seed).sample(
                    range(retained), cap
                )
            )
            mapped = mapped[chosen]
        sample = tuple(tuple(row) for row in mapped.tolist())
        return RuleReport(
            gfd=rule.gfd,
            violation_count=count,
            nodes=nodes,
            sample=sample,
            sample_truncated=truncated,
            distinct_pivots=distinct_pivots,
            text=rule.text,
            witnesses_truncated=witnesses_truncated,
        )
