"""The enforcement engine: grouped, sharded, incrementally maintained.

:class:`EnforcementEngine` binds a compiled plan (:mod:`repro.enforce.plan`)
to one live graph and serves two entry points:

* :meth:`EnforcementEngine.validate` — full validation: match every group
  pattern against the current graph snapshot in one walk of the plan's
  join trie (a stem shared by several patterns is joined once; CSR index
  by default) and evaluate all grouped rules as columnar masks, sharded
  over the :class:`~repro.parallel.backend.ShardWorker` backend (in-process
  shards, or real worker processes attaching the index via shared memory);
* :meth:`EnforcementEngine.refresh` — delta-aware revalidation: consume the
  attached :class:`~repro.enforce.delta.DeltaLog`, drop the stored matches
  that contain a touched node, re-derive the matches that do by one walk
  of the anchored trie (every group × variable) seeded with the touched
  nodes, splice them into the stored match arrays, and re-evaluate the
  masks.  When the delta exceeds ``EnforcementConfig.max_delta_fraction``
  of the graph the engine falls back to :meth:`validate`.

The match shards — and the per-rule violation masks computed over them —
stay *resident in the workers* between passes: a full pass installs them
once, a dirty incremental pass ships only ``(touched nodes, fresh rows)``
per dirty group, and a clean pass ships nothing at all (the backend's
:class:`~repro.parallel.backend.TransferLedger` makes the zero-row claim
testable).  Graph mutations re-point the backend at the new index snapshot
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
    make_backend,
    next_node_key,
    rows_containing,
)
from ..pattern.matcher import Match, find_matches
from .delta import DeltaLog
from .plan import CompiledRule, EnforcementPlan, PatternGroup, compile_plan

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
    #: Pattern groups whose masks were (re-)evaluated this pass — equals
    #: ``patterns_matched`` on a full pass; on an incremental pass, groups
    #: with no dropped and no re-derived matches reuse their previous rule
    #: reports verbatim (no match of theirs contains a touched node, so no
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
    graph, and caches per-group canonical match arrays between passes so
    :meth:`refresh` can splice localized re-matches instead of re-matching
    the world.  The evaluation backend (``config.backend``) is long-lived:
    its workers keep each group's match shard and cached violation masks
    across passes, so repeated refreshes against a mutating graph exchange
    deltas and scalars only.  Call
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
            RuleSketchMonitor`: every evaluated rule's violating pivot ids
            stream into its per-rule distinct-count sketches as passes run.

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
        self._arrays: List[Optional[np.ndarray]] = [None] * len(self.plan.groups)
        self._report: Optional[EnforcementReport] = None
        #: Exact matching work of the latest pass: search ``plans`` asked
        #: for, ``trie_nodes`` they compile to, ``joins`` (fan-outs) run
        #: after pruning — 0 on the dict path, which walks no trie.
        self.last_pass: Dict[str, int] = {}
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

    def invalidate_residency(self) -> None:
        """Forget worker-resident shards (a shared backend was reset).

        A session-shared backend is wiped (``op_reset``) whenever a
        discovery run returns it; the session calls this so the next
        enforcement pass re-installs its shards instead of updating state
        that no longer exists.
        """
        self._resident.clear()

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
            index = self.graph.index() if self.config.use_index else None
            self._arrays = self._group_matches(index)
            return self._finish(index, "full", started, version=version)

    def refresh(self) -> EnforcementReport:
        """Revalidate, reusing stored matches outside the delta's reach.

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
        touched = self.delta.drain()
        limit = self.config.max_delta_fraction * max(1, self.graph.num_nodes)
        if not touched or len(touched) > limit:
            # version moved without touched nodes (cannot happen while the
            # log is attached) or the delta is too wide to localize
            return self.validate()
        with self.tracer.span(
            "refresh", "stage", touched_nodes=len(touched)
        ):
            started = time.perf_counter()
            index = self.graph.index() if self.config.use_index else None
            nodes = np.fromiter(sorted(touched), dtype=np.int64)
            fresh_of = self._group_matches(index, nodes)
            dirty: List[int] = []
            updates: Dict[int, np.ndarray] = {}
            for position, group in enumerate(self.plan.groups):
                stored = self._arrays[position]
                hit = rows_containing(stored, nodes)
                dropped = hit.any()
                kept = stored[~hit] if dropped else stored
                fresh = fresh_of[position]
                if dropped or fresh.shape[0]:
                    # a match is gained, lost or re-judged only if it
                    # contains a touched node: no other group changed
                    dirty.append(position)
                    updates[position] = fresh
                    self._arrays[position] = (
                        np.concatenate([kept, fresh])
                        if fresh.shape[0]
                        else kept
                    )
            return self._finish(
                index,
                "incremental",
                started,
                positions=dirty,
                updates=updates,
                touched=nodes,
                version=version,
            )

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _group_matches(
        self, index: Optional[GraphIndex], touched: Optional[np.ndarray] = None
    ) -> List[np.ndarray]:
        """Per pattern group, its canonical matches as an ``(N, vars)`` array.

        All of them — or, with ``touched``, every match containing a touched
        node, once: anchored at each variable in turn and kept from the
        anchor of its first touched variable only.  One walk of the plan's
        join trie on the index path; without an index, the dict backtracker
        plan by plan — the layer's oracle.
        """
        anchored = touched is not None
        trie = self.plan.anchored_trie if anchored else self.plan.full_trie
        if index is not None:
            blocks = trie.match(index, touched)
        else:
            seeds = touched.tolist() if anchored else None
            blocks = (
                (
                    plan_id,
                    np.asarray(
                        list(find_matches(self.graph, pattern, seeds, root=anchor)),
                        dtype=np.int64,
                    ).reshape(-1, pattern.num_nodes),
                )
                for plan_id, pattern, anchor in self.plan.search_plans(anchored)
            )
        # per group ``(anchor, rows)`` blocks; the empty head types the
        # result of a group that matched nothing
        found: List[List[Tuple[int, np.ndarray]]] = [
            [(-1, np.empty((0, group.pattern.num_nodes), dtype=np.int64))]
            for group in self.plan.groups
        ]
        for (position, anchor), rows in blocks:
            if anchored and anchor:
                rows = rows[~rows_containing(rows[:, :anchor], touched)]
            found[position].append((anchor, rows))
        self.last_pass = {
            "plans": trie.plans,
            "trie_nodes": trie.nodes,
            "joins": trie.joins if index is not None else 0,
        }
        return [
            np.concatenate([rows for _, rows in sorted(group, key=itemgetter(0))])
            for group in found
        ]

    def _ensure_backend(self, index: Optional[GraphIndex]) -> ExecutionBackend:
        """The evaluation backend for this snapshot.

        An existing backend — owned or borrowed — is *re-pointed* at a new
        index snapshot via :meth:`~repro.parallel.backend.ExecutionBackend.
        refresh_index` (free on the serial backend, one shared-memory index
        export on the multiprocess backend), so the worker-resident match
        shards and cached violation masks survive graph mutations.
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
            self.plan.attributes(),
            fault=self.config.fault,
            tracer=self.tracer,
        )
        self._backend_index = index
        return self._backend

    def _shard_matches(
        self, chunk: np.ndarray, index: Optional[GraphIndex]
    ) -> Any:
        """One worker's slice of a match array, in the path's native form."""
        if index is None:
            # dict-path tables expect match tuples, not arrays
            return [tuple(row) for row in chunk.tolist()]
        return chunk

    def _finish(
        self,
        index: Optional[GraphIndex],
        mode: str,
        started: float,
        positions: Optional[List[int]] = None,
        updates: Optional[Dict[int, np.ndarray]] = None,
        touched: Optional[np.ndarray] = None,
        version: Optional[int] = None,
    ) -> EnforcementReport:
        """Sharded mask evaluation over the stored match arrays + report.

        ``positions`` (incremental mode) restricts evaluation to the dirty
        pattern groups; every other rule reuses its previous report entry —
        none of its matches contained a touched node, so nothing changed.
        ``updates`` maps a dirty position to its re-derived rows: a group
        already resident in the workers receives only those and the
        ``touched`` node ids (``enforce_update``) — the kept rows and their cached violation
        masks never re-cross the process boundary — while first-time
        groups receive a full shard install.

        ``version`` is the graph version captured at pass start; the report
        is stamped with it (not with ``graph.version`` at finish time) so a
        mutation racing the pass cannot make the report claim a version it
        does not reflect.
        """
        if version is None:
            version = self.graph.version
        if positions is None:
            evaluate = list(range(len(self.plan.groups)))
            rule_reports: List[Optional[RuleReport]] = [None] * len(self.sigma)
        else:
            evaluate = positions
            assert self._report is not None
            rule_reports = list(self._report.rules)
        if evaluate:
            backend = self._ensure_backend(index)
            shards = backend.num_workers
            backend_name = backend.name
            gamma = list(self.plan.attributes())
            cap = self.config.max_violations_per_rule
            requests: List[Tuple[int, str, int, Dict[str, Any]]] = []
            for position in evaluate:
                group = self.plan.groups[position]
                key = self._group_keys[position]
                fresh = (
                    updates.get(position)
                    if updates is not None and position in self._resident
                    else None
                )
                if fresh is not None:
                    for worker, chunk in enumerate(
                        np.array_split(fresh, shards)
                    ):
                        requests.append(
                            (
                                worker,
                                "enforce_update",
                                key,
                                {
                                    "touched": touched,
                                    "fresh": self._shard_matches(chunk, index),
                                },
                            )
                        )
                else:
                    array = self._arrays[position]
                    rules_payload = [
                        (rule.lhs, rule.rhs) for rule in group.rules
                    ]
                    for worker, chunk in enumerate(
                        np.array_split(array, shards)
                    ):
                        requests.append(
                            (
                                worker,
                                "enforce_install",
                                key,
                                {
                                    "pattern": group.pattern,
                                    "matches": self._shard_matches(chunk, index),
                                    "rules": rules_payload,
                                    "gamma": gamma,
                                    "cap": cap,
                                },
                            )
                        )
                    self._resident.add(position)
            outcomes = backend.run_unmetered(requests)
            cursor = 0
            for position in evaluate:
                group = self.plan.groups[position]
                shard_results = outcomes[cursor:cursor + shards]
                cursor += shards
                for offset, rule in enumerate(group.rules):
                    parts = [result[offset] for result in shard_results]
                    rule_reports[rule.position] = self._rule_report(rule, parts)
        else:
            # nothing to re-evaluate: keep metadata consistent without
            # touching (or rebuilding) the backend
            shards = self.num_workers
            backend_name = (
                self._backend.name
                if self._backend is not None
                else self.config.backend
            )
        report = EnforcementReport(
            rules=rule_reports,
            mode=mode,
            backend=backend_name,
            num_workers=shards,
            patterns_matched=len(self.plan.groups),
            groups_revalidated=len(evaluate),
            elapsed_seconds=time.perf_counter() - started,
            graph_version=version,
        )
        self._report = report
        self._validated_version = version
        if self.tracer.enabled:
            self.tracer.event(
                "enforce_pass",
                mode=mode,
                backend=backend_name,
                groups_revalidated=len(evaluate),
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
        if self.monitor is not None and canonical.shape[0]:
            # stream the violating pivot ids into the per-rule sketch;
            # incremental passes re-evaluate only dirty groups, and the
            # sketch is a monotone union, so clean groups' pivots (absorbed
            # on earlier passes) stay counted
            self.monitor.absorb(rule.gfd, canonical[:, 0])
        distinct_pivots = (
            int(np.unique(canonical[:, 0]).size) if canonical.shape[0] else 0
        )
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
