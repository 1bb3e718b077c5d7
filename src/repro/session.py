"""The :class:`Session` — one resource-owning facade for the whole pipeline.

The paper's workflow is a single pipeline: ``ParDis`` discovers Σ,
``ParCover`` minimizes it, and the rules are then *served* against the live
graph.  A ``Session`` owns the resources those phases share, once:

* the **frozen graph index** snapshot (patched at the touched nodes when
  the graph mutates — live backends are re-pointed via ``refresh_index``,
  never rebuilt);
* one lazily-started **execution backend** (serial or multiprocess) shared
  by discover, cover and enforce;
* one **delta log** attached to the graph for incremental enforcement;
* the current **Σ** with its supports, flowing from phase to phase;
* the backend's exact **work ledger** (supersteps, per-worker work) and
  its transfer/lifecycle counters, unified under :meth:`Session.metrics` —
  "pools started once, index attached once" is asserted there, not
  assumed.

Typical use::

    from repro import DiscoveryConfig, Session

    with Session(graph, DiscoveryConfig(k=3, sigma=50)) as session:
        session.discover()           # ParDis on the session backend
        session.cover()              # ParCover over the same pools
        report = session.enforce()   # compiled validation, resident tables
        graph.add_edge(u, v, "knows")
        report = session.refresh()   # incremental — ships only the delta
        session.save_sigma("sigma.json")
        print(session.metrics().as_dict())

Streaming discovery with early-stop budgets::

    with Session(graph, config) as session:
        for gfd in session.discover_iter(max_rules=25):
            print(gfd)               # rules arrive as lattice levels finish

The engines a session drives stay public for code that manages its own
backend: ``ParallelDiscovery(graph, config, backend=...)`` and
``parallel_cover(sigma, backend)`` borrow a started backend, and a
directly-constructed ``EnforcementEngine`` owns one.  ``tests/test_api.py``
pins that they give the session's results byte for byte.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Tuple

from .core.config import DiscoveryConfig, EnforcementConfig
from .core.cover import CoverResult
from .core.results import DiscoveryResult
from .enforce.delta import DeltaLog
from .enforce.engine import EnforcementEngine, EnforcementReport
from .enforce.monitor import RuleSketchMonitor
from .gfd.gfd import GFD
from .gfd.parser import dumps_sigma, loads_sigma
from .graph.graph import Graph
from .graph.index import GraphIndex
from .graph.statistics import GraphStatistics
from .graph.store import IndexStoreStale
from .obs.metrics import MetricsRegistry, registry_from_metrics
from .obs.tracer import NULL_TRACER
from .parallel.backend import (
    BACKEND_NAMES,
    ExecutionBackend,
    LifecycleCounters,
    TransferLedger,
    WorkLedger,
    make_backend,
)
from .parallel.parcover import parallel_cover
from .parallel.pardis import ParallelDiscovery, StructuralFrontier, check_budgets

__all__ = ["Session", "SessionMetrics"]


@dataclass
class SessionMetrics:
    """One unified view of a session's resource usage and work.

    Combines the backend's :class:`~repro.parallel.backend.LifecycleCounters`
    (pool starts, index attaches/refreshes),
    :class:`~repro.parallel.backend.TransferLedger` (match rows crossing the
    master boundary) and :class:`~repro.parallel.backend.WorkLedger`
    (supersteps and per-worker work) with the session's own phase counters.
    The acceptance property of the facade reads directly off this object:
    after a full discover → cover → enforce → refresh pipeline,
    ``backend_starts == 1`` and ``lifecycle.index_attaches == 1``.

    :meth:`as_dict` renders the documented **schema v8** (see there) and
    :meth:`registry` lifts the same snapshot into a
    :class:`~repro.obs.metrics.MetricsRegistry` for Prometheus-style
    exposition.
    """

    #: Version of the :meth:`as_dict` layout.  Bump on any key change.
    SCHEMA_VERSION = 8

    backend_name: str
    num_workers: int
    #: Backends the session constructed — 1 for any number of phases
    #: (0 before the first phase).
    backend_starts: int
    lifecycle: LifecycleCounters
    transfers: TransferLedger
    #: Supersteps and per-worker work of every phase so far.
    work: WorkLedger
    #: Executed phase counts: discover / discover_iter / cover / enforce /
    #: refresh.
    phases: Dict[str, int] = field(default_factory=dict)
    #: Current ``|Σ|`` held by the session.
    sigma_size: int = 0
    #: Wall-clock seconds the backend spent recovering failed workers
    #: (respawn + install-log replay); 0.0 on fault-free runs.
    recovery_seconds: float = 0.0

    def as_dict(self) -> Dict[str, Any]:
        """A JSON-serializable rendering (CI artifacts, ``--metrics``).

        **Schema v8.**  Every top-level key except ``timings`` holds only
        deterministic values — names, worker counts, event and work counts —
        so two runs over the same input diff cleanly.  The one wall-clock
        figure (recovery seconds) is isolated under the single ``timings``
        key; a consumer comparing artifacts drops that one key and compares
        the rest byte-for-byte (``benchmarks/bench_session.py --check``
        does exactly this).

        Keys: ``schema_version``, ``repro_version``, ``backend``,
        ``num_workers``, ``backend_starts``, ``lifecycle`` (5 lifecycle
        counts), ``faults`` (4 fault counts), ``transfers`` (3 row/rule
        counts), ``cluster`` (``supersteps``), ``work`` (per-worker lists:
        ``ops``, ``rows_installed``, ``rows_joined``,
        ``implication_units``, ``enforce_rows``), ``phases``,
        ``sigma_size``, ``timings`` (``recovery_seconds``).
        """
        from repro import __version__

        return {
            "schema_version": self.SCHEMA_VERSION,
            "repro_version": __version__,
            "backend": self.backend_name,
            "num_workers": self.num_workers,
            "backend_starts": self.backend_starts,
            "lifecycle": {
                "pools_started": self.lifecycle.pools_started,
                "index_attaches": self.lifecycle.index_attaches,
                "index_refreshes": self.lifecycle.index_refreshes,
                "delta_refreshes": self.lifecycle.delta_refreshes,
                "shutdowns": self.lifecycle.shutdowns,
            },
            "faults": {
                "timeouts": self.lifecycle.timeouts,
                "retries": self.lifecycle.retries,
                "respawns": self.lifecycle.respawns,
                "degraded_workers": self.lifecycle.degraded_workers,
            },
            "transfers": {
                "rows_to_workers": self.transfers.rows_to_workers,
                "rows_to_master": self.transfers.rows_to_master,
                "sigma_rules": self.transfers.sigma_rules,
            },
            "cluster": {
                "supersteps": self.work.supersteps,
            },
            "work": self.work.as_dict(),
            "phases": dict(self.phases),
            "sigma_size": self.sigma_size,
            "timings": {
                "recovery_seconds": self.recovery_seconds,
            },
        }

    def registry(self) -> MetricsRegistry:
        """This snapshot as a :class:`~repro.obs.metrics.MetricsRegistry`.

        Counts become ``repro_*`` counters, timings become gauges; render
        with :meth:`~repro.obs.metrics.MetricsRegistry.to_prometheus` or
        :func:`~repro.obs.export.write_prometheus`.
        """
        return registry_from_metrics(self.as_dict())


class Session:
    """Context-managed pipeline state: discover → cover → enforce → refresh.

    Args:
        graph: the live data graph.  The session snapshots its frozen
            index, attaches a delta log, and tracks mutations — a phase
            run after a mutation re-snapshots and re-points the live
            backend instead of rebuilding it.
        config: the :class:`~repro.core.config.DiscoveryConfig` driving
            discovery *and* the session's execution substrate
            (``parallel_backend``, ``num_workers``, ``fault``); ``None``
            uses the defaults.
        enforcement: enforcement policies (delta thresholds, sample caps,
            the per-rule violation cap, persistent tables).  The execution
            knobs (``backend``, ``num_workers``, ``fault``) are overridden
            by the session's — one backend serves every phase.  ``None``
            uses the defaults.
        num_workers: worker count ``n`` (overrides ``config.num_workers``;
            default: ``config.num_workers``, else 1 for the serial backend
            and 4 for multiprocess).
        backend: backend name overriding ``config.parallel_backend``
            (``"serial"`` or ``"multiprocess"``).  Every phase runs on
            this one backend.
        index_path: optional path of a persisted index snapshot (the
            ``repro.graph.store`` format).  A valid store file whose
            fingerprint matches the graph attaches via ``mmap`` with
            *zero* index rebuild — and the multiprocess backend ships the
            same file to every worker instead of allocating a
            shared-memory copy.  A missing file is built from the graph
            and one gone stale under writes is replaced by the patched
            snapshot (atomic replace, see ``index_autosave``); a *corrupt*
            file raises :class:`~repro.graph.store.IndexStoreError`
            rather than being silently overwritten.
        index_mmap: attach mode for ``index_path`` — ``True`` (default)
            maps the file read-only; ``False`` loads it eagerly into
            process memory (checksums verified).
        index_autosave: with ``index_path`` set, whether a stale-or-missing
            store file is re-persisted from the in-memory snapshot
            (default ``True`` — the path always holds the current
            snapshot).  A serving process that commits many small write
            batches turns this off: re-serializing the store on every
            published version would dominate the commit path, and the
            serving layer decides when a durable snapshot is worth
            writing.
        monitor: an optional :class:`~repro.enforce.monitor.
            RuleSketchMonitor`; when given (or restored by
            :meth:`load_sigma`), every enforcement pass unions its
            distinct violating pivot ids into the monitor's exact
            per-rule counts.
        tracer: an optional :class:`~repro.obs.tracer.Tracer`.  When
            given, the session opens a root ``session`` span, wraps every
            phase in a ``phase`` span, and threads the tracer through the
            backend (and so the engines running on it) and the enforcement
            engine — one trace covers the whole pipeline.
            Default: the shared no-op ``NULL_TRACER`` (tracing off; every
            hook is a constant-time no-op and results are byte-identical
            either way).

    Single-threaded, like the engines.  Use as a context manager, or call
    :meth:`close` — worker processes and shared-memory segments outlive no
    session.
    """

    def __init__(
        self,
        graph: Graph,
        config: Optional[DiscoveryConfig] = None,
        enforcement: Optional[EnforcementConfig] = None,
        num_workers: Optional[int] = None,
        backend: Optional[str] = None,
        index_path: Optional[Any] = None,
        index_mmap: bool = True,
        index_autosave: bool = True,
        tracer: Optional[Any] = None,
        monitor: Optional[RuleSketchMonitor] = None,
    ) -> None:
        self.graph = graph
        #: The session tracer — a live ``Tracer`` or the no-op singleton.
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.config = config if config is not None else DiscoveryConfig()
        self._backend_name = backend or self.config.parallel_backend
        if self._backend_name not in BACKEND_NAMES:
            raise ValueError(
                f"unknown parallel backend {self._backend_name!r} "
                f"(expected one of {BACKEND_NAMES})"
            )
        if num_workers is None:
            num_workers = self.config.num_workers
        if num_workers is None:
            num_workers = 1 if self._backend_name == "serial" else 4
        if num_workers < 1:
            raise ValueError("num_workers must be >= 1")
        self._num_workers = num_workers
        base = enforcement if enforcement is not None else EnforcementConfig()
        #: The enforcement config actually used: session-owned execution
        #: knobs, caller-owned policies.
        self.enforcement = replace(
            base,
            backend=self._backend_name,
            num_workers=num_workers,
            fault=self.config.fault,
        )
        self._snapshot_version = graph.version
        self._index_path = Path(index_path) if index_path is not None else None
        self._index_mmap = bool(index_mmap)
        self._index_autosave = bool(index_autosave)
        self._monitor = monitor
        #: (mtime_ns, size) of the store file last found stale
        self._stale_index_stamp: Optional[Tuple[int, int]] = None
        self._index: GraphIndex = self._snapshot_index()
        self._stats: Optional[GraphStatistics] = None
        self._delta = DeltaLog()
        graph.attach_delta_log(self._delta)
        self._backend: Optional[ExecutionBackend] = None
        self._engine: Optional[EnforcementEngine] = None
        self._engine_built = False
        #: what budgeted streams' VSpawn found at the current structure
        self._frontier: Optional[StructuralFrontier] = None
        self._sigma: List[GFD] = []
        self._supports: Dict[GFD, int] = {}
        self._phases: Dict[str, int] = {}
        self._closed = False
        self._root_span = (
            self.tracer.begin(
                "session",
                "session",
                backend=self._backend_name,
                num_workers=num_workers,
            )
            if self.tracer.enabled
            else None
        )

    # ------------------------------------------------------------------
    # resource ownership
    # ------------------------------------------------------------------
    @property
    def backend_name(self) -> str:
        """The execution backend this session runs on."""
        return self._backend_name

    @property
    def num_workers(self) -> int:
        """The worker count ``n`` shared by every phase."""
        return self._num_workers

    @property
    def index(self) -> GraphIndex:
        """The session's current frozen index snapshot."""
        return self._index

    @property
    def delta(self) -> DeltaLog:
        """The session-owned delta log fed by the graph's mutators."""
        return self._delta

    @property
    def sigma(self) -> List[GFD]:
        """The current rule set Σ (a copy)."""
        return list(self._sigma)

    @property
    def supports(self) -> Dict[GFD, int]:
        """Per-rule supports of the current Σ (a copy)."""
        return dict(self._supports)

    @property
    def monitor(self) -> Optional[RuleSketchMonitor]:
        """The streaming violation monitor, if one is attached."""
        return self._monitor

    def set_sigma(
        self,
        rules: List[GFD],
        supports: Optional[Dict[GFD, int]] = None,
    ) -> None:
        """Replace the session's Σ (and supports) programmatically.

        The equivalent of :meth:`load_sigma` for rules already in hand —
        a serving layer uses it to pin the service Σ after exploratory
        discovery requests.  If the new Σ differs from the enforcement
        engine's, the engine is dropped and the next enforce/refresh
        compiles a fresh plan over the same backend.
        """
        self._check_open()
        self._set_sigma(list(rules), supports)

    def backend(self) -> ExecutionBackend:
        """The session's execution backend, started on first use.

        Every phase runs on this one instance, and :meth:`metrics` proves
        the single lifecycle (``backend_starts``,
        ``lifecycle.pools_started``).
        """
        self._check_open()
        if self._backend is None:
            self._backend = make_backend(
                self._backend_name,
                self._num_workers,
                self.graph,
                self._index,
                fault=self.config.fault,
                tracer=self.tracer,
            )
        return self._backend

    def _check_open(self) -> None:
        if self._closed:
            raise RuntimeError("the session is closed")

    def _snapshot_index(self) -> GraphIndex:
        """The frozen snapshot, via the on-disk store when ``index_path`` set.

        A valid persisted snapshot mmap-attaches (or eager-loads) with
        zero rebuild and becomes the graph's cached index; for a missing
        or *stale* file — the graph mutated since the save —
        ``graph.index()`` answers (a patch of the attached snapshot after
        writes) and is re-persisted, so the path always holds the current
        snapshot afterwards.  Corruption is never papered over: a damaged
        file raises ``IndexStoreError``.
        """
        if self._index_path is None:
            return self.graph.index()
        try:
            stat = self._index_path.stat()
            stamp: Optional[Tuple[int, int]] = (stat.st_mtime_ns, stat.st_size)
        except FileNotFoundError:
            stamp = None
        # a file already found stale stays stale until somebody rewrites it
        # (graph versions only grow), so only a changed file is re-opened
        if stamp is not None and stamp != self._stale_index_stamp:
            try:
                index = GraphIndex.load(
                    self._index_path,
                    graph=self.graph,
                    mmap=self._index_mmap,
                )
                if self.tracer.enabled:
                    self.tracer.event(
                        "index_loaded",
                        path=str(self._index_path),
                        mmap=self._index_mmap,
                    )
                return index
            except IndexStoreStale:
                self._stale_index_stamp = stamp
                if self.tracer.enabled:
                    self.tracer.event(
                        "index_stale_rebuild", path=str(self._index_path)
                    )
        index = self.graph.index()
        if self._index_autosave:
            index.save(self._index_path)
            if self.tracer.enabled:
                self.tracer.event("index_saved", path=str(self._index_path))
        return index

    def _statistics(self) -> GraphStatistics:
        """Statistics of the current snapshot, computed where first read.

        Only discovery reads them, so a session that serves writes and
        refreshes never pays the scan.
        """
        if self._stats is None:
            self._stats = self._index.statistics()
        return self._stats

    def _refresh_snapshot(self) -> None:
        """Re-snapshot the index after graph mutations.

        ``graph.index()`` is version-cached, so this is free while the
        graph is unchanged; after a mutation it patches the previous
        snapshot at the touched nodes and the new one is exported to the
        live backend exactly once (``refresh_index`` — worker pools
        survive).  The statistics are dropped with the old snapshot, so a
        post-mutation discovery sees the same label counts a fresh session
        would.  A structural write also drops the structural frontier
        (with its worker tables) before the swap; an attribute-only one
        keeps it.
        """
        if self.graph.version == self._snapshot_version:
            return
        self._snapshot_version = self.graph.version
        if (
            self._frontier is not None
            and self._frontier.structure_version != self.graph.structure_version
        ):
            self._drop_frontier("structure")
        index = self._snapshot_index()
        if index is self._index:
            return
        self._index = index
        self._stats = None
        if self._backend is not None:
            self._backend.refresh_index(self._index)

    def _drop_frontier(self, reason: str) -> None:
        """Release the structural frontier and its worker keys."""
        frontier, self._frontier = self._frontier, None
        if self.tracer.enabled:
            self.tracer.event(
                "frontier_drop",
                reason=reason,
                levels=len(frontier.levels),
                keys=len(frontier.keys),
            )
        frontier.drop(self._backend)

    def _count(self, phase: str) -> None:
        self._phases[phase] = self._phases.get(phase, 0) + 1

    def _set_sigma(
        self, rules: List[GFD], supports: Optional[Dict[GFD, int]] = None
    ) -> None:
        self._sigma = list(rules)
        if supports is None:
            supports = {}
        self._supports = {
            gfd: supports[gfd] for gfd in self._sigma if gfd in supports
        }
        if self._engine is not None and self._engine.sigma != self._sigma:
            # Σ changed: the compiled plan (and any resident shards) no
            # longer match — the next enforce builds a fresh engine over
            # the same backend
            self._engine.close()
            self._engine = None

    # ------------------------------------------------------------------
    # pipeline phases
    # ------------------------------------------------------------------
    def _discovery_engine(
        self, frontier: Optional[StructuralFrontier] = None
    ) -> ParallelDiscovery:
        return ParallelDiscovery(
            self.graph,
            self.config,
            stats=self._statistics(),
            index=self._index,
            backend=self.backend(),
            frontier=frontier,
        )

    def discover(self) -> DiscoveryResult:
        """Run ``ParDis`` on the session backend; Σ becomes the result.

        Results are identical to a directly-run ``ParallelDiscovery``
        (differential tests pin this); the session's pools and index
        snapshot are reused, not rebuilt.
        """
        self._check_open()
        self._refresh_snapshot()
        self._count("discover")
        with self.tracer.span(
            "discover",
            "phase",
            backend=self._backend_name,
            size=self.graph.num_nodes,
        ):
            result = self._discovery_engine().run()
        self._set_sigma(result.gfds, result.supports)
        return result

    def discover_iter(
        self,
        max_rules: Optional[int] = None,
        max_levels: Optional[int] = None,
        update_sigma: bool = True,
    ) -> Iterator[GFD]:
        """Stream discovery: yield rules as the engine emits them.

        Early-stop budgets: at most ``max_rules`` rules, and none from a
        generation-tree level above ``max_levels`` (level 0 = single-node
        patterns).  The discovery engine enforces both
        (:meth:`~repro.parallel.pardis.ParallelDiscovery.run_iter`): it
        mines a level in node-order prefixes and stops once the budget is
        met, so a small ``max_rules`` mines only the patterns its answer
        needs, and ``max_rules=0`` mines nothing.  The answer is the
        unbudgeted stream filtered to patterns with at most ``max_levels``
        edges and cut to ``max_rules``.  A negative budget raises
        ``ValueError`` here, before any work.

        A stream with a ``max_rules`` budget — the kind a serving layer
        repeats — shares the session's structural frontier: ``VSpawn``
        depends only on labels and edges, so each level is verified once
        per :attr:`~repro.graph.graph.Graph.structure_version` and replayed
        by later budgeted streams (with its worker-resident match tables),
        which then only mine literals at the current attribute values.
        The answer is the same either way.  The frontier's tables live
        until a structural write or :meth:`close`; an unbudgeted stream,
        like :meth:`discover`, keeps nothing.

        Σ (with supports) is set to everything yielded so far whenever the
        iteration ends — exhausted, budgeted, or abandoned (the update
        runs from the generator's ``finally``) — unless ``update_sigma`` is
        off, which leaves the session's Σ (and its compiled enforcement
        plan) untouched: the mode a serving layer uses for exploratory,
        budgeted discovery requests that must not clobber the served rule
        set.

        Streaming skips the final pairwise ``≪``-minimality filter — that
        is a global pass over the completed set; run :meth:`cover` (or a
        full :meth:`discover`) for the minimized Σ.
        """
        check_budgets(max_rules, max_levels)
        return self._discover_stream(max_rules, max_levels, update_sigma)

    def _discover_stream(
        self,
        max_rules: Optional[int],
        max_levels: Optional[int],
        update_sigma: bool,
    ) -> Iterator[GFD]:
        self._check_open()
        self._refresh_snapshot()
        self._count("discover_iter")
        # a generator cannot hold a ``with`` open across yields safely
        # when abandoned, so the phase span is closed from the finally
        span = (
            self.tracer.begin(
                "discover_iter",
                "phase",
                backend=self._backend_name,
                size=self.graph.num_nodes,
            )
            if self.tracer.enabled
            else None
        )
        if max_rules is not None and self._frontier is None:
            self._frontier = StructuralFrontier(self.graph.structure_version)
        engine = self._discovery_engine(
            self._frontier if max_rules is not None else None
        )
        emitted: List[Tuple[GFD, int]] = []
        levels = engine.run_iter(max_rules, max_levels)
        try:
            for _level, batch in levels:
                for gfd, support in batch:
                    emitted.append((gfd, support))
                    yield gfd
        finally:
            levels.close()  # drops the engine's worker state
            if span is not None:
                self.tracer.end(span)
            if update_sigma:
                self._set_sigma(
                    [gfd for gfd, _ in emitted],
                    {gfd: support for gfd, support in emitted},
                )

    def cover(
        self, sigma: Optional[List[GFD]] = None, update_sigma: bool = True
    ) -> CoverResult:
        """Reduce Σ to a minimal cover (``ParCover`` on the session pools).

        ``sigma`` overrides the input set (default: the session's Σ).  The
        session's Σ becomes the computed cover unless ``update_sigma`` is
        off, which leaves Σ, its supports and the compiled enforcement
        engine untouched — the read-only mode a serving layer uses to
        answer cover requests without retiring the plan it enforces.

        The cover is decided by implication over the rules alone (the
        chase never reads the graph), so the same input always gives the
        same cover.
        """
        self._check_open()
        self._count("cover")
        rules = list(sigma) if sigma is not None else list(self._sigma)
        with self.tracer.span(
            "cover", "phase", backend=self._backend_name, size=len(rules)
        ):
            result = parallel_cover(rules, self.backend())
        if update_sigma:
            self._set_sigma(result.cover, self._supports)
        return result

    def _ensure_engine(self, rules: List[GFD]) -> EnforcementEngine:
        if self._engine is not None and self._engine.sigma == rules:
            return self._engine
        if self._engine is not None:
            self._engine.close()
            self._engine = None
        if self.tracer.enabled:
            # an engine goes away only when Σ changes (or the session
            # closes), so every build after the first is a Σ change
            self.tracer.event(
                "engine_build",
                reason="sigma_changed" if self._engine_built else "first_use",
                sigma_size=len(rules),
            )
        self._engine_built = True
        self._engine = EnforcementEngine(
            self.graph,
            rules,
            self.enforcement,
            backend=self.backend(),
            delta=self._delta,
            tracer=self.tracer,
            monitor=self._monitor,
        )
        return self._engine

    def enforce(self, sigma: Optional[List[GFD]] = None) -> EnforcementReport:
        """Full validation of Σ against the current graph state.

        Compiles Σ once per rule set (the engine is kept while Σ is
        unchanged, so repeated calls reuse the compiled plan) and
        evaluates on the session backend.  A *full* pass always re-matches
        and re-installs the group shards; it is :meth:`refresh` that
        exploits the worker-resident tables to ship deltas only — use it
        for the serve loop.  ``sigma`` overrides the rule set without
        changing the session's Σ.
        """
        self._check_open()
        self._refresh_snapshot()
        self._count("enforce")
        rules = list(sigma) if sigma is not None else list(self._sigma)
        with self.tracer.span("enforce", "phase", size=self.graph.num_nodes):
            return self._ensure_engine(rules).validate()

    def refresh(self) -> EnforcementReport:
        """Incremental revalidation after graph mutations.

        Consumes the session's delta log: only matches containing a node
        a structural write touched are dropped and re-derived, matches
        whose touched nodes only had attributes written are re-judged in
        place, resident shards receive just that delta, and a clean or
        attribute-only refresh ships zero match rows to the workers (the
        transfer ledger in :meth:`metrics` proves it).  Falls back to a full
        :meth:`enforce` pass on the first call or on a too-wide delta.
        """
        self._check_open()
        self._refresh_snapshot()
        self._count("refresh")
        with self.tracer.span("refresh", "phase", size=self.graph.num_nodes):
            if self._engine is not None:
                # continue whatever Σ the engine is serving (an
                # enforce(sigma) override included) — its resident tables
                # are the state the delta splices into
                return self._engine.refresh()
            return self._ensure_engine(list(self._sigma)).refresh()

    # ------------------------------------------------------------------
    # Σ persistence
    # ------------------------------------------------------------------
    def save_sigma(self, path, include_state: bool = True) -> None:
        """Write the session's Σ (with supports) as the JSON envelope.

        With ``include_state`` (the default), warm-start state rides along
        under a ``"state"`` key beside the rules: the
        :class:`~repro.enforce.monitor.RuleSketchMonitor` state under the
        ``"sketches"`` key, so the distinct-pivots-ever gauges survive a
        restart.  ``loads_sigma``
        ignores unknown top-level keys, so the envelope stays readable by
        every consumer that only wants the rules.
        """
        self._check_open()
        payload = json.loads(dumps_sigma(self._sigma, supports=self._supports))
        state: Dict[str, Any] = {}
        if include_state and self._monitor is not None and len(self._monitor):
            state["sketches"] = self._monitor.as_state()
        if state:
            payload["state"] = state
        Path(path).write_text(
            json.dumps(payload, indent=2) + "\n", encoding="utf-8"
        )

    def load_sigma(self, path) -> List[GFD]:
        """Load Σ (and supports) from a ``dumps_sigma`` JSON envelope.

        The loaded set becomes the session's Σ — ready for :meth:`cover`,
        :meth:`enforce` or :meth:`refresh` — and is also returned.  A
        ``"state"`` section written by :meth:`save_sigma` warm-starts the
        session: persisted monitor state (re)attaches a
        :class:`~repro.enforce.monitor.RuleSketchMonitor`; other state keys
        (such as the ``chase_costs`` older versions wrote) are ignored.
        Monitor state of another version or with a malformed rule entry
        raises ``ValueError`` before the session changes.
        """
        self._check_open()
        text = Path(path).read_text(encoding="utf-8")
        rules, supports = loads_sigma(text)
        state = json.loads(text).get("state")
        if not isinstance(state, dict):
            state = {}
        sketches = state.get("sketches")
        monitor = (
            RuleSketchMonitor.from_state(sketches)
            if isinstance(sketches, dict)
            else None
        )
        self._set_sigma(rules, supports)
        if monitor is not None:
            self._monitor = monitor
            if self._engine is not None:
                self._engine.monitor = monitor
        return list(rules)

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------
    def trace(self) -> Any:
        """The session's tracer (the no-op ``NULL_TRACER`` when off).

        With a live tracer, hand it to :func:`~repro.obs.export.
        write_chrome_trace` / :func:`~repro.obs.export.write_event_log`
        after :meth:`close` for the full per-worker timeline.
        """
        return self.tracer

    def metrics(self) -> SessionMetrics:
        """The unified resource/work view (see :class:`SessionMetrics`).

        Every field is a snapshot — two calls can be diffed for
        before/after deltas without aliasing the live counters.
        """
        backend = self._backend
        if backend is None:
            lifecycle, transfers, work, recovery = (
                LifecycleCounters(),
                TransferLedger(),
                WorkLedger.for_workers(self._num_workers),
                0.0,
            )
        else:
            lifecycle = replace(backend.lifecycle)
            transfers = backend.transfers.snapshot()
            work = backend.work.snapshot()
            recovery = backend.recovery_seconds
        return SessionMetrics(
            backend_name=self._backend_name,
            num_workers=self._num_workers,
            backend_starts=int(backend is not None),
            lifecycle=lifecycle,
            transfers=transfers,
            work=work,
            phases=dict(self._phases),
            sigma_size=len(self._sigma),
            recovery_seconds=recovery,
        )

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Release every session resource (idempotent).

        Closes the enforcement engine (dropping its resident shards),
        drops the structural frontier's tables, shuts the backend down
        (worker processes joined, shared-memory segments unlinked) and
        detaches the delta log.
        """
        if self._closed:
            return
        self._closed = True
        if self._engine is not None:
            self._engine.close()
            self._engine = None
        if self._frontier is not None:
            self._drop_frontier("close")
        if self._backend is not None:
            # shut down but keep the reference: metrics() stays readable
            # (shutdowns == 1 is part of the lifecycle story) and
            # _check_open prevents any reuse
            self._backend.shutdown()
        self.graph.detach_delta_log(self._delta)
        if self._root_span is not None:
            self.tracer.end(self._root_span)
            self._root_span = None

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - GC safety net
        try:
            self.close()
        except Exception:
            pass

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Session(backend={self._backend_name!r}, "
            f"workers={self._num_workers}, sigma={len(self._sigma)}, "
            f"{'closed' if self._closed else 'open'})"
        )
