"""Execution backends for ``ParDis``/``ParCover``/enforcement — simulated
workers or real processes.

``ParDis`` (Section 6.2) is a BSP algorithm: per superstep, the master sends
each worker a batch of shard-local tasks (incremental joins, boolean-mask
lattice validation, tally collection) and aggregates the small results.  The
engine expresses every worker-side operation as an *op* on a
:class:`ShardWorker` — a worker's private state: its match-table shard per
verified pattern, its lattice mask store, its resident enforcement tables
and its cover-phase rule set — and delegates execution to a backend:

* :class:`SerialBackend` runs the ops inline in the master process under the
  :class:`~repro.parallel.cluster.SimulatedCluster` metering (the historical
  behavior; deterministic and dependency-free, the default).
* :class:`MultiprocessBackend` runs each worker as a dedicated
  single-process :class:`~concurrent.futures.ProcessPoolExecutor` (one pool
  per worker gives task→worker affinity, which the shard state requires).
  The frozen :class:`~repro.graph.index.GraphIndex` is shipped **once**:
  workers mmap-attach its store file when a valid one exists, otherwise
  attach one ``multiprocessing.shared_memory`` segment of its flat numpy
  buffers — zero-copy either way.  A platform without shared memory cannot
  run this backend (construction raises).  Per-op compute seconds are
  measured worker-side and charged back into the simulated-cluster ledger
  so the modeled BSP metrics stay comparable across backends; real
  wall-clock lives in ``DiscoveryResult.stats.elapsed_seconds``.

Both backends execute the same op implementations, so the discovered GFD
sets are identical by construction — the randomized differential harness
(``tests/test_differential.py``) asserts it.

Shared-memory lifecycle: the master owns the segment (created in
:class:`SharedIndexBuffers`), workers attach without tracking (so the
resource tracker never double-unlinks), and :meth:`MultiprocessBackend.
shutdown` joins the pools, closes and unlinks.  ``tests/test_backend.py``
asserts no segment survives a shutdown.

Bulk data stays worker-resident by design: join results are *parked*
worker-side (only a skewed join is fetched through the master, re-dealt in
whole pivot groups and shipped back out), and enforcement match tables
persist in the workers across
:meth:`~repro.enforce.engine.EnforcementEngine.refresh` calls.  The
:class:`TransferLedger` on every backend counts exactly which match rows
cross the master boundary, so tests and benchmarks can *prove* that only
manifests and scalars travel.

One transport: a batch's requests are grouped by worker and each worker's
whole op sequence travels as **one** ``_mp_execute_fused`` submission — one
pickle each way per worker — while charging, ledger accounting and
journaling stay per op.  Large array payloads (install matches, enforcement
deltas) route through a per-batch shared-memory segment instead of
the pickle channel.
"""

from __future__ import annotations

import itertools
import pickle
import time
import warnings
from concurrent.futures import Future, ProcessPoolExecutor
from concurrent.futures import TimeoutError as _FuturesTimeout
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core.config import FaultConfig, _default_fault
from ..core.match_table import MatchTable
from ..core.spawning import extension_counts
from ..gfd.implication import ImplicationChecker, greedy_group_elimination
from ..graph.graph import Graph
from ..graph.index import GraphIndex
from ..obs.tracer import NULL_TRACER
from ..pattern.incremental import extend_matches
from . import janitor
from .faults import FaultPlan

try:  # pragma: no cover - availability depends on the platform
    from multiprocessing import shared_memory as _shared_memory
except ImportError:  # pragma: no cover
    _shared_memory = None

__all__ = [
    "BACKEND_NAMES",
    "ShardWorker",
    "ExecutionBackend",
    "SerialBackend",
    "MultiprocessBackend",
    "SharedIndexBuffers",
    "TransferLedger",
    "LifecycleCounters",
    "make_backend",
    "next_node_key",
    "rows_containing",
    "shared_memory_available",
    "warn_standalone_entry_point",
]

#: Recognized values of ``DiscoveryConfig.parallel_backend``.
BACKEND_NAMES = ("serial", "multiprocess")

#: One superstep request: ``(worker, op name, pattern node key, payload)``.
Request = Tuple[int, str, int, Dict[str, Any]]

#: Worker-state keys are unique across every engine in this master process,
#: so engines sharing one backend never collide on worker state.
_NODE_KEYS = itertools.count()


def next_node_key() -> int:
    """A fresh process-wide worker-state key (pattern node, Σ slot, ...)."""
    return next(_NODE_KEYS)


def warn_standalone_entry_point(function: str, backend: Any) -> None:
    """Deprecation notice for per-call backend construction.

    The legacy wrappers (``discover_parallel``, ``parallel_cover``) remain
    supported shims, but a standalone call — one that does not reuse a
    pre-started :class:`ExecutionBackend` — spins up and tears down a pool
    set per invocation; sessions share one.  Callers that *have* no graph
    to open a session over (the ``repro-gfd cover`` verb) suppress this
    explicitly.
    """
    if not isinstance(backend, ExecutionBackend):
        warnings.warn(
            f"{function}() builds a fresh execution backend per call; "
            "prefer repro.session.Session, which starts the worker pools "
            "once and shares them across discover/cover/enforce",
            DeprecationWarning,
            stacklevel=3,
        )


def shared_memory_available() -> bool:
    """Whether ``multiprocessing.shared_memory`` exists on this platform."""
    return _shared_memory is not None


# ----------------------------------------------------------------------
# transfer accounting
# ----------------------------------------------------------------------
@dataclass
class TransferLedger:
    """Match rows crossing process/role boundaries, counted per backend.

    The whole point of worker-resident shard state is that *match rows* stay
    where they were computed; this ledger makes the claim checkable.  Both
    backends account identically (the serial backend has no pickle cost,
    but the protocol is the same), so differential tests can assert e.g.
    that a clean incremental ``refresh()`` ships **zero** rows through the
    master.

    Attributes:
        rows_to_workers: match rows sent master → worker in op payloads
            (installs, enforcement installs/updates).
        rows_to_master: match rows returned worker → master in op results
            (un-parked joins, fetched joins, violating rows of enforcement
            reports).
        sigma_rules: GFDs broadcast to workers for the cover phase
            (manifests, not match rows; tracked for completeness).
    """

    rows_to_workers: int = 0
    rows_to_master: int = 0
    sigma_rules: int = 0

    def snapshot(self) -> "TransferLedger":
        """An immutable copy (for before/after deltas in tests)."""
        return TransferLedger(
            self.rows_to_workers, self.rows_to_master, self.sigma_rules
        )


@dataclass
class LifecycleCounters:
    """Resource-lifecycle events of one backend instance.

    The Session facade promises "worker pools started once, index attached
    once" across a whole discover → cover → enforce → refresh pipeline;
    these counters make that promise assertable (``Session.metrics()``)
    instead of assumed.

    Attributes:
        pools_started: worker pools (processes or in-process shard slots)
            created at construction — exactly ``num_workers``, exactly once
            per backend.
        index_attaches: graph-index snapshots shipped to the workers at
            construction (1 segment export for graph-ful backends, 0 for
            graph-free cover pools).
        index_refreshes: :meth:`ExecutionBackend.refresh_index` calls —
            snapshot re-points that *reuse* the live pools instead of
            rebuilding them.
        resets: worker-state wipes (an engine returning a borrowed backend).
        shutdowns: terminal releases (0 while the backend is live, 1 after).
        timeouts: supervised ops that exceeded their ``op_timeout_s``
            deadline (the worker was declared hung and killed).
        retries: supervised op re-submissions after a worker failure.
        respawns: worker processes replaced after a crash/hang, each
            replaying its install log before the failed op was retried.
        degraded_workers: worker slots demoted to in-process serial
            execution after exhausting ``max_respawns`` (the graceful-
            degradation ladder's last rung).
    """

    pools_started: int = 0
    index_attaches: int = 0
    index_refreshes: int = 0
    #: Subset of ``index_refreshes`` that shipped only the *changed* arrays
    #: (attribute columns / CSR deltas) instead of re-exporting the full
    #: index — the delta-aware mutation path.
    delta_refreshes: int = 0
    resets: int = 0
    shutdowns: int = 0
    timeouts: int = 0
    retries: int = 0
    respawns: int = 0
    degraded_workers: int = 0


def rows_containing(rows: np.ndarray, nodes: np.ndarray) -> np.ndarray:
    """Which match ``rows`` hold any of ``nodes`` in some column (bool mask).

    The drop rule of incremental enforcement, shared by the master's stored
    arrays and the workers' resident shards.  One lookup-table gather per
    column — an order of magnitude under ``np.isin`` on a 10⁵-row array.
    """
    hit = np.zeros(rows.shape[0], dtype=bool)
    if hit.size and nodes.size:
        table = np.zeros(int(max(rows.max(), nodes.max())) + 1, dtype=bool)
        table[nodes] = True
        for column in range(rows.shape[1]):
            hit |= table[rows[:, column]]
    return hit


def _rows_in(matches: Any) -> int:
    """Row count of a matches payload (array, list, or ``None``)."""
    if matches is None:
        return 0
    if isinstance(matches, np.ndarray):
        return int(matches.shape[0])
    return len(matches)


def _payload_rows(op: str, payload: Dict[str, Any]) -> int:
    """Match rows the master ships *into* a worker with one op."""
    if op == "install":
        if payload.get("adopt") is not None:
            return 0
        return _rows_in(payload.get("matches"))
    if op == "enforce_install":
        return _rows_in(payload.get("matches"))
    if op == "enforce_update":
        return _rows_in(payload.get("fresh"))
    return 0


def _result_rows(op: str, result: Any) -> int:
    """Match rows a worker returns *to* the master from one op."""
    if op == "join":
        return sum(_rows_in(part[0]) for part in result)
    if op == "fetch_join":
        return _rows_in(result)
    if op in ("enforce_install", "enforce_update"):
        return sum(_rows_in(part[2]) for part in result)
    return 0


def _account(backend: "ExecutionBackend", op: str, payload: Dict[str, Any],
             result: Any) -> None:
    """Charge one executed op (with its result) to the backend's ledgers."""
    ledger = backend.transfers
    ledger.rows_to_workers += _payload_rows(op, payload)
    if op == "reset":
        backend.lifecycle.resets += 1
        return
    if op == "sigma":
        ledger.sigma_rules += len(payload.get("sigma", ()))
        return
    ledger.rows_to_master += _result_rows(op, result)


# ----------------------------------------------------------------------
# worker-side op implementations (shared by every backend)
# ----------------------------------------------------------------------
class ShardWorker:
    """One worker's shard state plus the op implementations over it.

    State per verified pattern (keyed by the master's node key): the shard
    :class:`MatchTable` and, during ``HSpawn``, the alphabet's row bitsets
    ``{literal: int}`` plus the lattice mask store ``{mask id: int}`` — a
    row set is one Python int (row ``i`` = bit ``i``), so an intersection
    is ``&``, a count is ``bit_count()`` and the distinct-pivot support is
    :meth:`MatchTable.bits_support`'s carry-add.  Bitsets never leave the
    worker; results are counts.  The serial backend keeps ``n`` of these
    in-process; the multiprocess backend keeps one per worker process,
    built around the attached (detached) graph index.

    Two further state families live here so *their* bulk data also stays
    worker-resident: the cover phase's rule set ``Σ`` plus its amortized
    :class:`~repro.gfd.implication.ImplicationChecker` (``op_sigma`` /
    ``op_implication_batch`` / ``op_cover_probe``), and the enforcement
    engine's persistent per-group match arrays with their cached per-rule
    violation masks (``op_enforce_install`` / ``op_enforce_update``).
    """

    def __init__(
        self,
        graph: Optional[Graph],
        index: Optional[GraphIndex],
        gamma: Sequence[str],
    ) -> None:
        self.graph = graph
        self.index = index
        self.gamma = list(gamma)
        self.tables: Dict[int, MatchTable] = {}
        self.stores: Dict[int, Dict[int, int]] = {}
        # HSpawn: key -> {literal: row bitset}, opened by scan beside the
        # mask store and freed with it
        self.bits: Dict[int, Dict[Any, int]] = {}
        # join results parked worker-side, keyed (parent key, extension
        # position), until an install adopts them — matches never cross the
        # process boundary unless the master orders a rebalance
        self.joins: Dict[Tuple[int, int], Any] = {}
        # cover phase: key -> Σ (list of GFDs) and its shared checker
        self.sigmas: Dict[int, List[Any]] = {}
        self.checkers: Dict[int, ImplicationChecker] = {}
        # enforcement residency: key -> {"pattern", "rules", "rows", "masks"}
        # where rows is the resident (N, vars) int64 shard and masks maps
        # rule offset -> boolean violation mask aligned with rows
        self.enforce_state: Dict[int, Dict[str, Any]] = {}

    # ------------------------------------------------------------------
    def execute(self, op: str, key: int, payload: Dict[str, Any]) -> Any:
        """Dispatch one op (the unit the cluster meters)."""
        return getattr(self, f"op_{op}")(key, payload)

    def _parent_matches(self, table: MatchTable):
        return table.match_array if self.index is not None else table.matches

    # -- VSpawn ---------------------------------------------------------
    def op_install(self, key: int, payload: Dict[str, Any]) -> Tuple:
        """Build this worker's match-table shard (+ column statistics).

        The value/agreement counts feed the master's alphabet generation,
        saving a dedicated round per pattern (only collected when the
        pattern will be mined).  ``payload["gamma"]`` carries the run's
        active attributes — the engine's Γ, not the backend-construction
        one, which may predate a graph mutation that changed the top
        attributes.
        """
        adopt = payload.get("adopt")
        matches = self.joins.pop(adopt) if adopt is not None else payload["matches"]
        table = MatchTable(
            self.graph,
            payload["pattern"],
            matches,
            payload.get("gamma", self.gamma),
            index=self.index,
        )
        self.tables[key] = table
        values: Dict = {}
        agreements: Dict = {}
        if payload["mined"]:
            values = table.constant_value_counts()
            if payload["want_variable"]:
                agreements = table.variable_agreement_counts(
                    payload["same_attr_only"]
                )
        return table.num_rows, values, agreements

    def op_tally(self, key: int, payload: Dict[str, Any]):
        """This shard's extension tallies as shippable counts."""
        table = self.tables[key]
        return extension_counts(
            self.graph,
            table.pattern,
            self._parent_matches(table),
            payload["can_add"],
            index=self.index,
        )

    def op_join(self, key: int, payload: Dict[str, Any]) -> List[Tuple]:
        """Join this shard with every extension edge of one parent.

        Returns ``(matches, local support, count, hit_cap)`` per extension;
        ``cap`` bounds the per-shard join (``config.max_matches_per_pattern``
        enforcement — the master combines the flags into the global
        truncation verdict).  With ``park=True`` (the cross-process mode)
        the matches stay here under ``(parent key, position)`` — the slot a
        later install adopts — and ``None`` travels in their place, so only
        scalars cross the process boundary.
        """
        table = self.tables[key]
        parent_matches = self._parent_matches(table)
        cap = payload["cap"]
        park = payload.get("park", False)
        results: List[Tuple] = []
        for position, (extension, pivot_var) in enumerate(payload["extensions"]):
            matches = extend_matches(
                self.graph,
                parent_matches,
                extension,
                max_matches=cap,
                index=self.index,
                as_array=self.index is not None,
            )
            if self.index is not None:
                count = int(matches.shape[0])
                support = (
                    int(np.unique(matches[:, pivot_var]).size) if count else 0
                )
            else:
                count = len(matches)
                support = len({match[pivot_var] for match in matches})
            hit_cap = cap is not None and count >= cap
            if park:
                self.joins[(key, position)] = matches
                results.append((None, support, count, hit_cap))
            else:
                results.append((matches, support, count, hit_cap))
        return results

    def op_fetch_join(self, key: int, payload: Dict[str, Any]):
        """Surrender one parked join result to the master (for rebalancing)."""
        return self.joins.pop((key, payload["position"]))

    # -- HSpawn ---------------------------------------------------------
    def op_scan(self, key: int, payload: Dict[str, Any]) -> Tuple[List[int], List[int]]:
        """Per-literal row counts and local distinct-pivot supports.

        Also opens this pattern's mask store (id 0 = every row) and keeps
        the alphabet's row bitsets for the lattice levels; the packed stack
        they are read from is dropped on return.
        """
        table = self.tables[key]
        literals = payload["literals"]
        packed = table.literal_bits(literals)
        masks = table.as_bitsets(packed)
        self.stores[key] = {0: table.full_bits()}
        self.bits[key] = dict(zip(literals, masks))
        # the supports of the whole stack in one call: it is the span
        # benchmarks/e2e's traced pass puts around MatchTable.stack_supports
        return [mask.bit_count() for mask in masks], table.stack_supports(packed)

    def op_eval(self, key: int, payload: Dict[str, Any]) -> Tuple:
        """Evaluate one lattice level's candidate batch on this shard.

        ``specs`` entries are ``(parent mask id, lhs literal, rhs literal,
        new mask id)``.  Candidates sharing ``(parent, lhs)`` share their
        LHS rows: that bitset and its popcount are computed once and every
        new mask id of the group aliases the one (immutable) int, which
        stays in the store for the next level.  Per candidate the RHS is
        one ``&``, one popcount and one carry-add.  ``drop`` lists mask ids
        the master retired last level.
        """
        support_of = self.tables[key].bits_support
        store = self.stores[key]
        bits = self.bits[key]
        for dead in payload.get("drop", ()):
            store.pop(dead, None)
        specs = payload["specs"]
        lhs_rows: Dict[Tuple[int, Any], Tuple[int, int]] = {}
        count_lhs: List[int] = []
        count_both: List[int] = []
        supports: List[int] = []
        for parent, lhs, rhs, new in specs:
            group = lhs_rows.get((parent, lhs))
            if group is None:
                mask = store[parent] & bits[lhs]
                group = lhs_rows[(parent, lhs)] = (mask, mask.bit_count())
            mask, count = group
            store[new] = mask
            both = mask & bits[rhs]
            count_lhs.append(count)
            count_both.append(both.bit_count())
            supports.append(support_of(both))
        return tuple(
            np.array(column, dtype=np.int64)
            for column in (count_lhs, count_both, supports)
        )

    def op_probe(self, key: int, payload: Dict[str, Any]) -> List[bool]:
        """``NHSpawn`` batch: does any shard row satisfy ``X ∪ {l''}``?"""
        store = self.stores[key]
        bits = self.bits[key]
        for dead in payload.get("drop", ()):
            store.pop(dead, None)
        return [
            store[rows_id] & bits[literal] != 0
            for rows_id, literal in payload["specs"]
        ]

    # -- enforcement (repro.enforce) ------------------------------------
    def _enforce_results(self, state: Dict[str, Any]) -> List[Tuple]:
        """Per-rule ``(count, node ids, violating rows, truncated)`` tuples.

        Derived from the resident rows and cached masks; rows are canonical
        match tuples as an ``(N, vars)`` int64 array.  Counts are always
        exact per shard (a mask popcount); with the per-rule violation cap
        (``state["cap"]``) only the first ``cap`` violating rows of this
        shard are gathered — the graceful-degradation mode for adversarial
        rules whose violation set is the whole match table — and
        ``truncated`` flags that the node set and witness rows cover a
        subset.  The master merges across shards.
        """
        rows = state["rows"]
        cap = state.get("cap")
        results: List[Tuple] = []
        for offset in range(len(state["rules"])):
            mask = state["masks"][offset]
            count = int(np.count_nonzero(mask))
            truncated = cap is not None and count > cap
            if truncated:
                violating = rows[np.flatnonzero(mask)[:cap]]
            else:
                violating = rows[mask]
            nodes = (
                np.unique(violating)
                if violating.size
                else np.empty(0, dtype=np.int64)
            )
            results.append((count, nodes, violating, truncated))
        return results

    def op_enforce_install(self, key: int, payload: Dict[str, Any]) -> List[Tuple]:
        """Install one pattern group's match shard and evaluate its rules.

        ``payload["rules"]`` entries are ``(lhs literals, rhs literal or
        None)`` over the *canonical* pattern variables (``None`` = negative
        GFD).  ``payload["gamma"]`` carries the plan's attribute set —
        enforcement must not inherit the backend-construction ``Γ`` (a
        session-shared backend was built for *discovery's* attributes) —
        and ``payload["cap"]`` the optional per-rule violation cap.  The
        shard rows and the per-rule violation masks stay resident (keyed by
        the engine's group key) so later :meth:`op_enforce_update` calls
        can splice deltas instead of receiving the world again; see
        :meth:`_enforce_results` for the return shape.
        """
        gamma = payload.get("gamma", self.gamma)
        table = MatchTable(
            self.graph,
            payload["pattern"],
            payload["matches"],
            gamma,
            index=self.index,
        )
        rows = table.match_array
        masks = {
            offset: table.violation_mask(lhs, rhs)
            for offset, (lhs, rhs) in enumerate(payload["rules"])
        }
        state = {
            "pattern": payload["pattern"],
            "rules": list(payload["rules"]),
            "rows": rows,
            "masks": masks,
            "gamma": list(gamma),
            "cap": payload.get("cap"),
        }
        self.enforce_state[key] = state
        return self._enforce_results(state)

    def op_enforce_update(self, key: int, payload: Dict[str, Any]) -> List[Tuple]:
        """Splice a delta into a resident group and re-evaluate its rules.

        ``payload["touched"]`` holds the node ids the delta touched:
        resident rows with a touched node in any column are dropped.
        ``payload["fresh"]`` carries this shard's slice of the re-derived
        matches; only those rows cross the process boundary.  Cached
        violation masks of the *kept* rows are reused verbatim — a kept row
        contains no touched node and a literal reads only the match's own
        nodes, so its per-rule verdicts cannot have changed — and masks are
        computed fresh only for the incoming rows, against the worker's
        current index.
        """
        state = self.enforce_state[key]
        rows = state["rows"]
        if rows.shape[0]:
            keep = ~rows_containing(rows, payload["touched"])
            kept_rows = rows[keep]
        else:
            keep = None
            kept_rows = rows
        fresh_table = MatchTable(
            self.graph,
            state["pattern"],
            payload["fresh"],
            state.get("gamma", self.gamma),
            index=self.index,
        )
        fresh_rows = fresh_table.match_array
        for offset, (lhs, rhs) in enumerate(state["rules"]):
            kept_mask = state["masks"][offset]
            if keep is not None:
                kept_mask = kept_mask[keep]
            fresh_mask = fresh_table.violation_mask(lhs, rhs)
            state["masks"][offset] = np.concatenate([kept_mask, fresh_mask])
        state["rows"] = np.concatenate([kept_rows, fresh_rows])
        return self._enforce_results(state)

    def op_enforce_drop(self, key: int, payload: Dict[str, Any]) -> None:
        """Release one resident enforcement group."""
        self.enforce_state.pop(key, None)
        return None

    # -- cover phase (ParCover / ParCovern) ------------------------------
    def op_sigma(self, key: int, payload: Dict[str, Any]) -> int:
        """Receive the cover phase's rule set ``Σ`` (broadcast once).

        The worker keeps ``Σ`` and one :class:`ImplicationChecker` over it;
        the checker's embedded-rule cache is shared by every implication
        test of this worker's batch, so repeated chases over one pattern
        skip embedding enumeration — the amortization ``SeqCover`` enjoys,
        now per worker.
        """
        sigma = list(payload["sigma"])
        self.sigmas[key] = sigma
        self.checkers[key] = ImplicationChecker(sigma)
        return len(sigma)

    def op_implication_batch(
        self, key: int, payload: Dict[str, Any]
    ) -> Tuple[List[int], List[float]]:
        """``ParImp`` over a batch of work units ``(group, embedded)``.

        Each unit is greedily reduced in isolation (Lemma 6 independence);
        only the removed Σ-indices return to the master, plus each unit's
        measured chase seconds — the feedback that lets the master replace
        the static ``|group| × |embedded|`` LPT weights with observed costs
        on the next cover (:class:`~repro.parallel.costs.ChaseCostModel`).
        """
        sigma = self.sigmas[key]
        checker = self.checkers[key]
        removed: List[int] = []
        seconds: List[float] = []
        for group, embedded in payload["units"]:
            begin = time.perf_counter()
            removed.extend(
                greedy_group_elimination(sigma, group, embedded, checker=checker)
            )
            seconds.append(time.perf_counter() - begin)
        return removed, seconds

    def op_cover_probe(self, key: int, payload: Dict[str, Any]) -> List[Tuple[int, bool]]:
        """Leave-one-out implication verdicts for ``ParCovern``.

        For each Σ-index the worker tests ``Σ \\ {φ_index} ⊨ φ_index``
        against the full remainder (no grouping — the paper's baseline);
        verdicts are booleans, reconciled sequentially by the master.
        """
        checker = self.checkers[key]
        return [
            (index, checker.implied_by_rest(index))
            for index in payload["indices"]
        ]

    def op_drop_sigma(self, key: int, payload: Dict[str, Any]) -> None:
        """Release the cover phase's worker-side rule set."""
        self.sigmas.pop(key, None)
        self.checkers.pop(key, None)
        return None

    # -- lifecycle ------------------------------------------------------
    def op_drop_store(self, key: int, payload: Dict[str, Any]) -> None:
        """Free the mask store once a pattern's ``HSpawn`` completes."""
        self.stores.pop(key, None)
        self.bits.pop(key, None)
        return None

    def op_drop(self, key: int, payload: Dict[str, Any]) -> None:
        """Free all state of a pattern (after its children are joined)."""
        self.tables.pop(key, None)
        self.stores.pop(key, None)
        self.bits.pop(key, None)
        for slot in [slot for slot in self.joins if slot[0] == key]:
            del self.joins[slot]  # un-adopted parks (e.g. truncated children)
        return None

    def op_reset(self, key: int, payload: Dict[str, Any]) -> None:
        """Clear every shard (an external backend being reused)."""
        self.tables.clear()
        self.stores.clear()
        self.bits.clear()
        self.joins.clear()
        self.sigmas.clear()
        self.checkers.clear()
        self.enforce_state.clear()
        return None


# ----------------------------------------------------------------------
# backends
# ----------------------------------------------------------------------
class ExecutionBackend:
    """Executes superstep request batches against ``n`` shard workers."""

    name: str = "abstract"
    num_workers: int = 0
    #: Whether workers live in other processes (payloads cross a pickle
    #: boundary, so bulk data should stay worker-resident when possible).
    remote: bool = False
    #: Identity of the graph snapshot the workers were built around; an
    #: engine refuses to run on a backend holding a different snapshot.
    source_token: Tuple = ()
    #: Match rows that crossed the master boundary (see
    #: :class:`TransferLedger`); every run method accounts into this.
    transfers: TransferLedger
    #: Resource-lifecycle events (pool starts, index attaches/refreshes);
    #: see :class:`LifecycleCounters` — what ``Session.metrics()`` reads.
    lifecycle: LifecycleCounters
    #: Wall-clock seconds spent in worker recovery (respawn + install-log
    #: replay); 0.0 on fault-free runs and on the serial backend.
    recovery_seconds: float = 0.0
    #: The session tracer (``NULL_TRACER`` unless a traced session wired
    #: one in).  Backends emit typed events (timeouts, retries, respawns,
    #: degradations, index refreshes, janitor sweeps) and worker-lane op
    #: spans for unmetered batches; metered op spans flow through
    #: ``step.charge`` instead.  Hot paths guard on ``tracer.enabled``.
    tracer: Any = NULL_TRACER

    def run_superstep(self, step, requests: Sequence[Request]) -> List[Any]:
        """Run one BSP round of requests; results align with the batch."""
        raise NotImplementedError

    def run_unmetered(
        self, requests: Sequence[Request], wait: bool = True
    ) -> List[Any]:
        """Bookkeeping ops (drops/reset) outside the metered supersteps.

        ``wait=False`` fires and forgets (single-process pools execute
        in-order, so a later op can never overtake a drop) — keeps
        per-pattern cleanup off the master's critical path.
        """
        raise NotImplementedError

    def refresh_index(self, index: GraphIndex) -> None:
        """Swap the workers onto a new frozen index snapshot.

        Keeps all worker-resident state (notably the persistent enforcement
        tables, whose kept rows stay valid across a delta — see
        :meth:`ShardWorker.op_enforce_update`).  Callers must not hold
        discovery-phase tables across a swap; those cache columns of the
        old snapshot.
        """
        raise NotImplementedError

    def shutdown(self) -> None:
        """Release every resource (processes, shared memory)."""
        raise NotImplementedError


class SerialBackend(ExecutionBackend):
    """In-process execution under the simulated cluster (the default)."""

    name = "serial"

    def __init__(
        self,
        num_workers: int,
        graph: Optional[Graph],
        index: Optional[GraphIndex],
        gamma: Sequence[str],
        tracer: Any = NULL_TRACER,
    ) -> None:
        self.num_workers = num_workers
        self.tracer = tracer
        self.source_token = (id(graph), id(index))
        self.transfers = TransferLedger()
        self.lifecycle = LifecycleCounters(
            pools_started=num_workers,
            index_attaches=1 if index is not None else 0,
        )
        # in-process shards share the master's index object outright
        self.index_transport = "inprocess" if index is not None else "none"
        self.workers = [
            ShardWorker(graph, index, gamma) for _ in range(num_workers)
        ]

    def run_superstep(self, step, requests: Sequence[Request]) -> List[Any]:
        results = []
        for worker, op, key, payload in requests:
            shard = self.workers[worker]
            result = step.run(
                worker,
                lambda shard=shard, op=op, key=key, payload=payload: (
                    shard.execute(op, key, payload)
                ),
                op,
            )
            _account(self, op, payload, result)
            results.append(result)
        return results

    def run_unmetered(
        self, requests: Sequence[Request], wait: bool = True
    ) -> List[Any]:
        tracer = self.tracer
        results = []
        for worker, op, key, payload in requests:
            if tracer.enabled:
                started = time.perf_counter()
                result = self.workers[worker].execute(op, key, payload)
                tracer.worker_op(worker, op, time.perf_counter() - started)
            else:
                result = self.workers[worker].execute(op, key, payload)
            _account(self, op, payload, result)
            results.append(result)
        return results

    def refresh_index(self, index: GraphIndex) -> None:
        """Point the in-process workers at a new index snapshot (free)."""
        for worker in self.workers:
            worker.index = index
        graph = index.graph if index is not None else None
        self.source_token = (id(graph), id(index))
        self.lifecycle.index_refreshes += 1

    def shutdown(self) -> None:
        if getattr(self, "_down", False):
            return
        self._down = True
        self.lifecycle.shutdowns += 1
        for worker in self.workers:
            worker.op_reset(0, {})


# ----------------------------------------------------------------------
# shared-memory payload
# ----------------------------------------------------------------------
def _align(offset: int) -> int:
    return (offset + 63) & ~63


class _SharedArrayPack:
    """Master-side owner of named arrays packed into one shared segment.

    The generic half of the zero-copy protocol: arrays are copied into one
    ``SharedMemory`` segment (64-byte aligned) and the layout
    ``{name: (dtype, shape, offset)}`` lets any attaching process rebuild
    views without pickling.  Used for the full index export
    (:class:`SharedIndexBuffers`), for changed-array deltas on the
    ``refresh_index`` mutation path, and for large op payloads routed
    around the pickle channel.
    """

    def __init__(self, arrays: Dict[str, np.ndarray]) -> None:
        layout: Dict[str, Tuple[str, Tuple[int, ...], int]] = {}
        contiguous: Dict[str, np.ndarray] = {}
        offset = 0
        for name in sorted(arrays):
            array = np.ascontiguousarray(arrays[name])
            contiguous[name] = array
            if array.nbytes == 0:
                layout[name] = (array.dtype.str, array.shape, 0)
                continue
            offset = _align(offset)
            layout[name] = (array.dtype.str, array.shape, offset)
            offset += array.nbytes
        self.layout = layout
        # janitor-registered: a crash before close() leaves the segment to
        # the atexit hook (this process) or the orphan sweep (a hard kill)
        self.segment = janitor.create_segment(offset)
        for name, array in contiguous.items():
            if array.nbytes == 0:
                continue
            dtype_str, shape, start = layout[name]
            view = np.ndarray(
                shape, dtype=np.dtype(dtype_str),
                buffer=self.segment.buf, offset=start,
            )
            view[...] = array
        self._closed = False

    @property
    def name(self) -> str:
        """The segment name workers attach by."""
        return self.segment.name

    def close(self) -> None:
        """Detach and unlink the segment (idempotent).

        Unlinking frees the *name* only: processes that already attached
        keep their mappings until they close them, so the owner may release
        a segment as soon as every consumer has attached.
        """
        if self._closed:
            return
        self._closed = True
        janitor.unregister(self.segment)
        self.segment.close()
        try:
            self.segment.unlink()
        except FileNotFoundError:  # pragma: no cover - already gone
            pass

    def __del__(self) -> None:  # pragma: no cover - GC safety net
        try:
            self.close()
        except Exception:
            pass


class SharedIndexBuffers(_SharedArrayPack):
    """Master-side owner of a graph index's shared-memory copy.

    Packs the arrays of :meth:`GraphIndex.export_buffers` into one
    ``SharedMemory`` segment and keeps the picklable ``meta`` beside the
    layout.  :meth:`close` unlinks the segment; the owner must outlive
    every attached worker (or at least their attach calls).
    """

    def __init__(self, index: GraphIndex) -> None:
        meta, arrays = index.export_buffers()
        self.meta = meta
        super().__init__(arrays)


#: Attach a shared-memory segment without resource-tracker ownership; the
#: implementation lives with the rest of the segment lifecycle machinery.
_attach_segment = janitor.attach_segment


def _views_from_layout(
    layout: Dict[str, Tuple[str, Tuple[int, ...], int]], buf
) -> Dict[str, np.ndarray]:
    arrays: Dict[str, np.ndarray] = {}
    for name, (dtype_str, shape, offset) in layout.items():
        array = np.ndarray(
            shape, dtype=np.dtype(dtype_str), buffer=buf, offset=offset
        )
        array.flags.writeable = False  # workers must never mutate the graph
        arrays[name] = array
    return arrays


# ----------------------------------------------------------------------
# shared-memory payload routing (master side)
# ----------------------------------------------------------------------
#: Large-array payload fields routed through a shared segment instead of
#: the pickle channel, per op.  Everything else a payload carries is small
#: (manifests, literals, scalars) and pickles fine.
_SHM_PAYLOAD_KEYS = {
    "install": ("matches",),
    "enforce_install": ("matches",),
    "enforce_update": ("touched", "fresh"),
}

#: Arrays below this size pickle faster than a segment round trip.
_SHM_PAYLOAD_MIN_BYTES = 32 * 1024

#: First element of a marker tuple substituted for a staged payload array.
_SHM_MARKER = "__shm_payload__"


def _stage_payloads(requests: Sequence[Request]):
    """Move large array payloads of one batch into a shared segment.

    Returns ``(submit requests, pack or None)``: payload dicts carrying a
    staged array are shallow-copied with the array replaced by a marker
    tuple ``(_SHM_MARKER, segment name, dtype, shape, offset)`` — the
    *original* requests stay untouched, so ledger accounting and journaling
    keep seeing the real arrays.  The caller must close the pack after the
    batch completes (workers copy out of the segment on resolve).
    """
    staged_arrays: Dict[str, np.ndarray] = {}
    slots: List[Tuple[int, str, str]] = []
    for position, (worker, op, key, payload) in enumerate(requests):
        for field in _SHM_PAYLOAD_KEYS.get(op, ()):
            value = payload.get(field)
            if (
                isinstance(value, np.ndarray)
                and value.nbytes >= _SHM_PAYLOAD_MIN_BYTES
            ):
                name = f"{position}:{field}"
                staged_arrays[name] = value
                slots.append((position, field, name))
    if not slots:
        return list(requests), None
    pack = _SharedArrayPack(staged_arrays)
    staged = list(requests)
    for position, field, name in slots:
        worker, op, key, payload = staged[position]
        payload = dict(payload)
        dtype_str, shape, offset = pack.layout[name]
        payload[field] = (_SHM_MARKER, pack.name, dtype_str, shape, offset)
        staged[position] = (worker, op, key, payload)
    return staged, pack


def _resolve_payload(payload: Dict[str, Any], cache: Dict[str, Any]):
    """Replace shared-memory markers with materialized arrays (worker side).

    Arrays are *copied* out of the segment: the master unlinks payload
    segments right after the batch, and resident state (match tables,
    enforcement rows) must not dangle into an unmapped buffer.  ``cache``
    holds segment attachments across one batch; the caller closes them.
    """
    resolved = None
    for field, value in payload.items():
        if (
            isinstance(value, tuple)
            and len(value) == 5
            and value[0] == _SHM_MARKER
        ):
            _, name, dtype_str, shape, offset = value
            segment = cache.get(name)
            if segment is None:
                segment = cache[name] = _attach_segment(name)
            view = np.ndarray(
                shape, dtype=np.dtype(dtype_str),
                buffer=segment.buf, offset=offset,
            )
            if resolved is None:
                resolved = dict(payload)
            resolved[field] = np.array(view, copy=True)
    return payload if resolved is None else resolved


# -- worker-process globals (one ShardWorker per process) ----------------
_WORKER: Optional[ShardWorker] = None
#: Segment attachments backing the current index views: the full snapshot
#: plus any delta segments merged since (views of *unchanged* arrays keep
#: pointing into earlier segments, so the whole chain must stay mapped
#: until a full re-attach replaces it).
_SEGMENTS: List[Any] = []
#: The mmap attachment backing the current index on the on-disk transport
#: (kept open across delta merges for the same reason as ``_SEGMENTS``;
#: replaced — never unlinked — on a full re-attach).
_MAPPING: Optional[Any] = None
_FAULTS: Optional[FaultPlan] = None


def _index_from_spec(spec: Dict[str, Any], segment_name: Optional[str]):
    """``(index, segment chain)`` of one shipped snapshot.

    The spec names an mmap store file (``mmap_path``; the store's loader
    verifies the header and registers the mapping with this process's
    janitor) or carries the ``meta`` + ``layout`` of the shared segment
    ``segment_name``; a spec with neither is graph-free (the cover phase
    works on ``Σ`` alone and needs no index) and yields ``None``.
    """
    if spec.get("mmap_path") is not None:
        from ..graph.store import load_index

        return load_index(spec["mmap_path"], mmap=True), []
    if spec.get("meta") is None:
        return None, []
    segment = _attach_segment(segment_name)
    arrays = _views_from_layout(spec["layout"], segment.buf)
    return GraphIndex.from_buffers(spec["meta"], arrays), [segment]


def _mp_initialize(
    spec_blob: bytes,
    segment_name: Optional[str],
    worker_id: int = 0,
    fault_blob: Optional[bytes] = None,
) -> None:
    """Pool initializer: attach the index and build the worker.

    ``fault_blob`` arms a pickled :class:`~repro.parallel.faults.FaultPlan`
    in this process — the chaos hook; respawned workers normally receive
    ``None``.
    """
    global _WORKER, _SEGMENTS, _MAPPING, _FAULTS
    plan = pickle.loads(fault_blob) if fault_blob is not None else None
    _FAULTS = plan if plan is not None and plan.applies_to(worker_id) else None
    spec = pickle.loads(spec_blob)
    index, _SEGMENTS = _index_from_spec(spec, segment_name)
    _MAPPING = getattr(index, "store_mapping", None)
    _WORKER = ShardWorker(None, index, spec["gamma"])


def _mp_attach_index(spec_blob: bytes, segment_name: Optional[str]) -> bool:
    """Swap the worker process onto a new full index snapshot.

    Builds the new detached :class:`GraphIndex` first, then closes the old
    segment chain and mapping — worker-resident state (parked joins,
    enforcement rows and masks) survives untouched; only the index views
    are replaced.
    """
    global _WORKER, _SEGMENTS, _MAPPING
    index, chain = _index_from_spec(pickle.loads(spec_blob), segment_name)
    _WORKER.index = index
    old, _SEGMENTS = _SEGMENTS, chain
    old_mapping, _MAPPING = _MAPPING, index.store_mapping
    for segment in old:
        segment.close()
    if old_mapping is not None and old_mapping is not _MAPPING:
        old_mapping.close()
    return True


def _index_arrays(index: GraphIndex) -> Dict[str, np.ndarray]:
    """The current index's arrays under their export names (zero-copy).

    Mirrors :meth:`GraphIndex.export_buffers` naming without its freshness
    check — a detached worker index has no graph to be fresh against.
    """
    arrays = {
        name: getattr(index, name) for name in GraphIndex._BUFFER_FIELDS
    }
    for attr, column in index._attr_codes.items():
        arrays[f"attr:{attr}"] = column
    return arrays


def _mp_attach_delta(spec_blob: bytes, segment_name: str) -> bool:
    """Merge a changed-array delta into the worker's current index.

    ``spec["names"]`` lists every array of the *new* snapshot; changed ones
    arrive in the delta segment, unchanged ones are taken from the live
    index — byte-identical to what a full re-export would ship, since
    unchanged means bytewise-equal under the new meta.  The delta segment
    joins the attachment chain (its views live as long as the index);
    dropped arrays simply stop being referenced.
    """
    global _WORKER, _SEGMENTS
    spec = pickle.loads(spec_blob)
    segment = _attach_segment(segment_name)
    changed = _views_from_layout(spec["layout"], segment.buf)
    _SEGMENTS.append(segment)
    current = _index_arrays(_WORKER.index)
    merged = {
        name: changed[name] if name in changed else current[name]
        for name in spec["names"]
    }
    _WORKER.index = GraphIndex.from_buffers(spec["meta"], merged)
    return True


def _mp_execute_fused(
    elements: Sequence[Tuple[str, int, Dict[str, Any]]]
) -> List[Tuple[Any, float]]:
    """Run one worker's slice of a batch in a single round trip.

    Elements execute in order, each producing a ``(result, compute
    seconds)`` pair — the master charges, accounts and journals per
    element.  Injected faults fire per element, *before* the op runs, so a
    chaos kill never half-applies worker state (replay + retry apply it
    exactly once).
    """
    outcomes: List[Tuple[Any, float]] = []
    cache: Dict[str, Any] = {}
    try:
        for op, key, payload in elements:
            if _FAULTS is not None:
                _FAULTS.apply(op)
            started = time.perf_counter()
            result = _WORKER.execute(
                op, key, _resolve_payload(payload, cache)
            )
            outcomes.append((result, time.perf_counter() - started))
    finally:
        for segment in cache.values():
            segment.close()
    return outcomes


def _mp_ready() -> bool:
    return _WORKER is not None


class MultiprocessBackend(ExecutionBackend):
    """Real worker processes over shared-memory graph buffers.

    One single-process :class:`ProcessPoolExecutor` per worker pins shard
    state to its process (plain pools cannot route tasks).  Construction
    blocks until every worker has attached, so export/attach errors surface
    in the master, not as broken futures mid-run; a platform without
    ``multiprocessing.shared_memory`` fails before any pool starts.

    ``index=None`` builds *graph-free* workers: the cover phase
    (:func:`~repro.parallel.parcover.parallel_cover`) operates on ``Σ``
    alone, so a standalone ``ParCover`` run needs processes but no graph.
    Discovery and enforcement require the index (their engines enforce it).
    """

    name = "multiprocess"
    remote = True

    def __init__(
        self,
        num_workers: int,
        index: Optional[GraphIndex],
        gamma: Sequence[str],
        fault: Optional[FaultConfig] = None,
        tracer: Any = NULL_TRACER,
    ) -> None:
        if not shared_memory_available():
            raise RuntimeError(
                "the multiprocess backend needs multiprocessing.shared_memory, "
                "which this platform lacks; use the serial backend"
            )
        self.num_workers = num_workers
        self.tracer = tracer
        # pin the snapshot: the token is id()-based, so the objects must
        # stay alive for the backend's lifetime or a recycled id could
        # falsely validate a different graph
        self._index = index
        self._gamma = list(gamma)
        self._fault = fault
        self._plan = (
            FaultPlan.from_json(fault.fault_plan) if fault is not None else None
        )
        self.transfers = TransferLedger()
        self.lifecycle = LifecycleCounters(
            pools_started=num_workers,
            index_attaches=1 if index is not None else 0,
        )
        self.source_token = (
            (id(index.graph), id(index)) if index is not None else (None, None)
        )
        # crashed earlier masters may have left segments behind — sweep
        # before allocating new ones (cheap: one spool-directory scan)
        janitor.sweep_orphans(tracer)
        if tracer.enabled and self._plan is not None:
            tracer.event("fault_plan_armed", plan=self._plan.as_dict())
        # supervision state: per-worker pool generation (a future from an
        # older generation failed because its pool was already replaced),
        # respawn budget, the install log, and demoted in-process shards
        self._generation = [0] * num_workers
        self._respawns = [0] * num_workers
        self._journals: List[List[Tuple[str, int, Dict[str, Any]]]] = [
            [] for _ in range(num_workers)
        ]
        self._local: Dict[int, ShardWorker] = {}
        self._degrade_warned = False
        self.recovery_seconds = 0.0
        self.buffers: Optional[SharedIndexBuffers] = None
        #: How the index snapshot reaches the workers: ``mmap`` (persisted
        #: store file), ``shm`` (shared-memory segment) or ``none``
        #: (graph-free pool).
        self.index_transport = "none"
        self._base_initargs, self.buffers = self._index_initargs(index)
        if tracer.enabled and index is not None:
            tracer.event(
                "index_transport",
                transport=self.index_transport,
                path=getattr(index, "store_path", None)
                if self.index_transport == "mmap"
                else None,
            )
        # the previous snapshot's export (zero-copy array references into
        # that index), diffed on refresh_index to ship only what changed
        self._last_export = (
            index.export_buffers() if index is not None else None
        )
        self._pools: List[Optional[ProcessPoolExecutor]] = []
        try:
            for worker in range(num_workers):
                self._pools.append(self._spawn_pool(worker, respawn=False))
            for pool in self._pools:
                if not pool.submit(_mp_ready).result():
                    raise RuntimeError("worker failed to initialize")
        except Exception:
            self.shutdown()
            raise
        self._down = False

    def _spawn_pool(self, worker: int, respawn: bool) -> ProcessPoolExecutor:
        """One single-process pool for ``worker``, armed with its plan.

        A respawned worker only re-arms the fault plan when the plan says
        ``persist`` — by default recovery converges because the fresh
        process is fault-free.
        """
        plan = self._plan
        if respawn and (plan is None or not plan.persist):
            plan = None
        fault_blob = pickle.dumps(plan) if plan is not None else None
        return ProcessPoolExecutor(
            max_workers=1,
            initializer=_mp_initialize,
            initargs=(*self._base_initargs, worker, fault_blob),
        )

    def _index_initargs(
        self, index: Optional[GraphIndex]
    ) -> Tuple[Tuple, Optional[SharedIndexBuffers]]:
        """``(initializer args, owned buffers)`` for shipping one snapshot.

        A *persisted* snapshot (``index.store_path`` naming a store file
        whose fingerprint still matches) ships as just the path — every
        worker mmap-attaches the file and the master allocates nothing;
        otherwise the arrays are packed into one shared-memory segment.
        The chosen route is recorded in :attr:`index_transport`.  Both
        routes are replayable from ``_base_initargs`` by a supervised
        respawn (the store file must simply outlive the backend, like the
        segment does).
        """
        if index is None:
            self.index_transport = "none"
            spec = {"meta": None, "gamma": self._gamma}
            return (pickle.dumps(spec), None), None
        store_path = getattr(index, "store_path", None)
        if store_path is not None:
            from ..graph.store import snapshot_matches

            if snapshot_matches(
                store_path, index.num_nodes, index.num_edges, index.version
            ):
                self.index_transport = "mmap"
                spec = {
                    "meta": None,
                    "mmap_path": str(store_path),
                    "gamma": self._gamma,
                }
                return (pickle.dumps(spec), None), None
        self.index_transport = "shm"
        buffers = SharedIndexBuffers(index)
        spec = {
            "meta": buffers.meta,
            "layout": buffers.layout,
            "gamma": self._gamma,
        }
        return (pickle.dumps(spec), buffers.name), buffers

    @property
    def shm_name(self) -> Optional[str]:
        """The index segment's name (``None`` on the mmap or graph-free
        transport)."""
        return self.buffers.name if self.buffers is not None else None

    def refresh_index(self, index: GraphIndex) -> None:
        """Ship a new index snapshot to the resident worker processes.

        The new segment is created and attached by every worker *before*
        the old one is unlinked, so a mid-swap failure leaves the backend
        on the previous snapshot.  Worker-resident match state survives —
        this is what lets :meth:`~repro.enforce.engine.EnforcementEngine.
        refresh` keep its persistent tables across graph mutations instead
        of re-shipping them.  Costs one index export (O(graph) into shared
        memory, no pickling of match rows); match-row transfer stays zero.
        """
        if index is None:
            raise ValueError("refresh_index requires a frozen graph index")
        export = None
        if self._fault is None and self._last_export is not None:
            export = index.export_buffers()
            changed = self._changed_arrays(export)
            if changed is not None:
                self._refresh_delta(index, export, changed)
                return
        initargs, new_buffers = self._index_initargs(index)
        try:
            futures = [
                pool.submit(_mp_attach_index, *initargs)
                for worker, pool in enumerate(self._pools)
                if worker not in self._local
            ]
            for future in futures:
                future.result()
        except Exception:
            if new_buffers is not None:
                new_buffers.close()
            raise
        old = self.buffers
        self.buffers = new_buffers
        if old is not None:
            old.close()
        self._index = index
        # respawns must rebuild from the *current* snapshot, and demoted
        # in-process shards follow the swap like serial workers do
        self._base_initargs = initargs
        for shard in self._local.values():
            shard.index = index
        self.source_token = (id(index.graph), id(index))
        self._last_export = (
            export if export is not None else index.export_buffers()
        )
        self.lifecycle.index_refreshes += 1
        if self.tracer.enabled:
            self.tracer.event("index_refresh", mode="full")

    def _changed_arrays(self, export) -> Optional[Dict[str, np.ndarray]]:
        """Arrays that differ from the previous export, or ``None``.

        ``None`` means a full re-export is the better ship: more than half
        the snapshot's bytes changed, so the delta machinery would cost as
        much as the plain path while adding a segment to the chain.  An
        unchanged array is *bytewise* equal — under the new snapshot's
        meta tables it decodes to exactly what a full export would ship,
        so reusing the worker's existing view is sound even when interned
        code tables shifted (a shifted code changes the bytes).
        """
        meta, arrays = export
        previous = self._last_export[1]
        changed: Dict[str, np.ndarray] = {}
        total = 0
        changed_bytes = 0
        for name, array in arrays.items():
            total += array.nbytes
            old = previous.get(name)
            if (
                old is None
                or old.dtype != array.dtype
                or old.shape != array.shape
                or not np.array_equal(old, array)
            ):
                changed[name] = array
                changed_bytes += array.nbytes
        if total and changed_bytes * 2 > total:
            return None
        return changed

    def _refresh_delta(
        self, index: GraphIndex, export, changed: Dict[str, np.ndarray]
    ) -> None:
        """Ship only the changed arrays; workers merge with their views.

        The delta segment is released (unlinked) as soon as every worker
        has attached — their mappings persist — and earlier segments stay
        mapped worker-side through the attachment chain, so unchanged
        views never dangle.  Gated on unsupervised backends: a respawn
        rebuilds from ``_base_initargs``, which a delta chain could not
        reconstruct.
        """
        meta, arrays = export
        pack = _SharedArrayPack(changed)
        spec_blob = pickle.dumps(
            {
                "meta": meta,
                "gamma": self._gamma,
                "names": sorted(arrays),
                "layout": pack.layout,
            }
        )
        try:
            futures = [
                pool.submit(_mp_attach_delta, spec_blob, pack.name)
                for worker, pool in enumerate(self._pools)
                if worker not in self._local
            ]
            for future in futures:
                future.result()
        finally:
            pack.close()
        self._index = index
        for shard in self._local.values():  # pragma: no cover - fault-only
            shard.index = index
        self.source_token = (id(index.graph), id(index))
        self._last_export = export
        self.lifecycle.index_refreshes += 1
        self.lifecycle.delta_refreshes += 1
        if self.tracer.enabled:
            self.tracer.event(
                "index_refresh", mode="delta", changed_arrays=len(changed)
            )

    # ------------------------------------------------------------------
    # supervision: journal, recovery, degradation
    # ------------------------------------------------------------------
    #: State-mutating ops recorded in the per-worker install log.  Replay
    #: of this journal (against the current index snapshot) reconstructs a
    #: respawned worker's resident state exactly: every op is a
    #: deterministic function of (index, installed state, payload).
    #: Read-only ops (tally, implication_batch, cover_probe) and un-parked
    #: joins are never journaled.
    _JOURNALED_OPS = frozenset(
        {
            "install",
            "join",
            "fetch_join",
            "scan",
            "eval",
            "probe",
            "sigma",
            "enforce_install",
            "enforce_update",
            "drop",
            "drop_store",
        }
    )

    def _journal(self, worker: int, op: str, key: int,
                 payload: Dict[str, Any]) -> None:
        """Append one *completed* op to the worker's install log.

        Journal-on-success keeps replay + retry exactly-once for
        non-idempotent ops (an op that died mid-flight was never recorded,
        so its retry applies it once on the replayed state).  ``reset``
        clears the log; released Σ/enforcement keys compact away.
        Unsupervised backends never replay, so they keep no log.
        """
        if self._fault is None:
            return
        journal = self._journals[worker]
        if op == "reset":
            journal.clear()
            return
        if op == "drop_sigma":
            journal[:] = [
                entry
                for entry in journal
                if not (entry[1] == key and entry[0] == "sigma")
            ]
            return
        if op == "enforce_drop":
            journal[:] = [
                entry
                for entry in journal
                if not (entry[1] == key and entry[0].startswith("enforce"))
            ]
            return
        if op == "join" and not payload.get("park"):
            return  # nothing parked: the matches returned to the master
        if op in self._JOURNALED_OPS:
            journal.append((op, key, payload))

    @staticmethod
    def _is_transport_failure(error: BaseException) -> bool:
        """Worker-death/hang failures (recoverable), vs real op errors."""
        return isinstance(error, (BrokenProcessPool, _FuturesTimeout, OSError))

    def _run_local(self, worker: int, op: str, key: int,
                   payload: Dict[str, Any]) -> Tuple[Any, float]:
        """Execute inline on a demoted worker slot (the degraded mode)."""
        started = time.perf_counter()
        result = self._local[worker].execute(op, key, payload)
        return result, time.perf_counter() - started

    def _deadline(self, ops: int) -> Optional[float]:
        """The supervised wait for a submission of ``ops`` ops."""
        timeout = self._fault.op_timeout_s
        return None if timeout is None else timeout * max(1, ops)

    def _recover(self, worker: int) -> None:
        """Respawn one worker and replay its install log (or degrade).

        Loops because the replacement can die during replay (a persisted
        chaos plan): each attempt burns one respawn from the budget until
        replay completes or the slot degrades to in-process execution.
        """
        started = time.perf_counter()
        try:
            while True:
                old = self._pools[worker]
                if old is not None:
                    # a hung (timed-out) worker won't exit on its own
                    for process in getattr(old, "_processes", {}).values():
                        try:
                            process.kill()
                        except Exception:  # pragma: no cover - already dead
                            pass
                    old.shutdown(wait=False)
                    self._pools[worker] = None
                self._respawns[worker] += 1
                self.lifecycle.respawns += 1
                if self.tracer.enabled:
                    self.tracer.event(
                        "respawn",
                        worker=worker,
                        attempt=self._respawns[worker],
                        journal_ops=len(self._journals[worker]),
                    )
                if self._respawns[worker] > self._fault.max_respawns:
                    self._degrade(worker)
                    return
                pool = self._spawn_pool(worker, respawn=True)
                journal = self._journals[worker]
                try:
                    pool.submit(_mp_ready).result(timeout=self._deadline(1))
                    if journal:
                        pool.submit(_mp_execute_fused, journal).result(
                            timeout=self._deadline(len(journal))
                        )
                except Exception as error:
                    pool.shutdown(wait=False)
                    if not self._is_transport_failure(error):
                        raise
                    continue  # died again mid-replay: next respawn attempt
                self._pools[worker] = pool
                self._generation[worker] += 1
                return
        finally:
            self.recovery_seconds += time.perf_counter() - started

    def _degrade(self, worker: int) -> None:
        """Demote one slot to an in-process shard seeded from its log."""
        if not self._fault.degrade_to_serial:
            raise RuntimeError(
                f"worker {worker} failed more than max_respawns="
                f"{self._fault.max_respawns} times"
            )
        shard = ShardWorker(None, self._index, self._gamma)
        for op, key, payload in self._journals[worker]:
            shard.execute(op, key, payload)
        self._local[worker] = shard
        self._generation[worker] += 1
        self.lifecycle.degraded_workers += 1
        if self.tracer.enabled:
            self.tracer.event(
                "degrade", worker=worker, replayed_ops=len(self._journals[worker])
            )
        if not self._degrade_warned:
            self._degrade_warned = True
            warnings.warn(
                "multiprocess worker(s) exhausted their respawn budget; "
                "degrading the affected shard(s) to in-process serial "
                "execution for the rest of this backend's lifetime",
                RuntimeWarning,
                stacklevel=2,
            )

    # ------------------------------------------------------------------
    # dispatch: one round trip per worker per batch
    # ------------------------------------------------------------------
    @staticmethod
    def _worker_groups(requests: Sequence[Request]) -> Dict[int, List[int]]:
        """Request positions grouped by worker, original order preserved."""
        groups: Dict[int, List[int]] = {}
        for position, request in enumerate(requests):
            groups.setdefault(request[0], []).append(position)
        return groups

    def _submit_fused(self, worker: int,
                      elements: List[Tuple[str, int, Dict[str, Any]]]):
        """Dispatch one worker's element list; returns a handle to collect.

        Demoted slots execute inline immediately — every earlier op of a
        demoted worker already ran inline, so in-order semantics hold.  A
        supervised pool found broken at submit (its worker died during an
        uncollected fire-and-forget batch) yields a failed handle, so
        :meth:`_collect_fused` recovers it like any other crash.
        """
        if worker in self._local:
            return (
                "local",
                [
                    self._run_local(worker, op, key, payload)
                    for op, key, payload in elements
                ],
            )
        try:
            future = self._pools[worker].submit(_mp_execute_fused, elements)
        except BrokenProcessPool as error:
            if self._fault is None:
                raise
            future = Future()
            future.set_exception(error)
        return self._generation[worker], future

    def _collect_fused(self, worker: int,
                       elements: List[Tuple[str, int, Dict[str, Any]]],
                       handle) -> List[Tuple[Any, float]]:
        """Await one worker's batch; supervised, recover and retry on failure.

        The whole batch is the retry unit: a worker that died mid-batch
        discarded every partial effect with its process, and nothing of the
        batch was journaled yet, so respawn + log replay + full-batch retry
        applies each element exactly once.  The deadline scales with the
        element count.  Unsupervised, any failure propagates.
        """
        tag, future = handle
        if tag == "local":
            return future
        if self._fault is None:
            return future.result()
        generation = tag
        deadline = self._deadline(len(elements))
        attempts = 0
        while True:
            try:
                return future.result(timeout=deadline)
            except Exception as error:
                if not self._is_transport_failure(error):
                    raise  # a real op error: supervision must not mask bugs
                if isinstance(error, _FuturesTimeout):
                    self.lifecycle.timeouts += 1
                    if self.tracer.enabled:
                        self.tracer.event(
                            "timeout", worker=worker, ops=len(elements)
                        )
                if worker not in self._local and (
                    generation == self._generation[worker]
                ):
                    self._recover(worker)
                if worker in self._local:
                    return [
                        self._run_local(worker, op, key, payload)
                        for op, key, payload in elements
                    ]
                attempts += 1
                if attempts > self._fault.max_retries:
                    raise
                self.lifecycle.retries += 1
                if self.tracer.enabled:
                    self.tracer.event(
                        "retry",
                        worker=worker,
                        ops=len(elements),
                        attempt=attempts,
                    )
                time.sleep(self._fault.backoff_base * (2 ** (attempts - 1)))
                generation = self._generation[worker]
                future = self._pools[worker].submit(
                    _mp_execute_fused, elements
                )

    # ------------------------------------------------------------------
    def _dispatch(
        self, step, requests: Sequence[Request], wait: bool = True
    ) -> List[Any]:
        """Run one batch: stage, submit per worker, collect, settle per op.

        Each collected op is charged to ``step`` (metered) or traced
        (``step=None``), then accounted into the ledger and journaled.
        """
        requests = list(requests)
        staged, pack = requests, None
        if wait and self._fault is None:
            # large arrays ride a payload segment.  Not fire-and-forget
            # batches (drops carry no arrays, and the segment must outlive
            # the worker's resolve); not supervised ones (a journal replay
            # could not reconstruct an unlinked segment, while pickled
            # payloads are fully replayable)
            staged, pack = _stage_payloads(requests)
        try:
            groups = self._worker_groups(requests)
            elements = {
                worker: [staged[p][1:] for p in positions]
                for worker, positions in groups.items()
            }
            handles = {
                worker: self._submit_fused(worker, elements[worker])
                for worker in groups
            }
            if not wait:
                # fire-and-forget is only used for idempotent releases
                # (drops); journaling at submit time is safe for those, and
                # replay keeps the submit order, so a lost drop is
                # re-applied on recovery
                for worker, op, key, payload in requests:
                    self._journal(worker, op, key, payload)
                return []
            results: List[Any] = [None] * len(requests)
            for worker, positions in groups.items():
                outcomes = self._collect_fused(
                    worker, elements[worker], handles[worker]
                )
                for position, (result, seconds) in zip(positions, outcomes):
                    _, op, key, payload = requests[position]
                    if step is not None:
                        step.charge(worker, seconds, op)
                    elif self.tracer.enabled:
                        self.tracer.worker_op(worker, op, seconds)
                    _account(self, op, payload, result)
                    self._journal(worker, op, key, payload)
                    results[position] = result
            return results
        finally:
            if pack is not None:
                pack.close()

    def run_superstep(self, step, requests: Sequence[Request]) -> List[Any]:
        before = self.recovery_seconds
        results = self._dispatch(step, requests)
        if self.recovery_seconds > before:
            step.recover(self.recovery_seconds - before)
        return results

    def run_unmetered(
        self, requests: Sequence[Request], wait: bool = True
    ) -> List[Any]:
        return self._dispatch(None, requests, wait)

    def shutdown(self) -> None:
        """Release pools, journals and shared memory (fully idempotent).

        Safe on a partially-constructed backend (the ``__init__`` failure
        path) and on repeated calls — ``LifecycleCounters.shutdowns``
        increments exactly once.
        """
        if getattr(self, "_down", False):
            return
        self._down = True
        self.lifecycle.shutdowns += 1
        for pool in getattr(self, "_pools", []):
            if pool is not None:
                pool.shutdown(wait=True)
        self._pools = []
        self._local = {}
        self._journals = [[] for _ in range(self.num_workers)]
        if getattr(self, "buffers", None) is not None:
            self.buffers.close()

    def __del__(self) -> None:  # pragma: no cover - GC safety net
        try:
            self.shutdown()
        except Exception:
            pass


def make_backend(
    name: str,
    num_workers: int,
    graph: Optional[Graph],
    index: Optional[GraphIndex],
    gamma: Sequence[str],
    fault: Any = "auto",
    tracer: Any = NULL_TRACER,
) -> ExecutionBackend:
    """Instantiate a backend by config name (``serial`` | ``multiprocess``).

    ``graph``/``index`` may both be ``None`` for graph-free work (the cover
    phase); discovery and enforcement pass the frozen index so multiprocess
    workers can attach it via shared memory.

    ``fault`` is the supervision policy (a :class:`~repro.core.config.
    FaultConfig`, or ``None`` to disable).  The default ``"auto"`` follows
    the environment: supervision turns on — with the injected plan — when
    ``REPRO_FAULT_PLAN`` is set, so the chaos CI job covers call sites that
    never mention faults.  The serial backend ignores it (in-process
    execution cannot lose a worker).

    ``tracer`` wires a :class:`repro.obs.Tracer` into the backend (and
    should match the cluster's): construction/supervision emit typed
    events and unmetered batches emit worker-lane op spans.  The default
    ``NULL_TRACER`` keeps every hook a no-op.
    """
    if fault == "auto":
        fault = _default_fault()
    if name == "serial":
        return SerialBackend(num_workers, graph, index, gamma, tracer=tracer)
    if name == "multiprocess":
        return MultiprocessBackend(
            num_workers,
            index,
            gamma,
            fault=fault,
            tracer=tracer,
        )
    raise ValueError(
        f"unknown parallel backend {name!r} (expected one of {BACKEND_NAMES})"
    )
