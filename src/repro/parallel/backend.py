"""Execution backends for ``ParDis``/``ParCover``/enforcement — in-process
workers or real processes.

``ParDis`` (Section 6.2) is a BSP algorithm: per superstep, the master sends
each worker a batch of shard-local tasks (incremental joins, boolean-mask
lattice validation, tally collection) and aggregates the small results.  The
engine expresses every worker-side operation as an *op* on a
:class:`ShardWorker` — a worker's private state: its match-table shard per
verified pattern, its lattice mask store, its resident enforcement tables
and its cover-phase rule set — and delegates execution to a backend:

* :class:`SerialBackend` runs the same ops inline in the master process
  (deterministic and dependency-free, the default).
* :class:`MultiprocessBackend` runs each worker as a dedicated
  single-process :class:`~concurrent.futures.ProcessPoolExecutor` (one pool
  per worker gives task→worker affinity, which the shard state requires).
  The frozen :class:`~repro.graph.index.GraphIndex` is shipped **once**:
  workers mmap-attach its store file when a valid one exists, otherwise
  attach one ``multiprocessing.shared_memory`` segment of its flat numpy
  buffers — zero-copy either way.  A platform without shared memory cannot
  run this backend (construction raises).

A superstep is one :meth:`ExecutionBackend.run_superstep` call: the backend
counts it, and a traced run sees it as one ``superstep`` span with each op
on its worker's lane.  Nothing is modeled or timed for accounting: the
:class:`TransferLedger` counts the match rows that cross the master
boundary and the :class:`WorkLedger` each worker's exact work (ops, rows
installed and joined, implication units, enforcement rows), both read off
the payloads and results the master already handles.  Real wall-clock lives
in ``DiscoveryResult.stats.elapsed_seconds``.

Both backends execute the same op implementations under the same protocol,
so the discovered GFD sets, the ledgers and the superstep counts are
identical by construction — the randomized differential harness
(``tests/test_differential.py``) asserts the first, ``tests/test_backend.py``
the others.  The backends differ only in transport and recovery.

Shared-memory lifecycle: the master owns the segment (created in
:class:`SharedIndexBuffers`), workers attach without tracking (so the
resource tracker never double-unlinks), and :meth:`MultiprocessBackend.
shutdown` joins the pools, closes and unlinks.  ``tests/test_backend.py``
asserts no segment survives a shutdown.

Bulk data stays worker-resident by design: join results are *parked*
worker-side on every backend (only a skewed join is fetched through the
master, re-dealt in whole pivot groups and shipped back out), and
enforcement match tables persist in the workers across
:meth:`~repro.enforce.engine.EnforcementEngine.refresh` calls.  The
:class:`TransferLedger` on every backend counts exactly which match rows
cross the master boundary, so tests and benchmarks can *prove* that only
manifests and scalars travel.

One transport: a batch's requests are grouped by worker and each worker's
whole op sequence travels as **one** ``_mp_execute_fused`` submission — one
pickle each way per worker — while tracing, ledger accounting and
journaling stay per op.  Large array payloads (install matches, enforcement
deltas) route through a per-batch shared-memory segment instead of
the pickle channel, and an index refresh ships only the changed arrays.
Supervision (a :class:`~repro.core.config.FaultConfig`) is a failure policy
on this one transport, not a second route: it decides the journal, the
deadline, the retry, the respawn and the degradation, nothing else.
"""

from __future__ import annotations

import itertools
import pickle
import time
import warnings
from concurrent.futures import Future, ProcessPoolExecutor
from concurrent.futures import TimeoutError as _FuturesTimeout
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
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
    "WorkLedger",
    "LifecycleCounters",
    "make_backend",
    "next_node_key",
    "RowStore",
    "shared_memory_available",
]

#: Recognized values of ``DiscoveryConfig.parallel_backend``.
BACKEND_NAMES = ("serial", "multiprocess")

#: One superstep request: ``(worker, op name, pattern node key, payload)``.
Request = Tuple[int, str, int, Dict[str, Any]]

#: A request as its worker receives it: ``(op name, key, payload)``.
Element = Tuple[str, int, Dict[str, Any]]

#: Worker-state keys are unique across every engine in this master process,
#: so engines sharing one backend never collide on worker state.
_NODE_KEYS = itertools.count()


def next_node_key() -> int:
    """A fresh process-wide worker-state key (pattern node, Σ slot, ...)."""
    return next(_NODE_KEYS)


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
            (joins fetched for a rebalance, violating rows of enforcement
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
class WorkLedger:
    """Supersteps and each worker's work, counted exactly per backend.

    Filled from the payloads and results the master already handles — no
    op reports anything extra and nothing is timed — so the counts are the
    same on every backend and every run.  Parallel scalability reads off
    them: the largest per-worker entry falls as workers are added while the
    total stays put.

    Attributes:
        supersteps: :meth:`ExecutionBackend.run_superstep` calls.
        ops: ops run, per worker.
        rows_installed: match-table rows installed (``install``'s row count).
        rows_joined: rows produced by incremental joins (the sum of
            ``join``'s per-extension counts).
        implication_units: implication work in (tested rule, premise rule)
            pairs — the paper's LPT weight: an ``implication_batch`` unit
            ``(group, embedded)`` counts ``|group| × |embedded|``, a
            ``cover_probe`` index the whole ``|Σ|`` it is checked against.
        enforce_rows: match rows an ``enforce_install`` installs.
    """

    #: The per-worker count lists, in :meth:`as_dict` order.
    PER_WORKER = (
        "ops", "rows_installed", "rows_joined", "implication_units",
        "enforce_rows",
    )

    supersteps: int = 0
    ops: List[int] = field(default_factory=list)
    rows_installed: List[int] = field(default_factory=list)
    rows_joined: List[int] = field(default_factory=list)
    implication_units: List[int] = field(default_factory=list)
    enforce_rows: List[int] = field(default_factory=list)
    # |Σ| per live cover key, for weighting ``cover_probe`` indices
    _sigma_sizes: Dict[int, int] = field(
        default_factory=dict, repr=False, compare=False
    )

    @classmethod
    def for_workers(cls, num_workers: int) -> "WorkLedger":
        """An all-zero ledger of ``num_workers`` workers."""
        return cls(0, *([0] * num_workers for _ in cls.PER_WORKER))

    def record(self, worker: int, op: str, key: int,
               payload: Dict[str, Any], result: Any) -> None:
        """Count one executed op of ``worker``."""
        self.ops[worker] += 1
        if op == "install":
            self.rows_installed[worker] += result[0]
        elif op == "join":
            self.rows_joined[worker] += sum(part[1] for part in result)
        elif op == "implication_batch":
            self.implication_units[worker] += sum(
                len(group) * len(embedded) for group, embedded in payload["units"]
            )
        elif op == "cover_probe":
            self.implication_units[worker] += (
                len(payload["indices"]) * self._sigma_sizes[key]
            )
        elif op == "enforce_install":
            self.enforce_rows[worker] += _rows_in(payload["matches"])
        elif op == "sigma":
            self._sigma_sizes[key] = len(payload["sigma"])
        elif op == "drop_sigma":
            self._sigma_sizes.pop(key, None)

    def snapshot(self) -> "WorkLedger":
        """An independent copy (for before/after deltas)."""
        return WorkLedger(
            self.supersteps,
            *(list(getattr(self, name)) for name in self.PER_WORKER),
        )

    def since(self, before: "WorkLedger") -> "WorkLedger":
        """The work counted after the snapshot ``before`` was taken."""
        return WorkLedger(
            self.supersteps - before.supersteps,
            *(
                [now - then for now, then in zip(
                    getattr(self, name), getattr(before, name)
                )]
                for name in self.PER_WORKER
            ),
        )

    def as_dict(self) -> Dict[str, List[int]]:
        """The per-worker lists, by name (JSON-friendly)."""
        return {name: list(getattr(self, name)) for name in self.PER_WORKER}


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
    shutdowns: int = 0
    timeouts: int = 0
    retries: int = 0
    respawns: int = 0
    degraded_workers: int = 0


def _spare(rows: int) -> int:
    """The slot capacity a :class:`RowStore` allocates for ``rows`` rows."""
    return rows + (rows >> 3) + 8


class RowStore:
    """One enforcement shard's match rows, spliced by slot position.

    Rows live in slots ``[0, size)`` of a buffer with spare capacity.  A
    dropped row becomes a tombstone (its slot stays, ``alive`` clears),
    appended rows fill the spare slots, and only an append that does not
    fit compacts the buffer: tombstones are squeezed out in slot order and
    the new buffer keeps 1/8 spare, so splices cost the rows they touch,
    amortized.  Slots are a deterministic function of the splice sequence,
    so the master's mirror of a shard, the worker's shard and a respawned
    worker replaying its journal agree slot for slot.  The store owns its
    buffer: rows handed in are copied, never aliased.
    """

    __slots__ = ("rows", "alive", "size")

    def __init__(self, rows: np.ndarray) -> None:
        count, width = rows.shape
        self.rows = np.empty((_spare(count), width), dtype=np.int64)
        self.rows[:count] = rows
        self.alive = np.zeros(self.rows.shape[0], dtype=bool)
        self.alive[:count] = True
        self.size = count

    def live(self) -> np.ndarray:
        """The live rows in slot order (a copy)."""
        return self.rows[:self.size][self.alive[:self.size]]

    def drop(self, slots: np.ndarray) -> None:
        """Tombstone live ``slots``."""
        self.alive[slots] = False

    def append(self, rows: np.ndarray) -> Optional[np.ndarray]:
        """Fill the next free slots with ``rows``.

        Returns ``None``, or — when the append compacted the buffer first —
        the old slots of the surviving rows, sorted: a survivor's new slot
        is its position in that array.
        """
        count = rows.shape[0]
        survivors = None
        if self.size + count > self.rows.shape[0]:
            survivors = np.flatnonzero(self.alive[:self.size])
            kept = survivors.size
            buffer = np.empty((_spare(kept + count), self.rows.shape[1]),
                              dtype=np.int64)
            buffer[:kept] = self.rows[survivors]
            self.rows = buffer
            self.alive = np.zeros(buffer.shape[0], dtype=bool)
            self.alive[:kept] = True
            self.size = kept
        self.rows[self.size:self.size + count] = rows
        self.alive[self.size:self.size + count] = True
        self.size += count
        return survivors

    def hits(self, kinds: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Live slots a delta reaches, as ``(drop, rejudge)`` sorted slots.

        ``kinds`` maps a node id to 2 (structural), 1 (attribute-only) or
        0 (untouched).  A row holding a structural node is dropped; one
        holding only attribute-only touched nodes is re-judged.
        """
        rows = self.rows[:self.size]
        worst = kinds[rows[:, 0]]
        for column in range(1, rows.shape[1]):
            np.maximum(worst, kinds[rows[:, column]], out=worst)
        slots = worst.nonzero()[0]
        if slots.size:
            slots = slots[self.alive[slots]]
            worst = worst[slots]
            return slots[worst == 2], slots[worst == 1]
        return slots, slots


def _contains(values: np.ndarray, members: np.ndarray) -> np.ndarray:
    """Which of ``values`` occur in the sorted array ``members`` (bool mask)."""
    if not members.size:
        return np.zeros(values.size, dtype=bool)
    at = np.searchsorted(members, values)
    at[at == members.size] = 0
    return members[at] == values


def _rows_in(matches: Optional[np.ndarray]) -> int:
    """Row count of a matches payload (an ``(N, vars)`` array or ``None``)."""
    return 0 if matches is None else int(matches.shape[0])


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
    if op == "fetch_join":
        return _rows_in(result)
    if op in ("enforce_install", "enforce_update", "enforce_results"):
        return sum(_rows_in(part[2]) for part in result if part is not None)
    return 0


def _adopted_key(entry: Element) -> Optional[int]:
    """The key whose parked join an install-log entry adopts, if any."""
    op, _, payload = entry
    adopt = payload.get("adopt") if op == "install" else None
    return None if adopt is None else adopt[0]


def _account(backend: "ExecutionBackend", worker: int, op: str, key: int,
             payload: Dict[str, Any], result: Any) -> None:
    """Count one executed op (with its result) in the backend's ledgers."""
    backend.work.record(worker, op, key, payload, result)
    ledger = backend.transfers
    ledger.rows_to_workers += _payload_rows(op, payload)
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
    worker; results are counts.  A join parks its rows here too, until the
    child's install adopts them.  The serial backend keeps ``n`` of these
    in-process; the multiprocess backend keeps one per worker process,
    built around the attached (detached) graph index; both send them the
    same ops.

    Two further state families live here so *their* bulk data also stays
    worker-resident: the cover phase's rule set ``Σ`` plus its amortized
    :class:`~repro.gfd.implication.ImplicationChecker` (``op_sigma`` /
    ``op_implication_batch`` / ``op_cover_probe``), and the enforcement
    engine's persistent per-group match shards with each rule's violating
    slots (``op_enforce_install`` / ``op_enforce_update``).

    Worker state belongs to the engine that made it: keys come from the
    process-wide :func:`next_node_key`, and each engine releases only its
    own (discovery ``drop`` / ``drop_store``, cover ``drop_sigma``,
    enforcement ``enforce_drop``).  No op clears another engine's state.
    """

    def __init__(
        self, graph: Optional[Graph], index: Optional[GraphIndex]
    ) -> None:
        self.graph = graph
        self.index = index
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
        # enforcement residency: key -> {"pattern", "rules", "cap", "store",
        # "violating"} where store is the resident RowStore shard and
        # violating holds, per rule offset, the sorted slots that violate it
        self.enforce_state: Dict[int, Dict[str, Any]] = {}

    # ------------------------------------------------------------------
    def execute(self, op: str, key: int, payload: Dict[str, Any]) -> Any:
        """Dispatch one op."""
        return getattr(self, f"op_{op}")(key, payload)

    # -- VSpawn ---------------------------------------------------------
    def op_install(self, key: int, payload: Dict[str, Any]) -> Tuple:
        """Build this worker's match-table shard (+ column statistics).

        The shard keeps only its pivot-sorted match array.  The value/
        agreement counts feed the master's alphabet generation, saving a
        dedicated round per pattern (only collected when the pattern will
        be mined); :meth:`MatchTable.alphabet_counts` computes both in one
        pass that gathers each column once and drops it.  Value counts
        travel as the two integer arrays of
        :meth:`MatchTable.constant_code_counts` — codes are graph-global on
        the index, so the master merges and decodes only the few values it
        keeps.  ``payload["gamma"]`` carries the engine's active
        attributes Γ.

        The rows come from ``payload["matches"]``, from the parked join
        ``payload["adopt"]`` names, or — with ``payload["resident"]`` — from
        this worker's own table under ``key``: a kept table re-bound to the
        worker's current index, so its statistics read the current
        attribute values.
        """
        adopt = payload.get("adopt")
        if adopt is not None:
            matches = self.joins.pop(adopt)
        elif payload.get("resident"):
            matches = self.tables[key].match_array
        else:
            matches = payload["matches"]
        table = MatchTable(
            self.graph,
            payload["pattern"],
            matches,
            payload["gamma"],
            index=self.index,
        )
        self.tables[key] = table
        values = None
        agreements: Dict = {}
        if payload["mined"]:
            values, agreements = table.alphabet_counts(
                payload["same_attr_only"] if payload["want_variable"] else None
            )
        return table.num_rows, values, agreements

    def op_tally(self, key: int, payload: Dict[str, Any]):
        """This shard's extension tallies as shippable counts."""
        table = self.tables[key]
        return extension_counts(
            self.graph,
            table.pattern,
            table.match_array,
            payload["can_add"],
            index=self.index,
        )

    def op_join(self, key: int, payload: Dict[str, Any]) -> List[Tuple]:
        """Join this shard with every extension edge of one parent.

        The joined matches stay here under ``(parent key, position)`` — the
        slot a later install adopts, or a rebalance fetches — and only
        ``(local support, count, hit_cap)`` per extension travels back;
        ``cap`` bounds the per-shard join (``config.max_matches_per_pattern``
        enforcement — the master combines the flags into the global
        truncation verdict).
        """
        parent_matches = self.tables[key].match_array
        cap = payload["cap"]
        results: List[Tuple] = []
        for position, (extension, pivot_var) in enumerate(payload["extensions"]):
            matches = extend_matches(
                self.graph,
                parent_matches,
                extension,
                max_matches=cap,
                index=self.index,
            )
            count = int(matches.shape[0])
            support = int(np.unique(matches[:, pivot_var]).size) if count else 0
            self.joins[(key, position)] = matches
            results.append((support, count, cap is not None and count >= cap))
        return results

    def op_fetch_join(self, key: int, payload: Dict[str, Any]):
        """Surrender one parked join result to the master (for rebalancing)."""
        return self.joins.pop((key, payload["position"]))

    # -- HSpawn ---------------------------------------------------------
    def op_scan(self, key: int, payload: Dict[str, Any]) -> Tuple[List[int], List[int]]:
        """Per-literal row counts and local distinct-pivot supports.

        Also opens this pattern's mask store (id 0 = every row) and keeps
        the surviving literals' row bitsets for the lattice levels.
        :meth:`MatchTable.literal_bits` gathers only the columns those
        literals read, once each; the columns and the packed stack are
        dropped on return.
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
    def _verdicts(
        self, pattern: Any, rows: np.ndarray, rules: Sequence[Tuple]
    ) -> List[np.ndarray]:
        """Per rule, the violation verdict of each of ``rows``, in their order.

        A :class:`MatchTable` reads only the columns the rules' literals
        name and keeps its rows pivot-sorted, so unsorted rows go in sorted
        and the verdicts come back in the caller's order.
        """
        pivots = rows[:, pattern.pivot]
        order = None
        if bool((pivots[1:] < pivots[:-1]).any()):
            order = np.argsort(pivots, kind="stable")
            rows = rows[order]
        table = MatchTable(self.graph, pattern, rows, (), index=self.index)
        verdicts = [table.violation_mask(lhs, rhs) for lhs, rhs in rules]
        if order is not None:
            for offset, sorted_verdict in enumerate(verdicts):
                verdict = np.empty_like(sorted_verdict)
                verdict[order] = sorted_verdict
                verdicts[offset] = verdict
        return verdicts

    @staticmethod
    def _rule_result(state: Dict[str, Any], offset: int) -> Tuple:
        """One rule's ``(count, node ids, violating rows, truncated)``.

        O(violations): read off the rule's violating slots.  The count is
        always exact; with the per-rule violation cap (``state["cap"]``)
        only the first ``cap`` violating slots of this shard are gathered —
        the graceful-degradation mode for adversarial rules whose violation
        set is the whole match table — and ``truncated`` flags that the
        node set and witness rows cover a subset.  The master merges across
        shards.
        """
        slots = state["violating"][offset]
        count = int(slots.size)
        cap = state["cap"]
        truncated = cap is not None and count > cap
        if truncated:
            slots = slots[:cap]
        violating = state["store"].rows[slots]
        nodes = (
            np.unique(violating)
            if violating.size
            else np.empty(0, dtype=np.int64)
        )
        return (count, nodes, violating, truncated)

    def op_enforce_install(self, key: int, payload: Dict[str, Any]) -> List[Tuple]:
        """Install one pattern group's match shard and evaluate its rules.

        ``payload["rules"]`` entries are ``(lhs literals, rhs literal or
        None)`` over the *canonical* pattern variables (``None`` = negative
        GFD) and ``payload["cap"]`` the optional per-rule violation cap.
        The shard keeps ``payload["matches"]`` in the order given (slot
        ``i`` = row ``i``, the master mirrors it) as a :class:`RowStore`,
        plus each rule's violating slots, so later
        :meth:`op_enforce_update` calls splice deltas by slot instead of
        receiving the world again.  Returns every rule's
        :meth:`_rule_result`.
        """
        rules = list(payload["rules"])
        rows = payload["matches"]
        state = {
            "pattern": payload["pattern"],
            "rules": rules,
            "cap": payload.get("cap"),
            "store": RowStore(rows),
            "violating": [
                np.flatnonzero(verdict)
                for verdict in self._verdicts(payload["pattern"], rows, rules)
            ],
        }
        self.enforce_state[key] = state
        return [self._rule_result(state, offset) for offset in range(len(rules))]

    def op_enforce_update(
        self, key: int, payload: Dict[str, Any]
    ) -> List[Optional[Tuple]]:
        """Splice a delta into a resident group, by slot, and re-judge.

        The master found the slots its delta reaches on its mirror of this
        shard: ``payload["drop"]`` holds the live slots with a structurally
        touched node (tombstoned), ``payload["rejudge"]`` the live slots
        whose touched nodes only had attributes written (kept in place,
        their verdicts recomputed against the worker's current index from
        the columns the rules read), and ``payload["fresh"]`` this shard's
        slice of the re-derived matches (appended; only those rows cross
        the process boundary).  Every other slot's verdicts stand: its row
        contains no touched node and a literal reads only the match's own
        nodes.

        Returns, per rule, :meth:`_rule_result` if its violating slots
        changed and ``None`` if they did not — an unchanged rule ships no
        rows, and the master keeps its previous report entry.  Whether a
        set changed is judged against this worker's own prior verdicts; a
        respawned worker replays its journal against the *current* index,
        so after a recovery the master re-reads the groups it updated with
        :meth:`op_enforce_results`.
        """
        state = self.enforce_state[key]
        store, violating = state["store"], state["violating"]
        changed = [False] * len(violating)
        drop = payload["drop"]
        if drop.size:
            store.drop(drop)
            for offset, slots in enumerate(violating):
                gone = _contains(slots, drop)
                if gone.any():
                    violating[offset] = slots[~gone]
                    changed[offset] = True
        rejudge = payload["rejudge"]
        if rejudge.size:
            verdicts = self._verdicts(
                state["pattern"], store.rows[rejudge], state["rules"]
            )
            for offset, verdict in enumerate(verdicts):
                slots = violating[offset]
                if np.array_equal(_contains(rejudge, slots), verdict):
                    continue
                violating[offset] = np.union1d(
                    slots[~_contains(slots, rejudge)], rejudge[verdict]
                )
                changed[offset] = True
        fresh = payload["fresh"]
        if fresh.shape[0]:
            survivors = store.append(fresh)
            if survivors is not None:
                violating[:] = [
                    np.searchsorted(survivors, slots) for slots in violating
                ]
            first = store.size - fresh.shape[0]
            verdicts = self._verdicts(state["pattern"], fresh, state["rules"])
            for offset, verdict in enumerate(verdicts):
                added = np.flatnonzero(verdict)
                if added.size:
                    violating[offset] = np.concatenate(
                        [violating[offset], added + first]
                    )
                    changed[offset] = True
        return [
            self._rule_result(state, offset) if moved else None
            for offset, moved in enumerate(changed)
        ]

    def op_enforce_results(self, key: int, payload: Dict[str, Any]) -> List[Tuple]:
        """Every rule's :meth:`_rule_result` of one resident group (read-only)."""
        state = self.enforce_state[key]
        return [
            self._rule_result(state, offset)
            for offset in range(len(state["rules"]))
        ]

    def op_enforce_drop(self, key: int, payload: Dict[str, Any]) -> None:
        """Release one resident enforcement group."""
        self.enforce_state.pop(key, None)
        return None

    # -- cover phase (ParCover / ParCovern) ------------------------------
    def op_sigma(self, key: int, payload: Dict[str, Any]) -> int:
        """Receive the cover phase's rule set ``Σ`` (broadcast once).

        The worker keeps ``Σ`` and one :class:`ImplicationChecker` over it
        until ``op_drop_sigma``; the checker's instantiated rules are shared
        by every implication test of this worker's batch, so repeated chases
        over one pattern skip embedding enumeration — the amortization
        ``SeqCover`` enjoys, now per worker.
        """
        sigma = list(payload["sigma"])
        self.sigmas[key] = sigma
        self.checkers[key] = ImplicationChecker(sigma)
        return len(sigma)

    def op_implication_batch(
        self, key: int, payload: Dict[str, Any]
    ) -> List[int]:
        """``ParImp`` over a batch of work units ``(group, embedded)``.

        Each unit is greedily reduced in isolation (Lemma 6 independence);
        only the removed Σ-indices return to the master.  The checker first
        instantiates ``Σ_Q`` for every group member's pattern ``Q`` of the
        batch in one embedding-kernel call.
        """
        sigma = self.sigmas[key]
        checker = self.checkers[key]
        checker.instantiate(
            sigma[index].pattern for group, _ in payload["units"] for index in group
        )
        removed: List[int] = []
        for group, embedded in payload["units"]:
            removed.extend(
                greedy_group_elimination(sigma, group, embedded, checker=checker)
            )
        return removed

    def op_cover_probe(self, key: int, payload: Dict[str, Any]) -> List[Tuple[int, bool]]:
        """Leave-one-out implication verdicts for ``ParCovern``.

        For each Σ-index the worker tests ``Σ \\ {φ_index} ⊨ φ_index``
        against the full remainder (no grouping — the paper's baseline);
        verdicts are booleans, reconciled sequentially by the master.
        """
        checker = self.checkers[key]
        sigma = self.sigmas[key]
        checker.instantiate(sigma[index].pattern for index in payload["indices"])
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


# ----------------------------------------------------------------------
# backends
# ----------------------------------------------------------------------
class ExecutionBackend:
    """Executes superstep request batches against ``n`` shard workers.

    Every backend runs the same op protocol; they differ only in transport
    (inline calls, pickled submissions, staged payloads) and recovery.
    """

    name: str = "abstract"
    num_workers: int = 0
    #: Identity of the graph snapshot the workers were built around; an
    #: engine refuses to run on a backend holding a different snapshot.
    source_token: Tuple = ()
    #: Match rows that crossed the master boundary (see
    #: :class:`TransferLedger`); every run method accounts into this.
    transfers: TransferLedger
    #: Supersteps and per-worker work (see :class:`WorkLedger`); every run
    #: method accounts into this too.
    work: WorkLedger
    #: Resource-lifecycle events (pool starts, index attaches/refreshes);
    #: see :class:`LifecycleCounters` — what ``Session.metrics()`` reads.
    lifecycle: LifecycleCounters
    #: Wall-clock seconds spent in worker recovery (respawn + install-log
    #: replay); 0.0 on fault-free runs and on the serial backend.
    recovery_seconds: float = 0.0
    #: The session tracer (``NULL_TRACER`` unless a traced session wired
    #: one in).  Backends emit typed events (timeouts, retries, respawns,
    #: degradations, index refreshes, janitor sweeps), ``superstep`` spans
    #: and a worker-lane span per op.  Hot paths guard on
    #: ``tracer.enabled``.
    tracer: Any = NULL_TRACER

    def run_superstep(self, requests: Sequence[Request]) -> List[Any]:
        """Run one BSP round of requests; results align with the batch.

        The one place a superstep happens: it is counted in
        ``work.supersteps`` and, traced, opens a ``superstep`` span whose
        ops stack end to end on their workers' lanes.
        """
        tracer = self.tracer
        span = (
            tracer.begin(f"superstep {self.work.supersteps}", "superstep")
            if tracer.enabled
            else None
        )
        self.work.supersteps += 1
        try:
            return self._run_batch(requests, True)
        finally:
            if span is not None:
                tracer.end(span)

    def run_unmetered(
        self, requests: Sequence[Request], wait: bool = True
    ) -> List[Any]:
        """Bookkeeping ops (drops, enforcement) outside the superstep count.

        ``wait=False`` fires and forgets (single-process pools execute
        in-order, so a later op can never overtake a drop) — keeps
        per-pattern cleanup off the master's critical path.
        """
        return self._run_batch(requests, wait)

    def _run_batch(self, requests: Sequence[Request], wait: bool) -> List[Any]:
        """Execute one batch, tracing and accounting every op."""
        raise NotImplementedError

    def refresh_index(self, index: GraphIndex) -> None:
        """Swap the workers onto a new frozen index snapshot.

        Keeps all worker-resident state (notably the persistent enforcement
        tables, whose kept rows stay valid across a delta — see
        :meth:`ShardWorker.op_enforce_update`).  A match table caches no
        column, only its rows, and rows depend on labels and edges alone:
        resident discovery tables survive an attribute-only swap (a
        session's structural frontier keeps them), and each is re-bound to
        the new snapshot by an ``install`` with ``resident`` set before
        any op reads its attributes.  After a structural swap their rows
        may be stale, so their owner drops them.
        """
        raise NotImplementedError

    def shutdown(self) -> None:
        """Release every resource (processes, shared memory)."""
        raise NotImplementedError


class SerialBackend(ExecutionBackend):
    """In-process execution (the default)."""

    name = "serial"

    def __init__(
        self,
        num_workers: int,
        graph: Optional[Graph],
        index: Optional[GraphIndex],
        tracer: Any = NULL_TRACER,
    ) -> None:
        self.num_workers = num_workers
        self.tracer = tracer
        self.source_token = (id(graph), id(index))
        self.transfers = TransferLedger()
        self.work = WorkLedger.for_workers(num_workers)
        self.lifecycle = LifecycleCounters(
            pools_started=num_workers,
            index_attaches=1 if index is not None else 0,
        )
        # in-process shards share the master's index object outright
        self.index_transport = "inprocess" if index is not None else "none"
        self.workers = [ShardWorker(graph, index) for _ in range(num_workers)]

    def _run_batch(self, requests: Sequence[Request], wait: bool) -> List[Any]:
        tracer = self.tracer
        results = []
        for worker, op, key, payload in requests:
            if tracer.enabled:
                started = time.perf_counter()
                result = self.workers[worker].execute(op, key, payload)
                tracer.worker_op(worker, op, time.perf_counter() - started)
            else:
                result = self.workers[worker].execute(op, key, payload)
            _account(self, worker, op, key, payload, result)
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
        self.workers = []


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
    "enforce_update": ("drop", "rejudge", "fresh"),
}

#: Arrays below this size pickle faster than a segment round trip.
_SHM_PAYLOAD_MIN_BYTES = 32 * 1024

#: Supervised resubmissions of a failed batch (each after a respawn).
_MAX_RETRIES = 2

#: First retry delay in seconds; retry ``a`` waits ``base * 2**(a - 1)``.
_BACKOFF_BASE = 0.05

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
    _WORKER = ShardWorker(None, index)


def _mp_attach_index(spec_blob: bytes, segment_name: Optional[str]) -> bool:
    """Swap the worker process onto a new full index snapshot.

    Builds the new detached :class:`GraphIndex` first, then closes the old
    segment chain and mapping — worker-resident state (parked joins,
    enforcement shards) survives untouched; only the index views
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
    elements: Sequence[Element]
) -> List[Tuple[Any, float]]:
    """Run one worker's slice of a batch in a single round trip.

    Elements execute in order, each producing a ``(result, compute
    seconds)`` pair — the master traces, accounts and journals per
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
    alone, so a ``ParCover`` run without a graph (the ``cover`` CLI verb)
    needs processes but no index.
    Discovery and enforcement require the index (their engines enforce it).
    """

    name = "multiprocess"

    def __init__(
        self,
        num_workers: int,
        index: Optional[GraphIndex],
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
        self._fault = fault
        self._plan = (
            FaultPlan.from_json(fault.fault_plan) if fault is not None else None
        )
        self.transfers = TransferLedger()
        self.work = WorkLedger.for_workers(num_workers)
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
        self._journals: List[List[Element]] = [
            [] for _ in range(num_workers)
        ]
        self._local: Dict[int, ShardWorker] = {}
        self._degrade_warned = False
        self.recovery_seconds = 0.0
        self.buffers: Optional[_SharedArrayPack] = None
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
        # delta refreshes already folded into _base_initargs; once the
        # lifecycle count moves past it, a respawn must re-export first
        self._base_deltas = 0
        self._pools: List[Optional[ProcessPoolExecutor]] = []
        try:
            for worker in range(num_workers):
                self._pools.append(self._spawn_pool(worker, respawn=False))
            # a failed initializer breaks its pool: the wait raises
            self._call_all(_mp_ready)
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
        segment does); after delta refreshes :meth:`_rebase` re-exports.
        """
        if index is None:
            self.index_transport = "none"
            spec = {"meta": None}
            return (pickle.dumps(spec), None), None
        store_path = getattr(index, "store_path", None)
        if store_path is not None:
            from ..graph.store import snapshot_matches

            if snapshot_matches(
                store_path, index.num_nodes, index.num_edges, index.version
            ):
                self.index_transport = "mmap"
                spec = {"meta": None, "mmap_path": str(store_path)}
                return (pickle.dumps(spec), None), None
        self.index_transport = "shm"
        buffers = SharedIndexBuffers(index)
        spec = {"meta": buffers.meta, "layout": buffers.layout}
        return (pickle.dumps(spec), buffers.name), buffers

    @property
    def shm_name(self) -> Optional[str]:
        """The index segment's name (``None`` on the mmap or graph-free
        transport)."""
        return self.buffers.name if self.buffers is not None else None

    def refresh_index(self, index: GraphIndex) -> None:
        """Ship a new index snapshot to the resident worker processes.

        Only the changed arrays travel, in one short-lived segment each
        worker merges with its views (``_mp_attach_delta``), unless
        :meth:`_changed_arrays` asks for a full one, which every worker
        attaches *before* the old segment is unlinked.  Worker-resident
        match state survives — this is what lets :meth:`~repro.enforce.
        engine.EnforcementEngine.refresh` keep its persistent tables across
        graph mutations; match-row transfer stays zero.  After a delta a
        respawn re-exports the current snapshot first (:meth:`_rebase`).
        """
        if index is None:
            raise ValueError("refresh_index requires a frozen graph index")
        export = index.export_buffers()
        changed = self._changed_arrays(export)
        if changed is None:
            initargs, buffers = self._index_initargs(index)
            try:
                self._call_all(_mp_attach_index, *initargs)
            except Exception:
                if buffers is not None:
                    buffers.close()
                raise
            self._set_base(initargs, buffers)
        else:
            meta, arrays = export
            pack = _SharedArrayPack(changed)
            spec = pickle.dumps(
                {"meta": meta, "names": sorted(arrays), "layout": pack.layout}
            )
            try:
                self._call_all(_mp_attach_delta, spec, pack.name)
            finally:
                pack.close()  # every worker has attached: mappings persist
            self.lifecycle.delta_refreshes += 1
        self._index = index
        # demoted in-process shards follow the swap like serial workers do
        for shard in self._local.values():
            shard.index = index
        self.source_token = (id(index.graph), id(index))
        self._last_export = export
        self.lifecycle.index_refreshes += 1
        if self.tracer.enabled:
            if changed is None:
                self.tracer.event("index_refresh", mode="full")
            else:
                self.tracer.event(
                    "index_refresh", mode="delta", changed_arrays=len(changed)
                )

    def _call_all(self, function, *args) -> None:
        """Run one call on every live worker process and wait for all.

        Supervised, a worker found dead — killed during a fire-and-forget
        batch nobody collected — is recovered (respawned on the previous
        snapshot, its journal replayed) and the call is retried on it.
        """
        futures: Dict[int, Future] = {}
        for worker, pool in enumerate(self._pools):
            if worker in self._local:
                continue
            try:
                futures[worker] = pool.submit(function, *args)
            except BrokenProcessPool as error:
                futures[worker] = Future()
                futures[worker].set_exception(error)
        for worker, future in futures.items():
            try:
                future.result()
            except Exception as error:
                if self._fault is None or not self._is_transport_failure(error):
                    raise
                self._recover(worker)
                if worker not in self._local:
                    self._pools[worker].submit(function, *args).result()

    def _changed_arrays(self, export) -> Optional[Dict[str, np.ndarray]]:
        """Arrays that differ from the previous export, or ``None``.

        ``None`` means a full re-export is needed (a graph-free pool has no
        previous export) or the better ship: more than half the snapshot's
        bytes changed, so the delta machinery would cost as much as the
        plain path while adding a segment to the chain.  An
        unchanged array is *bytewise* equal — under the new snapshot's
        meta tables it decodes to exactly what a full export would ship,
        so reusing the worker's existing view is sound even when interned
        code tables shifted (a shifted code changes the bytes).
        """
        if self._last_export is None:
            return None
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

    # ------------------------------------------------------------------
    # supervision: journal, recovery, degradation
    # ------------------------------------------------------------------
    #: Release op -> the state-making ops whose entries of its key it
    #: retires from the install log.  Replaying the log (against the
    #: current index snapshot) rebuilds a respawned worker exactly: every
    #: op is a deterministic function of (index, state, payload).
    _RETIRES = {
        "drop": frozenset(
            {"install", "join", "fetch_join", "scan", "eval", "probe"}
        ),
        "drop_store": frozenset({"scan", "eval", "probe"}),
        "drop_sigma": frozenset({"sigma"}),
        "enforce_drop": frozenset({"enforce_install", "enforce_update"}),
    }
    #: The state-making ops.  Read-only ops (tally, implication_batch,
    #: cover_probe) are never journaled.
    _JOURNALED_OPS = frozenset().union(*_RETIRES.values())

    def _journal(self, worker: int, op: str, key: int,
                 payload: Dict[str, Any]) -> None:
        """Record one *completed* op in the worker's install log.

        Journal-on-success keeps replay + retry exactly-once (an op that
        died mid-flight was never recorded, so its retry applies it once on
        the replayed state).  One compaction rule bounds the log: a release
        op of key ``K`` retires ``K``'s entries of its family and is not
        recorded.  The one dependency is adoption: a child's ``install``
        with ``adopt=(K, position)`` replays only after ``K``'s ``install``
        and ``join``, so while a live entry adopts from ``K``, ``drop(K)``
        stays as a tombstone, and ``K``'s entries retire with its last
        adopter — transitively up to the seed.  A ``resident`` install is
        not recorded: it only re-binds a kept table to the current index,
        which replaying the table's original ``install`` (and ``join``)
        already does, so a table re-bound on every discovery does not grow
        the log.  Unsupervised backends never replay, so they keep no log.
        """
        if self._fault is None or (op == "install" and payload.get("resident")):
            return
        journal = self._journals[worker]
        family = self._RETIRES.get(op)
        if family is None:
            if op in self._JOURNALED_OPS:
                journal.append((op, key, payload))
            return
        if op == "drop" and any(_adopted_key(entry) == key for entry in journal):
            journal.append((op, key, {}))  # the tombstone
            return
        family = family | {op}
        while True:
            parent = next(
                (_adopted_key(entry) for entry in journal if entry[1] == key
                 and _adopted_key(entry) is not None),
                None,
            )
            journal[:] = [
                entry for entry in journal
                if entry[1] != key or entry[0] not in family
            ]
            # a tombstoned parent retires with its last adopter
            if not any(
                entry[0] == "drop" and entry[1] == parent for entry in journal
            ) or any(_adopted_key(entry) == parent for entry in journal):
                return
            key = parent

    @staticmethod
    def _is_transport_failure(error: BaseException) -> bool:
        """Worker-death/hang failures (recoverable), vs real op errors."""
        return isinstance(error, (BrokenProcessPool, _FuturesTimeout, OSError))

    def _run_local(self, worker: int,
                   elements: List[Element]) -> List[Tuple[Any, float]]:
        """Execute inline on a demoted worker slot (the degraded mode)."""
        outcomes = []
        for op, key, payload in elements:
            started = time.perf_counter()
            result = self._local[worker].execute(op, key, payload)
            outcomes.append((result, time.perf_counter() - started))
        return outcomes

    def _deadline(self, ops: int) -> Optional[float]:
        """The supervised wait for a submission of ``ops`` ops."""
        timeout = self._fault.op_timeout_s
        return None if timeout is None else timeout * max(1, ops)

    def _rebase(self) -> None:
        """After delta refreshes, pack the current snapshot's export into a
        fresh segment and make it what respawns attach (live workers keep
        their mappings of the old base, so unlinking it is safe)."""
        if self._base_deltas != self.lifecycle.delta_refreshes:
            meta, arrays = self._last_export
            buffers = _SharedArrayPack(arrays)
            spec = {"meta": meta, "layout": buffers.layout}
            self.index_transport = "shm"
            self._set_base((pickle.dumps(spec), buffers.name), buffers)

    def _set_base(
        self, initargs: Tuple, buffers: Optional[_SharedArrayPack]
    ) -> None:
        """Make ``initargs`` (backed by ``buffers``) the respawn snapshot."""
        old, self.buffers = self.buffers, buffers
        if old is not None:
            old.close()
        self._base_initargs = initargs
        self._base_deltas = self.lifecycle.delta_refreshes

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
                self._rebase()
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
        shard = ShardWorker(None, self._index)
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

    def _submit_fused(self, worker: int, elements: List[Element],
                      plain: List[Element]):
        """Dispatch one worker's element list; returns a handle to collect.

        ``elements`` is what a pool receives (large arrays staged as segment
        markers); ``plain`` is the same list unstaged.  Demoted slots run
        ``plain`` inline immediately — every earlier op of a demoted worker
        already ran inline, so in-order semantics hold.  A pool found broken
        at submit (its worker died during an uncollected fire-and-forget
        batch) yields a failed handle, so :meth:`_collect_fused` treats it
        like any other crash.
        """
        if worker in self._local:
            return "local", self._run_local(worker, plain)
        try:
            future = self._pools[worker].submit(_mp_execute_fused, elements)
        except BrokenProcessPool as error:
            future = Future()
            future.set_exception(error)
        return self._generation[worker], future

    def _collect_fused(
        self, worker: int, elements: List[Element], plain: List[Element],
        handle,
    ) -> List[Tuple[Any, float]]:
        """Await one worker's batch; supervised, recover and retry on failure.

        The whole batch is the retry unit: a worker that died mid-batch
        discarded every partial effect with its process, and nothing of the
        batch was journaled yet, so respawn + log replay + full-batch retry
        applies each element exactly once.  A retry resubmits the staged
        ``elements`` (the payload segment outlives the batch); a slot that
        degraded runs ``plain`` inline.  The deadline scales with the
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
                    return self._run_local(worker, plain)
                attempts += 1
                if attempts > _MAX_RETRIES:
                    raise
                self.lifecycle.retries += 1
                if self.tracer.enabled:
                    self.tracer.event(
                        "retry",
                        worker=worker,
                        ops=len(elements),
                        attempt=attempts,
                    )
                time.sleep(_BACKOFF_BASE * (2 ** (attempts - 1)))
                generation = self._generation[worker]
                future = self._pools[worker].submit(
                    _mp_execute_fused, elements
                )

    # ------------------------------------------------------------------
    def _run_batch(self, requests: Sequence[Request], wait: bool) -> List[Any]:
        """Run one batch: stage, submit per worker, collect, settle per op.

        Each collected op is traced from its worker-measured seconds, then
        accounted into the ledgers and journaled.
        """
        requests = list(requests)
        staged, pack = requests, None
        if wait:
            # large arrays ride a payload segment — not in fire-and-forget
            # batches (drops carry no arrays, and the segment must outlive
            # the worker's resolve).  Ledger, journal and inline slots keep
            # the unstaged requests
            staged, pack = _stage_payloads(requests)
        try:
            groups = self._worker_groups(requests)
            batches = {
                worker: (
                    [staged[p][1:] for p in positions],
                    [requests[p][1:] for p in positions],
                )
                for worker, positions in groups.items()
            }
            handles = {
                worker: self._submit_fused(worker, *batches[worker])
                for worker in groups
            }
            if not wait:
                # fire-and-forget is only used for idempotent releases
                # (drops, which return nothing); accounting and journaling
                # at submit time are safe for those, and replay keeps the
                # submit order, so a lost drop is re-applied on recovery
                for worker, op, key, payload in requests:
                    _account(self, worker, op, key, payload, None)
                    self._journal(worker, op, key, payload)
                return []
            results: List[Any] = [None] * len(requests)
            for worker, positions in groups.items():
                outcomes = self._collect_fused(
                    worker, *batches[worker], handles[worker]
                )
                for position, (result, seconds) in zip(positions, outcomes):
                    _, op, key, payload = requests[position]
                    if self.tracer.enabled:
                        self.tracer.worker_op(worker, op, seconds)
                    _account(self, worker, op, key, payload, result)
                    self._journal(worker, op, key, payload)
                    results[position] = result
            return results
        finally:
            if pack is not None:
                pack.close()

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

    ``tracer`` wires a :class:`repro.obs.Tracer` into the backend: the
    engines running on it trace into the same one, construction and
    supervision emit typed events, and every batch emits worker-lane op
    spans.  The default ``NULL_TRACER`` keeps every hook a no-op.

    Raises ``ValueError`` unless ``num_workers >= 1``.
    """
    if num_workers < 1:
        raise ValueError("num_workers must be >= 1")
    if fault == "auto":
        fault = _default_fault()
    if name == "serial":
        return SerialBackend(num_workers, graph, index, tracer=tracer)
    if name == "multiprocess":
        return MultiprocessBackend(num_workers, index, fault=fault, tracer=tracer)
    raise ValueError(
        f"unknown parallel backend {name!r} (expected one of {BACKEND_NAMES})"
    )
