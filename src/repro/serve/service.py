"""Enforcement-as-a-service: one session, many logical clients.

:class:`EnforcementService` multiplexes concurrent ``validate`` /
``discover`` / ``cover`` / ``mutate`` requests over ONE
:class:`~repro.session.Session` (one execution backend, one delta log,
one compiled Σ) and the MVCC :class:`~repro.serve.snapshots.SnapshotChain`.
The concurrency architecture has exactly two lanes:

* the **event loop** admits requests, serves ``validate`` reads straight
  off pinned snapshots (O(1), no engine work — reads at version ``N``
  proceed while version ``N+1`` is being committed), schedules group
  commits, and renders ``/metrics``;
* one **execution lane** (a single worker thread) runs everything that
  touches the engines — group commits, discovery, cover.  The engines
  are single-caller by contract; the lane *is* the serialization that
  makes them safe under concurrent clients, while real parallelism stays
  where it belongs, inside the multiprocess backend the lane drives.

Admission control is two checks at the door (and one at execution):

* **queue-depth backpressure** — a request that would make the execution
  lane's queue deeper than ``ServeConfig.max_queue_depth`` is rejected
  immediately with :class:`ServiceOverloaded` (shed at admission, not
  after queueing — the client can back off with an accurate picture);
* **deadline rejection** — every request carries a deadline (its own or
  ``ServeConfig.default_deadline_s``); lane work re-checks it when
  dequeued and sheds with :class:`DeadlineExceeded` instead of burning
  the lane on an answer nobody is waiting for.

Per-request budgets reuse the engines' native early-stop seams:
``discover`` budgets clamp to ``ServeConfig.discover_max_rules`` /
``discover_max_levels`` (the :meth:`~repro.session.Session.discover_iter`
budgets, which the discovery engine enforces while it mines; a negative
one is rejected before admission), and validation reports inherit the
session's ``max_violations_per_rule`` / ``max_violation_samples`` caps.

Every read answer is computed once per state it reads, with one stored
answer per kind: the ``validate`` payload per published snapshot and
render flags (on the :class:`~repro.serve.snapshots.Snapshot`, dropped
when it retires), the cover per served Σ (commits do not retire it), and
the budgeted discovery per ``(graph.version, max_rules, max_levels)``.
Hits and misses are the ``repro_serve_answer_memo_total{kind,outcome}``
counters and ``stats()["answer_memo"]``.
"""

from __future__ import annotations

import asyncio
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..core.config import DiscoveryConfig, EnforcementConfig
from ..enforce.engine import EnforcementReport
from ..enforce.monitor import RuleSketchMonitor
from ..gfd.gfd import GFD
from ..gfd.parser import format_gfd
from ..graph.graph import Graph
from ..obs.metrics import MetricsRegistry
from ..parallel.pardis import check_budgets
from ..session import Session
from .snapshots import SnapshotChain, SnapshotLease
from .writer import GroupCommitWriter, MutationOp

__all__ = [
    "ServeConfig",
    "EnforcementService",
    "ServiceOverloaded",
    "DeadlineExceeded",
    "ServiceClosed",
    "report_payload",
]


class ServiceOverloaded(RuntimeError):
    """Rejected at admission: the execution lane's queue is full."""


class DeadlineExceeded(RuntimeError):
    """Shed: the request's deadline passed before (or while) queued."""


class ServiceClosed(RuntimeError):
    """The service is shutting down and admits no new requests."""


@dataclass(frozen=True)
class ServeConfig:
    """Service-level policy knobs (admission, batching, budgets)."""

    #: Max requests queued-or-running on the execution lane before
    #: admission rejects with :class:`ServiceOverloaded`.
    max_queue_depth: int = 32
    #: Deadline applied to requests that do not carry their own.
    default_deadline_s: float = 30.0
    #: Mutations buffered before a group commit fires regardless of the
    #: linger timer.
    commit_max_batch: int = 128
    #: How long a lone mutation waits for company before committing.
    commit_linger_s: float = 0.005
    #: Pending-mutation buffer bound (admission backpressure for writers).
    max_pending_mutations: int = 1024
    #: Hard caps the per-request ``discover`` budgets clamp to.
    discover_max_rules: int = 100
    discover_max_levels: int = 3
    #: Whether ``validate`` responses carry violation samples / flagged
    #: node lists by default (requests can override per call).
    include_samples: bool = False
    include_nodes: bool = False

    def __post_init__(self) -> None:
        if self.max_queue_depth < 1:
            raise ValueError("max_queue_depth must be >= 1")
        if self.default_deadline_s <= 0:
            raise ValueError("default_deadline_s must be positive")
        if self.commit_max_batch < 1:
            raise ValueError("commit_max_batch must be >= 1")
        if self.commit_linger_s < 0:
            raise ValueError("commit_linger_s must be >= 0")
        if self.max_pending_mutations < 1:
            raise ValueError("max_pending_mutations must be >= 1")
        if self.discover_max_rules < 0:
            raise ValueError("discover_max_rules must be >= 0")
        if self.discover_max_levels < 0:
            raise ValueError("discover_max_levels must be >= 0")


def report_payload(
    report: EnforcementReport,
    include_nodes: bool = True,
    include_samples: bool = True,
    rules: Optional[Sequence[int]] = None,
) -> Dict[str, Any]:
    """The deterministic read surface of a report (JSON-safe).

    Contains only state-derived fields — rule texts, counts, node sets,
    seeded samples — never timings, backend names, worker counts or the
    full/incremental mode, so the payload at a pinned version is
    *byte-identical* to a single-client Session replaying that version
    (the acceptance property the concurrency harness asserts).
    ``rules`` optionally restricts to those Σ positions.

    The service renders the whole-Σ payload once per published version
    and render flags and hands every reader a shallow copy of it, so the
    nested ``rules`` entries are shared: treat them as read-only.
    """
    positions = range(len(report.rules)) if rules is None else rules
    entries: List[Dict[str, Any]] = []
    total = 0
    for position in positions:
        rule = report.rules[position]
        total += rule.violation_count
        entry: Dict[str, Any] = {
            "position": int(position),
            "gfd": rule.text,
            "violations": rule.violation_count,
            "distinct_pivots": rule.distinct_pivots,
            "witnesses_truncated": rule.witnesses_truncated,
            "sample_truncated": rule.sample_truncated,
        }
        if include_nodes:
            entry["nodes"] = sorted(rule.nodes)
        if include_samples:
            entry["sample"] = [list(row) for row in rule.sample]
        entries.append(entry)
    return {
        "total_violations": total,
        "clean": total == 0,
        "rules": entries,
    }


def check_rule_positions(rules: Any, size: int) -> None:
    """Reject a ``validate`` rule subset that is not distinct Σ positions.

    ``rules`` must be ``None`` or a list of distinct ints (bools are not
    positions) in ``range(size)``: a negative index would alias a rule
    from the end, ``True`` would alias rule 1, and a repeat would count a
    rule twice in ``total_violations``.
    """
    if rules is None:
        return
    if isinstance(rules, (str, bytes)) or not isinstance(rules, Sequence):
        raise ValueError(f"rules must be a list of positions, got {rules!r}")
    for position in rules:
        if isinstance(position, bool) or not isinstance(position, int):
            raise ValueError(f"rule position {position!r} is not an int")
        if not 0 <= position < size:
            raise ValueError(
                f"rule position {position} is outside Σ (size {size})"
            )
    if len(set(rules)) != len(rules):
        raise ValueError(f"rule positions repeat: {list(rules)}")


class _OneAnswer:
    """A one-entry memo: the latest answer and the exact state it read.

    Lane-only (the lane is the one thread that computes these answers and
    the one that changes the state they are keyed on).
    """

    __slots__ = ("key", "answer")

    def __init__(self) -> None:
        self.key: Any = None
        self.answer: Optional[Dict[str, Any]] = None

    def get(self, key: Any, compute) -> Tuple[Dict[str, Any], bool]:
        """``(answer, hit)``: the stored answer if ``key`` matches, else
        ``compute()``, which replaces it."""
        if self.answer is not None and self.key == key:
            return self.answer, True
        answer = compute()
        self.key, self.answer = key, answer
        return answer, False


class _LaneItem:
    """One unit of execution-lane work with its admission metadata."""

    __slots__ = ("fn", "deadline", "kind")

    def __init__(self, fn, deadline: float, kind: str) -> None:
        self.fn = fn
        self.deadline = deadline
        self.kind = kind


class EnforcementService:
    """The asyncio serving layer (see module docstring).

    Args:
        graph: the live graph to serve.
        sigma: the served rule set Σ.  ``None`` runs a budgeted discovery
            at startup (``ServeConfig.discover_max_rules``) and serves
            what it finds.
        config / enforcement / num_workers / backend / index_path /
            index_mmap / tracer: forwarded to the underlying
            :class:`~repro.session.Session` (the session is created with
            ``index_autosave=False`` — a serving process re-serializing
            the store file on every commit would dominate the write path).
        serve: the :class:`ServeConfig` policies.
        monitor: a pre-built (e.g. warm-started) monitor; default builds
            an empty one.

    Use ``async with`` (or :meth:`start` / :meth:`close`).  All public
    request methods are coroutines and must run on the loop that called
    :meth:`start`.
    """

    def __init__(
        self,
        graph: Graph,
        sigma: Optional[List[GFD]] = None,
        config: Optional[DiscoveryConfig] = None,
        enforcement: Optional[EnforcementConfig] = None,
        serve: Optional[ServeConfig] = None,
        num_workers: Optional[int] = None,
        backend: Optional[str] = None,
        index_path: Optional[Any] = None,
        index_mmap: bool = True,
        tracer: Optional[Any] = None,
        monitor: Optional[RuleSketchMonitor] = None,
    ) -> None:
        self.graph = graph
        self._initial_sigma = list(sigma) if sigma is not None else None
        self._session_kwargs = dict(
            config=config,
            enforcement=enforcement,
            num_workers=num_workers,
            backend=backend,
            index_path=index_path,
            index_mmap=index_mmap,
            index_autosave=False,
            tracer=tracer,
        )
        self.serve = serve if serve is not None else ServeConfig()
        self.monitor = monitor if monitor is not None else RuleSketchMonitor()
        self.chain = SnapshotChain()
        self.session: Optional[Session] = None
        self.writer: Optional[GroupCommitWriter] = None
        self.registry = MetricsRegistry()
        #: Leases still held at shutdown (must be 0; the bench gates on it).
        self.leaked_leases: Optional[int] = None
        self._pool: Optional[ThreadPoolExecutor] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._lane_depth = 0
        self._lane_futures: set = set()
        self._pending: List[Tuple[List[MutationOp], asyncio.Future]] = []
        self._pending_ops = 0
        self._flush_task: Optional[asyncio.Task] = None
        self._flush_now: Optional[asyncio.Event] = None
        #: Keyed by the served Σ (a cover never reads the graph).
        self._cover_memo = _OneAnswer()
        #: Keyed by ``(graph.version, max_rules, max_levels)``.
        self._discover_memo = _OneAnswer()
        self._started = False
        self._closed = False

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Build the session, compute version 0, open for requests.

        Everything engine-touching — session construction (worker pools),
        the optional startup discovery, the bootstrap validation — runs on
        the execution lane, the same thread every later commit uses.
        """
        if self._started:
            raise RuntimeError("service already started")
        self._started = True
        self._loop = asyncio.get_running_loop()
        self._flush_now = asyncio.Event()
        self._pool = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-serve-lane"
        )

        def bootstrap() -> None:
            self.session = Session(
                self.graph, monitor=self.monitor, **self._session_kwargs
            )
            if self._initial_sigma is not None:
                self.session.set_sigma(self._initial_sigma)
            else:
                list(
                    self.session.discover_iter(
                        max_rules=self.serve.discover_max_rules,
                        max_levels=self.serve.discover_max_levels,
                    )
                )
            self.writer = GroupCommitWriter(self.session, self.chain)
            self.writer.bootstrap()

        await self._loop.run_in_executor(self._pool, bootstrap)

    async def close(self) -> None:
        """Drain, final-commit, retire every snapshot, release the session.

        Shutdown order matters: stop admitting, flush buffered mutations
        (writers holding a future must resolve), drain the lane, then
        close the chain (recording leaked leases) *before* the session —
        retiring a version may close its store mapping, which must happen
        while the process still owns it.
        """
        if self._closed:
            return
        self._closed = True
        if not self._started:
            return
        # resolve buffered writers: one final commit
        if self._flush_task is not None:
            self._flush_now.set()
            try:
                await self._flush_task
            except Exception:
                pass
        await self._commit_pending()
        if self._lane_futures:
            await asyncio.gather(
                *list(self._lane_futures), return_exceptions=True
            )
        self.leaked_leases = self.chain.close()
        if self.session is not None:
            await self._loop.run_in_executor(self._pool, self.session.close)
        if self._pool is not None:
            self._pool.shutdown(wait=True)

    async def __aenter__(self) -> "EnforcementService":
        await self.start()
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.close()

    # ------------------------------------------------------------------
    # admission + the execution lane
    # ------------------------------------------------------------------
    def _deadline(self, deadline_s: Optional[float]) -> float:
        if deadline_s is None:
            deadline_s = self.serve.default_deadline_s
        return time.monotonic() + deadline_s

    def _admit(self, kind: str) -> None:
        if self._closed or not self._started:
            self._count(kind, "rejected_closed")
            raise ServiceClosed("service is not accepting requests")
        if self._lane_depth >= self.serve.max_queue_depth:
            self._count(kind, "rejected_queue")
            raise ServiceOverloaded(
                f"execution lane at max_queue_depth="
                f"{self.serve.max_queue_depth}"
            )

    async def _run_on_lane(self, kind: str, fn, deadline: float):
        """Queue ``fn`` on the single execution thread; shed if expired."""
        item = _LaneItem(fn, deadline, kind)

        def run():
            if time.monotonic() > item.deadline:
                raise DeadlineExceeded(
                    f"{item.kind} deadline passed while queued"
                )
            return item.fn()

        self._lane_depth += 1
        future = self._loop.run_in_executor(self._pool, run)
        self._lane_futures.add(future)
        future.add_done_callback(self._lane_futures.discard)
        try:
            return await future
        finally:
            self._lane_depth -= 1

    def _count(self, kind: str, outcome: str) -> None:
        self.registry.counter(
            "repro_serve_requests_total", kind=kind, outcome=outcome
        ).inc()

    def _memo_counter(self, kind: str, outcome: str):
        return self.registry.counter(
            "repro_serve_answer_memo_total", kind=kind, outcome=outcome
        )

    def _count_memo(self, kind: str, hit: bool) -> None:
        self._memo_counter(kind, "hit" if hit else "miss").inc()

    def _observe(self, kind: str, seconds: float) -> None:
        self.registry.histogram(
            "repro_serve_request_seconds", kind=kind
        ).observe(seconds)

    # ------------------------------------------------------------------
    # read path: validate straight off a pinned snapshot
    # ------------------------------------------------------------------
    def pin(self, version: Optional[int] = None) -> SnapshotLease:
        """Pin a live version (default: current) — the reader's MVCC hook.

        Exposed for streaming/multi-step consumers; :meth:`validate` pins
        and releases internally.
        """
        return self.chain.pin(version)

    async def validate(
        self,
        rules: Optional[Sequence[int]] = None,
        include_nodes: Optional[bool] = None,
        include_samples: Optional[bool] = None,
        version: Optional[int] = None,
    ) -> Dict[str, Any]:
        """The current (or a pinned, still-live) version's violation state.

        Pure read: served from the snapshot's stored report, never
        touching the execution lane — a validate at version ``N`` costs
        the same whether or not a commit is publishing ``N+1``.  The
        whole-Σ payload is rendered once per version and flag pair; each
        response is a shallow copy carrying its own ``kind`` /
        ``version`` / ``graph_version``, and its nested entries are shared
        and read-only.  A ``rules`` subset is rendered per request; it must
        be distinct positions of Σ (:func:`check_rule_positions` raises
        ``ValueError`` otherwise, before any version is pinned).
        """
        started = time.perf_counter()
        if self._closed or not self._started:
            self._count("validate", "rejected_closed")
            raise ServiceClosed("service is not accepting requests")
        check_rule_positions(rules, len(self.session.sigma))
        try:
            lease = self.chain.pin(version)
        except LookupError:
            self._count("validate", "rejected_version")
            raise
        nodes = bool(
            self.serve.include_nodes if include_nodes is None else include_nodes
        )
        samples = bool(
            self.serve.include_samples if include_samples is None else include_samples
        )
        try:
            snapshot = lease.snapshot

            def render() -> Dict[str, Any]:
                return report_payload(
                    snapshot.report,
                    include_nodes=nodes,
                    include_samples=samples,
                    rules=rules,
                )

            if rules is None:
                shared, hit = snapshot.payload((nodes, samples), render)
                payload = dict(shared)
            else:
                payload, hit = render(), False
            payload["kind"] = "validate"
            payload["version"] = lease.version
            payload["graph_version"] = snapshot.graph_version
        finally:
            lease.release()
        self._count_memo("validate", hit)
        self._count("validate", "ok")
        self._observe("validate", time.perf_counter() - started)
        return payload

    # ------------------------------------------------------------------
    # lane requests: discover / cover
    # ------------------------------------------------------------------
    async def discover(
        self,
        max_rules: Optional[int] = None,
        max_levels: Optional[int] = None,
        deadline_s: Optional[float] = None,
    ) -> Dict[str, Any]:
        """Budgeted, exploratory discovery against the current version.

        The request budgets clamp to the service caps and the discovery
        engine enforces them, mining only the patterns the answer needs
        (:meth:`~repro.session.Session.discover_iter`); ``max_rules=0``
        answers with no rules.  A negative budget raises ``ValueError``
        before admission, so it never reaches the lane.  The served Σ is
        *not* replaced (``update_sigma=False``) — discovery here is a
        read-only analytics op whose answer is tagged with the version it
        ran against.  The answer is a function of the graph state and the
        clamped budgets alone, so it is computed once per
        ``(graph.version, max_rules, max_levels)``; the graph version, not
        the published one, because after a failed batch the graph runs
        ahead of the chain.  The ``rules`` list is shared and read-only.
        A miss after attribute-only commits mines literals only: the
        session's structural frontier keeps the verified patterns and
        their worker-resident tables while ``graph.structure_version``
        holds (see :meth:`~repro.session.Session.discover_iter`).
        """
        started = time.perf_counter()
        check_budgets(max_rules, max_levels)
        self._admit("discover")
        cap_rules = self.serve.discover_max_rules
        cap_levels = self.serve.discover_max_levels
        budget_rules = cap_rules if max_rules is None else min(max_rules, cap_rules)
        budget_levels = (
            cap_levels if max_levels is None else min(max_levels, cap_levels)
        )

        def compute() -> Dict[str, Any]:
            found = self.session.discover_iter(
                max_rules=budget_rules,
                max_levels=budget_levels,
                update_sigma=False,
            )
            return {
                "max_rules": budget_rules,
                "max_levels": budget_levels,
                "rules": [format_gfd(gfd) for gfd in found],
            }

        def work() -> Tuple[Dict[str, Any], bool]:
            version = self.chain.current_version
            key = (self.session.graph.version, budget_rules, budget_levels)
            answer, hit = self._discover_memo.get(key, compute)
            return {"kind": "discover", "version": version, **answer}, hit

        try:
            payload, hit = await self._run_on_lane(
                "discover", work, self._deadline(deadline_s)
            )
        except DeadlineExceeded:
            self._count("discover", "rejected_deadline")
            raise
        except Exception:
            self._count("discover", "error")
            raise
        self._count_memo("discover", hit)
        self._count("discover", "ok")
        self._observe("discover", time.perf_counter() - started)
        return payload

    async def cover(
        self, deadline_s: Optional[float] = None
    ) -> Dict[str, Any]:
        """The minimal cover of the served Σ (read-only analytics).

        Runs ``ParCover`` on the session's backend with ``update_sigma=False``:
        the served Σ and its compiled enforcement engine stay as they are —
        minimizing what the service enforces is an operator decision, not
        a request side effect.  A cover is decided by implication over Σ
        alone (the chase never reads the graph), so it is computed once
        per served Σ and commits do not retire it.  The ``rules`` list is
        shared and read-only.
        """
        started = time.perf_counter()
        self._admit("cover")

        def work() -> Tuple[Dict[str, Any], bool]:
            version = self.chain.current_version
            sigma = tuple(self.session.sigma)

            def compute() -> Dict[str, Any]:
                result = self.session.cover(list(sigma), update_sigma=False)
                return {
                    "input_size": len(sigma),
                    "cover_size": len(result.cover),
                    "rules": [format_gfd(gfd) for gfd in result.cover],
                }

            answer, hit = self._cover_memo.get(sigma, compute)
            return {"kind": "cover", "version": version, **answer}, hit

        try:
            payload, hit = await self._run_on_lane(
                "cover", work, self._deadline(deadline_s)
            )
        except DeadlineExceeded:
            self._count("cover", "rejected_deadline")
            raise
        except Exception:
            self._count("cover", "error")
            raise
        self._count_memo("cover", hit)
        self._count("cover", "ok")
        self._observe("cover", time.perf_counter() - started)
        return payload

    # ------------------------------------------------------------------
    # write path: group commit
    # ------------------------------------------------------------------
    async def mutate(
        self,
        ops: Sequence[Any],
        deadline_s: Optional[float] = None,
    ) -> Dict[str, Any]:
        """Submit mutations; resolves once their group commit publishes.

        ``ops`` are :class:`~repro.serve.writer.MutationOp` or their dict
        wire form.  The response carries the published version whose
        report first reflects the write — pin it for read-your-writes.
        """
        started = time.perf_counter()
        if self._closed or not self._started:
            self._count("mutate", "rejected_closed")
            raise ServiceClosed("service is not accepting requests")
        if self._pending_ops >= self.serve.max_pending_mutations:
            self._count("mutate", "rejected_queue")
            raise ServiceOverloaded(
                f"pending mutations at max_pending_mutations="
                f"{self.serve.max_pending_mutations}"
            )
        batch = [
            op if isinstance(op, MutationOp) else MutationOp.from_dict(op)
            for op in ops
        ]
        if not batch:
            raise ValueError("mutate requires at least one op")
        future: asyncio.Future = self._loop.create_future()
        self._pending.append((batch, future))
        self._pending_ops += len(batch)
        if self._pending_ops >= self.serve.commit_max_batch:
            self._flush_now.set()
        if self._flush_task is None or self._flush_task.done():
            self._flush_task = self._loop.create_task(self._flush_soon())
        try:
            snapshot = await asyncio.wait_for(
                asyncio.shield(future),
                timeout=(
                    deadline_s
                    if deadline_s is not None
                    else self.serve.default_deadline_s
                ),
            )
        except asyncio.TimeoutError:
            self._count("mutate", "rejected_deadline")
            raise DeadlineExceeded(
                "mutation deadline passed before its commit published"
            ) from None
        except Exception:
            self._count("mutate", "error")
            raise
        self._count("mutate", "ok")
        self._observe("mutate", time.perf_counter() - started)
        return {
            "kind": "mutate",
            "version": snapshot.version,
            "graph_version": snapshot.graph_version,
            "ops": len(batch),
            "batched_ops": len(snapshot.ops),
        }

    async def _flush_soon(self) -> None:
        """The linger timer: wait for company, then commit the batch."""
        linger = self.serve.commit_linger_s
        if linger > 0 and self._pending_ops < self.serve.commit_max_batch:
            try:
                await asyncio.wait_for(self._flush_now.wait(), timeout=linger)
            except asyncio.TimeoutError:
                pass
        self._flush_now.clear()
        await self._commit_pending()
        # mutations that arrived while the commit ran are buffered but have
        # no scheduled flush (this task looked busy to them) — chain the
        # next linger window so no writer waits on nothing
        if self._pending and not self._closed:
            self._flush_task = self._loop.create_task(self._flush_soon())

    async def _commit_pending(self) -> None:
        """Drain the pending buffer through one group commit on the lane."""
        if not self._pending:
            return
        drained = self._pending
        self._pending = []
        self._pending_ops = 0
        ops: List[MutationOp] = []
        for batch, _ in drained:
            ops.extend(batch)

        def work():
            return self.writer.commit(ops)

        self._lane_depth += 1
        try:
            future = self._loop.run_in_executor(self._pool, work)
            self._lane_futures.add(future)
            future.add_done_callback(self._lane_futures.discard)
            try:
                snapshot = await future
            except Exception as exc:
                for _, waiter in drained:
                    if not waiter.done():
                        waiter.set_exception(exc)
                return
            for _, waiter in drained:
                if not waiter.done():
                    waiter.set_result(snapshot)
            self.registry.counter("repro_serve_commits_total").inc()
            self.registry.counter("repro_serve_committed_ops_total").inc(
                len(ops)
            )
        finally:
            self._lane_depth -= 1

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------
    def _fill_gauges(self) -> None:
        stats = self.chain.stats()
        self.registry.gauge("repro_serve_queue_depth").set(self._lane_depth)
        self.registry.gauge("repro_serve_pending_mutations").set(
            self._pending_ops
        )
        self.registry.gauge("repro_serve_live_versions").set(
            stats["live_versions"]
        )
        self.registry.gauge("repro_serve_pinned_leases").set(
            stats["pinned_leases"]
        )
        self.registry.gauge("repro_serve_snapshots_retired").set(
            stats["retired"]
        )
        current = self.chain.current
        if current is not None:
            self.registry.gauge("repro_serve_current_version").set(
                current.version
            )
        if self.session is not None:
            names = {
                format_gfd(gfd): f"sigma[{position}]"
                for position, gfd in enumerate(self.session.sigma)
            }
            self.monitor.fill_registry(self.registry, names=names)

    def stats(self) -> Dict[str, Any]:
        """A JSON-safe operational snapshot (the ``/stats`` surface)."""
        chain = self.chain.stats()
        payload: Dict[str, Any] = {
            "started": self._started,
            "closed": self._closed,
            "queue_depth": self._lane_depth,
            "pending_mutations": self._pending_ops,
            "chain": chain,
            "sigma_size": (
                len(self.session.sigma) if self.session is not None else 0
            ),
            # per kind, hit + miss == the requests answered
            "answer_memo": {
                kind: {
                    outcome: int(self._memo_counter(kind, outcome).value)
                    for outcome in ("hit", "miss")
                }
                for kind in ("validate", "discover", "cover")
            },
        }
        if self.writer is not None:
            payload["commits"] = self.writer.commits
            payload["mutations"] = self.writer.mutations
        if self.chain.current is not None:
            payload["version"] = self.chain.current.version
        return payload

    def metrics_text(self) -> str:
        """The ``/metrics`` Prometheus exposition (service + session)."""
        self._fill_gauges()
        text = self.registry.to_prometheus()
        if self.session is not None:
            text += self.session.metrics().registry().to_prometheus()
        return text
