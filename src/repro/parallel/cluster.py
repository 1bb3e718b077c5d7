"""A metered shared-nothing cluster simulation.

The paper deploys its parallel algorithms on 20 EC2 instances (Section 7).
This reproduction runs the *same work units* on one machine and reports the
**makespan** a real cluster would observe:

* every work unit executes for real and its wall-clock time is charged to
  the worker it was assigned to;
* a *superstep* (the BSP rounds of ``ParDis``/``ParCover``, Figure 3/4)
  contributes ``max_w busy(w)`` to the parallel clock — workers within a
  superstep run concurrently, supersteps are barriers;
* master-side coordination is metered separately and always added (it is
  sequential in the real system too);
* communication is charged with a simple linear model
  (``items × seconds_per_item``) onto the receiving worker, mirroring the
  edge/match shipping of the incremental joins.

This preserves what the paper's scalability experiments measure — how the
*dominant per-worker compute* shrinks as workers are added and how skew and
balancing shift it — without needing 20 physical hosts.  See DESIGN.md
(substitutions) for the full argument.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from ..obs.tracer import NULL_TRACER

__all__ = ["WorkerMetrics", "ClusterMetrics", "SimulatedCluster"]

#: Default modeled communication cost: 100ns per shipped item (edge, match,
#: pivot id...), in line with ~10M small records/s effective throughput.
DEFAULT_SECONDS_PER_ITEM = 1e-7


@dataclass
class WorkerMetrics:
    """Per-worker accounting."""

    busy_seconds: float = 0.0
    comm_seconds: float = 0.0
    units_executed: int = 0
    items_received: int = 0

    @property
    def total_seconds(self) -> float:
        """Compute plus modeled communication time."""
        return self.busy_seconds + self.comm_seconds


@dataclass
class ClusterMetrics:
    """Whole-run accounting."""

    supersteps: int = 0
    parallel_seconds: float = 0.0
    master_seconds: float = 0.0
    total_work_seconds: float = 0.0
    #: Real wall-clock the master spent recovering failed workers mid-
    #: superstep (respawn + install-log replay).  Tracked outside the
    #: modeled busy/makespan ledger: recovery stalls the master for real,
    #: it is not simulated worker compute.
    recovery_seconds: float = 0.0

    @property
    def elapsed_parallel(self) -> float:
        """The modeled parallel response time (makespan + master)."""
        return self.parallel_seconds + self.master_seconds


class SimulatedCluster:
    """``n`` workers plus a master, with BSP superstep semantics.

    Typical use::

        cluster = SimulatedCluster(8)
        with cluster.superstep() as step:
            for worker, unit in assignments:
                step.run(worker, unit)          # returns the unit's result
            step.ship(worker, items=1234)       # charge communication
        with cluster.master():
            ... master-side aggregation ...
        print(cluster.metrics.elapsed_parallel)
    """

    def __init__(
        self,
        num_workers: int,
        seconds_per_item: float = DEFAULT_SECONDS_PER_ITEM,
        tracer: Any = NULL_TRACER,
    ) -> None:
        if num_workers < 1:
            raise ValueError("num_workers must be >= 1")
        self.num_workers = num_workers
        self.seconds_per_item = seconds_per_item
        #: The session tracer (``NULL_TRACER`` when tracing is off); the
        #: superstep/master context managers open spans on it and op-aware
        #: ``charge`` calls synthesize worker-lane op spans.
        self.tracer = tracer
        self.workers = [WorkerMetrics() for _ in range(num_workers)]
        self.metrics = ClusterMetrics()

    # ------------------------------------------------------------------
    @contextmanager
    def superstep(self, label: Optional[str] = None) -> Iterator["_Superstep"]:
        """One BSP round: all enclosed work runs 'concurrently'."""
        tracer = self.tracer
        span = (
            tracer.begin(
                label or f"superstep {self.metrics.supersteps}", "superstep"
            )
            if tracer.enabled
            else None
        )
        step = _Superstep(self)
        try:
            yield step
        finally:
            makespan = max(step.busy, default=0.0)
            self.metrics.supersteps += 1
            self.metrics.parallel_seconds += makespan
            self.metrics.total_work_seconds += sum(step.busy)
            if span is not None:
                tracer.end(span)

    @contextmanager
    def master(self, label: str = "master") -> Iterator[None]:
        """Meter master-side (sequential) coordination."""
        tracer = self.tracer
        span = tracer.begin(label, "master") if tracer.enabled else None
        started = time.perf_counter()
        try:
            yield
        finally:
            self.metrics.master_seconds += time.perf_counter() - started
            if span is not None:
                tracer.end(span)

    def ship_to_master(self, items: int) -> None:
        """Charge the master for receiving ``items`` records from workers."""
        self.metrics.master_seconds += items * self.seconds_per_item

    def reset(self) -> None:
        """Zero all metrics (reuse the cluster across runs)."""
        self.workers = [WorkerMetrics() for _ in range(self.num_workers)]
        self.metrics = ClusterMetrics()


class _Superstep:
    """Work executed inside one :meth:`SimulatedCluster.superstep` block."""

    def __init__(self, cluster: SimulatedCluster) -> None:
        self._cluster = cluster
        self.busy: List[float] = [0.0] * cluster.num_workers

    def run(
        self, worker: int, unit: Callable[[], Any], op: Optional[str] = None
    ) -> Any:
        """Execute ``unit`` on ``worker``, metering its wall-clock time."""
        started = time.perf_counter()
        result = unit()
        elapsed = time.perf_counter() - started
        self.charge(worker, elapsed, op)
        return result

    def charge(
        self, worker: int, seconds: float, op: Optional[str] = None
    ) -> None:
        """Credit ``worker`` with pre-measured compute time.

        Real execution backends (the multiprocess ``ParDis`` engine) run the
        work units out-of-process and report each unit's self-measured
        compute seconds; charging them here keeps the modeled BSP metrics
        (makespan, per-worker busy time) comparable across backends.  When
        ``op`` is given and tracing is on, the charge also lands as an op
        span on ``worker``'s trace lane — reusing the piggybacked timing,
        no extra round trip.
        """
        self.busy[worker] += seconds
        metrics = self._cluster.workers[worker]
        metrics.busy_seconds += seconds
        metrics.units_executed += 1
        tracer = self._cluster.tracer
        if op is not None and tracer.enabled:
            tracer.worker_op(worker, op, seconds)

    def recover(self, seconds: float) -> None:
        """Record master-side worker-recovery stall time for this step.

        Supervised backends call this after respawning a worker and
        replaying its install log mid-superstep; the time lands in
        :attr:`ClusterMetrics.recovery_seconds` so fault-injection runs
        can report recovery latency without skewing the modeled makespan.
        """
        self._cluster.metrics.recovery_seconds += seconds

    def ship(self, worker: int, items: int) -> None:
        """Charge ``worker`` for receiving ``items`` shipped records."""
        cost = items * self._cluster.seconds_per_item
        self.busy[worker] += cost
        metrics = self._cluster.workers[worker]
        metrics.comm_seconds += cost
        metrics.items_received += items

    def broadcast(self, items: int, exclude: Optional[int] = None) -> None:
        """Charge every worker (except ``exclude``) for a broadcast."""
        for worker in range(self._cluster.num_workers):
            if worker == exclude:
                continue
            self.ship(worker, items)
