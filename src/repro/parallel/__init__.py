"""Parallel GFD discovery and cover: execution backends, ParDis, ParCover.

Every parallel algorithm runs its supersteps on an
:class:`ExecutionBackend` (in-process ``serial`` workers or real
``multiprocess`` ones).  The backend counts the supersteps, the match rows
crossing the master boundary (:class:`TransferLedger`) and each worker's
exact work (:class:`WorkLedger`); parallel scalability is read from those
counts, not from a modeled clock.
"""

from .backend import (
    BACKEND_NAMES,
    ExecutionBackend,
    LifecycleCounters,
    MultiprocessBackend,
    SerialBackend,
    SharedIndexBuffers,
    TransferLedger,
    WorkLedger,
    make_backend,
    shared_memory_available,
)
from .balancer import assign_units_lpt, is_skewed, rebalance_pivot_group_arrays
from .faults import FaultPlan
from .janitor import live_segments, sweep_orphans
from .parcover import parallel_cover, parallel_cover_ungrouped
from .pardis import ParallelDiscovery

__all__ = [
    "BACKEND_NAMES",
    "ExecutionBackend",
    "SerialBackend",
    "MultiprocessBackend",
    "SharedIndexBuffers",
    "TransferLedger",
    "WorkLedger",
    "LifecycleCounters",
    "FaultPlan",
    "live_segments",
    "sweep_orphans",
    "make_backend",
    "shared_memory_available",
    "ParallelDiscovery",
    "parallel_cover",
    "parallel_cover_ungrouped",
    "assign_units_lpt",
    "is_skewed",
    "rebalance_pivot_group_arrays",
]
