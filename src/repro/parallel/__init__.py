"""Parallel GFD discovery: backends, metered cluster, ParDis, ParCover."""

from .backend import (
    BACKEND_NAMES,
    ExecutionBackend,
    LifecycleCounters,
    MultiprocessBackend,
    SerialBackend,
    SharedIndexBuffers,
    TransferLedger,
    make_backend,
    shared_memory_available,
)
from .balancer import assign_units_lpt, is_skewed, rebalance_pivot_group_arrays
from .cluster import ClusterMetrics, SimulatedCluster, WorkerMetrics
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
    "LifecycleCounters",
    "FaultPlan",
    "live_segments",
    "sweep_orphans",
    "make_backend",
    "shared_memory_available",
    "SimulatedCluster",
    "ClusterMetrics",
    "WorkerMetrics",
    "ParallelDiscovery",
    "parallel_cover",
    "parallel_cover_ungrouped",
    "assign_units_lpt",
    "is_skewed",
    "rebalance_pivot_group_arrays",
]
