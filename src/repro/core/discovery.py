"""``discover`` — GFD discovery on the one mining engine (Section 5.1).

``SeqDis`` is ``ParDis`` (:class:`~repro.parallel.pardis.ParallelDiscovery`)
at ``n = 1`` on the ``serial`` backend.  The discovery oracle — the same
algorithm stated plainly over the dict graph — is
:func:`repro.oracle.reference_discover`.
"""

from __future__ import annotations

from typing import Optional

from ..graph.graph import Graph
from ..graph.index import GraphIndex
from ..graph.statistics import GraphStatistics
from .config import DiscoveryConfig
from .results import DiscoveryResult

__all__ = ["discover"]


def discover(
    graph: Graph,
    config: Optional[DiscoveryConfig] = None,
    stats: Optional[GraphStatistics] = None,
    index: Optional[GraphIndex] = None,
) -> DiscoveryResult:
    """Discover minimum σ-frequent GFDs in ``graph``: ``ParDis`` at ``n = 1``.

    One in-process worker on the ``serial`` backend, whatever default
    :func:`~repro.parallel.backend.resolve_execution` would pick — the
    paper's ``SeqDis``.  ``stats``/``index`` accept precomputed snapshots
    of the graph (by default both come from its cached frozen index).
    """
    from ..parallel.pardis import ParallelDiscovery  # parallel builds on core

    return ParallelDiscovery(
        graph,
        config or DiscoveryConfig(),
        num_workers=1,
        backend="serial",
        stats=stats,
        index=index,
    ).run()
