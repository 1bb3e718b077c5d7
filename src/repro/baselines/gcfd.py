"""GCFD mining: CFDs with *path* patterns (the paper's DisGCFD/ParCGFD).

He et al. [24] extend relational conditional functional dependencies to RDF
using path-shaped patterns.  The paper implements "ParCGFD for mining GCFDs,
an extension of relational CFDs with path patterns, which makes a special
case of GFDs" and uses it as the expressiveness baseline of Exp-1d and
Exp-5.

Here GCFD discovery *is* GFD discovery restricted to that special case:

* patterns must be simple directed chains rooted at the pivot (no branching,
  no cycles, no wildcards), and
* only positive GFDs are mined (CFDs have no negative form).

Both restrictions are enforced by filtering vertical spawning, so the
machinery (match tables, lattices, pruning, the execution backend) is shared
with ``ParDis`` — exactly the comparison the paper makes.  The sequential
``DisGCFD`` is the same miner at ``n = 1``, as ``SeqDis`` is ``ParDis`` at
``n = 1``.
"""

from __future__ import annotations

from dataclasses import replace
from typing import List, Optional

from ..core.config import DiscoveryConfig
from ..core.generation_tree import TreeNode
from ..core.results import DiscoveryResult
from ..graph.graph import Graph
from ..parallel.pardis import ParallelDiscovery
from ..pattern.incremental import Extension
from ..pattern.pattern import Pattern

__all__ = ["discover_gcfd", "discover_gcfd_parallel", "is_path_pattern"]


def is_path_pattern(pattern: Pattern) -> bool:
    """Whether ``pattern`` is a simple chain starting at the pivot.

    Chain means: undirected degrees form a path (two endpoints of degree 1,
    the rest degree 2), the pivot is an endpoint, and there are no parallel
    or cyclic edges — the path-pattern class of [24].
    """
    if pattern.num_nodes == 1:
        return pattern.num_edges == 0
    if pattern.num_edges != pattern.num_nodes - 1:
        return False
    degrees = [0] * pattern.num_nodes
    for edge in pattern.edges:
        degrees[edge.src] += 1
        degrees[edge.dst] += 1
    endpoints = [v for v in pattern.variables() if degrees[v] == 1]
    if len(endpoints) != 2 or any(d > 2 for d in degrees):
        return False
    return pattern.pivot in endpoints or pattern.num_nodes == 2


def _path_config(config: DiscoveryConfig) -> DiscoveryConfig:
    """The GCFD restriction of a discovery configuration."""
    return replace(config, mine_negative=False, enable_wildcards=False)


def _filter_path_extensions(
    node: TreeNode, extensions: List[Extension]
) -> List[Extension]:
    """Keep only extensions growing the chain at its non-pivot end."""
    pattern = node.pattern
    degrees = [0] * pattern.num_nodes
    for edge in pattern.edges:
        degrees[edge.src] += 1
        degrees[edge.dst] += 1
    if pattern.num_nodes == 1:
        tail = {0}
    else:
        tail = {
            v for v in pattern.variables()
            if degrees[v] == 1 and v != pattern.pivot
        }
    return [
        extension
        for extension in extensions
        if extension.new_node_label is not None and extension.src in tail
    ]


class _GCFDParallel(ParallelDiscovery):
    """``ParCGFD``: ParDis restricted to path patterns."""

    def _extensions_from_tallies(
        self, parent: TreeNode, merged
    ) -> List[Extension]:
        return _filter_path_extensions(
            parent, super()._extensions_from_tallies(parent, merged)
        )


def discover_gcfd(
    graph: Graph,
    config: Optional[DiscoveryConfig] = None,
    stats=None,
    index=None,
) -> DiscoveryResult:
    """Mine GCFDs (path-pattern CFDs) sequentially: ``ParCGFD`` at ``n = 1``.

    ``stats``/``index`` accept precomputed graph snapshots (shared with the
    GFD run of the same benchmark) so the graph is scanned once per dataset.
    """
    return _GCFDParallel(
        graph,
        _path_config(config or DiscoveryConfig()),
        num_workers=1,
        backend="serial",
        stats=stats,
        index=index,
    ).run()


def discover_gcfd_parallel(
    graph: Graph,
    config: Optional[DiscoveryConfig] = None,
    num_workers: int = 4,
    stats=None,
    index=None,
) -> DiscoveryResult:
    """Mine GCFDs on ``num_workers`` workers (``ParCGFD``)."""
    return _GCFDParallel(
        graph,
        _path_config(config or DiscoveryConfig()),
        num_workers,
        stats=stats,
        index=index,
    ).run()
