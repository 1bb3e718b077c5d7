"""The ``VSpawn`` tally oracle: extension candidates by a per-match dict scan.

:func:`extension_statistics` walks every stored match's graph
neighbourhood on the dict adjacency and records, per candidate one-edge
extension, the *set* of pivots whose matches witness it;
:func:`counts_from_statistics` collapses the sets into the
:class:`~repro.core.spawning.ExtensionCounts` the engines use.  The
product tally, :func:`~repro.core.spawning.extension_counts`, computes the
same counts off the frozen index with one integer group-by per half.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, Iterable, Set, Tuple

from ..core.spawning import ClosingKey, ExtensionCounts, NewNodeKey
from ..graph.graph import Graph
from ..pattern.pattern import Match, Pattern

__all__ = ["ExtensionStatistics", "extension_statistics", "counts_from_statistics"]


class ExtensionStatistics:
    """Pivot-*set* tallies for candidate one-edge extensions (the oracle form).

    ``new_node[key]`` and ``closing[key]`` hold the sets of pivots whose
    matches witness the extension; the engines only ever need their sizes
    (:class:`ExtensionCounts`).
    """

    def __init__(self) -> None:
        self.new_node: Dict[NewNodeKey, Set[int]] = defaultdict(set)
        self.closing: Dict[ClosingKey, Set[int]] = defaultdict(set)


def extension_statistics(
    graph: Graph,
    pattern: Pattern,
    matches: Iterable[Match],
    can_add_node: bool,
) -> ExtensionStatistics:
    """Collect extension tallies from a batch of matches of ``pattern``.

    The per-match dict scan of ``VSpawn``: for every match, every incident
    graph edge either closes a pair of matched variables (candidate closing
    edge, if not already a pattern edge) or reaches an unmatched endpoint
    (candidate new-node extension).
    """
    stats = ExtensionStatistics()
    pattern_edges = pattern.edge_set()
    pivot_var = pattern.pivot
    for match in matches:
        pivot = match[pivot_var]
        matched = set(match)
        position = {graph_node: var for var, graph_node in enumerate(match)}
        for variable, graph_node in enumerate(match):
            for neighbor, labels in graph.out_neighbors(graph_node).items():
                if neighbor in matched:
                    other = position[neighbor]
                    for label in labels:
                        if (variable, other, label) not in pattern_edges:
                            stats.closing[(variable, other, label)].add(pivot)
                elif can_add_node:
                    endpoint = graph.node_label(neighbor)
                    for label in labels:
                        stats.new_node[(variable, True, label, endpoint)].add(pivot)
            if not can_add_node:
                continue
            for neighbor, labels in graph.in_neighbors(graph_node).items():
                if neighbor in matched:
                    continue  # already tallied from the out side
                endpoint = graph.node_label(neighbor)
                for label in labels:
                    stats.new_node[(variable, False, label, endpoint)].add(pivot)
    return stats


def counts_from_statistics(stats: ExtensionStatistics) -> ExtensionCounts:
    """Collapse the oracle's pivot sets into counts."""
    counts = ExtensionCounts()
    prefix_sets: Dict[Tuple[int, bool, str], Set[int]] = defaultdict(set)
    for key, pivots in stats.new_node.items():
        counts.new_node[key] = len(pivots)
        prefix = (key[0], key[1], key[2])
        prefix_sets[prefix] |= pivots
        counts.prefix_labels.setdefault(prefix, set()).add(key[3])
    for key, pivots in stats.closing.items():
        counts.closing[key] = len(pivots)
    counts.prefix_pivots = {
        prefix: len(pivots) for prefix, pivots in prefix_sets.items()
    }
    return counts
