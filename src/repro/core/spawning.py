"""Vertical spawning: extension-candidate generation (``VSpawn``/``NVSpawn``).

``VSpawn(i)`` grows level-``i-1`` patterns by one edge (Section 5.1).  Two
candidate sources are used:

* **data-driven** extensions: scan the stored matches of a pattern and
  collect the incident graph edges not yet covered by the pattern; an
  extension is worth spawning only if the number of *distinct pivots* whose
  matches witness it reaches ``σ`` (support is pivot-based, so by
  Theorem 3's anti-monotonicity this is a safe prune);
* **speculative** closing edges from the graph's frequent label-triples —
  these may have *zero* matches, which is exactly how ``NVSpawn`` finds
  negative GFDs of the form ``Q'[x̄](∅ → false)`` such as the paper's
  mutual-parent pattern ``φ3`` (Example 8).

The tally is a distinct *count* per extension key, and that is all it ever
holds: :func:`extension_counts` produces :class:`ExtensionCounts` from one
sort of ``(key, pivot)`` pairs and a run-length pass — no per-key pivot set.
Its two halves read the match rows differently.  The new-node half gathers
every row's neighbourhood off the CSR.  The closing half is a semi-join:
per variable ``s`` it gathers the out-edges of column ``s``'s *distinct*
nodes once, keeps per ``d`` those whose endpoint occurs in column ``d`` and
that are no pattern edge, and binary-searches only the rows whose two
nodes both occur among them — most pairs keep no edge and touch no row.
Under ``ParDis``'s pivot-disjoint sharding the per-shard counts add up
(:func:`merge_extension_counts`), so the distributed runs spawn *exactly*
the same patterns at every ``n``.  The per-match dict scan
(:func:`extension_statistics`, pivot *sets*) is the layer's oracle, bridged
by :func:`counts_from_statistics`.

A closing tally is more than a spawn filter: pivot ``p`` is recorded under
``(s, d, l)`` iff some match ``h`` of ``Q`` with ``h(z) = p`` has the graph
edge ``h(s) -[l]-> h(d)``.  ``Q + (s, d, l)`` has the same variables, so its
matches are exactly those ``h`` — ``closing[(s, d, l)]`` *is* the child's
distinct-pivot support (absent key = 0), which ``ParDis`` uses to make an
infrequent closing child a leaf without joining it.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

import numpy as np

from ..graph.graph import Graph
from ..graph.index import GraphIndex, run_lengths, sort_unique
from ..graph.statistics import GraphStatistics
from ..pattern.incremental import Extension, _as_match_array
from ..pattern.matcher import Match
from ..pattern.pattern import WILDCARD, Pattern
from .config import DiscoveryConfig
from .generation_tree import TreeNode

__all__ = [
    "ExtensionStatistics",
    "ExtensionCounts",
    "extension_statistics",
    "extension_counts",
    "counts_from_statistics",
    "merge_extension_counts",
    "extensions_from_counts",
    "wildcard_extensions_from_counts",
    "speculative_closing_extensions",
]

#: key: (anchor variable, outward?, edge label, endpoint node label)
NewNodeKey = Tuple[int, bool, str, str]
#: key: (src variable, dst variable, edge label)
ClosingKey = Tuple[int, int, str]


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
    (candidate new-node extension).  The index path's
    :func:`extension_counts` is differential-tested against this.
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


class ExtensionCounts:
    """Distinct-pivot counts per candidate extension.

    When every pivot lives on exactly one worker (``ParDis``'s sharding
    invariant), per-key distinct-pivot counts add up across workers, so only
    integers need shipping.  ``prefix_*`` aggregates feed the wildcard
    upgrade decision.
    """

    __slots__ = ("new_node", "closing", "prefix_pivots", "prefix_labels")

    def __init__(self) -> None:
        self.new_node: Dict[NewNodeKey, int] = {}
        self.closing: Dict[ClosingKey, int] = {}
        self.prefix_pivots: Dict[Tuple[int, bool, str], int] = {}
        self.prefix_labels: Dict[Tuple[int, bool, str], Set[str]] = {}


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


def _closing_tally(
    index: GraphIndex, pattern: Pattern, array: np.ndarray, pivots: np.ndarray
) -> Tuple[List[np.ndarray], List[np.ndarray]]:
    """``(key, pivot)`` parts of the closing half: a semi-join per variable pair.

    For each variable ``s`` the out-CSR is gathered once over the *distinct*
    nodes of column ``s``.  For each ``d`` the candidate edges are those
    whose endpoint occurs in column ``d`` (``d = s``: self-loops) and whose
    ``(s, d, label)`` is not a pattern edge; an empty candidate set skips
    the pair without touching rows.  Otherwise only the rows whose ``h(s)``
    and ``h(d)`` both occur among the candidates' ends are binary-searched
    in the ``(src, dst, label)``-sorted candidates.  Every edge a row could
    record joins a node of column ``s`` to a node of column ``d``, so the
    candidates hold all of them: the tally is exact.  The one |V|-sized
    scratch table is cleared at exactly the indices each step set.
    """
    num_vars = pattern.num_nodes
    num_nodes = index.num_nodes
    num_edge_labels = max(1, len(index.edge_label_values))
    # pattern edges are not candidates (labels absent from the graph can
    # never be tallied, so unmapped labels are simply dropped)
    excluded: Dict[Tuple[int, int], List[int]] = defaultdict(list)
    for src, dst, label in pattern.edge_set():
        code = index.edge_label_code_of.get(label)
        if code is not None:
            excluded[(src, dst)].append(code)
    columns = [array[:, variable] for variable in range(num_vars)]
    distinct = [sort_unique(column) for column in columns]
    mark = np.zeros(num_nodes, dtype=bool)
    key_parts: List[np.ndarray] = []
    pivot_parts: List[np.ndarray] = []
    for s in range(num_vars):
        position, ends, labels = index.gather_neighborhoods(distinct[s], True)
        if position.size == 0:
            continue
        starts = distinct[s][position]
        for d in range(num_vars):
            if d == s:
                keep = ends == starts
            else:
                mark[distinct[d]] = True
                keep = mark[ends]
                mark[distinct[d]] = False
            for code in excluded.get((s, d), ()):
                keep &= labels != code
            if not keep.any():
                continue
            # the (src, dst, label)-sorted candidates of this pair
            src, dst, label = starts[keep], ends[keep], labels[keep]
            mark[src] = True
            rows = np.flatnonzero(mark[columns[s]])
            mark[src] = False
            mark[dst] = True
            rows = rows[mark[columns[d][rows]]]
            mark[dst] = False
            if rows.size == 0:
                continue
            pairs = src * num_nodes + dst
            probe = columns[s][rows] * num_nodes + columns[d][rows]
            first = np.searchsorted(pairs, probe)
            found = pairs[np.minimum(first, pairs.size - 1)] == probe
            if not found.any():
                continue
            rows, probe, first = rows[found], probe[found], first[found]
            width = np.searchsorted(pairs, probe, side="right") - first
            total = int(width.sum())
            # one entry per (row, candidate edge between its h(s) and h(d))
            offsets = np.cumsum(width) - width
            hits = (
                np.arange(total, dtype=np.int64)
                - np.repeat(offsets - first, width)
            )
            key_parts.append((s * num_vars + d) * num_edge_labels + label[hits])
            pivot_parts.append(np.repeat(pivots[rows], width))
    return key_parts, pivot_parts


def extension_counts(
    graph: Optional[Graph],
    pattern: Pattern,
    matches: Iterable[Match],
    can_add_node: bool,
    index: Optional[GraphIndex] = None,
) -> ExtensionCounts:
    """The ``VSpawn`` tally of one match batch (the per-worker scan).

    With ``index`` the closing half is a semi-join over the columns'
    distinct nodes (:func:`_closing_tally`) and the new-node half one
    ragged CSR gather per (variable, direction) over the rows; each half
    is an integer group-by over ``key · |V| + pivot``.  Without ``index``
    the dict oracle :func:`extension_statistics` runs and its sets are
    collapsed — the results are identical.
    """
    if index is None:
        return counts_from_statistics(
            extension_statistics(graph, pattern, matches, can_add_node)
        )
    counts = ExtensionCounts()
    num_vars = pattern.num_nodes
    array = _as_match_array(
        matches if isinstance(matches, (np.ndarray, list)) else list(matches),
        num_vars,
    )
    if array.shape[0] == 0:
        return counts
    num_nodes = index.num_nodes
    num_edge_labels = max(1, len(index.edge_label_values))
    num_node_labels = max(1, len(index.node_label_values))
    pivots = array[:, pattern.pivot]

    closing_key_parts, closing_pivot_parts = _closing_tally(
        index, pattern, array, pivots
    )
    new_key_parts: List[np.ndarray] = []
    new_pivot_parts: List[np.ndarray] = []
    for variable in range(num_vars if can_add_node else 0):
        column = array[:, variable]
        for outward in (True, False):
            row, neighbors, labels = index.gather_neighborhoods(column, outward)
            if row.size == 0:
                continue
            # a neighbor mapped by the match is a closing edge, tallied above
            free = np.ones(row.size, dtype=bool)
            for candidate in range(num_vars):
                free &= neighbors != array[row, candidate]
            if not free.any():
                continue
            endpoint = index.node_label_codes[neighbors[free]]
            keys = (
                (variable * 2 + (1 if outward else 0)) * num_edge_labels
                + labels[free]
            ) * num_node_labels + endpoint
            new_key_parts.append(keys)
            new_pivot_parts.append(pivots[row[free]])

    edge_labels = index.edge_label_values

    def prefix_of(code: int) -> Tuple[int, bool, str]:
        return (
            code // num_edge_labels // 2,
            bool(code // num_edge_labels % 2),
            edge_labels[code % num_edge_labels],
        )

    # the (key, pivot) pairs are distinct, so a key's run length is its
    # distinct-pivot count
    if closing_key_parts:
        pairs = sort_unique(
            np.concatenate(closing_key_parts) * num_nodes
            + np.concatenate(closing_pivot_parts)
        )
        keys, sizes = run_lengths(pairs // num_nodes)
        for key, size in zip(keys.tolist(), sizes.tolist()):
            pair = key // num_edge_labels
            label = edge_labels[key % num_edge_labels]
            counts.closing[(pair // num_vars, pair % num_vars, label)] = size
    if new_key_parts:
        pairs = sort_unique(
            np.concatenate(new_key_parts) * num_nodes
            + np.concatenate(new_pivot_parts)
        )
        keys, sizes = run_lengths(pairs // num_nodes)
        for key, size in zip(keys.tolist(), sizes.tolist()):
            prefix = prefix_of(key // num_node_labels)
            endpoint = index.node_label_values[key % num_node_labels]
            counts.new_node[prefix + (endpoint,)] = size
            counts.prefix_labels.setdefault(prefix, set()).add(endpoint)
        # the same pivot may reach one prefix under several endpoint labels
        prefix_pairs = sort_unique(
            pairs // (num_node_labels * num_nodes) * num_nodes
            + pairs % num_nodes
        )
        prefixes, sizes = run_lengths(prefix_pairs // num_nodes)
        for code, size in zip(prefixes.tolist(), sizes.tolist()):
            counts.prefix_pivots[prefix_of(code)] = size
    return counts


def merge_extension_counts(parts: Sequence[ExtensionCounts]) -> ExtensionCounts:
    """Sum per-shard counts (valid under pivot-disjoint sharding)."""
    merged = ExtensionCounts()
    for part in parts:
        for key, count in part.new_node.items():
            merged.new_node[key] = merged.new_node.get(key, 0) + count
        for key, count in part.closing.items():
            merged.closing[key] = merged.closing.get(key, 0) + count
        for prefix, count in part.prefix_pivots.items():
            merged.prefix_pivots[prefix] = (
                merged.prefix_pivots.get(prefix, 0) + count
            )
        for prefix, labels in part.prefix_labels.items():
            merged.prefix_labels.setdefault(prefix, set()).update(labels)
    return merged


def extensions_from_counts(
    pattern: Pattern, counts: ExtensionCounts, config: DiscoveryConfig
) -> List[Extension]:
    """Extensions whose witnessing-pivot count reaches ``σ``, ordered by count."""
    extensions: List[Extension] = []
    for (variable, outward, label, endpoint), count in sorted(
        counts.new_node.items(), key=lambda kv: (-kv[1], kv[0])
    ):
        if count >= config.sigma:
            extensions.append(
                Extension(
                    src=variable,
                    dst=pattern.num_nodes,
                    edge_label=label,
                    new_node_label=endpoint,
                    outward=outward,
                )
            )
    for (src, dst, label), count in sorted(
        counts.closing.items(), key=lambda kv: (-kv[1], kv[0])
    ):
        if count >= config.sigma:
            extensions.append(Extension(src=src, dst=dst, edge_label=label))
    return extensions


def wildcard_extensions_from_counts(
    pattern: Pattern, counts: ExtensionCounts, config: DiscoveryConfig
) -> List[Extension]:
    """Wildcard-endpoint extensions (the paper's label upgrading).

    When the matches of a pattern reach, along one ``(anchor, direction,
    edge label)``, endpoints of at least ``wildcard_min_labels`` distinct
    labels, spawn one extension with a wildcard ``'_'`` endpoint — the
    generalized pattern subsumes the per-label ones (``Q2`` of Example 1).
    """
    if not config.enable_wildcards or pattern.num_nodes >= config.k:
        return []
    extensions: List[Extension] = []
    for prefix in sorted(counts.prefix_labels):
        variable, outward, label = prefix
        if (
            len(counts.prefix_labels[prefix]) >= config.wildcard_min_labels
            and counts.prefix_pivots.get(prefix, 0) >= config.sigma
        ):
            extensions.append(
                Extension(
                    src=variable,
                    dst=pattern.num_nodes,
                    edge_label=label,
                    new_node_label=WILDCARD,
                    outward=outward,
                )
            )
    return extensions


def speculative_closing_extensions(
    stats: GraphStatistics, node: TreeNode, config: DiscoveryConfig
) -> List[Extension]:
    """Closing edges suggested by frequent label-triples (``NVSpawn`` fodder).

    For each ordered pair of pattern variables without an edge between them,
    propose every *globally frequent* edge label compatible with the two node
    labels.  The data may contain no match with such an edge — producing a
    zero-support pattern whose base (the current pattern) is frequent: a
    negative GFD candidate (Section 4.2, case (a)).
    """
    pattern = node.pattern
    pattern_edges = pattern.edge_set()
    frequent = stats.frequent_triples(config.sigma)
    by_endpoint_labels: Dict[Tuple[str, str], List[str]] = defaultdict(list)
    for src_label, edge_label, dst_label in frequent:
        by_endpoint_labels[(src_label, dst_label)].append(edge_label)

    extensions: List[Extension] = []
    for src in pattern.variables():
        for dst in pattern.variables():
            if src == dst:
                continue
            src_label, dst_label = pattern.labels[src], pattern.labels[dst]
            if src_label == WILDCARD or dst_label == WILDCARD:
                continue
            for edge_label in by_endpoint_labels.get((src_label, dst_label), ()):
                if (src, dst, edge_label) in pattern_edges:
                    continue
                extensions.append(
                    Extension(src=src, dst=dst, edge_label=edge_label)
                )
    return extensions
