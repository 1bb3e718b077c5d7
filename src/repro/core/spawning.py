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

The tally is integer counts per extension key, never a per-key pivot set:
:func:`extension_counts` produces :class:`ExtensionCounts` from one sort
of ``(key, pivot)`` pairs per part and a run-length pass.  Both halves
start from each column's *distinct* nodes, so they pay for neighbourhoods
once per node, not once per row.  The new-node half counts each distinct
anchor's neighbours per ``(edge label, endpoint label)`` key, expands a
row to its anchor's keys (not its neighbours), and subtracts the row's own
nodes that are such neighbours — the join's injectivity test.  What is
left, ``free``, is the number of rows the row adds to that child's join,
so besides the distinct-pivot count the tally knows each new-node child's
exact join size and, where it reaches the match cap, the capped join's
support: ``ParDis`` truncates such a child without joining it.  The
closing half is a semi-join: per variable ``s`` it gathers the out-edges
of column ``s``'s distinct nodes once, keeps per ``d`` those whose endpoint
occurs in column ``d`` and that are no pattern edge, and binary-searches
only the rows whose two nodes both occur among them — most pairs keep no
edge and touch no row.  Under ``ParDis``'s pivot-disjoint sharding the
per-shard counts add up (:func:`merge_extension_counts`), so the
distributed runs spawn *exactly* the same patterns at every ``n``.  The
layer's oracle is a per-match scan of the dict adjacency that collects
pivot *sets* (:func:`repro.oracle.extension_statistics`).

A closing tally is more than a spawn filter: pivot ``p`` is recorded under
``(s, d, l)`` iff some match ``h`` of ``Q`` with ``h(z) = p`` has the graph
edge ``h(s) -[l]-> h(d)``.  ``Q + (s, d, l)`` has the same variables, so its
matches are exactly those ``h`` — ``closing[(s, d, l)]`` *is* the child's
distinct-pivot support (absent key = 0), which ``ParDis`` uses to make an
infrequent closing child a leaf without joining it.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, List, Optional, Sequence, Set, Tuple, Union

import numpy as np

from ..graph.index import GraphIndex, run_lengths, sort_unique
from ..graph.statistics import GraphStatistics
from ..pattern.incremental import Extension, _as_match_array
from ..pattern.matcher import Match
from ..pattern.pattern import WILDCARD, Pattern
from .config import DiscoveryConfig
from .generation_tree import TreeNode

__all__ = [
    "ExtensionCounts",
    "extension_counts",
    "merge_extension_counts",
    "extensions_from_counts",
    "wildcard_extensions_from_counts",
    "speculative_closing_extensions",
]

#: key: (anchor variable, outward?, edge label, endpoint node label)
NewNodeKey = Tuple[int, bool, str, str]
#: key: (src variable, dst variable, edge label)
ClosingKey = Tuple[int, int, str]


class ExtensionCounts:
    """Distinct-pivot counts per candidate extension.

    When every pivot lives on exactly one worker (``ParDis``'s sharding
    invariant), per-key distinct-pivot counts add up across workers, so only
    integers need shipping.  ``prefix_*`` aggregates feed the wildcard
    upgrade decision.  ``rows`` holds each new-node child's join size, and
    ``capped`` its support under the match cap where that differs from
    ``new_node`` (a shard whose join reaches the cap keeps only its first
    ``cap`` rows).
    """

    __slots__ = (
        "new_node", "closing", "prefix_pivots", "prefix_labels", "rows",
        "capped",
    )

    def __init__(self) -> None:
        self.new_node: Dict[NewNodeKey, int] = {}
        self.closing: Dict[ClosingKey, int] = {}
        self.prefix_pivots: Dict[Tuple[int, bool, str], int] = {}
        self.prefix_labels: Dict[Tuple[int, bool, str], Set[str]] = {}
        self.rows: Dict[NewNodeKey, int] = {}
        self.capped: Dict[NewNodeKey, int] = {}


#: One row-internal edge set: ``(s, d, rows, labels)``, an entry per match
#: row ``rows[i]`` and graph edge ``h(s) -[labels[i]]-> h(d)``.
RowEdges = Tuple[int, int, np.ndarray, np.ndarray]


def _row_edges(
    index: GraphIndex,
    array: np.ndarray,
    distinct: List[np.ndarray],
    excluded: Dict[Tuple[int, int], List[int]],
    mark: np.ndarray,
) -> List[RowEdges]:
    """The graph edges between each row's own nodes that are no pattern
    edge (``excluded``: label codes per variable pair): a semi-join per
    variable pair.

    For each variable ``s`` the out-CSR is gathered once over the distinct
    nodes ``distinct[s]`` of column ``s``.  For each ``d`` the candidate
    edges are those whose endpoint occurs in column ``d`` (``d = s``:
    self-loops) and whose label is not excluded; an empty candidate set
    skips the pair without touching rows.  Otherwise only the rows whose
    ``h(s)`` and ``h(d)`` both occur among the candidates' ends are
    binary-searched in the ``(src, dst, label)``-sorted candidates.  Every
    edge a row could hold joins a node of column ``s`` to a node of column
    ``d``, so the candidates hold all of them: the result is exact.  The
    |V|-sized scratch table ``mark`` comes in clear and is cleared at
    exactly the indices each step set.
    """
    num_vars = array.shape[1]
    num_nodes = index.num_nodes
    columns = [array[:, variable] for variable in range(num_vars)]
    found_edges: List[RowEdges] = []
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
            found_edges.append((s, d, np.repeat(rows, width), label[hits]))
    return found_edges


def _new_node_tally(
    index: GraphIndex,
    array: np.ndarray,
    pivots: np.ndarray,
    distinct: List[np.ndarray],
    own_edges: List[RowEdges],
    cap: Optional[int],
    counts: ExtensionCounts,
) -> None:
    """The new-node half of the tally, into ``counts``.

    An *anchor* is a distinct node of a column (``distinct[v]`` for
    variable ``v``).  The anchors' CSR rows are gathered once per direction
    and counted per key ``(variable, direction, edge label, endpoint
    label)``: each anchor's neighbours under that key.  Each row then
    expands, per variable, to its anchor's keys — not to its neighbours —
    and keeps the count less the row's own nodes that are such neighbours:
    ``own_edges``, every graph edge between the row's own nodes (self-loops
    included), each one such neighbour of its source's anchor outward and
    of its target's anchor inward.  That is the join's injectivity test,
    so ``free`` is the number of rows the row adds to that child's join.
    Per key: the distinct pivots of the rows with ``free > 0``, the join
    size ``Σ free`` and, where that reaches ``cap``, the distinct pivots of
    the join's first ``cap`` rows — row order, then CSR order, the rows
    :func:`~repro.pattern.incremental.extend_matches` keeps under the cap.
    """
    num_rows, num_vars = array.shape
    num_nodes = index.num_nodes
    num_edge_labels = max(1, len(index.edge_label_values))
    num_node_labels = max(1, len(index.node_label_values))
    # keys per anchor variable; a key ``v · per_var + local`` is
    # ``((v · 2 + outward) · |edge labels| + label) · |node labels| + endpoint``
    per_var = 2 * num_edge_labels * num_node_labels
    label_codes = index.node_label_codes
    anchors = np.concatenate(distinct)
    spans = np.array([nodes.size for nodes in distinct])
    # item ``r · num_vars + v``: row r's anchor for variable v, as a slot
    # of ``anchors``
    slot = np.empty((num_rows, num_vars), dtype=np.int64)
    for variable, nodes in enumerate(distinct):
        slot[:, variable] = np.searchsorted(nodes, array[:, variable])
    slot += np.cumsum(spans) - spans
    slot = slot.ravel()
    parts = []
    for outward in (False, True):
        position, ends, labels = index.gather_neighborhoods(anchors, outward)
        parts.append(
            position * per_var
            + (labels + outward * num_edge_labels) * num_node_labels
            + label_codes[ends]
        )
    gathered = np.concatenate(parts)
    if gathered.size == 0:
        return
    # per (anchor slot, local key): the anchor's neighbours under that key
    codes, neighbours = run_lengths(np.sort(gathered))
    per_slot = np.bincount(codes // per_var, minlength=anchors.size)
    first = np.cumsum(per_slot) - per_slot
    widths = per_slot[slot]
    offsets = np.cumsum(widths) - widths
    total = int(offsets[-1] + widths[-1])
    item = np.repeat(np.arange(slot.size, dtype=np.int64), widths)
    entry = np.arange(total, dtype=np.int64) + np.repeat(
        first[slot] - offsets, widths
    )
    free = neighbours[entry]
    # the row's own nodes among its anchors' neighbours join no new node
    owners, own_keys = [], []
    for s, d, rows, labels in own_edges:
        for anchor, other, outward in ((s, d, True), (d, s, False)):
            owners.append(rows * num_vars + anchor)
            own_keys.append(
                (labels + outward * num_edge_labels) * num_node_labels
                + label_codes[array[rows, other]]
            )
    if owners:
        owner = slot[np.concatenate(owners)]
        at = np.searchsorted(codes, owner * per_var + np.concatenate(own_keys))
        free -= np.bincount(
            offsets[np.concatenate(owners)] + at - first[owner], minlength=total
        )
    kept = np.flatnonzero(free > 0)
    if kept.size == 0:
        return
    item = item[kept]
    key = item % num_vars * per_var + codes[entry[kept]] % per_var
    pivot = pivots[item // num_vars]
    free = free[kept]
    # the (key, pivot) pairs are distinct, so a key's run length is its
    # distinct-pivot count
    pairs = sort_unique(key * num_nodes + pivot)
    keys, sizes = run_lengths(pairs // num_nodes)
    joined = np.bincount(
        np.searchsorted(keys, key), weights=free, minlength=keys.size
    ).astype(np.int64)
    edge_labels, endpoint_labels = index.edge_label_values, index.node_label_values

    def prefix_of(code: int) -> Tuple[int, bool, str]:
        return (
            code // num_edge_labels // 2,
            bool(code // num_edge_labels % 2),
            edge_labels[code % num_edge_labels],
        )

    for code, size, join_size in zip(
        keys.tolist(), sizes.tolist(), joined.tolist()
    ):
        prefix = prefix_of(code // num_node_labels)
        child = prefix + (endpoint_labels[code % num_node_labels],)
        counts.new_node[child] = size
        counts.rows[child] = join_size
        counts.prefix_labels.setdefault(prefix, set()).add(child[3])
        if cap is not None and join_size >= cap:
            # a key's entries come in row order, one per row
            chosen = np.flatnonzero(key == code)
            stop = int(np.searchsorted(np.cumsum(free[chosen]), cap))
            counts.capped[child] = int(sort_unique(pivot[chosen[:stop + 1]]).size)
    # the same pivot may reach one prefix under several endpoint labels
    prefix_pairs = sort_unique(
        pairs // (num_node_labels * num_nodes) * num_nodes + pairs % num_nodes
    )
    prefixes, sizes = run_lengths(prefix_pairs // num_nodes)
    for code, size in zip(prefixes.tolist(), sizes.tolist()):
        counts.prefix_pivots[prefix_of(code)] = size


def extension_counts(
    index: GraphIndex,
    pattern: Pattern,
    matches: Union[Sequence[Match], np.ndarray],
    can_add_node: bool,
    cap: Optional[int] = None,
) -> ExtensionCounts:
    """The ``VSpawn`` tally of one match batch (the per-worker scan).

    Each column's distinct nodes are read once off a |V| mark table.  The
    graph edges between each row's own nodes that are no pattern edge
    (:func:`_row_edges`, a semi-join over those distinct nodes) are the
    closing half; with the pattern's own edges, which every row holds,
    they are also what the new-node half (:func:`_new_node_tally`)
    subtracts from each anchor's neighbours.  Each half is an integer
    group-by over ``key · |V| + pivot``.  ``rows`` is each new-node
    child's exact join size; where a key's ``rows`` reach ``cap``
    (``None``: no cap), ``capped`` holds the distinct pivots of that join's
    first ``cap`` rows.
    """
    counts = ExtensionCounts()
    num_vars = pattern.num_nodes
    array = _as_match_array(matches, num_vars)
    num_rows = array.shape[0]
    if num_rows == 0:
        return counts
    num_nodes = index.num_nodes
    num_edge_labels = max(1, len(index.edge_label_values))
    pivots = array[:, pattern.pivot]
    mark = np.zeros(num_nodes, dtype=bool)
    distinct: List[np.ndarray] = []
    for variable in range(num_vars):
        mark[array[:, variable]] = True
        distinct.append(np.flatnonzero(mark))
        mark[array[:, variable]] = False
    # pattern edges are no closing candidates, and every row holds them
    # (labels absent from the graph hold nowhere, so they are dropped)
    excluded: Dict[Tuple[int, int], List[int]] = defaultdict(list)
    for src, dst, label in pattern.edge_set():
        code = index.edge_label_code_of.get(label)
        if code is not None:
            excluded[(src, dst)].append(code)
    own_edges = _row_edges(index, array, distinct, excluded, mark)
    if can_add_node:
        every_row = np.arange(num_rows, dtype=np.int64)
        pattern_edges = [
            (src, dst, every_row, np.full(num_rows, code, dtype=np.int64))
            for (src, dst), codes in excluded.items()
            for code in codes
        ]
        _new_node_tally(
            index, array, pivots, distinct, own_edges + pattern_edges, cap,
            counts,
        )
    if own_edges:
        # the (key, pivot) pairs are distinct, so a key's run length is its
        # distinct-pivot count
        pairs = sort_unique(np.concatenate([
            ((s * num_vars + d) * num_edge_labels + labels) * num_nodes
            + pivots[rows]
            for s, d, rows, labels in own_edges
        ]))
        keys, sizes = run_lengths(pairs // num_nodes)
        edge_labels = index.edge_label_values
        for key, size in zip(keys.tolist(), sizes.tolist()):
            pair = key // num_edge_labels
            label = edge_labels[key % num_edge_labels]
            counts.closing[(pair // num_vars, pair % num_vars, label)] = size
    return counts


def merge_extension_counts(parts: Sequence[ExtensionCounts]) -> ExtensionCounts:
    """Sum per-shard counts (valid under pivot-disjoint sharding).

    A shard whose join of a key reaches the cap contributes its capped
    support instead of its full count, so the merged ``capped`` is the
    merged count corrected by those shards' differences.
    """
    merged = ExtensionCounts()
    correction: Dict[NewNodeKey, int] = {}
    for part in parts:
        for key, count in part.new_node.items():
            merged.new_node[key] = merged.new_node.get(key, 0) + count
        for key, count in part.rows.items():
            merged.rows[key] = merged.rows.get(key, 0) + count
        for key, count in part.capped.items():
            correction[key] = (
                correction.get(key, 0) + count - part.new_node[key]
            )
        for key, count in part.closing.items():
            merged.closing[key] = merged.closing.get(key, 0) + count
        for prefix, count in part.prefix_pivots.items():
            merged.prefix_pivots[prefix] = (
                merged.prefix_pivots.get(prefix, 0) + count
            )
        for prefix, labels in part.prefix_labels.items():
            merged.prefix_labels.setdefault(prefix, set()).update(labels)
    for key, difference in correction.items():
        merged.capped[key] = merged.new_node[key] + difference
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
