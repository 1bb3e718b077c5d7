"""Incremental pattern matching: ``Q'(F) = Q(F) ⋈ e``.

``SeqDis`` and ``ParDis`` grow patterns one edge at a time and extend
the *stored* matches of the parent pattern instead of re-matching from
scratch (Sections 5.1 and 6.2).  An :class:`Extension` describes the added
edge; :func:`extend_matches` performs the join against a graph (sequential
case) and :func:`extend_match` against a single base match (the per-work-unit
operation workers execute).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..graph.graph import Graph
from ..graph.index import GraphIndex
from .pattern import WILDCARD, Match, Pattern

__all__ = ["Extension", "apply_extension", "extend_match", "extend_matches"]

#: A batch of matches: list of tuples, or an ``(N, num_vars)`` int64 array.
MatchBatch = Union[Sequence[Match], np.ndarray]


@dataclass(frozen=True)
class Extension:
    """One-edge extension of a pattern.

    Two shapes exist (Section 5.1's ``VSpawn``):

    * **closing edge** — ``new_node_label is None``: an edge between the two
      existing variables ``src`` and ``dst``.
    * **new node** — ``new_node_label`` set: a fresh variable carrying that
      label; the edge runs ``anchor -> new`` when ``outward`` else
      ``new -> anchor``, where ``anchor`` is ``src``.
    """

    src: int
    dst: int
    edge_label: str
    new_node_label: Optional[str] = None
    outward: bool = True

    @property
    def is_closing(self) -> bool:
        """Whether this extension adds an edge between existing variables."""
        return self.new_node_label is None


def apply_extension(pattern: Pattern, extension: Extension) -> Pattern:
    """The extended pattern ``Q' = Q + e``."""
    if extension.is_closing:
        return pattern.with_edge(extension.src, extension.dst, extension.edge_label)
    return pattern.with_new_node(
        extension.new_node_label,
        extension.src,
        extension.outward,
        extension.edge_label,
    )


def extend_match(
    graph: Graph,
    match: Match,
    extension: Extension,
) -> Iterator[Match]:
    """Extend one match of ``Q`` to matches of ``Q + e``.

    For a closing edge this filters (yields the unchanged match when the edge
    exists in the graph); for a new-node extension it fans out over candidate
    neighbors, enforcing label and injectivity constraints.
    """
    if extension.is_closing:
        source_node = match[extension.src]
        target_node = match[extension.dst]
        labels = graph.edge_labels(source_node, target_node)
        if not labels:
            return
        if extension.edge_label != WILDCARD and extension.edge_label not in labels:
            return
        yield match
        return

    anchor_node = match[extension.src]
    if extension.outward:
        neighbors = graph.out_neighbors(anchor_node)
    else:
        neighbors = graph.in_neighbors(anchor_node)
    wanted_edge = extension.edge_label
    wanted_node = extension.new_node_label
    for neighbor, labels in neighbors.items():
        if wanted_edge != WILDCARD and wanted_edge not in labels:
            continue
        if wanted_node != WILDCARD and graph.node_label(neighbor) != wanted_node:
            continue
        if neighbor in match:
            continue  # injectivity
        yield match + (neighbor,)


def extend_matches(
    graph: Graph,
    matches: MatchBatch,
    extension: Extension,
    max_matches: Optional[int] = None,
    index: Optional[GraphIndex] = None,
) -> MatchBatch:
    """Join a batch of base matches with the extension edge.

    With ``index`` the whole batch is joined by vectorized numpy set-ops
    (one edge-existence ``searchsorted`` for a closing edge; one ragged
    neighborhood gather + label-mask for a new-node fan-out) instead of the
    per-match Python loop.  The uncapped result *set* equals the dict
    path's; per-match neighbor order differs (CSR vs dict insertion), so a
    binding ``max_matches`` may keep a different truncated subset.  The
    index path returns the ``(N, vars)`` int64 array — the workers keep
    batches in array form end-to-end — and the dict path a list of tuples.
    """
    if index is not None:
        return _extend_matches_indexed(index, matches, extension, max_matches)
    result: List[Match] = []
    for match in matches:
        for extended in extend_match(graph, match, extension):
            result.append(extended)
            if max_matches is not None and len(result) >= max_matches:
                return result
    return result


def _as_match_array(matches: MatchBatch, width: int) -> np.ndarray:
    """Coerce a match batch into a 2-D int64 array (``width`` is a floor).

    Non-empty inputs carry their real width; ``width`` only sizes the empty
    case (any width ≥ the extension's requirement joins to an empty result).
    """
    if isinstance(matches, np.ndarray):
        if matches.ndim == 2:
            return matches
        return matches.reshape(-1, width)
    if not len(matches):
        return np.empty((0, width), dtype=np.int64)
    return np.asarray(matches, dtype=np.int64)


def _extend_matches_indexed(
    index: GraphIndex,
    matches: MatchBatch,
    extension: Extension,
    max_matches: Optional[int],
) -> np.ndarray:
    """Vectorized join of a whole match batch with one extension edge."""
    # the batch width: a new-node extension's fresh variable is ``dst``, so
    # the parent batch has exactly ``dst`` columns; a closing edge needs at
    # least ``max(src, dst) + 1`` (non-empty batches carry the real width).
    if extension.is_closing:
        width = max(extension.src, extension.dst) + 1
    else:
        width = extension.dst
    array = _as_match_array(matches, width)
    out_width = array.shape[1] + (0 if extension.is_closing else 1)
    if array.shape[0] == 0:
        return np.empty((0, out_width), dtype=np.int64)

    if extension.is_closing:
        label = extension.edge_label
        if label == WILDCARD:
            code = -1
        else:
            code = index.edge_label_code(label)
            if code < 0:
                return np.empty((0, array.shape[1]), dtype=np.int64)
        mask = index.edges_exist(
            array[:, extension.src], array[:, extension.dst], code
        )
        result = array[mask]
        if max_matches is not None and result.shape[0] > max_matches:
            result = result[:max_matches]
        return result

    # new-node fan-out: group rows by anchor node, compute each distinct
    # anchor's filtered candidate list once, then expand per row.  Array
    # methods and an inline unique keep a small batch (a refresh's anchored
    # joins see a handful of rows) at a few dozen numpy calls.
    edge_code = -1
    if extension.edge_label != WILDCARD:
        edge_code = index.edge_label_code(extension.edge_label)
        if edge_code < 0:
            return np.empty((0, array.shape[1] + 1), dtype=np.int64)
    node_code = -1
    if extension.new_node_label != WILDCARD:
        node_code = index.node_label_code(extension.new_node_label)
        if node_code < 0:
            return np.empty((0, array.shape[1] + 1), dtype=np.int64)

    width = array.shape[1]
    empty = np.empty((0, width + 1), dtype=np.int64)
    anchors = array[:, extension.src]
    order = anchors.argsort()
    ordered = anchors[order]
    head = np.empty(ordered.size, dtype=bool)
    head[0] = True
    np.not_equal(ordered[1:], ordered[:-1], out=head[1:])
    unique_anchors = ordered[head]
    inverse = np.empty(ordered.size, dtype=np.intp)
    inverse[order] = head.cumsum() - 1
    # one ragged gather over the distinct anchors' CSR rows, in row-major
    # order, so the flat pool stays grouped by anchor
    if extension.outward:
        indptr, neighbors, labels = (
            index.out_indptr, index.out_neighbors, index.out_edge_labels
        )
    else:
        indptr, neighbors, labels = (
            index.in_indptr, index.in_neighbors, index.in_edge_labels
        )
    starts = indptr[unique_anchors]
    lengths = indptr[unique_anchors + 1] - starts
    total = int(lengths.sum())
    if total == 0:
        return empty
    anchor_row = np.arange(unique_anchors.size).repeat(lengths)
    flat = np.arange(total) + (starts - lengths.cumsum() + lengths).repeat(lengths)
    flat_pool = neighbors[flat]
    keep = None
    if edge_code >= 0:
        keep = labels[flat] == edge_code
    elif total > 1:
        # wildcard edge label: parallel edges list the same endpoint once
        # per label; dedup per (anchor, neighbor) like dict-adjacency keys
        # (entries stay (anchor, neighbor, label)-sorted, so dups adjoin)
        keep = np.empty(total, dtype=bool)
        keep[0] = True
        np.not_equal(flat_pool[1:], flat_pool[:-1], out=keep[1:])
        keep[1:] |= anchor_row[1:] != anchor_row[:-1]
    if node_code >= 0:
        labelled = index.node_label_codes[flat_pool] == node_code
        keep = labelled if keep is None else keep & labelled
    if keep is not None:
        anchor_row = anchor_row[keep]
        flat_pool = flat_pool[keep]
    pool_lengths = np.bincount(anchor_row, minlength=unique_anchors.size)
    pool_offsets = pool_lengths.cumsum() - pool_lengths
    counts = pool_lengths[inverse]
    total = int(counts.sum())
    if total == 0:
        return empty

    def expand(row_lo: int, row_hi: int) -> np.ndarray:
        """Fan out the input rows ``[row_lo, row_hi)`` and filter injectivity."""
        block_counts = counts[row_lo:row_hi]
        block_total = int(block_counts.sum())
        if block_total == 0:
            return empty
        row = np.arange(row_lo, row_hi).repeat(block_counts)
        position = np.arange(block_total) + (
            pool_offsets[inverse[row_lo:row_hi]]
            - block_counts.cumsum()
            + block_counts
        ).repeat(block_counts)
        new_nodes = flat_pool[position]
        # injectivity: the new endpoint must differ from every mapped variable
        valid = new_nodes != array[row, 0]
        for variable in range(1, width):
            valid &= new_nodes != array[row, variable]
        row = row[valid]
        result = np.empty((row.size, width + 1), dtype=np.int64)
        result[:, :width] = array[row]
        result[:, width] = new_nodes[valid]
        return result

    # max_matches is a blow-up guard: never materialize a join that is far
    # beyond the cap — expand in bounded blocks and stop once the cap fills
    budget = None if max_matches is None else max(4 * max_matches, 1 << 20)
    if budget is None or total <= budget:
        result = expand(0, array.shape[0])
        if max_matches is not None and result.shape[0] > max_matches:
            result = result[:max_matches]
        return result
    cumulative = np.cumsum(counts)
    parts: List[np.ndarray] = []
    collected = 0
    row_lo = 0
    num_rows = array.shape[0]
    while row_lo < num_rows and collected < max_matches:
        base = int(cumulative[row_lo - 1]) if row_lo else 0
        row_hi = int(np.searchsorted(cumulative, base + budget, side="right"))
        row_hi = max(row_hi, row_lo + 1)
        block = expand(row_lo, row_hi)
        parts.append(block)
        collected += block.shape[0]
        row_lo = row_hi
    result = np.concatenate(parts) if parts else empty
    if result.shape[0] > max_matches:
        result = result[:max_matches]
    return result
