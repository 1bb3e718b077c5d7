"""Pattern-into-pattern embeddings.

A GFD ``φ' = Q'[x̄'](X' → Y')`` is *embedded* in a pattern ``Q`` when there is
an isomorphism from ``Q'`` onto a subgraph of ``Q`` (Section 3).  Embeddings
drive the closure characterization of implication/satisfiability and the
reduction ordering ``≪`` (Section 4.1).

The label condition is directional: ``Q``'s label at the image must *match*
``Q'``'s requirement — i.e. ``L_Q(f(u)) ⪯ L_{Q'}(u)`` — so that every graph
node matching ``Q`` also matches ``Q'`` through ``f``.  Concretely, a
wildcard in the inner (embedded) pattern accepts anything; a wildcard in the
outer pattern only satisfies a wildcard requirement.

:func:`embedding_batch` finds the embeddings of a whole batch of pattern
pairs in one vectorized call whose result belongs to the caller; its
backtracking definition, :func:`repro.oracle.embeddings`, is the test
oracle and yields the same embeddings in the same order.  Nothing here
keeps state between calls.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .pattern import WILDCARD, Pattern

__all__ = [
    "embedding_batch",
    "label_profile",
    "may_embed",
    "DistinctPatterns",
    "is_embedded",
]

#: An embedding: image in the outer pattern per inner-pattern variable.
Embedding = Tuple[int, ...]


def label_profile(pattern: Pattern) -> Tuple[Dict[str, int], Dict[str, int]]:
    """Concrete (non-wildcard) node and edge label counts of a pattern.

    Kept in the pattern's ``_profile`` slot: computed once per instance.
    """
    cached = pattern._profile
    if cached is None:
        nodes: Dict[str, int] = {}
        for label in pattern.labels:
            if label != WILDCARD:
                nodes[label] = nodes.get(label, 0) + 1
        edges: Dict[str, int] = {}
        for edge in pattern.edges:
            if edge.label != WILDCARD:
                edges[edge.label] = edges.get(edge.label, 0) + 1
        cached = (nodes, edges)
        object.__setattr__(pattern, "_profile", cached)
    return cached


def may_embed(inner: Pattern, outer: Pattern) -> bool:
    """Cheap necessary conditions for any embedding of inner into outer.

    A concrete inner label only maps onto the *same* outer label, so every
    concrete label must appear in the outer pattern at least as often, and
    the outer pattern needs at least as many nodes and edges.
    """
    if inner.num_nodes > outer.num_nodes or inner.num_edges > outer.num_edges:
        return False
    for inner_counts, outer_counts in zip(label_profile(inner), label_profile(outer)):
        for label, count in inner_counts.items():
            if outer_counts.get(label, 0) < count:
                return False
    return True


class _Profiles:
    """Label profiles of some patterns as bitsets, for :func:`may_embed`.

    Column 0 counts nodes, column 1 edges, and every further column one
    concrete node or edge label of these patterns.  A count ``c`` in a
    column becomes the ``c`` *levels* ``(column, 1..c)``: a pattern passes
    :func:`may_embed` into a host exactly when the host lacks none of its
    levels.  ``needs[r]`` packs row ``r``'s levels into 64-bit words and
    :meth:`lacks` a host's missing ones, so a pair is one AND per word.
    """

    def __init__(self, patterns: Sequence[Pattern]) -> None:
        self.columns: Dict[Tuple[int, str], int] = {}
        dense = self._dense([self._cells(pattern, extend=True) for pattern in patterns])
        tops = dense.max(axis=0)
        self.level_column = np.repeat(np.arange(len(tops)), tops)
        self.level_count = np.arange(1, tops.sum() + 1) - np.repeat(
            np.cumsum(tops) - tops, tops
        )
        self.needs = self._words(dense[:, self.level_column] >= self.level_count)
        self.own_lacks = self._words(dense[:, self.level_column] < self.level_count)

    @staticmethod
    def _words(levels: np.ndarray) -> np.ndarray:
        """Boolean level rows packed into ``uint64`` words."""
        padded = np.zeros((len(levels), -(-levels.shape[1] // 64) * 64), dtype=bool)
        padded[:, : levels.shape[1]] = levels
        return np.packbits(padded, axis=1, bitorder="little").view(np.uint64)

    def _cells(self, pattern: Pattern, extend: bool) -> Dict[int, int]:
        """Column → count of ``pattern`` (a label without a column gets one
        if ``extend``, else is dropped: no row can require it)."""
        cells = {0: pattern.num_nodes, 1: pattern.num_edges}
        for kind, counts in enumerate(label_profile(pattern)):
            for label, count in counts.items():
                column = self.columns.get((kind, label))
                if column is None:
                    if not extend:
                        continue
                    column = self.columns[(kind, label)] = 2 + len(self.columns)
                cells[column] = count
        return cells

    def _dense(self, rows: Sequence[Dict[int, int]]) -> np.ndarray:
        dense = np.zeros((len(rows), 2 + len(self.columns)), dtype=np.int64)
        dense[
            np.repeat(np.arange(len(rows)), [len(cells) for cells in rows]),
            [column for cells in rows for column in cells],
        ] = [count for cells in rows for count in cells.values()]
        return dense

    def lacks(self, patterns: Sequence[Pattern]) -> np.ndarray:
        """Per host pattern, the levels it lacks (over these columns)."""
        dense = self._dense([self._cells(pattern, extend=False) for pattern in patterns])
        return self._words(dense[:, self.level_column] < self.level_count)

    def fit_all(self, lacks: np.ndarray) -> np.ndarray:
        """``fits[h, r]``: whether row ``r`` passes into host ``h``."""
        fits = np.ones((len(lacks), len(self.needs)), dtype=bool)
        for word in range(self.needs.shape[1]):
            fits &= (lacks[:, word, None] & self.needs[None, :, word]) == 0
        return fits

    def fit_pairs(self, rows: np.ndarray, hosts: np.ndarray) -> np.ndarray:
        """Whether row ``rows[i]`` passes into row ``hosts[i]``."""
        return ~(self.needs[rows] & self.own_lacks[hosts]).any(axis=1)


#: The (host, pattern) cells one prefilter comparison materializes at most.
_PREFILTER_CELLS = 1 << 21


class DistinctPatterns:
    """The distinct patterns of a rule set, with a vectorized prefilter.

    ``Σ`` has far fewer patterns than rules, and whether a rule can take
    part in a derivation over ``Q`` depends on its pattern alone — so
    embedding questions are asked once per distinct pattern and expanded to
    the rules (``members[slot]``: positions in the input, ascending)
    afterwards.  The patterns' label profiles are held as arrays, so
    :func:`may_embed` from every pattern into many host patterns is a few
    numpy comparisons.  Nothing is cached between calls: the caller owns
    this object and whatever embedding relation it computes from it.
    """

    def __init__(self, patterns: Iterable[Pattern]) -> None:
        members: Dict[Pattern, List[int]] = {}
        for position, pattern in enumerate(patterns):
            members.setdefault(pattern, []).append(position)
        self.patterns: List[Pattern] = list(members)
        self.members: List[List[int]] = list(members.values())
        self._profiles = _Profiles(self.patterns) if self.patterns else None

    def may_embed_into(self, outers: Sequence[Pattern]) -> List[List[int]]:
        """Per host pattern of ``outers``, the slots (ascending) of the
        patterns that pass :func:`may_embed` into it."""
        if self._profiles is None:
            return [[] for _ in outers]
        lacks = self._profiles.lacks(outers)
        chunk = max(1, _PREFILTER_CELLS // len(self.patterns))
        found: List[List[int]] = []
        for start in range(0, len(lacks), chunk):
            fits = self._profiles.fit_all(lacks[start:start + chunk])
            found.extend(np.flatnonzero(row).tolist() for row in fits)
        return found


def _search_order(pattern: Pattern) -> List[int]:
    """The order in which a search assigns ``pattern``'s variables.

    Breadth-first from the pivot (so back-edge constraints apply early),
    then any variable the search did not reach, in variable order — the
    order the backtracking oracle uses.
    """
    adjacency = pattern.adjacency()
    order = [pattern.pivot]
    visited = {pattern.pivot}
    head = 0
    while head < len(order):
        node = order[head]
        head += 1
        for other, _, _, _ in adjacency[node]:
            if other not in visited:
                visited.add(other)
                order.append(other)
    order.extend(node for node in pattern.variables() if node not in visited)
    return order


class _PatternTable:
    """One batch's distinct patterns as dense arrays (freed with the batch).

    Labels are interned per batch, wildcard = 0.  Per pattern: node labels
    by variable and by search position, the variable → position map, the
    pivot, and for every search position its back-edge constraints to
    earlier positions ``(earlier position, is_out, label)`` — a loop's
    "earlier" position is its own — where label 0 asks for any edge.  Host
    edges become sorted integer keys ``(pattern, src, dst, label)``; each
    edge is keyed under its own label and under 0.
    """

    def __init__(self, patterns: Sequence[Pattern]) -> None:
        width = self.width = max(pattern.num_nodes for pattern in patterns)
        labels: Dict[str, int] = {WILDCARD: 0}
        self.labels = np.array([
            [labels.setdefault(label, len(labels)) for label in pattern.labels]
            + [-1] * (width - pattern.num_nodes)
            for pattern in patterns
        ], dtype=np.int64)
        # search orders padded with the unused variables: a permutation per row
        orders = np.array([
            _search_order(pattern) + list(range(pattern.num_nodes, width))
            for pattern in patterns
        ], dtype=np.int64)
        self.position = np.argsort(orders, axis=1)
        self.position_labels = np.take_along_axis(self.labels, orders, axis=1)
        self.num_nodes = np.array(
            [pattern.num_nodes for pattern in patterns], dtype=np.int64
        )
        self.pivot = np.array([pattern.pivot for pattern in patterns], dtype=np.int64)
        edges = [
            (index, edge.src, edge.dst, labels.setdefault(edge.label, len(labels)))
            for index, pattern in enumerate(patterns)
            for edge in pattern.edges
        ]
        self.num_labels = len(labels)
        index, src, dst, label = (
            np.array(column, dtype=np.int64).reshape(-1)
            for column in (zip(*edges) if edges else ((),) * 4)
        )
        base = ((index * width + src) * width + dst) * self.num_labels
        self.edge_keys = np.sort(np.concatenate((base + label, base)))
        # an edge constrains the later-assigned of its endpoints; a loop
        # constrains its one endpoint against itself
        at_src, at_dst = self.position[index, src], self.position[index, dst]
        step = np.maximum(at_src, at_dst)
        grouped = np.lexsort((step, index))
        index, step, label = index[grouped], step[grouped], label[grouped]
        is_out, earlier = (at_src > at_dst)[grouped], np.minimum(at_src, at_dst)[grouped]
        group = index * width + step
        slot = np.arange(len(group)) - np.searchsorted(group, group)
        self.depth = int(slot.max()) + 1 if len(slot) else 0
        shape = (len(patterns), width, max(1, self.depth))
        self.constraint_other = np.zeros(shape, dtype=np.int64)
        self.constraint_out = np.zeros(shape, dtype=bool)
        self.constraint_label = np.full(shape, -1, dtype=np.int64)
        self.constraint_other[index, step, slot] = earlier
        self.constraint_out[index, step, slot] = is_out
        self.constraint_label[index, step, slot] = label

    def has_edge(self, keys: np.ndarray) -> np.ndarray:
        if not len(self.edge_keys):
            return np.zeros(len(keys), dtype=bool)
        found = np.searchsorted(self.edge_keys, keys)
        found[found == len(self.edge_keys)] = 0
        return self.edge_keys[found] == keys

    def search(
        self,
        inner: np.ndarray,
        outer: np.ndarray,
        pivot: np.ndarray,
        inner_nodes: int,
        outer_nodes: int,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """All embeddings of one size class of pairs, as ``(owner, rows)``.

        ``pivot[i]`` is the host variable pair ``i``'s inner pivot must map
        to, or -1.  Partial maps (one column per search position) grow one
        position at a time for every pair at once; each map tries its
        candidates in ascending order, so each pair's rows stay contiguous
        and in the order the backtracking search yields them.
        ``rows[r, u]`` is the host variable of inner variable ``u``.
        """
        width = self.width
        owner = np.arange(len(inner))
        maps = np.zeros((len(inner), 0), dtype=np.int64)
        wanted = self.position_labels[inner]
        offered = self.labels[outer]
        for step in range(inner_nodes):
            parent, image = np.divmod(np.arange(len(owner) * outer_nodes), outer_nodes)
            pair = owner[parent]
            label = wanted[pair, step]
            keep = (label == 0) | (label == offered[pair, image])
            if step == 0:
                keep &= (pivot[pair] < 0) | (pivot[pair] == image)
            for earlier in range(step):
                keep &= maps[parent, earlier] != image
            parent, image, pair = parent[keep], image[keep], pair[keep]
            for slot in range(self.depth):
                cell = (inner[pair], step, slot)
                label = self.constraint_label[cell]
                active = label >= 0
                if not active.any():
                    break
                earlier = self.constraint_other[cell]
                # a loop's earlier position is its own: the new image
                other = image if not step else np.where(
                    earlier == step,
                    image,
                    maps[parent, np.minimum(earlier, step - 1)],
                )
                is_out = self.constraint_out[cell]
                src = np.where(is_out, image, other)
                dst = np.where(is_out, other, image)
                keys = ((outer[pair] * width + src) * width + dst) * self.num_labels
                keep = ~active | self.has_edge(keys + label)
                parent, image, pair = parent[keep], image[keep], pair[keep]
            maps = np.concatenate((maps[parent], image[:, None]), axis=1)
            owner = pair
            if not len(owner):
                return owner, np.zeros((0, inner_nodes), dtype=np.int64)
        return owner, np.take_along_axis(
            maps, self.position[inner[owner], :inner_nodes], axis=1
        )


def embedding_batch(
    pairs: Iterable[Tuple[Pattern, Pattern, bool]],
    max_results: Optional[int] = None,
) -> List[Tuple[Embedding, ...]]:
    """The embeddings of many ``(inner, outer, pivot_preserving)`` pairs.

    Returns, per pair, the tuple of injective embeddings ``f`` (``f[u]``
    the outer variable of inner ``u``; with ``pivot_preserving``,
    ``f(inner.pivot) == outer.pivot``), at most ``max_results`` of them —
    the same embeddings, in the same order, as the backtracking oracle
    ``repro.oracle.embeddings``.  The search is
    vectorized: pairs are deduplicated, filtered by :func:`may_embed` in
    one numpy pass, grouped by (inner size, outer size), and each group
    extends the partial maps of all its pairs one inner variable at a time.
    Labels are interned per call, so the alphabet has no fixed limit, and
    nothing outlives the call: the caller owns the relation it asked for.
    """
    pairs = list(pairs)
    if max_results is not None and max_results < 1:
        raise ValueError("max_results must be positive")
    if not pairs:
        return []
    inners, outers, preserving = zip(*pairs)
    by_id = dict(zip(map(id, inners + outers), inners + outers))
    index = {key: position for position, key in enumerate(by_id)}
    inner = np.fromiter(map(index.__getitem__, map(id, inners)), np.int64, len(pairs))
    outer = np.fromiter(map(index.__getitem__, map(id, outers)), np.int64, len(pairs))
    # one search per distinct (inner, outer, pivot-preserving) triple
    codes = (inner * len(index) + outer) * 2 + np.array(preserving, dtype=bool)
    codes, back = np.unique(codes, return_inverse=True)
    preserves = codes % 2 == 1
    inner, outer = divmod(codes // 2, len(index))
    patterns = list(by_id.values())
    profiles = _Profiles(patterns)
    fits = profiles.fit_pairs(inner, outer)
    table = _PatternTable(patterns)
    span = table.width + 1
    size_class = table.num_nodes[inner] * span + table.num_nodes[outer]
    unique: List[Tuple[Embedding, ...]] = [()] * len(codes)
    for code in np.unique(size_class[fits]).tolist():
        chosen = np.flatnonzero(fits & (size_class == code))
        pivot = np.where(preserves[chosen], table.pivot[outer[chosen]], -1)
        owner, rows = table.search(
            inner[chosen], outer[chosen], pivot, code // span, code % span
        )
        if max_results is not None:
            rank = np.arange(len(owner)) - np.searchsorted(owner, owner)
            owner, rows = owner[rank < max_results], rows[rank < max_results]
        counts = np.bincount(owner, minlength=len(chosen))
        ends = np.cumsum(counts).tolist()
        listed = rows.tolist()
        for local in np.flatnonzero(counts).tolist():
            start = ends[local] - counts[local]
            unique[chosen[local]] = tuple(map(tuple, listed[start:ends[local]]))
    return [unique[position] for position in back.tolist()]


def is_embedded(inner: Pattern, outer: Pattern, pivot_preserving: bool = False) -> bool:
    """Whether at least one embedding of ``inner`` into ``outer`` exists.

    One kernel call for one pair that passes :func:`may_embed`; callers
    asking about many pairs pass them to :func:`embedding_batch` together.
    """
    return may_embed(inner, outer) and bool(
        embedding_batch([(inner, outer, pivot_preserving)], max_results=1)[0]
    )

