"""The embedding oracle: pattern-into-pattern embeddings by backtracking.

:func:`embeddings` is the definition the product kernel
:func:`~repro.pattern.embedding.embedding_batch` is tested against: the
same embeddings, in the same order, one pair at a time (Section 3's
embedding of ``Q'`` into ``Q``; the label condition is directional — see
:mod:`repro.pattern.embedding`).
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Tuple

from ..pattern.embedding import Embedding, may_embed
from ..pattern.pattern import WILDCARD, Pattern, label_matches

__all__ = ["embeddings"]


def embeddings(
    inner: Pattern,
    outer: Pattern,
    pivot_preserving: bool = False,
    max_results: Optional[int] = None,
) -> Iterator[Embedding]:
    """Enumerate injective embeddings of ``inner`` into ``outer``.

    Args:
        inner: the pattern being embedded (e.g. the pattern of a known GFD).
        outer: the host pattern.
        pivot_preserving: require ``f(inner.pivot) == outer.pivot`` — the
            condition of the GFD ordering ``≪`` (Section 4.1).
        max_results: stop after this many embeddings.

    Yields tuples ``f`` with ``f[u]`` the outer variable for inner ``u``.
    """
    if not may_embed(inner, outer):
        return

    # adjacency of outer for O(1) edge lookups: (src, dst) -> set of labels
    outer_edges: Dict[Tuple[int, int], set] = {}
    for edge in outer.edges:
        outer_edges.setdefault((edge.src, edge.dst), set()).add(edge.label)

    inner_adjacency = inner.adjacency()
    order: List[int] = []
    visited = set()
    start = inner.pivot
    # BFS order from the pivot keeps back-edge constraints available early.
    frontier = [start]
    visited.add(start)
    while frontier:
        node = frontier.pop(0)
        order.append(node)
        for other, _, _, _ in inner_adjacency[node]:
            if other not in visited:
                visited.add(other)
                frontier.append(other)
    # patterns handed to embeddings are connected; defend anyway:
    for node in inner.variables():
        if node not in visited:
            order.append(node)

    assignment: List[int] = [-1] * inner.num_nodes
    used = [False] * outer.num_nodes
    emitted = 0

    def label_ok(inner_var: int, outer_var: int) -> bool:
        return label_matches(outer.labels[outer_var], inner.labels[inner_var])

    def edges_ok(inner_var: int, outer_var: int) -> bool:
        for other, _, label, is_out in inner_adjacency[inner_var]:
            # a loop's other end is the variable being placed
            image = outer_var if other == inner_var else assignment[other]
            if image == -1:
                continue
            pair = (outer_var, image) if is_out else (image, outer_var)
            labels = outer_edges.get(pair)
            if not labels:
                return False
            if label == WILDCARD:
                continue
            # the outer edge label must itself match the inner requirement:
            # L_outer(e) ⪯ l_inner means equality for concrete inner labels
            # (a wildcard outer edge only satisfies a wildcard inner edge).
            if label not in labels:
                return False
        return True

    def backtrack(position: int) -> Iterator[Embedding]:
        nonlocal emitted
        if position == len(order):
            emitted += 1
            yield tuple(assignment)
            return
        inner_var = order[position]
        if pivot_preserving and inner_var == inner.pivot:
            candidates: Iterator[int] = iter((outer.pivot,))
        else:
            candidates = iter(range(outer.num_nodes))
        for outer_var in candidates:
            if used[outer_var]:
                continue
            if not label_ok(inner_var, outer_var):
                continue
            if not edges_ok(inner_var, outer_var):
                continue
            assignment[inner_var] = outer_var
            used[outer_var] = True
            yield from backtrack(position + 1)
            used[outer_var] = False
            assignment[inner_var] = -1
            if max_results is not None and emitted >= max_results:
                return

    yield from backtrack(0)
