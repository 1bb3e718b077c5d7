"""The matching oracle: VF2-style backtracking over the dict adjacency.

:func:`reference_matches` enumerates the matches of a pattern (Section
2.1) by depth-first search over the mutable :class:`~repro.graph.graph.
Graph`, following the same connectivity-driven plan as the product
matcher (:func:`repro.pattern.matcher.search_plan`); :func:`extend_match`
and :func:`reference_extend_matches` are ``Q'(G) = Q(G) ⋈ e`` one match at
a time.  They enumerate the same match multisets as the index's
``find_matches`` / ``extend_matches``, in depth-first and dict-insertion
order.  :func:`pivot_image` is the paper's pattern support set ``Q(G, z)``.
"""

from __future__ import annotations

from typing import Iterable, Iterator, List, Optional, Sequence, Set

from ..graph.graph import Graph
from ..pattern.incremental import Extension
from ..pattern.matcher import search_plan
from ..pattern.pattern import WILDCARD, Match, Pattern

__all__ = [
    "reference_matches",
    "pivot_image",
    "match_exists_at_pivot",
    "extend_match",
    "reference_extend_matches",
]


def _root_candidates(
    graph: Graph, pattern: Pattern, root: int, seeds: Optional[Iterable[int]]
) -> Iterable[int]:
    """Candidate graph nodes for the first variable of the search plan."""
    label = pattern.labels[root]
    if seeds is not None:
        if label == WILDCARD:
            return seeds
        return (v for v in seeds if graph.node_label(v) == label)
    if label == WILDCARD:
        return graph.nodes()
    return graph.nodes_with_label(label)


def _parallel_edges_ok(
    pattern_labels: Sequence[str], graph_labels: Set[str]
) -> bool:
    """Injective assignment test for parallel pattern edges on one node pair.

    Concrete pattern labels must all be present; wildcard pattern edges then
    need enough *distinct remaining* graph labels to map to injectively.
    """
    concrete = [l for l in pattern_labels if l != WILDCARD]
    for label in concrete:
        if label not in graph_labels:
            return False
    wildcards = len(pattern_labels) - len(concrete)
    return len(graph_labels) - len(concrete) >= wildcards


def reference_matches(
    graph: Graph,
    pattern: Pattern,
    seeds: Optional[Iterable[int]] = None,
    max_matches: Optional[int] = None,
    root: Optional[int] = None,
) -> Iterator[Match]:
    """Enumerate matches of ``pattern`` in ``graph`` by backtracking.

    Args:
        graph: the data graph.
        pattern: a connected pattern.
        seeds: restrict the *root* variable (default: the pivot) to these
            graph nodes — used for pivot-local matching.
        max_matches: stop after this many matches (None = all).
        root: which variable anchors the search (default: the pivot).

    Yields match tuples (graph node per variable, in variable order).
    """
    anchor = pattern.pivot if root is None else root
    order, position_of, back_edges, parallel_groups = search_plan(pattern, anchor)
    labels = pattern.labels
    assignment: List[int] = [-1] * pattern.num_nodes
    used: Set[int] = set()
    emitted = 0

    def candidates_for(position: int) -> Iterable[int]:
        """Graph-node candidates for plan position ``position``."""
        variable = order[position]
        required_label = labels[variable]
        # choose the cheapest back-edge to drive candidate generation
        best: Optional[Iterable[int]] = None
        best_size = None
        for mapped_var, edge_label, is_out in back_edges[position]:
            mapped_node = assignment[mapped_var]
            if is_out:
                # pattern edge variable -> mapped_var, so candidate has an
                # out-edge to mapped_node: candidates are in-neighbors sources
                neighbors = graph.in_neighbors(mapped_node)
            else:
                neighbors = graph.out_neighbors(mapped_node)
            if edge_label == WILDCARD:
                pool = list(neighbors)
            else:
                pool = [n for n, ls in neighbors.items() if edge_label in ls]
            if best_size is None or len(pool) < best_size:
                best, best_size = pool, len(pool)
                if best_size == 0:
                    return ()
        assert best is not None
        if required_label == WILDCARD:
            return best
        return [n for n in best if graph.node_label(n) == required_label]

    def edges_consistent(position: int, node: int) -> bool:
        """Verify all back edges from plan position ``position`` map to graph edges."""
        variable = order[position]
        for mapped_var, edge_label, is_out in back_edges[position]:
            mapped_node = assignment[mapped_var]
            if is_out:
                graph_labels = graph.edge_labels(node, mapped_node)
            else:
                graph_labels = graph.edge_labels(mapped_node, node)
            if not graph_labels:
                return False
            if edge_label != WILDCARD and edge_label not in graph_labels:
                return False
        # group check for parallel pattern edges whose endpoints are now mapped
        for (src, dst), group_labels in parallel_groups.items():
            if position_of[src] <= position and position_of[dst] <= position:
                s_node = node if src == variable else assignment[src]
                d_node = node if dst == variable else assignment[dst]
                if s_node == -1 or d_node == -1:
                    continue
                if not _parallel_edges_ok(
                    group_labels, graph.edge_labels(s_node, d_node)
                ):
                    return False
        return True

    def backtrack(position: int) -> Iterator[Match]:
        nonlocal emitted
        if position == len(order):
            emitted += 1
            yield tuple(assignment)
            return
        variable = order[position]
        if position == 0:
            pool: Iterable[int] = _root_candidates(graph, pattern, variable, seeds)
        else:
            pool = candidates_for(position)
        for node in pool:
            if node in used:
                continue
            if position == 0 and labels[variable] != WILDCARD:
                if graph.node_label(node) != labels[variable]:
                    continue
            if position > 0 and not edges_consistent(position, node):
                continue
            assignment[variable] = node
            used.add(node)
            yield from backtrack(position + 1)
            used.discard(node)
            assignment[variable] = -1
            if max_matches is not None and emitted >= max_matches:
                return

    yield from backtrack(0)


def pivot_image(
    graph: Graph, pattern: Pattern, seeds: Optional[Iterable[int]] = None
) -> Set[int]:
    """``Q(G, z)``: the distinct graph nodes the pivot maps to over all matches.

    This is the paper's pattern support set (Section 4.2).  The search is
    anchored at the pivot and stops at the *first* match per pivot candidate,
    so it is much cheaper than full enumeration.
    """
    image: Set[int] = set()
    for candidate in _root_candidates(graph, pattern, pattern.pivot, seeds):
        if candidate not in image and match_exists_at_pivot(graph, pattern, candidate):
            image.add(candidate)
    return image


def match_exists_at_pivot(graph: Graph, pattern: Pattern, pivot_node: int) -> bool:
    """Whether some match maps the pivot to ``pivot_node``."""
    for _ in reference_matches(graph, pattern, seeds=(pivot_node,), max_matches=1):
        return True
    return False


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


def reference_extend_matches(
    graph: Graph,
    matches: Iterable[Match],
    extension: Extension,
    max_matches: Optional[int] = None,
) -> List[Match]:
    """Join a batch of base matches with the extension edge, match by match.

    The uncapped result *set* equals the index's ``extend_matches``; per
    match, neighbors come in dict-insertion order rather than CSR order, so
    a binding ``max_matches`` may keep a different truncated subset.
    """
    result: List[Match] = []
    for match in matches:
        for extended in extend_match(graph, match, extension):
            result.append(extended)
            if max_matches is not None and len(result) >= max_matches:
                return result
    return result
