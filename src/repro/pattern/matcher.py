"""Subgraph isomorphism with wildcard labels.

A *match* of pattern ``Q`` in graph ``G`` (Section 2.1) is an injective
mapping ``h`` from pattern variables to graph nodes such that

* node labels satisfy ``L_G(h(u)) ⪯ L_Q(u)`` (wildcard matches anything),
* every pattern edge ``(u, v, l)`` maps to a graph edge ``(h(u), h(v), l')``
  with ``l' ⪯ l``, and parallel pattern edges between the same endpoints map
  to *distinct* graph edges.

Matches are the non-induced kind: extra graph edges among matched nodes are
allowed (the match subgraph consists of exactly the images of pattern edges).

Matching follows a connectivity-driven search plan (:func:`search_plan`)
over a frozen :class:`~repro.graph.index.GraphIndex`.  A plan is compiled to
a sequence of ops over plan positions — root label, then per further
variable one fan-out of the whole batch along a pattern edge (``Q'(G) =
Q(G) ⋈ e``), one batched ``np.searchsorted`` filter per other edge back to a
mapped variable, one label-count filter per parallel-edge pair — and any
number of plans are inserted into one prefix trie (:func:`compile_plans`).
:meth:`PlanTrie.match` walks it depth-first one block of the root pool at a
time: an op shared by many plans runs once on the rows its prefix produced,
an empty result prunes everything below it, and no Python frame is spent
per assignment.  :func:`match_array` / :func:`find_matches` are the
one-plan case of that walk; enforcement inserts all of ``Σ``.  Plans hold
label strings, never codes, so a trie outlives index patches and snapshots.
The layer's oracle is a VF2-style backtracking search over the dict
adjacency that follows the same plan and enumerates the same match
multiset (:func:`repro.oracle.reference_matches`).
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, Iterator, List, Optional, Tuple

import numpy as np

from ..graph.graph import Graph
from ..graph.index import GraphIndex
from .incremental import Extension, extend_matches
from .pattern import WILDCARD, Match, Pattern

__all__ = [
    "Match",
    "find_matches",
    "match_array",
    "PlanTrie",
    "compile_plans",
    "search_plan",
]

#: Root-pool nodes joined per block: bounds the joins' intermediates and
#: lets ``max_matches`` stop early.
_ROOT_BLOCK = 4096


def _search_order(pattern: Pattern, root: int) -> List[int]:
    """Visit order over pattern variables: root first, then by connectivity.

    Greedy: always pick the unvisited variable with the most edges to visited
    ones (maximizes pruning), tie-broken by non-wildcard label then index.
    Assumes the pattern is connected (discovery only mines connected patterns).
    """
    adjacency = pattern.adjacency()
    order = [root]
    visited = {root}
    while len(order) < pattern.num_nodes:
        best = None
        best_key = None
        for candidate in pattern.variables():
            if candidate in visited:
                continue
            links = sum(
                1 for other, _, _, _ in adjacency[candidate] if other in visited
            )
            key = (links, pattern.labels[candidate] != WILDCARD, -candidate)
            if best_key is None or key > best_key:
                best, best_key = candidate, key
        assert best is not None
        order.append(best)
        visited.add(best)
    return order


def search_plan(pattern: Pattern, anchor: int):
    """The search plan of ``pattern`` from ``anchor``: the plan trie's and
    the backtracking oracle's (:func:`repro.oracle.reference_matches`).

    Returns ``(order, position_of, back_edges, parallel_groups)``:
    ``back_edges[p]`` lists, for the variable at plan position ``p``, its
    edges to already-mapped variables as ``(mapped_var, label,
    is_out_from_new)``; ``parallel_groups`` maps each ``(src, dst)`` pair
    carrying several pattern edges to their labels (the pairs needing the
    injective label-assignment check).
    """
    order = _search_order(pattern, anchor)
    adjacency = pattern.adjacency()
    position_of = {variable: position for position, variable in enumerate(order)}
    back_edges: List[List[Tuple[int, str, bool]]] = [[] for _ in order]
    for position, variable in enumerate(order):
        for other, _, label, is_out in adjacency[variable]:
            if position_of[other] < position:
                back_edges[position].append((other, label, is_out))
    parallel: Dict[Tuple[int, int], List[str]] = {}
    for edge in pattern.edges:
        parallel.setdefault((edge.src, edge.dst), []).append(edge.label)
    parallel_groups = {
        pair: edge_labels
        for pair, edge_labels in parallel.items()
        if len(edge_labels) > 1
    }
    return order, position_of, back_edges, parallel_groups


def find_matches(
    graph: Optional[Graph],
    pattern: Pattern,
    seeds: Optional[Iterable[int]] = None,
    max_matches: Optional[int] = None,
    root: Optional[int] = None,
    index: Optional[GraphIndex] = None,
) -> Iterator[Match]:
    """Enumerate matches of ``pattern``: the one-plan case of :class:`PlanTrie`.

    Args:
        graph: the data graph (unused, and may be ``None``, with ``index``).
        pattern: a connected pattern.
        seeds: restrict the *root* variable (default: the pivot) to these
            graph nodes — used for pivot-local matching.
        max_matches: stop after this many matches (None = all).
        root: which variable anchors the search (default: the pivot).
        index: the frozen index to match on (default: ``graph.index()``).

    Yields match tuples (graph node per variable, in variable order), one
    root block at a time in join order.
    """
    anchor = pattern.pivot if root is None else root
    emitted = 0
    for block in _match_blocks(index or graph.index(), pattern, seeds, anchor):
        for row in block.tolist():
            emitted += 1
            yield tuple(row)
            if max_matches is not None and emitted >= max_matches:
                return


class _TrieNode:
    """One shared plan prefix: the plans ending here, the ops leading on."""

    __slots__ = ("plans", "children")

    def __init__(self) -> None:
        #: ``(plan id, column of each pattern variable)`` per plan ending here
        self.plans: List[Tuple[Any, List[int]]] = []
        #: op -> child; an op is an :class:`Extension` over plan positions
        #: (new node = fan-out, closing = filter) or ``(src, dst, needed)``
        self.children: Dict[Any, "_TrieNode"] = {}


class PlanTrie:
    """Search plans as op sequences, stored once per shared prefix.

    A plan is its root label, then per plan position the driving fan-out,
    the closing filters and the parallel-edge multiplicities — all written
    in label *strings*, so a trie compiled once outlives every index patch,
    snapshot and store re-attach.  ``plans`` counts the plans inserted,
    ``steps`` the fan-outs they hold one by one, ``nodes`` the trie nodes
    that store them, ``joins`` the fan-outs the latest :meth:`match` ran.
    """

    def __init__(self) -> None:
        self.roots: Dict[str, _TrieNode] = {}
        self.plans = self.steps = self.nodes = self.joins = 0

    def insert(self, plan_id: Any, pattern: Pattern, anchor: int) -> None:
        """Add the search plan of ``pattern`` from ``anchor`` under ``plan_id``."""
        order, position_of, back_edges, parallel_groups = search_plan(
            pattern, anchor
        )
        ops: List[Any] = []
        for position in range(1, len(order)):
            edges = back_edges[position]
            # drive by a concrete label where there is one: the smaller fan-out
            driver = next(
                (which for which, edge in enumerate(edges) if edge[1] != WILDCARD), 0
            )
            mapped_var, edge_label, is_out = edges[driver]
            ops.append(
                Extension(
                    position_of[mapped_var],
                    position,
                    edge_label,
                    pattern.labels[order[position]],
                    outward=not is_out,
                )
            )
            # every other back edge is a closing filter
            for which, (mapped_var, edge_label, is_out) in enumerate(edges):
                if which != driver:
                    pair = (position, position_of[mapped_var])
                    ops.append(
                        Extension(*(pair if is_out else pair[::-1]), edge_label)
                    )
            # parallel pattern edges on one node pair map to distinct graph
            # edges: checked where the pair's later endpoint is joined
            for (src, dst), group_labels in parallel_groups.items():
                if max(position_of[src], position_of[dst]) == position:
                    ops.append((position_of[src], position_of[dst], len(group_labels)))
        children = self.roots
        for op in [pattern.labels[order[0]], *ops]:
            if op not in children:
                children[op] = _TrieNode()
                self.nodes += 1
            node = children[op]
            children = node.children
        node.plans.append(
            (plan_id, [position_of[variable] for variable in pattern.variables()])
        )
        self.plans += 1
        self.steps += len(order) - 1

    def match(
        self, index: GraphIndex, seeds: Optional[Iterable[int]] = None
    ) -> Iterator[Tuple[Any, np.ndarray]]:
        """Yield ``(plan id, (n, vars) rows in variable order)``, block by block.

        Each root's pool — its label's nodes, or the ``seeds`` carrying that
        label — is joined ``_ROOT_BLOCK`` nodes at a time, depth-first: every
        trie edge runs once per block on the rows its prefix produced
        (``Q'(G) = Q(G) ⋈ e``), and an empty result prunes the subtree.  A
        plan's rows arrive in the order a walk of that plan alone gives.
        """
        self.joins = 0
        if seeds is not None:
            if not isinstance(seeds, np.ndarray):
                seeds = np.asarray(list(seeds), dtype=np.int64)
            seed_codes = index.node_label_codes[seeds]
        for label, root in self.roots.items():
            if label == WILDCARD:
                pool = (
                    np.arange(index.num_nodes, dtype=np.int64)
                    if seeds is None
                    else seeds
                )
            elif seeds is None:
                pool = index.nodes_with_label(label)
            else:
                pool = seeds[seed_codes == index.node_label_code(label)]
            for lo in range(0, pool.size, _ROOT_BLOCK):
                yield from self._walk(
                    index, root, pool[lo:lo + _ROOT_BLOCK].reshape(-1, 1)
                )

    def _walk(
        self, index: GraphIndex, node: _TrieNode, array: np.ndarray
    ) -> Iterator[Tuple[Any, np.ndarray]]:
        for plan_id, columns in node.plans:
            yield plan_id, array[:, columns]
        for op, child in node.children.items():
            if isinstance(op, Extension):
                self.joins += not op.is_closing
                rows = extend_matches(index, array, op)
            else:
                # parallel pattern edges, batched: the concrete labels
                # passed the filters above, so the injective assignment
                # exists iff the pair carries at least as many labels as
                # pattern edges
                src, dst, needed = op
                carried = index.edge_label_counts(array[:, src], array[:, dst])
                rows = array[carried >= needed]
            if rows.shape[0]:
                yield from self._walk(index, child, rows)


def compile_plans(plans: Iterable[Tuple[Any, Pattern, int]]) -> PlanTrie:
    """One :class:`PlanTrie` over ``(plan id, pattern, anchor variable)``s."""
    trie = PlanTrie()
    for plan_id, pattern, anchor in plans:
        trie.insert(plan_id, pattern, anchor)
    return trie


def _match_blocks(
    index: GraphIndex, pattern: Pattern, seeds: Optional[Iterable[int]], anchor: int
) -> Iterator[np.ndarray]:
    """One pattern's matches per root block: a one-plan :class:`PlanTrie`."""
    for _, rows in compile_plans([(None, pattern, anchor)]).match(index, seeds):
        yield rows


def match_array(
    index: GraphIndex,
    pattern: Pattern,
    seeds: Optional[Iterable[int]] = None,
    root: Optional[int] = None,
) -> np.ndarray:
    """All matches of ``pattern`` as one ``(N, vars)`` int64 array.

    The whole-pattern counterpart of :func:`~repro.pattern.incremental.
    extend_matches`: the same vectorized joins, started from the label pool
    of ``root`` (default: the pivot) — or from ``seeds``, label-filtered —
    instead of from a parent pattern's stored matches.
    """
    anchor = pattern.pivot if root is None else root
    blocks = list(_match_blocks(index, pattern, seeds, anchor))
    if not blocks:
        return np.empty((0, pattern.num_nodes), dtype=np.int64)
    return np.concatenate(blocks)
