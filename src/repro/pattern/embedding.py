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
"""

from __future__ import annotations

from functools import lru_cache
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from .pattern import WILDCARD, Pattern, label_matches

__all__ = [
    "embeddings",
    "cached_embeddings",
    "may_embed",
    "DistinctPatterns",
    "is_embedded",
    "embeds_strictly",
]

#: An embedding: image in the outer pattern per inner-pattern variable.
Embedding = Tuple[int, ...]


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
            image = assignment[other]
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


@lru_cache(maxsize=131072)
def _label_multisets(pattern: Pattern) -> Tuple[Dict[str, int], Dict[str, int]]:
    """Concrete (non-wildcard) node/edge label counts of a pattern."""
    nodes: Dict[str, int] = {}
    for label in pattern.labels:
        if label != WILDCARD:
            nodes[label] = nodes.get(label, 0) + 1
    edges: Dict[str, int] = {}
    for edge in pattern.edges:
        if edge.label != WILDCARD:
            edges[edge.label] = edges.get(edge.label, 0) + 1
    return nodes, edges


#: What the embedding prefilter reads of a pattern: node count, edge count,
#: concrete node-label counts, concrete edge-label counts.
_Profile = Tuple[int, int, Dict[str, int], Dict[str, int]]


def _profile(pattern: Pattern) -> _Profile:
    return (pattern.num_nodes, pattern.num_edges) + _label_multisets(pattern)


def _profile_fits(inner: _Profile, outer: _Profile) -> bool:
    """:func:`may_embed` on precomputed profiles."""
    if inner[0] > outer[0] or inner[1] > outer[1]:
        return False
    for label, count in inner[2].items():
        if outer[2].get(label, 0) < count:
            return False
    for label, count in inner[3].items():
        if outer[3].get(label, 0) < count:
            return False
    return True


def may_embed(inner: Pattern, outer: Pattern) -> bool:
    """Cheap necessary conditions for any embedding of inner into outer.

    A concrete inner label only maps onto the *same* outer label, so every
    concrete label must appear in the outer pattern at least as often.
    Rejects the overwhelming majority of incomparable pattern pairs before
    the backtracking search allocates anything.
    """
    return _profile_fits(_profile(inner), _profile(outer))


class DistinctPatterns:
    """The distinct patterns of a rule set, with a label-bitmask prefilter.

    ``Σ`` has far fewer patterns than rules, and whether a rule can take
    part in a derivation over ``Q`` depends on its pattern alone — so
    embedding questions are asked once per distinct pattern and expanded to
    the rules (``members[slot]``: positions in the input, ascending)
    afterwards.  Each pattern carries a bitmask of its concrete node/edge
    labels: a pattern with a label ``Q`` lacks cannot embed into ``Q``,
    which one integer AND decides before the sizes and label multisets are
    compared (:func:`may_embed`, on profiles read once per pattern).
    """

    def __init__(self, patterns: Iterable[Pattern]) -> None:
        members: Dict[Pattern, List[int]] = {}
        for position, pattern in enumerate(patterns):
            members.setdefault(pattern, []).append(position)
        self.patterns: List[Pattern] = list(members)
        self.members: List[List[int]] = list(members.values())
        self._bits: Dict[Tuple[bool, str], int] = {}
        self._masks: List[int] = [
            self._label_mask(pattern, intern=True) for pattern in self.patterns
        ]
        self._profiles: List[_Profile] = [
            _profile(pattern) for pattern in self.patterns
        ]

    def _label_mask(self, pattern: Pattern, intern: bool) -> int:
        """Bitmask of ``pattern``'s concrete labels (unknown ones skipped
        unless ``intern``: no stored pattern can require them)."""
        nodes, edges = _label_multisets(pattern)
        mask = 0
        for is_edge, labels in ((False, nodes), (True, edges)):
            for label in labels:
                bit = self._bits.get((is_edge, label))
                if bit is None:
                    if not intern:
                        continue
                    bit = self._bits[(is_edge, label)] = 1 << len(self._bits)
                mask |= bit
        return mask

    def may_embed_into(self, outer: Pattern) -> Iterator[int]:
        """Slots of the patterns that pass the prefilters against ``outer``."""
        lacking = ~self._label_mask(outer, intern=False)
        profile = _profile(outer)
        for slot, mask in enumerate(self._masks):
            if not mask & lacking and _profile_fits(self._profiles[slot], profile):
                yield slot


@lru_cache(maxsize=131072)
def cached_embeddings(
    inner: Pattern,
    outer: Pattern,
    pivot_preserving: bool = False,
    max_results: Optional[int] = None,
) -> Tuple[Embedding, ...]:
    """Materialized :func:`embeddings`, memoized on the pattern pair.

    Patterns are immutable and hash structurally, and cover/implication
    checking re-enumerates the same (inner, outer) pairs once per GFD pair —
    memoization turns the quadratic re-enumeration into a dictionary hit.
    """
    return tuple(embeddings(inner, outer, pivot_preserving, max_results))


@lru_cache(maxsize=131072)
def is_embedded(inner: Pattern, outer: Pattern, pivot_preserving: bool = False) -> bool:
    """Whether at least one embedding of ``inner`` into ``outer`` exists."""
    for _ in embeddings(inner, outer, pivot_preserving, max_results=1):
        return True
    return False


def embeds_strictly(inner: Pattern, outer: Pattern) -> bool:
    """Pivot-preserving embedding that is *not* an isomorphism.

    This is the topological half of ``Q ≪ Q'``: ``inner`` removes
    nodes/edges from ``outer`` or upgrades labels to wildcard.
    """
    if not is_embedded(inner, outer, pivot_preserving=True):
        return False
    if inner.num_nodes < outer.num_nodes or inner.num_edges < outer.num_edges:
        return True
    # same size: strict only if some label is strictly more general
    from .canonical import canonical_key  # local import avoids a cycle

    return canonical_key(inner) != canonical_key(outer)
