"""The support oracle: support of patterns and GFDs by re-matching (Section 4.2).

* ``supp(Q, G) = |Q(G, z)|`` — distinct pivot images over all matches;
* ``ρ(φ, G) = |Q(G, Xl, z)| / |Q(G, z)|`` — the fraction of pivots whose
  matches witness *both* ``X`` and ``l`` ("true implication");
* ``supp(φ, G) = supp(Q, G) · ρ(φ, G) = |Q(G, Xl, z)|``;
* a negative GFD's support is the maximum support of its *bases* — the
  frequent pattern (edge removed) or valid positive GFD (literal removed)
  it minimally extends.

These standalone functions recompute matches with the backtracking
matcher; the discovery engine gets the same quantities incrementally from
match tables and is tested against them.  Theorem 3
(anti-monotonicity: ``φ1 ≪ φ2 ⇒ supp(φ1) ≥ supp(φ2)``) is exercised by the
property-based tests.
"""

from __future__ import annotations

from typing import Set

from ..gfd.gfd import GFD
from ..gfd.literals import FalseLiteral
from ..graph.graph import Graph
from ..pattern.pattern import Pattern
from .matching import pivot_image, reference_matches
from .satisfaction import satisfies_all, satisfies_literal

__all__ = [
    "pattern_support",
    "support_set",
    "gfd_support",
    "negative_base_support",
    "gfd_support_any",
]


def pattern_support(graph: Graph, pattern: Pattern) -> int:
    """``supp(Q, G) = |Q(G, z)|`` — the pivoted pattern support."""
    return len(pivot_image(graph, pattern))


def support_set(graph: Graph, gfd: GFD) -> Set[int]:
    """``Q(G, Xl, z)``: pivots having a match satisfying both ``X`` and ``l``."""
    if isinstance(gfd.rhs, FalseLiteral):
        return set()
    pivots: Set[int] = set()
    pivot_var = gfd.pattern.pivot
    for match in reference_matches(graph, gfd.pattern):
        node = match[pivot_var]
        if node in pivots:
            continue
        if satisfies_all(graph, match, gfd.lhs) and satisfies_literal(
            graph, match, gfd.rhs
        ):
            pivots.add(node)
    return pivots


def gfd_support(graph: Graph, gfd: GFD) -> int:
    """``supp(φ, G)`` for a positive GFD (0 for negative — see the base form)."""
    return len(support_set(graph, gfd))


def negative_base_support(graph: Graph, gfd: GFD) -> int:
    """Support of a negative GFD via its bases (Section 4.2).

    * ``X = ∅``: bases are the patterns obtained by removing one edge
      (dropping isolated variables, keeping the pivot); the support is the
      maximum pattern support among connected bases.
    * ``X ≠ ∅``: bases are the dependencies with one literal removed; the
      exact base is a *valid positive* GFD, whose support is bounded by
      ``|Q(G, X', z)|`` — the discovery engine tracks the exact base, this
      standalone function returns the bound ``max_{l'} |Q(G, X\\{l'}, z)|``.
    """
    if not gfd.is_negative:
        raise ValueError("negative_base_support expects a negative GFD")
    pattern = gfd.pattern
    if not gfd.lhs:
        best = 0
        for index in range(pattern.num_edges):
            base = pattern.without_edge(index)
            if not base.is_connected():
                continue
            best = max(best, pattern_support(graph, base))
        return best
    best = 0
    for removed in gfd.lhs:
        remaining = [l for l in gfd.lhs if l != removed]
        pivots: Set[int] = set()
        for match in reference_matches(graph, pattern):
            node = match[pattern.pivot]
            if node not in pivots and satisfies_all(graph, match, remaining):
                pivots.add(node)
        best = max(best, len(pivots))
    return best


def gfd_support_any(graph: Graph, gfd: GFD) -> int:
    """Uniform support: positive GFDs directly, negative via their bases."""
    if gfd.is_negative:
        return negative_base_support(graph, gfd)
    return gfd_support(graph, gfd)
