"""The GFD ordering ``≪`` and minimality (Section 4.1): the oracle.

``φ1 ≪ φ2`` when an isomorphism ``f`` from ``Q1`` onto a subgraph of ``Q2``
exists with (a) ``f`` preserving pivots, (b) ``f(X1) ⊆ X2`` and
``f(l1) = l2``, and (c) either ``Q1`` properly reduces ``Q2`` (fewer
nodes/edges, or a label strictly upgraded to wildcard) or ``f(X1) ⊊ X2``.
A GFD is *reduced* in ``G`` when no ``≪``-smaller GFD holds in ``G``, and
*minimum* when additionally nontrivial.

``ParDis`` emits only reduced GFDs: it prunes at emission, from the pairs
each pattern inherits from its parents.  :func:`minimal_cover_by_reduction`
is the plain statement of that result — a pairwise filter over a completed
set that removes every ``≪``-comparable pair and exact duplicates (via the
canonical form of :func:`normalize_gfd`).  The discovery oracle
(:class:`~repro.oracle.SequentialDiscovery`) applies it to its own
emissions, so its Σ is the reference ``ParDis`` is tested against.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence, Tuple

from ..core.reduction import gfd_identity
from ..gfd.gfd import GFD
from ..gfd.literals import FalseLiteral, Literal, rename_literal
from ..pattern.canonical import canonical_key, canonical_ordering
from ..pattern.embedding import (
    DistinctPatterns,
    embedding_batch,
    is_embedded,
    may_embed,
)
from ..pattern.pattern import WILDCARD, Pattern

__all__ = [
    "embeds_strictly",
    "gfd_reduces",
    "normalize_gfd",
    "minimal_cover_by_reduction",
]


def _strict_topological(inner: Pattern, outer: Pattern, mapping: Tuple[int, ...]) -> bool:
    """Whether ``inner ≪ outer`` *properly* through ``mapping``.

    Proper: fewer nodes, fewer edges, or at least one node/edge label of
    ``outer`` strictly upgraded to wildcard in ``inner``.
    """
    if inner.num_nodes < outer.num_nodes or inner.num_edges < outer.num_edges:
        return True
    for variable in inner.variables():
        if (
            inner.labels[variable] == WILDCARD
            and outer.labels[mapping[variable]] != WILDCARD
        ):
            return True
    outer_edges = {}
    for edge in outer.edges:
        outer_edges.setdefault((edge.src, edge.dst), set()).add(edge.label)
    for edge in inner.edges:
        if edge.label == WILDCARD:
            pair = (mapping[edge.src], mapping[edge.dst])
            if any(label != WILDCARD for label in outer_edges.get(pair, ())):
                return True
    return False


def _reduces_through(
    smaller: GFD, larger: GFD, mappings: Iterable[Tuple[int, ...]]
) -> bool:
    """``smaller ≪ larger`` for two GFDs of the same polarity, given every
    pivot-preserving embedding of ``smaller.pattern`` into ``larger.pattern``."""
    for mapping in mappings:
        mapped_lhs = frozenset(rename_literal(l, mapping) for l in smaller.lhs)
        if not mapped_lhs <= larger.lhs:
            continue
        if not isinstance(smaller.rhs, FalseLiteral):
            if rename_literal(smaller.rhs, mapping) != larger.rhs:
                continue
        if _strict_topological(smaller.pattern, larger.pattern, mapping):
            return True
        if mapped_lhs < larger.lhs:
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
    return canonical_key(inner) != canonical_key(outer)


def gfd_reduces(smaller: GFD, larger: GFD) -> bool:
    """``smaller ≪ larger`` — the reduction ordering on GFDs.

    Both positive and negative GFDs are supported; ``f(l1) = l2`` holds for
    negatives exactly when both RHS are ``false``.
    """
    if isinstance(smaller.rhs, FalseLiteral) != isinstance(larger.rhs, FalseLiteral):
        return False
    if not may_embed(smaller.pattern, larger.pattern):
        return False
    (mappings,) = embedding_batch([(smaller.pattern, larger.pattern, True)])
    return _reduces_through(smaller, larger, mappings)


def normalize_gfd(gfd: GFD) -> GFD:
    """The GFD rewritten over its pattern's canonical variable ordering.

    Two GFDs that differ only by a pivot-preserving renaming of variables
    normalize to equal objects — the duplicate test used across spawn paths.
    """
    ordering = canonical_ordering(gfd.pattern)
    position = {old: new for new, old in enumerate(ordering)}
    pattern = Pattern(
        [gfd.pattern.labels[old] for old in ordering],
        sorted(
            (position[e.src], position[e.dst], e.label) for e in gfd.pattern.edges
        ),
        pivot=position[gfd.pattern.pivot],
    )
    lhs = frozenset(rename_literal(l, position) for l in gfd.lhs)
    rhs = rename_literal(gfd.rhs, position)
    return GFD(pattern, lhs, rhs)


def _literal_signature(literal: Literal) -> Tuple:
    """A renaming-invariant abstraction of a literal (for prefilters)."""
    if isinstance(literal, FalseLiteral):
        return ("false",)
    from ..gfd.literals import ConstantLiteral, VariableLiteral

    if isinstance(literal, ConstantLiteral):
        return ("const", literal.attr, literal.value)
    assert isinstance(literal, VariableLiteral)
    return ("var", tuple(sorted((literal.attr1, literal.attr2))))


def _multiset_leq(smaller: Tuple, larger: Tuple) -> bool:
    """Whether the sorted tuple ``smaller`` is a sub-multiset of ``larger``."""
    position = 0
    for item in smaller:
        while position < len(larger) and larger[position] < item:
            position += 1
        if position >= len(larger) or larger[position] != item:
            return False
        position += 1
    return True


def minimal_cover_by_reduction(gfds: Sequence[GFD]) -> List[GFD]:
    """Drop duplicates and every GFD with a ``≪``-smaller sibling in the set.

    This enforces *minimality in the set* (reduced GFDs, Section 4.1); note
    it is distinct from the implication-based cover of Section 5.2, which
    runs afterwards.  Prefilters skip the embedding test for the vast
    majority of incomparable pairs.  ``smaller ≪ larger`` needs an embedding
    of the patterns, and whether one can exist is decided once per distinct
    pattern (:class:`~repro.pattern.embedding.DistinctPatterns`), not per
    rule; the per-rule half compares renaming-invariant literal signatures
    (the same RHS signature, the LHS signatures a sub-multiset).  The
    pattern pairs that survive both go to one embedding-kernel call, whose
    result is dropped when this function returns.
    """
    unique: Dict[Tuple, GFD] = {}
    for gfd in gfds:
        unique.setdefault(gfd_identity(gfd), gfd)
    items = list(unique.values())
    patterns = DistinctPatterns(gfd.pattern for gfd in items)
    lhs_sigs = [
        tuple(sorted(_literal_signature(l) for l in gfd.lhs)) for gfd in items
    ]
    rhs_sigs = [_literal_signature(gfd.rhs) for gfd in items]
    # only same-RHS-signature pairs can be ≪-comparable: bucket each
    # pattern's rules by it up front
    by_rhs: List[Dict[Tuple, List[int]]] = []
    for members in patterns.members:
        buckets: Dict[Tuple, List[int]] = {}
        for index in members:
            buckets.setdefault(rhs_sigs[index], []).append(index)
        by_rhs.append(buckets)
    # per rule, the (smaller pattern, smaller rule) pairs its patterns and
    # literal signatures admit (equal RHS signatures: equal polarity); the
    # pattern pairs any rule pair needs
    challengers: List[List[Tuple[int, int]]] = [[] for _ in items]
    needed: Dict[Tuple[int, int], None] = {}
    candidates = patterns.may_embed_into(patterns.patterns)
    for large, members in enumerate(patterns.members):
        for index in members:
            for small in candidates[large]:
                for other in by_rhs[small].get(rhs_sigs[index], ()):
                    if other != index and _multiset_leq(
                        lhs_sigs[other], lhs_sigs[index]
                    ):
                        challengers[index].append((small, other))
                        needed[(small, large)] = None
    found = dict(zip(needed, embedding_batch(
        (patterns.patterns[small], patterns.patterns[large], True)
        for small, large in needed
    )))
    slot_of = {
        index: slot
        for slot, members in enumerate(patterns.members)
        for index in members
    }
    dominated = [
        any(
            _reduces_through(
                items[other], items[index], found[(small, slot_of[index])]
            )
            for small, other in challengers[index]
        )
        for index in range(len(items))
    ]
    return [gfd for index, gfd in enumerate(items) if not dominated[index]]
