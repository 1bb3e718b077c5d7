"""Canonical forms for small patterns.

Vertical spawning generates the same pattern along many extension orders; the
generation tree merges them via ``iso(Q)`` (Section 5.1), and ``ParCover``
groups GFDs whose patterns are isomorphic (Section 6.3).  Both need equality
*up to pivot-preserving isomorphism*, decided here by a canonical key.

Patterns are tiny (``k ≤ 6`` in the paper), so an exact search is viable:
nodes are first partitioned by a Weisfeiler-Leman-style refinement invariant,
then the lexicographically smallest encoding over the remaining permutations
is taken.  The pivot is always placed first, which bakes pivot preservation
into the key.
"""

from __future__ import annotations

from itertools import permutations
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from .pattern import Pattern

__all__ = [
    "canonical_key",
    "canonical_ordering",
    "pivot_blind_key",
    "are_isomorphic",
    "canonicalize",
]

#: A canonical key: (labels in canonical order, sorted re-indexed edges).
CanonicalKey = Tuple[Tuple[str, ...], Tuple[Tuple[int, int, str], ...]]


def _refinement_invariant(
    pattern: Pattern, pivot: Optional[int], rounds: int = 2
) -> List[str]:
    """A per-node isomorphism invariant via iterated neighborhood hashing.

    ``pivot`` (or ``None``: no variable is marked) starts in a color of
    its own.
    """
    colors = [
        f"{label}|p" if v == pivot else label
        for v, label in enumerate(pattern.labels)
    ]
    adjacency = pattern.adjacency()
    for _ in range(rounds):
        new_colors = []
        for v in pattern.variables():
            signature = sorted(
                ("o" if is_out else "i", label, colors[other])
                for other, _, label, is_out in adjacency[v]
            )
            new_colors.append(f"{colors[v]}#{signature}")
        colors = new_colors
    return colors


def _class_orderings(
    pattern: Pattern, invariant: Sequence[str], pivot: Optional[int]
) -> Iterator[Tuple[int, ...]]:
    """All node orderings that respect invariant classes, ``pivot`` (if
    any) first.

    Classes are sorted by invariant string; orderings permute nodes only
    within a class, which keeps the permutation search small in practice.
    """
    others = [v for v in pattern.variables() if v != pivot]
    classes: Dict[str, List[int]] = {}
    for v in others:
        classes.setdefault(invariant[v], []).append(v)
    ordered_classes = [classes[key] for key in sorted(classes)]

    def expand(prefix: Tuple[int, ...], remaining: List[List[int]]) -> Iterator[Tuple[int, ...]]:
        if not remaining:
            yield prefix
            return
        head, tail = remaining[0], remaining[1:]
        for perm in permutations(head):
            yield from expand(prefix + perm, tail)

    yield from expand(() if pivot is None else (pivot,), ordered_classes)


def _encode(pattern: Pattern, ordering: Sequence[int]) -> CanonicalKey:
    """Encode the pattern with nodes renamed by position in ``ordering``."""
    position = {old: new for new, old in enumerate(ordering)}
    labels = tuple(pattern.labels[old] for old in ordering)
    edges = tuple(
        sorted((position[e.src], position[e.dst], e.label) for e in pattern.edges)
    )
    return (labels, edges)


def _search(
    pattern: Pattern, pivot: Optional[int]
) -> Tuple[CanonicalKey, Tuple[int, ...]]:
    """The least encoding over the class-respecting orderings, and the
    ordering that realizes it."""
    invariant = _refinement_invariant(pattern, pivot)
    best: CanonicalKey | None = None
    best_ordering: Tuple[int, ...] | None = None
    for ordering in _class_orderings(pattern, invariant, pivot):
        key = _encode(pattern, ordering)
        if best is None or key < best:
            best, best_ordering = key, ordering
    assert best is not None and best_ordering is not None
    return best, best_ordering


def _canonical_form(pattern: Pattern) -> Tuple[CanonicalKey, Tuple[int, ...]]:
    """The canonical key and the ordering realizing it, kept on the pattern.

    The search runs once per pattern instance; the result lives in the
    instance's ``_canonical`` slot and is freed with it.
    """
    cached = pattern._canonical
    if cached is None:
        cached = _search(pattern, pattern.pivot)
        object.__setattr__(pattern, "_canonical", cached)
    return cached


def canonical_key(pattern: Pattern) -> CanonicalKey:
    """A key equal for exactly the pivot-preserving-isomorphic patterns.

    Computed once per pattern instance and kept on it: the discovery and
    cover pipelines ask for the same pattern's key many times (tree merges,
    grouping, identity).
    """
    return _canonical_form(pattern)[0]


def canonical_ordering(pattern: Pattern) -> Tuple[int, ...]:
    """The node ordering realizing :func:`canonical_key`.

    ``ordering[position] = old variable``; renaming variables by position
    yields :func:`canonicalize`'s representative.  Used to normalize the
    literals of a GFD together with its pattern.
    """
    return _canonical_form(pattern)[1]


def pivot_blind_key(pattern: Pattern) -> CanonicalKey:
    """A key equal for exactly the patterns isomorphic *ignoring pivots*.

    The same search as :func:`canonical_key` with no variable marked or
    placed first; kept on the pattern like the canonical form.
    ``ParCover`` groups rules by it (implication does not see the pivot).
    """
    cached = pattern._pivot_blind_key
    if cached is None:
        cached = _search(pattern, None)[0]
        object.__setattr__(pattern, "_pivot_blind_key", cached)
    return cached


def canonicalize(pattern: Pattern) -> Pattern:
    """The canonical representative of the pattern's isomorphism class.

    The pivot becomes variable 0; two pivot-preserving-isomorphic patterns
    canonicalize to equal objects.
    """
    labels, edges = canonical_key(pattern)
    return Pattern(labels, edges, pivot=0)


def are_isomorphic(first: Pattern, second: Pattern) -> bool:
    """Pivot-preserving isomorphism test between two patterns."""
    if first.num_nodes != second.num_nodes or first.num_edges != second.num_edges:
        return False
    if sorted(first.labels) != sorted(second.labels):
        return False
    return canonical_key(first) == canonical_key(second)
