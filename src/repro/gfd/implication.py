"""GFD implication ``Σ ⊨ φ`` — the FPT algorithm of Theorem 1(a).

``Σ ⊨ φ`` for ``φ = Q[x̄](X → l)`` holds iff ``closure(Σ_Q, X)`` is
conflicting or ``l ∈ closure(Σ_Q, X)`` (characterization of [20], reviewed
in Section 3).  The cost is ``O((|φ| + |Σ|) · k^k)``: embeddings of each
GFD's pattern into ``Q`` dominate and are bounded by ``k^k``.

Implication is the engine of cover computation (Sections 5.2 and 6.3).
"""

from __future__ import annotations

from typing import (
    AbstractSet,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from ..pattern.embedding import DistinctPatterns, embedding_batch
from ..pattern.pattern import Pattern
from .closure import MAX_EMBEDDINGS_PER_GFD, chase, instantiate
from .gfd import GFD
from .literals import FalseLiteral, Literal

__all__ = [
    "implies",
    "ImplicationChecker",
    "greedy_group_elimination",
]


def implies(sigma: Sequence[GFD], gfd: GFD) -> bool:
    """Whether ``Σ ⊨ φ``.

    For positive ``φ``: the closure of ``X`` under ``Σ_Q`` entails ``l`` or
    is conflicting.  For negative ``φ`` (``l = false``): the closure must be
    conflicting — i.e. ``Σ`` already forbids ``Q ∧ X``.
    """
    closure = chase(gfd.pattern, sigma, gfd.lhs)
    if closure.conflicting:
        return True
    if isinstance(gfd.rhs, FalseLiteral):
        return False
    return closure.entails(gfd.rhs)


class ImplicationChecker:
    """Amortized implication tests against a fixed ``Σ``.

    Cover computation tests ``Σ \\ {φ} ⊨ φ`` for many ``φ`` with the same
    ``Σ``.  The checker instantiates ``Σ_Q`` once per target pattern ``Q``
    and keeps it for its own lifetime, so repeated chases over one pattern
    skip embedding enumeration.  :meth:`instantiate` takes a whole batch of
    target patterns: the label prefilter runs over ``Σ``'s *distinct*
    patterns (only ``Σ̄_Q`` takes part in a derivation over ``Q``, Lemma 6,
    and membership depends on the rule's pattern alone), every surviving
    (rule pattern, target) pair goes to one embedding-kernel call, and
    rules are instantiated only for pairs with an embedding.  Rules are
    tagged with their GFD's index so the "leave one out" variant can
    exclude them without re-instantiating.  Everything is freed with the
    checker.
    """

    def __init__(self, sigma: Sequence[GFD]) -> None:
        self._sigma = list(sigma)
        self._patterns = DistinctPatterns(gfd.pattern for gfd in self._sigma)
        # target pattern -> list of (source index, lhs, rhs), in Σ order
        self._rules: Dict[Pattern, List[Tuple[int, frozenset, Literal]]] = {}

    @property
    def sigma(self) -> List[GFD]:
        """The GFD set the checker was built over."""
        return list(self._sigma)

    def instantiate(self, targets: Iterable[Pattern]) -> None:
        """Instantiate ``Σ_Q`` for every target pattern not seen yet.

        One prefilter pass and one embedding-kernel call cover the batch.
        """
        pending = [
            target for target in dict.fromkeys(targets) if target not in self._rules
        ]
        if not pending:
            return
        candidates = self._patterns.may_embed_into(pending)
        found = embedding_batch(
            [
                (self._patterns.patterns[slot], target, False)
                for target, slots in zip(pending, candidates)
                for slot in slots
            ],
            max_results=MAX_EMBEDDINGS_PER_GFD,
        )
        cursor = 0
        for target, slots in zip(pending, candidates):
            rules: List[Tuple[int, frozenset, Literal]] = []
            for slot in slots:
                mappings = found[cursor]
                cursor += 1
                if mappings:
                    for index in self._patterns.members[slot]:
                        rules.extend(
                            (index, lhs, rhs)
                            for lhs, rhs in instantiate(self._sigma[index], mappings)
                        )
            rules.sort(key=lambda rule: rule[0])  # stable: Σ order
            self._rules[target] = rules

    def _rules_for(self, pattern: Pattern) -> List[Tuple[int, frozenset, Literal]]:
        if pattern not in self._rules:
            self.instantiate([pattern])
        return self._rules[pattern]

    def implies(
        self,
        gfd: GFD,
        exclude: Union[None, int, AbstractSet[int]] = None,
        allowed: Optional[AbstractSet[int]] = None,
    ) -> bool:
        """``(Σ minus the GFDs at the ``exclude`` indices) ⊨ gfd``.

        ``exclude`` is an index or a set of indices into the ``Σ`` the
        checker was built over; excluded GFDs contribute no chase rules.
        The set form is what group-wise cover elimination uses: one checker
        (and its instantiated rules) serves every leave-``k``-out test.
        ``allowed`` restricts the context the other way round: only GFDs at
        those indices contribute (a ``ParCover`` unit's ``Σ̄_Q``).
        """
        if exclude is None:
            excluded: AbstractSet[int] = frozenset()
        elif isinstance(exclude, int):
            excluded = {exclude}
        else:
            excluded = exclude
        tagged = self._rules_for(gfd.pattern)
        rules = [
            (lhs, rhs)
            for index, lhs, rhs in tagged
            if index not in excluded and (allowed is None or index in allowed)
        ]
        closure = chase(gfd.pattern, [], gfd.lhs, rules=rules)
        if closure.conflicting:
            return True
        if isinstance(gfd.rhs, FalseLiteral):
            return False
        return closure.entails(gfd.rhs)

    def implied_by_rest(self, index: int) -> bool:
        """Whether ``Σ \\ {φ_index} ⊨ φ_index`` — the cover redundancy test."""
        return self.implies(self._sigma[index], exclude=index)


def greedy_group_elimination(
    sigma: Sequence[GFD],
    group: Sequence[int],
    embedded: Sequence[int],
    checker: Optional[ImplicationChecker] = None,
) -> List[int]:
    """``ParImp``: greedy redundancy elimination within one ``ParCover`` unit.

    Tests each group member against ``embedded`` minus already-removed group
    members minus itself (the ``Σ̄_Q`` context of Lemma 6) and returns the
    removed indices, sorted.  Members are scanned most-specific-first
    (larger patterns, then larger LHS) so the surviving cover prefers small
    general rules — the same tie-break as ``SeqCover``.

    ``checker`` optionally supplies a shared :class:`ImplicationChecker`
    over the *full* ``Σ``; the unit's ``embedded`` set is passed as the
    ``allowed`` context of each test, so one checker's instantiated rules
    serve every unit of a worker's batch.  Results are identical either
    way.
    """
    if checker is None:
        checker = ImplicationChecker(sigma)
    removed: set = set()
    ordered = sorted(
        group,
        key=lambda index: (
            -sigma[index].pattern.num_edges,
            -len(sigma[index].lhs),
            str(sigma[index]),
        ),
    )
    embedded_set = frozenset(embedded)
    for index in ordered:
        removed.add(index)  # leave-one-out: a member never derives itself
        if not checker.implies(
            sigma[index], exclude=removed, allowed=embedded_set
        ):
            removed.discard(index)
    return sorted(removed)
