"""Literal closure and the chase underlying implication/satisfiability.

Section 3 reviews the characterization of [20]:

* ``closure(Σ_Q, X)`` — the literals deduced by applying the GFDs of ``Σ``
  *embedded* in pattern ``Q`` and by transitivity of equality in ``X``;
* ``enforced(Σ_Q)`` — the same with empty ``X``;
* the closure is *conflicting* when it contains ``x.A = c`` and ``x.A = d``
  for distinct constants (or derives ``false``).

``Σ ⊨ φ`` for ``φ = Q[x̄](X → l)`` iff ``closure(Σ_Q, X)`` is conflicting or
``l ∈ closure(Σ_Q, X)``; ``Σ`` is satisfiable iff some pattern's enforced set
is non-conflicting.  With patterns bounded by ``k`` nodes, the number of
embeddings is at most ``k^k`` and the whole analysis is fixed-parameter
tractable (Theorem 1).

The closure is maintained as a union-find over *terms* ``x.A`` whose classes
may carry a constant tag; equality literals merge classes, constant literals
tag them, and a clash of tags is a conflict.
"""

from __future__ import annotations

from typing import Any, Dict, Hashable, Iterable, List, Optional, Sequence, Tuple

from ..pattern.embedding import embedding_batch
from ..pattern.pattern import Pattern
from .gfd import GFD
from .literals import (
    FALSE,
    ConstantLiteral,
    FalseLiteral,
    Literal,
    VariableLiteral,
    rename_literal,
)

__all__ = [
    "LiteralClosure",
    "MAX_EMBEDDINGS_PER_GFD",
    "instantiate",
    "embedded_rules",
    "chase",
    "enforced",
]

#: A union-find term: attribute ``A`` of pattern variable ``x``.
Term = Tuple[int, str]

#: A sentinel object distinguishing "no constant" from a None-valued constant.
_NO_CONSTANT = object()


class LiteralClosure:
    """Union-find closure over ``x.A`` terms with constant tags.

    Supports adding literals, testing entailment (``l ∈ closure``), and a
    ``conflicting`` flag that latches once two distinct constants meet in one
    class or ``false`` is added.
    """

    def __init__(self) -> None:
        self._parent: Dict[Term, Term] = {}
        self._constant: Dict[Term, Any] = {}
        self._conflicting = False

    # ------------------------------------------------------------------
    @property
    def conflicting(self) -> bool:
        """Whether the closure entails ``false``."""
        return self._conflicting

    def _find(self, term: Term) -> Term:
        parent = self._parent.setdefault(term, term)
        if parent == term:
            return term
        root = self._find(parent)
        self._parent[term] = root
        return root

    def _constant_of(self, root: Term) -> Any:
        return self._constant.get(root, _NO_CONSTANT)

    def _union(self, first: Term, second: Term) -> None:
        root1, root2 = self._find(first), self._find(second)
        if root1 == root2:
            return
        const1, const2 = self._constant_of(root1), self._constant_of(root2)
        self._parent[root2] = root1
        if const2 is not _NO_CONSTANT:
            if const1 is not _NO_CONSTANT and const1 != const2:
                self._conflicting = True
            self._constant[root1] = const2 if const1 is _NO_CONSTANT else const1

    # ------------------------------------------------------------------
    def add(self, literal: Literal) -> None:
        """Add a literal to the closure (latching conflicts)."""
        if isinstance(literal, FalseLiteral):
            self._conflicting = True
        elif isinstance(literal, ConstantLiteral):
            root = self._find((literal.var, literal.attr))
            existing = self._constant_of(root)
            if existing is _NO_CONSTANT:
                self._constant[root] = literal.value
            elif existing != literal.value:
                self._conflicting = True
        else:
            self._union(
                (literal.var1, literal.attr1), (literal.var2, literal.attr2)
            )

    def entails(self, literal: Literal) -> bool:
        """Whether ``literal`` belongs to the closure.

        A conflicting closure entails everything (ex falso).
        """
        if self._conflicting:
            return True
        if isinstance(literal, FalseLiteral):
            return False
        if isinstance(literal, ConstantLiteral):
            root = self._find((literal.var, literal.attr))
            return self._constant_of(root) == literal.value
        root1 = self._find((literal.var1, literal.attr1))
        root2 = self._find((literal.var2, literal.attr2))
        if root1 == root2:
            return True
        const1, const2 = self._constant_of(root1), self._constant_of(root2)
        return const1 is not _NO_CONSTANT and const1 == const2

    def entails_all(self, literals: Iterable[Literal]) -> bool:
        """Whether every literal of ``literals`` is entailed."""
        return all(self.entails(literal) for literal in literals)

    def copy(self) -> "LiteralClosure":
        """An independent copy (used by speculative chase steps)."""
        clone = LiteralClosure()
        clone._parent = dict(self._parent)
        clone._constant = dict(self._constant)
        clone._conflicting = self._conflicting
        return clone


#: Embeddings instantiated per (GFD, host pattern) — a defensive cap; the
#: theoretical bound is ``k^k`` (Theorem 1).
MAX_EMBEDDINGS_PER_GFD = 64


def instantiate(
    gfd: GFD, mappings: Iterable[Tuple[int, ...]]
) -> List[Tuple[frozenset, Literal]]:
    """``gfd``'s ``(renamed LHS, renamed RHS)`` through each embedding."""
    return [
        (
            frozenset(rename_literal(l, mapping) for l in gfd.lhs),
            rename_literal(gfd.rhs, mapping),
        )
        for mapping in mappings
    ]


def embedded_rules(
    sigma: Sequence[GFD],
    pattern: Pattern,
    max_embeddings_per_gfd: int = MAX_EMBEDDINGS_PER_GFD,
) -> List[Tuple[frozenset, Literal]]:
    """Instantiate ``Σ_Q``: every embedding of every GFD of ``Σ`` into ``pattern``.

    Each result is the embedded GFD's ``(renamed LHS, renamed RHS)`` over the
    variables of ``pattern`` — a ground implication rule for the chase.
    The per-GFD embedding count is capped defensively; the theoretical bound
    is ``k^k`` (Theorem 1).  One kernel call decides every GFD's embeddings
    (:func:`~repro.pattern.embedding.embedding_batch`); nothing is kept.
    """
    found = embedding_batch(
        [(gfd.pattern, pattern, False) for gfd in sigma],
        max_results=max_embeddings_per_gfd,
    )
    rules: List[Tuple[frozenset, Literal]] = []
    for gfd, mappings in zip(sigma, found):
        rules.extend(instantiate(gfd, mappings))
    return rules


def chase(
    pattern: Pattern,
    sigma: Sequence[GFD],
    literals: Iterable[Literal] = (),
    rules: Optional[List[Tuple[frozenset, Literal]]] = None,
) -> LiteralClosure:
    """Compute ``closure(Σ_Q, X)`` for ``X = literals`` by chasing to fixpoint.

    Pass ``rules`` (from :func:`embedded_rules`) to amortize embedding
    enumeration across multiple chases over the same pattern.
    """
    closure = LiteralClosure()
    for literal in literals:
        closure.add(literal)
    if rules is None:
        rules = embedded_rules(sigma, pattern)
    pending = list(rules)
    changed = True
    while changed and not closure.conflicting:
        changed = False
        remaining = []
        for lhs, rhs in pending:
            if closure.entails_all(lhs):
                if not closure.entails(rhs):
                    closure.add(rhs)
                    changed = True
                # applied rules never need to fire again
            else:
                remaining.append((lhs, rhs))
        pending = remaining
    return closure


def enforced(pattern: Pattern, sigma: Sequence[GFD]) -> LiteralClosure:
    """``enforced(Σ_Q)``: the closure with empty ``X`` (Section 3)."""
    return chase(pattern, sigma)
