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

from itertools import combinations
from typing import (
    Any, Collection, Dict, FrozenSet, Hashable, Iterable, List, Optional,
    Sequence, Tuple,
)

from ..pattern.embedding import embedding_batch
from ..pattern.pattern import Pattern
from .gfd import GFD
from .literals import (
    FALSE,
    ConstantLiteral,
    FalseLiteral,
    Literal,
    VariableLiteral,
    make_variable_literal,
    rename_literal,
)

__all__ = [
    "LiteralClosure",
    "entailed_literals",
    "is_trivial_dependency",
    "lhs_unsatisfiable",
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

    def __init__(self, literals: Iterable[Literal] = ()) -> None:
        self._parent: Dict[Term, Term] = {}
        self._constant: Dict[Term, Any] = {}
        self._conflicting = False
        for literal in literals:
            self.add(literal)

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

    def entailed(self) -> Optional[List[Literal]]:
        """The literals over this closure's terms that it entails,
        reflexive ones aside, or ``None`` when it is conflicting (it then
        entails every literal); see :func:`entailed_literals`."""
        if self._conflicting:
            return None
        roots = {term: self._find(term) for term in list(self._parent)}
        return _entailed_over(roots, {
            term: self._constant[root]
            for term, root in roots.items() if root in self._constant
        })

    def copy(self) -> "LiteralClosure":
        """An independent copy (used by speculative chase steps)."""
        clone = LiteralClosure()
        clone._parent = dict(self._parent)
        clone._constant = dict(self._constant)
        clone._conflicting = self._conflicting
        return clone


#: :func:`_constant_bindings`' verdict for two constants on one term.
_CONFLICT = object()


def _constant_bindings(lhs: Collection[Literal]) -> Any:
    """``X``'s closure without a union-find when ``X`` has no variable
    literal: the constant binding ``{term: value}`` of each term, or
    ``_CONFLICT`` when two constants meet on one term.  ``None`` when ``X``
    has a variable literal, so only a :class:`LiteralClosure` decides it."""
    constants: Dict[Term, Any] = {}
    for literal in lhs:
        if not isinstance(literal, ConstantLiteral):
            return None
        term = (literal.var, literal.attr)
        if constants.setdefault(term, literal.value) != literal.value:
            return _CONFLICT
    return constants


def is_trivial_dependency(lhs: FrozenSet[Literal], rhs: Literal) -> bool:
    """Whether ``X → l`` is trivial (Section 4.1) over any pattern: ``X``
    is unsatisfiable, or ``l ≠ false`` follows from ``X``.

    :func:`~repro.gfd.gfd.is_trivial` of a GFD, and the test every
    discovery engine applies to its candidates.  Triviality reads the
    literals only: a reflexive ``l`` is trivial, any other one when
    :func:`entailed_literals` lists it.
    """
    if isinstance(rhs, VariableLiteral):
        if (rhs.var1, rhs.attr1) == (rhs.var2, rhs.attr2):
            return True
        rhs = make_variable_literal(rhs.var1, rhs.attr1, rhs.var2, rhs.attr2)
    entailed = entailed_literals(lhs)
    return entailed is None or (
        not isinstance(rhs, FalseLiteral) and rhs in entailed
    )


def lhs_unsatisfiable(lhs: Collection[Literal]) -> bool:
    """Whether ``X`` equates some attribute with two distinct constants
    (directly or through variable literals): Section 4.1's case (a).
    Without a variable literal no union-find is built."""
    constants = _constant_bindings(lhs)
    if constants is None:
        return LiteralClosure(lhs).conflicting
    return constants is _CONFLICT


def entailed_literals(lhs: Collection[Literal]) -> Optional[List[Literal]]:
    """The literals over ``X``'s terms that ``X`` entails, reflexive ones
    aside, or ``None`` when ``X`` is unsatisfiable (it then entails every
    literal).

    A term outside ``X`` is bound to nothing and shares no class, so only
    ``X``'s terms, pairwise and with their constants, can be entailed: one
    call answers every RHS of one LHS.  Without a variable literal in ``X``
    the closure is the constant bindings themselves
    (:func:`_constant_bindings`) and no union-find is built; otherwise
    :meth:`LiteralClosure.entailed` lists it.
    """
    constants = _constant_bindings(lhs)
    if constants is None:
        return LiteralClosure(lhs).entailed()
    if constants is _CONFLICT:
        return None
    return _entailed_over({term: term for term in constants}, constants)


def _entailed_over(
    roots: Dict[Term, Term], constants: Dict[Term, Any],
) -> List[Literal]:
    """The literals a non-conflicting closure entails over the terms of
    ``roots`` (each term's class root), given each bound term's constant:
    the bindings, then every pair of terms in one class or bound to one
    constant."""
    entailed: List[Literal] = [
        ConstantLiteral(var, attr, value) for (var, attr), value in constants.items()
    ]
    for first, second in combinations(sorted(roots), 2):
        if roots[first] == roots[second] or (
            first in constants and second in constants
            and constants[first] == constants[second]
        ):
            entailed.append(make_variable_literal(*first, *second))
    return entailed


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
    closure = LiteralClosure(literals)
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
