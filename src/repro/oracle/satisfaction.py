"""The satisfaction oracle: match-level semantics and per-rule validation.

Semantics (Section 2.2), including the schemaless subtleties:

* ``h(x̄) ⊨ x.A = c`` iff node ``h(x)`` *has* attribute ``A`` and its value
  is ``c`` (similarly for ``x.A = y.B``).
* ``h(x̄) ⊨ X → Y`` iff ``h(x̄) ⊨ X`` implies ``h(x̄) ⊨ Y``; a missing LHS
  attribute therefore satisfies the implication vacuously, while a RHS
  literal *requires* the attribute to exist.
* ``G ⊨ φ`` iff every match of ``Q`` in ``G`` satisfies ``X → Y``.

Validation enumerates matches one rule at a time with the backtracking
matcher (``O(|G|^k)``; the problem is co-W[1]-hard — Theorem 1(b)).  The
product answers the same question with the enforcement engine
(:mod:`repro.enforce`), which is tested against these functions.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence

from ..gfd.gfd import GFD, Violation
from ..gfd.literals import ConstantLiteral, FalseLiteral, Literal
from ..graph.graph import Graph
from ..pattern.pattern import Match
from .matching import reference_matches

__all__ = [
    "satisfies_literal",
    "satisfies_all",
    "satisfies_gfd",
    "graph_satisfies",
    "find_violations",
    "validate_set",
]

#: A sentinel distinguishing a missing attribute from a stored None.
_MISSING = object()


def satisfies_literal(graph: Graph, match: Match, literal: Literal) -> bool:
    """Whether ``h(x̄) = match`` satisfies a single literal."""
    if isinstance(literal, FalseLiteral):
        return False
    if isinstance(literal, ConstantLiteral):
        value = graph.get_attr(match[literal.var], literal.attr, _MISSING)
        return value is not _MISSING and value == literal.value
    value1 = graph.get_attr(match[literal.var1], literal.attr1, _MISSING)
    if value1 is _MISSING:
        return False
    value2 = graph.get_attr(match[literal.var2], literal.attr2, _MISSING)
    return value2 is not _MISSING and value1 == value2


def satisfies_all(graph: Graph, match: Match, literals: Iterable[Literal]) -> bool:
    """Whether the match satisfies every literal of ``literals``."""
    return all(satisfies_literal(graph, match, l) for l in literals)


def satisfies_gfd(graph: Graph, match: Match, gfd: GFD) -> bool:
    """``h(x̄) ⊨ X → l`` for this particular match."""
    if not satisfies_all(graph, match, gfd.lhs):
        return True
    return satisfies_literal(graph, match, gfd.rhs)


def find_violations(
    graph: Graph,
    gfd: GFD,
    max_violations: Optional[int] = None,
    matches: Optional[Iterable[Match]] = None,
) -> List[Violation]:
    """All matches violating ``gfd`` in ``graph`` (capped if requested).

    Pass precomputed ``matches`` to reuse stored match sets (the discovery
    algorithms keep them per pattern).
    """
    violations: List[Violation] = []
    pool = matches if matches is not None else reference_matches(graph, gfd.pattern)
    for match in pool:
        if not satisfies_gfd(graph, match, gfd):
            violations.append(Violation(gfd, match))
            if max_violations is not None and len(violations) >= max_violations:
                break
    return violations


def graph_satisfies(
    graph: Graph, gfd: GFD, matches: Optional[Iterable[Match]] = None
) -> bool:
    """``G ⊨ φ`` — no violating match exists."""
    return not find_violations(graph, gfd, max_violations=1, matches=matches)


def validate_set(graph: Graph, sigma: Sequence[GFD]) -> bool:
    """``G ⊨ Σ`` — every GFD of the set holds (the validation problem)."""
    return all(graph_satisfies(graph, gfd) for gfd in sigma)
