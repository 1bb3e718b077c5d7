"""Graph functional dependencies ``Q[x̄](X → l)`` (Section 2.2).

GFDs are kept in the paper's *normal form*: the RHS ``Y`` is a single
literal ``l`` (a positive GFD with multi-literal ``Y`` is equivalent to one
GFD per RHS literal); negative GFDs have ``l = false``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, Tuple

from ..pattern.pattern import Match, Pattern, variable_name
from .literals import (
    FALSE,
    ConstantLiteral,
    FalseLiteral,
    Literal,
    VariableLiteral,
    format_literal_set,
    literal_variables,
)

__all__ = ["GFD", "Violation", "is_trivial"]


@dataclass(frozen=True)
class GFD:
    """A graph functional dependency in normal form.

    Attributes:
        pattern: the topological scope ``Q[x̄]`` (with its pivot).
        lhs: the literal set ``X``.
        rhs: the single RHS literal ``l`` (``FALSE`` for negative GFDs).
    """

    pattern: Pattern
    lhs: FrozenSet[Literal]
    rhs: Literal

    def __post_init__(self) -> None:
        if not isinstance(self.lhs, frozenset):
            object.__setattr__(self, "lhs", frozenset(self.lhs))
        for literal in self.lhs:
            if isinstance(literal, FalseLiteral):
                raise ValueError("false cannot appear in the LHS")
            self._check_scope(literal)
        if not isinstance(self.rhs, FalseLiteral):
            self._check_scope(self.rhs)

    def _check_scope(self, literal: Literal) -> None:
        for variable in literal_variables(literal):
            if not 0 <= variable < self.pattern.num_nodes:
                raise ValueError(
                    f"literal {literal} references variable {variable} outside "
                    f"the {self.pattern.num_nodes}-variable pattern"
                )

    # ------------------------------------------------------------------
    @property
    def is_negative(self) -> bool:
        """Whether the GFD has the negative form ``Q[x̄](X → false)``."""
        return isinstance(self.rhs, FalseLiteral)

    @property
    def is_positive(self) -> bool:
        """Whether the GFD is positive (RHS is an ordinary literal)."""
        return not self.is_negative

    @property
    def size(self) -> int:
        """Pattern size in edges (the generation-tree level)."""
        return self.pattern.num_edges

    def attributes(self) -> FrozenSet[str]:
        """All attribute names the GFD mentions."""
        names = set()
        for literal in list(self.lhs) + [self.rhs]:
            if isinstance(literal, ConstantLiteral):
                names.add(literal.attr)
            elif isinstance(literal, VariableLiteral):
                names.add(literal.attr1)
                names.add(literal.attr2)
        return frozenset(names)

    # ------------------------------------------------------------------
    def __str__(self) -> str:
        variables = ",".join(variable_name(v) for v in self.pattern.variables())
        edges = ", ".join(
            f"({variable_name(e.src)}:{self.pattern.labels[e.src]})"
            f"-[{e.label}]->"
            f"({variable_name(e.dst)}:{self.pattern.labels[e.dst]})"
            for e in self.pattern.edges
        )
        if not edges:
            edges = " ".join(
                f"({variable_name(v)}:{label})"
                for v, label in enumerate(self.pattern.labels)
            )
        return f"Q[{variables}]{{{edges}}}({format_literal_set(self.lhs)} → {self.rhs})"


@dataclass(frozen=True)
class Violation:
    """A match witnessing ``G ⊭ φ``: ``h ⊨ X`` but ``h ⊭ Y``."""

    gfd: GFD
    match: Match

    def nodes(self) -> Tuple[int, ...]:
        """The graph nodes of the violating match (the inconsistent entity)."""
        return self.match


def is_trivial(gfd: GFD) -> bool:
    """Triviality test (Section 4.1).

    A GFD ``Q[x̄](X → l)`` is trivial when (a) ``X`` cannot be satisfied
    (it equates one attribute with two distinct constants, directly or via
    the transitivity of equality), or (b) ``l`` is derivable from ``X`` by
    transitivity of equality.  A negative GFD ``Q(X → false)`` is trivial
    only by (a).  See :func:`~repro.gfd.closure.is_trivial_dependency`.
    """
    from .closure import is_trivial_dependency  # closure builds on gfd

    return is_trivial_dependency(gfd.lhs, gfd.rhs)
