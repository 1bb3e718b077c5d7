"""Compilation of a rule set ``Σ`` into a grouped execution plan.

Naive enforcement evaluates each GFD independently: match its pattern, then
probe every match's attributes per literal.  Discovered rule sets are highly
redundant topologically — ``HSpawn`` emits many dependencies per pattern,
and isomorphic patterns recur under different variable orders — so the
compiler normalizes every GFD onto the canonical representative of its
pattern's pivot-preserving isomorphism class (:mod:`repro.pattern.
canonical`) and groups rules by that representative:

* each distinct pattern is **matched once** per validation, however many
  rules share it — and patterns that share a stem share its joins: the
  groups' search plans are compiled, in label strings and against no index,
  into two prefix tries (:func:`repro.pattern.matcher.compile_plans`), one
  with every group at its pivot (a full pass is one walk of it) and one
  with every group × variable as anchor (a refresh walks it from the
  touched nodes);
* all grouped rules evaluate as columnar boolean masks over one
  :class:`~repro.core.match_table.MatchTable` (``MatchTable.
  violation_mask``) — C-speed vector compares instead of per-match
  ``get_attr`` probes;
* each rule keeps a ``column_map`` permutation so violating canonical match
  rows convert back to the rule's original variable order, making grouped
  results indistinguishable from per-rule reference validation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..gfd.gfd import GFD
from ..gfd.literals import FalseLiteral, Literal, rename_literal
from ..gfd.parser import format_gfd
from ..pattern.canonical import canonical_ordering, canonicalize
from ..pattern.matcher import PlanTrie, compile_plans
from ..pattern.pattern import Pattern

__all__ = ["CompiledRule", "PatternGroup", "EnforcementPlan", "compile_plan"]


@dataclass(frozen=True)
class CompiledRule:
    """One GFD rewritten over its group's canonical pattern.

    Attributes:
        position: the rule's index in the input ``Σ`` (report alignment).
        gfd: the original, unrewritten GFD (reports cite this object).
        lhs: the LHS literals over canonical variables (deterministic order).
        rhs: the RHS literal over canonical variables, or ``None`` for a
            negative GFD (``rhs = false``).
        column_map: permutation with ``original_row = canonical_row[
            column_map]`` — converts a canonical match row back to the
            original pattern's variable order.
    """

    position: int
    gfd: GFD
    lhs: Tuple[Literal, ...]
    rhs: Optional[Literal]
    column_map: np.ndarray

    @property
    def is_negative(self) -> bool:
        """Whether the compiled rule has the negative form ``X → false``."""
        return self.rhs is None

    @cached_property
    def text(self) -> str:
        """The original rule in ``format_gfd`` syntax, rendered once.

        Every report entry of the rule carries this string, so serving a
        report formats no rule again.
        """
        return format_gfd(self.gfd)


@dataclass
class PatternGroup:
    """All rules sharing one canonical pattern (matched once per pass)."""

    pattern: Pattern
    rules: List[CompiledRule] = field(default_factory=list)

    def attributes(self) -> Tuple[str, ...]:
        """Sorted union of attribute names the grouped rules mention."""
        names = set()
        for rule in self.rules:
            names.update(rule.gfd.attributes())
        return tuple(sorted(names))


@dataclass
class EnforcementPlan:
    """The compiled form of ``Σ``: pattern groups in first-seen order."""

    groups: List[PatternGroup]
    num_rules: int

    def __post_init__(self) -> None:
        #: every group's search plan from its pivot: a full pass walks it
        self.full_trie: PlanTrie = compile_plans(self.search_plans(False))
        #: every group × variable as anchor: a refresh walks it from the
        #: touched nodes
        self.anchored_trie: PlanTrie = compile_plans(self.search_plans(True))

    def attributes(self) -> Tuple[str, ...]:
        """Sorted union of attributes across the whole plan (the ``Γ`` the
        engine builds its backend with; a shard table gathers only the
        columns its own rules name)."""
        names = set()
        for group in self.groups:
            names.update(group.attributes())
        return tuple(sorted(names))

    def search_plans(self, anchored: bool) -> List[Tuple[Tuple[int, int], Pattern, int]]:
        """``((group position, anchor), pattern, anchor)``: every group at
        its pivot, or — ``anchored`` — at each of its variables."""
        return [
            ((position, anchor), group.pattern, anchor)
            for position, group in enumerate(self.groups)
            for anchor in (
                group.pattern.variables() if anchored else (group.pattern.pivot,)
            )
        ]

    def __len__(self) -> int:
        return self.num_rules


def compile_rule(position: int, gfd: GFD) -> Tuple[Pattern, CompiledRule]:
    """Normalize one GFD onto its canonical pattern.

    Returns the canonical pattern (the group key — pivot is variable 0) and
    the compiled rule.  Renaming preserves semantics exactly: matches of the
    canonical pattern, permuted through ``column_map``, are precisely the
    matches of the original pattern, and the renamed literals read the same
    cells of each match.
    """
    ordering = canonical_ordering(gfd.pattern)
    remap = {old: new for new, old in enumerate(ordering)}
    pattern = canonicalize(gfd.pattern)
    lhs = tuple(
        sorted((rename_literal(l, remap) for l in gfd.lhs), key=str)
    )
    rhs: Optional[Literal]
    if isinstance(gfd.rhs, FalseLiteral):
        rhs = None
    else:
        rhs = rename_literal(gfd.rhs, remap)
    column_map = np.asarray(
        [remap[old] for old in range(gfd.pattern.num_nodes)], dtype=np.int64
    )
    return pattern, CompiledRule(position, gfd, lhs, rhs, column_map)


def compile_plan(sigma: Sequence[GFD]) -> EnforcementPlan:
    """Group ``Σ`` by canonical pattern; deterministic in ``Σ`` order."""
    groups: Dict[Pattern, PatternGroup] = {}
    ordered: List[PatternGroup] = []
    for position, gfd in enumerate(sigma):
        pattern, rule = compile_rule(position, gfd)
        group = groups.get(pattern)
        if group is None:
            group = PatternGroup(pattern)
            groups[pattern] = group
            ordered.append(group)
        group.rules.append(rule)
    return EnforcementPlan(ordered, len(sigma))
