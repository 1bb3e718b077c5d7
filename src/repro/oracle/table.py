"""The match-table oracle: one pattern's matches over the dict graph.

:class:`ReferenceTable` is the relation ``SequentialDiscovery`` mines
(Section 5.1): every match a row, every ``(variable, attribute)`` of the
active attributes ``Γ`` a column, read from the dict graph with
``get_attr`` and stored twice — as raw values and as per-table integer
codes (0 = ``MISSING``).  Row sets are numpy bool masks, the candidate
alphabet comes from ``Counter`` value counts.  The product
:class:`~repro.core.match_table.MatchTable` stores no column (it gathers
codes from the frozen index) and mines with packed row bitsets; its
literal masks, supports and alphabet are tested against these.
"""

from __future__ import annotations

import heapq
from collections import Counter
from typing import Any, Dict, Iterable, List, Sequence, Tuple

import numpy as np

from ..core.match_table import (
    MISSING,
    MatchTable,
    rank_value,
    variable_literals_from_counts,
)
from ..gfd.literals import ConstantLiteral, Literal, VariableLiteral
from ..graph.graph import Graph
from ..pattern.pattern import Match, Pattern

__all__ = ["ReferenceTable", "constant_literals_from_counts"]


class ReferenceTable:
    """The matches of one pattern as a stored columnar relation.

    Args:
        graph: the data graph (attribute source).
        pattern: the matched pattern.
        matches: the match tuples (graph node per variable).
        attributes: the active attributes ``Γ`` — the table's columns.
        truncated: set when ``matches`` is a capped subset — validity
            judgements must not be made from a truncated table.
    """

    def __init__(
        self,
        graph: Graph,
        pattern: Pattern,
        matches: Iterable[Match],
        attributes: Sequence[str],
        truncated: bool = False,
    ) -> None:
        self.pattern = pattern
        self.attributes = list(attributes)
        self.truncated = truncated
        # rows sorted by pivot (stable), so a distinct-pivot count over a
        # mask is a run count
        self.matches: List[Match] = sorted(
            matches, key=lambda match: match[pattern.pivot]
        )
        self.num_rows = len(self.matches)
        self._pivot_array = np.asarray(
            [match[pattern.pivot] for match in self.matches], dtype=np.int64
        )
        self._value_codes: Dict[Any, int] = {}
        self._columns: Dict[Tuple[int, str], List[Any]] = {}
        self._codes: Dict[Tuple[int, str], np.ndarray] = {}
        for variable in pattern.variables():
            for attr in self.attributes:
                column = [
                    graph.get_attr(match[variable], attr, MISSING)
                    for match in self.matches
                ]
                self._columns[(variable, attr)] = column
                self._codes[(variable, attr)] = self._encode(column)
        self._literal_masks: Dict[Literal, np.ndarray] = {}

    def _encode(self, column: List[Any]) -> np.ndarray:
        """Factorize a value column into per-table integer codes (0 = MISSING)."""
        codes = np.empty(len(column), dtype=np.int64)
        value_codes = self._value_codes
        for row, cell in enumerate(column):
            if cell is MISSING:
                codes[row] = 0
                continue
            code = value_codes.get(cell)
            if code is None:
                code = len(value_codes) + 1
                value_codes[cell] = code
            codes[row] = code
        return codes

    def column(self, variable: int, attr: str) -> List[Any]:
        """The value column for ``(variable, attr)`` (``MISSING`` sentinel)."""
        return self._columns[(variable, attr)]

    # -- row masks -------------------------------------------------------
    def full_mask(self) -> np.ndarray:
        """A boolean mask selecting every row."""
        return np.ones(self.num_rows, dtype=bool)

    def literal_mask(self, literal: Literal) -> np.ndarray:
        """Boolean row mask of ``literal`` (cached; do not mutate).

        Missing attributes never satisfy a literal (Section 2.2): code 0
        never equals a value code, and two missing cells are not equal.
        """
        mask = self._literal_masks.get(literal)
        if mask is None:
            if isinstance(literal, ConstantLiteral):
                wanted = self._value_codes.get(literal.value, -1)
                mask = self._codes[(literal.var, literal.attr)] == wanted
            else:
                assert isinstance(literal, VariableLiteral)
                codes1 = self._codes[(literal.var1, literal.attr1)]
                codes2 = self._codes[(literal.var2, literal.attr2)]
                mask = (codes1 == codes2) & (codes1 != 0)
            self._literal_masks[literal] = mask
        return mask

    @staticmethod
    def mask_count(mask: np.ndarray) -> int:
        """Number of selected rows."""
        return int(np.count_nonzero(mask))

    def literal_count(self, literal: Literal) -> int:
        """Number of rows satisfying ``literal``."""
        return self.mask_count(self.literal_mask(literal))

    def mask_support(self, mask: np.ndarray) -> int:
        """Distinct pivots over the selected rows (``|Q(G, ·, z)|``)."""
        pivots = self._pivot_array[mask]
        if pivots.size == 0:
            return 0
        return int(np.count_nonzero(pivots[1:] != pivots[:-1])) + 1

    def support(self) -> int:
        """Distinct pivots over every row: the pattern's support."""
        return self.mask_support(self.full_mask())

    # -- the candidate alphabet (HSpawn) -------------------------------
    def constant_value_counts(self) -> Dict[Tuple[int, str], Counter]:
        """Per ``(variable, attr)`` column, the frequency of each present value."""
        counts: Dict[Tuple[int, str], Counter] = {}
        for key in MatchTable.column_keys(self.pattern, self.attributes):
            counts[key] = Counter(
                cell for cell in self._columns[key] if cell is not MISSING
            )
        return counts

    def variable_agreement_counts(
        self, same_attr_only: bool = True
    ) -> Dict[Tuple[int, str, int, str], int]:
        """Per column pair over distinct variables: rows on which both agree.

        ``same_attr_only`` pairs only columns of one attribute.  A missing
        cell agrees with nothing.  Keys are ascending.
        """
        columns = MatchTable.column_keys(self.pattern, self.attributes)
        agreements: Dict[Tuple[int, str, int, str], int] = {}
        for first, (var1, attr1) in enumerate(columns):
            codes1 = self._codes[(var1, attr1)]
            for var2, attr2 in columns[first + 1:]:
                if var1 == var2 or (same_attr_only and attr1 != attr2):
                    continue
                codes2 = self._codes[(var2, attr2)]
                agreements[(var1, attr1, var2, attr2)] = int(
                    np.count_nonzero((codes1 == codes2) & (codes1 != 0))
                )
        return dict(sorted(agreements.items()))

    def candidate_constant_literals(self, max_constants: int) -> List[ConstantLiteral]:
        """Per column, the ``max_constants`` most frequent present values."""
        return constant_literals_from_counts(
            self.constant_value_counts(), max_constants
        )

    def candidate_variable_literals(
        self, same_attr_only: bool = True
    ) -> List[VariableLiteral]:
        """Variable literals ``x.A = y.B`` agreeing on at least one row."""
        return variable_literals_from_counts(
            self.variable_agreement_counts(same_attr_only)
        )


def constant_literals_from_counts(
    counts: Dict[Tuple[int, str], Counter], max_constants: int
) -> List[ConstantLiteral]:
    """Build the constant-literal alphabet from value counts.

    The oracle of :func:`~repro.core.match_table.
    constant_literals_from_code_counts`.  Ranking is total
    (:func:`~repro.core.match_table.rank_value`), so every path produces the
    same alphabet.
    """
    literals: List[ConstantLiteral] = []
    for (variable, attr) in sorted(counts):
        counter = counts[(variable, attr)]
        if len(counter) > max_constants:
            # narrow to values at or above the k-th largest count before
            # paying the str() tie-break key on every value
            threshold = heapq.nlargest(max_constants, counter.values())[-1]
            pool = [kv for kv in counter.items() if kv[1] >= threshold]
        else:
            pool = list(counter.items())
        for value, _ in sorted(pool, key=rank_value)[:max_constants]:
            literals.append(ConstantLiteral(variable, attr, value))
    return literals
