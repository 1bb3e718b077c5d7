"""Columnar match tables — the bridge between pattern and FD mining.

The paper's key algorithmic idea is to run pattern mining and dependency
mining *in a single process* (Section 5.1).  Once the matches of a pattern
``Q`` are known, checking a dependency ``X → l`` is relational work: treat
every match ``h(x̄)`` as a row, every pair ``(variable, attribute)`` as a
column, and evaluate literals column-wise.  :class:`MatchTable` materializes
exactly that relation, restricted to the *active attributes* ``Γ``
(Section 4.3), and supports

* literal evaluation over row-index subsets (``HSpawn``'s inner loop),
* distinct-pivot counting (the support ``|Q(G, Xl, z)|``), and
* candidate-literal generation (frequent constants per column, compatible
  column pairs for variable literals).

Row sets have two faces.  The numpy one (``literal_mask`` / ``mask_count`` /
``mask_support``: a bool array per literal) serves ``SeqDis`` — the
lattice's reference oracle — and enforcement's ``violation_mask``.  The
bitset one (``literal_bits`` / ``full_bits`` / ``bits_support`` /
``stack_supports``) is the ``ParDis`` worker kernel's: a row set is one
Python int with row ``i`` at bit ``i``, an intersection is ``&``, a count
is ``int.bit_count`` and the distinct-pivot support is one multi-word
carry-add (see :meth:`MatchTable.bits_support`).
"""

from __future__ import annotations

from collections import Counter
from itertools import groupby
from typing import Any, Dict, Iterable, List, Optional, Sequence, Set, Tuple, Union

import numpy as np

from ..graph.graph import Graph
from ..graph.index import MISSING, GraphIndex, run_lengths
from ..gfd.literals import (
    ConstantLiteral,
    FalseLiteral,
    Literal,
    VariableLiteral,
    make_variable_literal,
)
from ..pattern.matcher import Match
from ..pattern.pattern import Pattern

__all__ = [
    "MatchTable",
    "MISSING",
    "merge_value_counts",
    "merge_agreement_counts",
    "constant_literals_from_counts",
    "constant_literals_from_code_counts",
    "variable_literals_from_counts",
]


class MatchTable:
    """The matches of one pattern as a columnar relation.

    Args:
        graph: the data graph (attribute source).
        pattern: the matched pattern.
        matches: the match tuples (graph node per variable) — or, with
            ``index``, optionally an ``(N, num_vars)`` int64 array.
        attributes: the active attributes ``Γ`` whose columns to materialize.
        truncated: set when ``matches`` is a capped subset — validity
            judgements must not be made from a truncated table.
        index: a frozen :class:`~repro.graph.index.GraphIndex` of ``graph``;
            when given, columns are gathered from the index's columnar
            attribute codes (one fancy-indexing per column) instead of the
            per-row ``get_attr`` loop, and raw-value columns materialize
            lazily by decoding.
    """

    def __init__(
        self,
        graph: Graph,
        pattern: Pattern,
        matches: Union[Sequence[Match], np.ndarray],
        attributes: Sequence[str],
        truncated: bool = False,
        index: Optional[GraphIndex] = None,
    ) -> None:
        self.graph = graph
        self.pattern = pattern
        self.index = index
        self.attributes = list(attributes)
        self.truncated = truncated
        # rows are kept sorted by pivot so distinct-pivot counting over a
        # mask is a run count instead of a sort (stable: preserves relative
        # order within a pivot).
        pivot_var = pattern.pivot
        # columns are kept twice: raw Python values (for counters and
        # candidate generation) and factorized integer codes (for literal
        # masks — a C-speed vector compare instead of a per-row loop).
        # Code 0 is reserved for MISSING; values share one code space (per
        # table without an index, graph-global with one) so variable
        # literals compare codes directly.
        self._columns: Dict[Tuple[int, str], List[Any]] = {}
        self._codes: Dict[Tuple[int, str], np.ndarray] = {}
        if index is not None:
            if isinstance(matches, np.ndarray):
                array = matches.reshape(-1, pattern.num_nodes)
            elif len(matches):
                array = np.asarray(matches, dtype=np.int64)
            else:
                array = np.empty((0, pattern.num_nodes), dtype=np.int64)
            order = np.argsort(array[:, pivot_var], kind="stable")
            array = np.ascontiguousarray(array[order])
            self._match_array: Optional[np.ndarray] = array
            self._matches: Optional[List[Match]] = None
            self._pivot_array = array[:, pivot_var]
            self._value_codes: Dict[Any, int] = index.code_of_value
            num_rows = array.shape[0]
            for variable in pattern.variables():
                nodes = array[:, variable]
                for attr in self.attributes:
                    column_codes = index.attr_code_array(attr)
                    self._codes[(variable, attr)] = (
                        column_codes[nodes]
                        if column_codes is not None
                        else np.zeros(num_rows, dtype=np.int64)
                    )
        else:
            self._matches = sorted(matches, key=lambda match: match[pivot_var])
            self._match_array = None
            self._pivot_array = np.asarray(
                [match[pivot_var] for match in self._matches], dtype=np.int64
            )
            self._value_codes = {}
            num_rows = len(self._matches)
            for variable in pattern.variables():
                for attr in self.attributes:
                    column = [
                        graph.get_attr(match[variable], attr, MISSING)
                        for match in self._matches
                    ]
                    self._columns[(variable, attr)] = column
                    self._codes[(variable, attr)] = self._encode(column)
        self._num_rows = num_rows
        self._pivots_list: Optional[List[int]] = None
        # lazily-computed row sets per literal: the lattice search reduces to
        # numpy boolean-mask operations instead of per-row Python loops.
        self._full_mask = np.ones(num_rows, dtype=bool)
        self._literal_masks: Dict[Literal, np.ndarray] = {}
        # (HI, LO) bitsets of the pivot runs, built by the first bits_support
        self._run_bits: Optional[Tuple[int, int]] = None
        #: literal-mask cache audit: (hits, misses) over the table lifetime.
        self.mask_cache_hits = 0
        self.mask_cache_misses = 0

    @classmethod
    def from_index(
        cls,
        index: GraphIndex,
        pattern: Pattern,
        matches: Union[Sequence[Match], np.ndarray],
        attributes: Sequence[str],
        truncated: bool = False,
    ) -> "MatchTable":
        """Fast constructor: columns gathered from a frozen graph index."""
        return cls(
            index.graph, pattern, matches, attributes,
            truncated=truncated, index=index,
        )

    # ------------------------------------------------------------------
    @property
    def matches(self) -> List[Match]:
        """The pivot-sorted match tuples (materialized lazily on the index path)."""
        if self._matches is None:
            self._matches = [tuple(row) for row in self._match_array.tolist()]
        return self._matches

    @property
    def match_array(self) -> np.ndarray:
        """The pivot-sorted matches as an ``(N, num_vars)`` int64 array."""
        if self._match_array is None:
            if self._matches:
                self._match_array = np.asarray(self._matches, dtype=np.int64)
            else:
                self._match_array = np.empty(
                    (0, self.pattern.num_nodes), dtype=np.int64
                )
        return self._match_array

    @property
    def _pivots(self) -> List[int]:
        """The per-row pivot nodes as a plain list (lazy)."""
        if self._pivots_list is None:
            self._pivots_list = self._pivot_array.tolist()
        return self._pivots_list

    @property
    def num_rows(self) -> int:
        """Number of matches in the table."""
        return self._num_rows

    def all_rows(self) -> List[int]:
        """Every row index."""
        return list(range(self._num_rows))

    def column(self, variable: int, attr: str) -> List[Any]:
        """The value column for ``(variable, attr)`` (``MISSING`` sentinel)."""
        cached = self._columns.get((variable, attr))
        if cached is None:
            cached = self.index.decode_values(self._codes[(variable, attr)])
            self._columns[(variable, attr)] = cached
        return cached

    def distinct_pivots(self, rows: Iterable[int]) -> Set[int]:
        """``{h(z) | row ∈ rows}`` — the support set of a row subset."""
        pivots = self._pivots
        return {pivots[row] for row in rows}

    def support(self, rows: Iterable[int]) -> int:
        """Number of distinct pivots over ``rows``."""
        return len(self.distinct_pivots(rows))

    # ------------------------------------------------------------------
    # literal evaluation
    # ------------------------------------------------------------------
    def _encode(self, column: List[Any]) -> np.ndarray:
        """Factorize a value column into integer codes (0 = MISSING)."""
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

    # -- numpy mask interface (the discovery hot loop) -----------------
    def full_mask(self) -> np.ndarray:
        """A boolean mask selecting every row (do not mutate)."""
        return self._full_mask

    def literal_mask(self, literal: Literal) -> np.ndarray:
        """Boolean row mask of ``literal`` (cached; do not mutate).

        Missing attributes never satisfy a literal (Section 2.2 semantics):
        code 0 (MISSING) never equals a value code, and two MISSING cells
        are explicitly excluded from variable-literal equality.
        """
        cached = self._literal_masks.get(literal)
        if cached is not None:
            self.mask_cache_hits += 1
            return cached
        self.mask_cache_misses += 1
        if isinstance(literal, ConstantLiteral):
            codes = self._codes[(literal.var, literal.attr)]
            wanted = self._value_codes.get(literal.value, -1)
            mask = codes == wanted
        else:
            assert isinstance(literal, VariableLiteral)
            codes1 = self._codes[(literal.var1, literal.attr1)]
            codes2 = self._codes[(literal.var2, literal.attr2)]
            mask = (codes1 == codes2) & (codes1 != 0)
        self._literal_masks[literal] = mask
        return mask

    def violation_mask(
        self,
        lhs: Iterable[Literal],
        rhs: Optional[Literal],
    ) -> np.ndarray:
        """Rows violating ``X → l``: ``h ⊨ X`` but ``h ⊭ l`` (Section 2.2).

        ``rhs`` is the single RHS literal of a normal-form GFD; ``None`` or
        a :class:`FalseLiteral` selects the negative semantics, where every
        row satisfying ``X`` is a violation.  Missing attributes follow the
        literal-mask rules: a missing LHS attribute satisfies the
        implication vacuously (the row drops out of the LHS mask), a
        missing RHS attribute fails the RHS.  The result may alias cached
        masks for degenerate literal sets — do not mutate.
        """
        mask: Optional[np.ndarray] = None
        for literal in lhs:
            current = self.literal_mask(literal)
            mask = current if mask is None else mask & current
        if rhs is None or isinstance(rhs, FalseLiteral):
            return mask if mask is not None else self._full_mask
        rhs_mask = self.literal_mask(rhs)
        return ~rhs_mask if mask is None else mask & ~rhs_mask

    def literal_count(self, literal: Literal) -> int:
        """Number of rows satisfying ``literal``."""
        return int(np.count_nonzero(self.literal_mask(literal)))

    @staticmethod
    def mask_count(mask: np.ndarray) -> int:
        """Number of selected rows."""
        return int(np.count_nonzero(mask))

    def mask_support(self, mask: np.ndarray) -> int:
        """Distinct pivots over the selected rows (``|Q(G, ·, z)|``).

        Rows are pivot-sorted, so the distinct count is the number of value
        runs in the selection — no sort needed.
        """
        codes = self._pivot_array[mask]
        if codes.size == 0:
            return 0
        return int(np.count_nonzero(codes[1:] != codes[:-1])) + 1

    # -- row-bitset interface (the ParDis worker kernel) ---------------
    def literal_bits(self, literals: Sequence[Literal]) -> np.ndarray:
        """The literals' row sets as a packed ``(literals × ⌈N/8⌉)`` uint8 stack.

        Row ``i`` of the table is bit ``i`` (little-endian) of a literal's
        packed row; semantics are :meth:`literal_mask`'s.  Consecutive
        constants of one ``(variable, attr)`` column — how an alphabet
        lists them — are compared against the column in one broadcast.
        Nothing is cached: the caller keeps what it needs.
        """
        stack = np.empty((len(literals), self._num_rows), dtype=bool)
        start = 0
        for column, run in groupby(
            literals,
            key=lambda l: (l.var, l.attr) if isinstance(l, ConstantLiteral) else None,
        ):
            if column is None:
                for literal in run:
                    assert isinstance(literal, VariableLiteral)
                    codes1 = self._codes[(literal.var1, literal.attr1)]
                    codes2 = self._codes[(literal.var2, literal.attr2)]
                    np.equal(codes1, codes2, out=stack[start])
                    stack[start] &= codes1 != 0
                    start += 1
                continue
            wanted = np.array(
                [self._value_codes.get(l.value, -1) for l in run], dtype=np.int64
            )
            stop = start + wanted.size
            np.equal(wanted[:, None], self._codes[column][None, :],
                     out=stack[start:stop])
            start = stop
        return np.packbits(stack, axis=1, bitorder="little")

    @staticmethod
    def as_bitsets(packed: np.ndarray) -> List[int]:
        """Each row of a packed uint8 stack as one Python-int row bitset."""
        return [int.from_bytes(row.tobytes(), "little") for row in packed]

    def full_bits(self) -> int:
        """The row bitset selecting every row."""
        return (1 << self._num_rows) - 1

    def bits_support(self, mask: int) -> int:
        """Distinct pivots over a row bitset (``|Q(G, ·, z)|``).

        Rows are pivot-sorted, so pivot run ``r`` occupies bits
        ``[a_r, b_r]``.  With ``HI = Σ 2^{b_r}`` (each run's last row) and
        ``LO = full ^ HI``::

            support(m) = popcount((((m & LO) + LO) | m) & HI)

        Inside a run of width ``w`` the low ``w−1`` bits ``x`` of ``m``
        become ``x + (2^{w−1} − 1)``: bit ``w−1`` of that sum is set iff
        ``x ≠ 0``, and the sum is at most ``2^w − 2``, so it never carries
        into the next run.  ``| m`` adds the run's own top bit and ``& HI``
        keeps one bit per run.  Python ints carry across machine words in
        C, which is what fixed-width numpy words cannot do.
        """
        if self._run_bits is None:
            last = np.ones(self._num_rows, dtype=bool)
            np.not_equal(self._pivot_array[1:], self._pivot_array[:-1], out=last[:-1])
            packed = np.packbits(last, bitorder="little")
            high = int.from_bytes(packed.tobytes(), "little")
            self._run_bits = (high, self.full_bits() ^ high)
        high, low = self._run_bits
        return ((((mask & low) + low) | mask) & high).bit_count()

    def stack_supports(self, packed: np.ndarray) -> List[int]:
        """:meth:`bits_support` of every row of a packed ``(masks × bytes)`` stack."""
        return [self.bits_support(mask) for mask in self.as_bitsets(packed)]

    # ------------------------------------------------------------------
    # candidate literals (HSpawn's alphabet)
    # ------------------------------------------------------------------
    @staticmethod
    def column_keys(
        pattern: Pattern, attributes: Iterable[str]
    ) -> List[Tuple[int, str]]:
        """The sorted ``(variable, attr)`` columns of a table over ``pattern``.

        A column's position here is its *slot* in
        :meth:`constant_code_counts`.
        """
        return sorted(
            {(variable, attr) for variable in pattern.variables() for attr in attributes}
        )

    def constant_code_counts(self) -> Tuple[np.ndarray, np.ndarray]:
        """Per-column value-code frequencies as one integer group-by (index path).

        Returns ``(keys, counts)``: the distinct ``slot · K + code`` over
        every column's present cells, ascending, and the rows carrying
        each — ``slot`` is the column's position in :meth:`column_keys`
        and ``K`` the index's value-code count.  Codes are graph-global on
        the index, so shards' arrays merge by key
        (:func:`constant_literals_from_code_counts`).  No value is decoded.
        """
        num_codes = len(self.index.value_of_code)
        columns = [self._codes[column] for column in sorted(self._codes)]
        # int32 keys whenever they fit: the sort dominates, and sorting
        # int32 takes half as long
        dtype = np.int32 if len(columns) * num_codes < 2**31 else np.int64
        stack = np.stack(columns or [np.empty(0, dtype=np.int64)]).astype(dtype)
        present = stack != 0
        stack += (np.arange(len(stack), dtype=dtype) * num_codes)[:, None]
        keys = stack[present]
        keys.sort()
        return run_lengths(keys)

    def constant_value_counts(self) -> Dict[Tuple[int, str], Counter]:
        """Per-column value frequencies (mergeable across match shards).

        The ``Counter`` form: the alphabet's oracle, and its only form on a
        table without an index, whose codes are per table.  Computed by a
        ``np.unique`` group-by over the code column and a decode of the
        (few) distinct codes — never a per-row Python loop.
        """
        counts: Dict[Tuple[int, str], Counter] = {}
        decode = (
            self.index.value_of_code if self.index is not None else None
        )
        if decode is None:
            # per-table code space: invert the interning dict once
            decode = [MISSING] * (len(self._value_codes) + 1)
            for value, code in self._value_codes.items():
                decode[code] = value
        for key, codes in self._codes.items():
            counter: Counter = Counter()
            if codes.size:
                present = codes[codes != 0]
                if present.size:
                    values, tallies = np.unique(present, return_counts=True)
                    for code, tally in zip(values.tolist(), tallies.tolist()):
                        counter[decode[code]] = tally
            counts[key] = counter
        return counts

    def variable_agreement_counts(
        self, same_attr_only: bool = True
    ) -> Dict[Tuple[int, str, int, str], int]:
        """Per column pair: rows on which both columns agree (mergeable).

        Agreement is a vectorized code compare: codes share one space per
        table (or graph-globally with an index), so value equality is code
        equality, and code 0 (MISSING) never agrees.
        """
        counts: Dict[Tuple[int, str, int, str], int] = {}
        keys = sorted(self._codes)
        for index, (var1, attr1) in enumerate(keys):
            for var2, attr2 in keys[index + 1:]:
                if var1 == var2:
                    continue
                if same_attr_only and attr1 != attr2:
                    continue
                codes1 = self._codes[(var1, attr1)]
                codes2 = self._codes[(var2, attr2)]
                agreeing = int(
                    np.count_nonzero((codes1 == codes2) & (codes1 != 0))
                )
                counts[(var1, attr1, var2, attr2)] = agreeing
        return counts

    def candidate_constant_literals(
        self, max_constants: int, min_rows: int = 1
    ) -> List[ConstantLiteral]:
        """Frequent constant literals per column.

        For each ``(variable, attr)`` column, the ``max_constants`` most
        frequent present values occurring in at least ``min_rows`` rows —
        the paper's "5 most frequent values" protocol (Section 7).  On the
        index the integer path runs; without one, the ``Counter`` oracle.
        """
        if self.index is None:
            return constant_literals_from_counts(
                self.constant_value_counts(), max_constants, min_rows
            )
        return constant_literals_from_code_counts(
            [self.constant_code_counts()],
            sorted(self._codes),
            self.index.value_of_code,
            max_constants,
            min_rows,
        )

    def candidate_variable_literals(
        self, same_attr_only: bool = True, min_rows: int = 1
    ) -> List[VariableLiteral]:
        """Variable literals ``x.A = y.B`` over distinct variables.

        Only pairs agreeing on at least ``min_rows`` rows are candidates;
        ``same_attr_only`` restricts to ``A = B`` (the common case in the
        paper's examples, e.g. ``y.name = z.name``).
        """
        return variable_literals_from_counts(
            self.variable_agreement_counts(same_attr_only), min_rows
        )


def merge_value_counts(
    parts: Iterable[Dict[Tuple[int, str], Counter]],
) -> Dict[Tuple[int, str], Counter]:
    """Combine per-shard column value counts (``ParDis`` master aggregation)."""
    merged: Dict[Tuple[int, str], Counter] = {}
    for part in parts:
        for key, counter in part.items():
            if key in merged:
                merged[key].update(counter)
            else:
                merged[key] = Counter(counter)
    return merged


def merge_agreement_counts(
    parts: Iterable[Dict[Tuple[int, str, int, str], int]],
) -> Dict[Tuple[int, str, int, str], int]:
    """Combine per-shard column-pair agreement counts."""
    merged: Dict[Tuple[int, str, int, str], int] = {}
    for part in parts:
        for key, count in part.items():
            merged[key] = merged.get(key, 0) + count
    return merged


def _rank(entry: Tuple[Any, int]) -> Tuple[int, str, str, str]:
    """The alphabet's total order on ``(value, count)``: descending count,
    then value text.

    Distinct values can print alike (``1`` and ``"1"``), so the type name
    and ``repr`` break what ``str`` leaves tied — without them the order
    would fall back to insertion order, which differs between one table
    and a merge of shards.
    """
    value, count = entry
    return (-count, str(value), type(value).__qualname__, repr(value))


def constant_literals_from_counts(
    counts: Dict[Tuple[int, str], Counter], max_constants: int, min_rows: int
) -> List[ConstantLiteral]:
    """Build the constant-literal alphabet from (merged) value counts.

    The ``Counter`` oracle of :func:`constant_literals_from_code_counts`,
    for tables without an index.  Ranking is total (:func:`_rank`), so
    every path produces the same alphabet.
    """
    import heapq

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
        ranked = sorted(pool, key=_rank)
        for value, count in ranked[:max_constants]:
            if count >= min_rows:
                literals.append(ConstantLiteral(variable, attr, value))
    return literals


def constant_literals_from_code_counts(
    parts: Sequence[Tuple[np.ndarray, np.ndarray]],
    columns: Sequence[Tuple[int, str]],
    values: Sequence[Any],
    max_constants: int,
    min_rows: int,
) -> List[ConstantLiteral]:
    """The constant-literal alphabet from shards' integer value counts.

    ``parts`` are :meth:`MatchTable.constant_code_counts` results of one
    pattern's shards, ``columns`` their slot order and ``values`` the
    index's ``value_of_code`` (so ``K = len(values)``).  Codes are
    graph-global on the index, so the merge is a sum per key.  Each
    column is cut at its ``max_constants``-th largest count (and at
    ``min_rows``); only the values at or above the cut are decoded and
    ranked by :func:`_rank`.  Equal to :func:`constant_literals_from_counts`
    over the decoded, merged counts.
    """
    keys = np.concatenate([part[0] for part in parts])
    counts = np.concatenate([part[1] for part in parts])
    if len(parts) > 1:
        order = np.argsort(keys)
        keys, sizes = run_lengths(keys[order])
        counts = np.add.reduceat(counts[order], np.cumsum(sizes) - sizes)
    if keys.size == 0:
        return []
    num_codes = len(values)
    slots = keys // num_codes
    # per slot, counts descending: the cut is the max_constants-th entry
    order = np.lexsort((-counts, slots))
    slots, counts = slots[order], counts[order]
    codes = keys[order] % num_codes
    _, sizes = run_lengths(slots)
    starts = np.cumsum(sizes) - sizes
    cut = counts[starts + np.minimum(sizes, max_constants) - 1]
    floor = np.maximum(cut, min_rows)
    kept = np.flatnonzero(counts >= np.repeat(floor, sizes))
    literals: List[ConstantLiteral] = []
    for slot, run in groupby(
        zip(slots[kept].tolist(), codes[kept].tolist(), counts[kept].tolist()),
        key=lambda entry: entry[0],
    ):
        variable, attr = columns[slot]
        pool = [(values[code], count) for _, code, count in run]
        ranked = sorted(pool, key=_rank)
        for value, _ in ranked[:max_constants]:
            literals.append(ConstantLiteral(variable, attr, value))
    return literals


def variable_literals_from_counts(
    counts: Dict[Tuple[int, str, int, str], int], min_rows: int
) -> List[VariableLiteral]:
    """Build the variable-literal alphabet from (merged) agreement counts."""
    literals: List[VariableLiteral] = []
    for (var1, attr1, var2, attr2) in sorted(counts):
        if counts[(var1, attr1, var2, attr2)] >= min_rows:
            literals.append(make_variable_literal(var1, attr1, var2, attr2))
    return literals
