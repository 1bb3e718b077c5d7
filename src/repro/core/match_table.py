"""Columnar match tables — the bridge between pattern and FD mining.

The paper's key algorithmic idea is to run pattern mining and dependency
mining *in a single process* (Section 5.1).  Once the matches of a pattern
``Q`` are known, checking a dependency ``X → l`` is relational work: treat
every match ``h(x̄)`` as a row, every pair ``(variable, attribute)`` as a
column, and evaluate literals column-wise.  :class:`MatchTable` is that
relation, restricted to the *active attributes* ``Γ`` (Section 4.3).  On
the index it holds only its rows — the pivot-sorted match array — and
materializes a column late: each op that reads one gathers it from the
index's attribute codes, uses it and drops it.  It supports

* literal evaluation over row-index subsets (``HSpawn``'s inner loop),
* distinct-pivot counting (the support ``|Q(G, Xl, z)|``), and
* candidate-literal generation (frequent constants per column, compatible
  column pairs for variable literals).

Row sets have two faces.  The numpy one (``literal_mask`` / ``mask_count`` /
``mask_support``: a bool array per literal) serves the lattices of the
discovery oracle (``SequentialDiscovery``) and of ``ParArab``, and
enforcement's ``violation_mask``.  The
bitset one (``literal_bits`` / ``full_bits`` / ``bits_support`` /
``stack_supports``) is the ``ParDis`` worker kernel's: a row set is one
Python int with row ``i`` at bit ``i``, an intersection is ``&``, a count
is ``int.bit_count`` and the distinct-pivot support is one multi-word
carry-add (see :meth:`MatchTable.bits_support`).
"""

from __future__ import annotations

import heapq
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
        attributes: the active attributes ``Γ`` — the table's columns.
        truncated: set when ``matches`` is a capped subset — validity
            judgements must not be made from a truncated table.
        index: a frozen :class:`~repro.graph.index.GraphIndex` of ``graph``;
            when given, the table stores no column: an op gathers the
            columns it reads from the index's attribute codes (one
            fancy-indexing each) instead of the per-row ``get_attr`` loop.
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
        # Columns are integer value codes (literal masks are C-speed vector
        # compares), code 0 = MISSING, one code space per table so variable
        # literals compare codes directly.  With an index the codes are
        # graph-global and nothing per column is stored: _gather reads a
        # column from the index when an op needs it (late materialization),
        # so a row costs 8·|x̄| bytes.  Without one (the oracle) every column
        # is stored twice, as raw values and as per-table codes.
        self._columns: Dict[Tuple[int, str], List[Any]] = {}
        self._codes: Dict[Tuple[int, str], np.ndarray] = {}
        if index is not None:
            if isinstance(matches, np.ndarray):
                array = matches.reshape(-1, pattern.num_nodes)
            elif len(matches):
                array = np.asarray(matches, dtype=np.int64)
            else:
                array = np.empty((0, pattern.num_nodes), dtype=np.int64)
            # matches usually arrive pivot-sorted: adopt them as they are
            pivots = array[:, pivot_var]
            if bool((pivots[1:] < pivots[:-1]).any()):
                array = array[np.argsort(pivots, kind="stable")]
            array = np.ascontiguousarray(array, dtype=np.int64)
            self._match_array: Optional[np.ndarray] = array
            self._matches: Optional[List[Match]] = None
            self._pivot_array = array[:, pivot_var]
            self._value_codes: Dict[Any, int] = index.code_of_value
            num_rows = array.shape[0]
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
        self._full_mask: Optional[np.ndarray] = None
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
        """A table over a frozen graph index: its columns are gathered when read."""
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
        """The value column for ``(variable, attr)`` (``MISSING`` sentinel).

        Decoded afresh on every call on the index; not kept.
        """
        if self.index is None:
            return self._columns[(variable, attr)]
        return self.index.decode_values(self._gather(variable, attr))

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

    def _node_rows(self) -> Optional[np.ndarray]:
        """The match array as C-ordered ``(|x̄| × N)`` node rows (index
        only), for an op that gathers several columns: a gather through a
        contiguous row is about 3× faster than through a column of the
        match array, and its result's rows are contiguous too."""
        if self.index is None:
            return None
        return np.ascontiguousarray(self._match_array.T)

    def _gather(
        self, variable: int, attr: str, nodes: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """The value codes of column ``(variable, attr)`` (0 = MISSING).

        Stored without an index; on one, a fresh gather from the index's
        attribute codes (all zeros for an attribute no node carries),
        through :meth:`_node_rows` ``nodes`` when given, that the caller
        drops when done.
        """
        if self.index is None:
            return self._codes[(variable, attr)]
        codes = self.index.attr_code_array(attr)
        if codes is None:
            return np.zeros(self._num_rows, dtype=np.int64)
        return codes[self._match_array[:, variable] if nodes is None else nodes[variable]]

    def _gather_attribute(self, attr: str, nodes: Optional[np.ndarray]) -> np.ndarray:
        """One attribute's columns as a C-ordered ``(|x̄| × N)`` code block
        (row ``v`` is column ``(v, attr)``), gathered through the
        :meth:`_node_rows` ``nodes`` in one call."""
        if self.index is None:
            return np.stack(
                [self._codes[(variable, attr)] for variable in self.pattern.variables()]
            )
        codes = self.index.attr_code_array(attr)
        if codes is None:
            return np.zeros(nodes.shape, dtype=np.int64)
        return codes[nodes]

    # -- numpy mask interface (the discovery hot loop) -----------------
    def full_mask(self) -> np.ndarray:
        """A boolean mask selecting every row (built on first use; do not
        mutate)."""
        if self._full_mask is None:
            self._full_mask = np.ones(self._num_rows, dtype=bool)
        return self._full_mask

    def literal_mask(self, literal: Literal) -> np.ndarray:
        """Boolean row mask of ``literal`` (cached; do not mutate).

        Missing attributes never satisfy a literal (Section 2.2 semantics):
        code 0 (MISSING) never equals a value code, and two MISSING cells
        are explicitly excluded from variable-literal equality.  The mask
        is cached (the oracle and enforcement reuse it); the columns it was
        computed from are not.
        """
        cached = self._literal_masks.get(literal)
        if cached is not None:
            self.mask_cache_hits += 1
            return cached
        self.mask_cache_misses += 1
        if isinstance(literal, ConstantLiteral):
            wanted = self._value_codes.get(literal.value, -1)
            mask = self._gather(literal.var, literal.attr) == wanted
        else:
            assert isinstance(literal, VariableLiteral)
            codes1 = self._gather(literal.var1, literal.attr1)
            codes2 = self._gather(literal.var2, literal.attr2)
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
            return mask if mask is not None else self.full_mask()
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
        packed row; semantics are :meth:`literal_mask`'s.  The stack is
        filled one attribute at a time: each column's constants in one
        broadcast, then the attribute's variable literals (one across two
        attributes counts under the later).  A column is gathered once and
        dropped after the attribute that last reads it, so about one
        attribute's columns are live at a time.  Nothing is cached: the
        caller keeps what it needs.
        """
        stack = np.empty((len(literals), self._num_rows), dtype=bool)
        value_codes = self._value_codes
        # per attribute: runs of consecutive constants on one column as
        # (column, first row, wanted codes), and variable-literal rows
        runs: Dict[str, List[Tuple[Tuple[int, str], int, List[int]]]] = {}
        variables: Dict[str, List[int]] = {}
        # a column that a later attribute's variable literal still reads
        kept_until: Dict[Tuple[int, str], str] = {}
        column: Optional[Tuple[int, str]] = None
        for row, literal in enumerate(literals):
            if isinstance(literal, ConstantLiteral):
                if (literal.var, literal.attr) != column:
                    column = (literal.var, literal.attr)
                    wanted: List[int] = []
                    runs.setdefault(literal.attr, []).append((column, row, wanted))
                wanted.append(value_codes.get(literal.value, -1))
                continue
            assert isinstance(literal, VariableLiteral)
            column = None
            later = max(literal.attr1, literal.attr2)
            variables.setdefault(later, []).append(row)
            for read in ((literal.var1, literal.attr1), (literal.var2, literal.attr2)):
                if read[1] < later:
                    kept_until[read] = max(kept_until.get(read, later), later)
        live: Dict[Tuple[int, str], np.ndarray] = {}
        nodes = self._node_rows()

        def codes(column: Tuple[int, str]) -> np.ndarray:
            gathered = live.get(column)
            if gathered is None:
                gathered = live[column] = self._gather(*column, nodes)
            return gathered

        for attr in sorted(runs.keys() | variables.keys()):
            for column, start, wanted in runs.get(attr, ()):
                np.equal(
                    np.array(wanted, dtype=np.int64)[:, None],
                    codes(column)[None, :],
                    out=stack[start:start + len(wanted)],
                )
            for row in variables.get(attr, ()):
                literal = literals[row]
                codes1 = codes((literal.var1, literal.attr1))
                np.equal(codes1, codes((literal.var2, literal.attr2)), out=stack[row])
                stack[row] &= codes1 != 0
            for column in [c for c in live if kept_until.get(c, attr) <= attr]:
                del live[column]
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

    def alphabet_counts(
        self, same_attr_only: Optional[bool] = None, constants: bool = True
    ) -> Tuple[
        Optional[Tuple[np.ndarray, np.ndarray]], Dict[Tuple[int, str, int, str], int]
    ]:
        """The alphabet's column statistics, reading each column once.

        Returns ``(code counts, agreements)``: :meth:`constant_code_counts`
        (``None`` unless ``constants``; it needs the index) and — unless
        ``same_attr_only`` is ``None`` — :meth:`variable_agreement_counts`.
        The table is read one attribute at a time: one gather of that
        attribute's ``|x̄|`` columns appends the keys of their present
        cells and counts their agreeing pairs, then is dropped; one sort
        of the keys ends it.  Pairs across attributes
        (``same_attr_only=False``) keep every attribute's columns until
        the pairs are counted.
        """
        columns = self.column_keys(self.pattern, self.attributes)
        attributes = sorted({attr for _, attr in columns})
        variables = list(self.pattern.variables())
        if constants:
            num_codes = len(self.index.value_of_code)
            # int32 keys whenever they fit: the sort dominates, and sorting
            # int32 takes half as long
            dtype = np.int32 if len(columns) * num_codes < 2**31 else np.int64
            keys = np.empty(len(columns) * self._num_rows, dtype=dtype)
            filled = 0
            # column_keys is variable-major: (v, attributes[j]) is slot
            # v·|attributes| + j
            offsets = np.arange(len(columns), dtype=dtype).reshape(
                len(variables), -1
            ) * num_codes
        agreements: Dict[Tuple[int, str, int, str], int] = {}
        blocks: Dict[str, Tuple[np.ndarray, np.ndarray]] = {}
        nodes = self._node_rows()
        for position, attr in enumerate(attributes):
            block = self._gather_attribute(attr, nodes)
            present = block != 0
            if constants:
                cells = np.add(
                    block, offsets[:, position:position + 1],
                    dtype=dtype, casting="unsafe",
                )[present]
                keys[filled:filled + cells.size] = cells
                filled += cells.size
            if same_attr_only is False:
                blocks[attr] = (block, present)
            elif same_attr_only:
                for var1 in variables:
                    for var2 in variables[var1 + 1:]:
                        agreements[(var1, attr, var2, attr)] = int(
                            np.count_nonzero((block[var1] == block[var2]) & present[var1])
                        )
        for first, (var1, attr1) in enumerate(columns if blocks else ()):
            codes1, present1 = blocks[attr1][0][var1], blocks[attr1][1][var1]
            for var2, attr2 in columns[first + 1:]:
                if var1 != var2:
                    agreements[(var1, attr1, var2, attr2)] = int(
                        np.count_nonzero((codes1 == blocks[attr2][0][var2]) & present1)
                    )
        values = None
        if constants:
            keys = keys[:filled]
            keys.sort()
            values = run_lengths(keys)
        return values, dict(sorted(agreements.items()))

    def constant_code_counts(self) -> Tuple[np.ndarray, np.ndarray]:
        """Per-column value-code frequencies as integer group-bys (index path).

        Returns ``(keys, counts)``: the distinct ``slot · K + code`` over
        every column's present cells, ascending, and the rows carrying
        each — ``slot`` is the column's position in :meth:`column_keys`
        and ``K`` the index's value-code count.  Codes are graph-global on
        the index, so shards' arrays merge by key
        (:func:`constant_literals_from_code_counts`).  No value is decoded.
        """
        return self.alphabet_counts()[0]

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
        for key in self.column_keys(self.pattern, self.attributes):
            codes = self._gather(*key)
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
        equality, and code 0 (MISSING) never agrees.  Keys are ascending.
        """
        return self.alphabet_counts(same_attr_only, constants=False)[1]

    def candidate_constant_literals(
        self, max_constants: int
    ) -> List[ConstantLiteral]:
        """Frequent constant literals per column.

        For each ``(variable, attr)`` column, the ``max_constants`` most
        frequent present values — the paper's "5 most frequent values"
        protocol (Section 7).  On the index the integer path runs; without
        one, the ``Counter`` oracle.
        """
        if self.index is None:
            return constant_literals_from_counts(
                self.constant_value_counts(), max_constants
            )
        return constant_literals_from_code_counts(
            [self.constant_code_counts()],
            self.column_keys(self.pattern, self.attributes),
            self.index.value_of_code,
            max_constants,
        )

    def candidate_variable_literals(
        self, same_attr_only: bool = True
    ) -> List[VariableLiteral]:
        """Variable literals ``x.A = y.B`` over distinct variables.

        Only pairs agreeing on at least one row are candidates;
        ``same_attr_only`` restricts to ``A = B`` (the common case in the
        paper's examples, e.g. ``y.name = z.name``).
        """
        return variable_literals_from_counts(
            self.variable_agreement_counts(same_attr_only)
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
    counts: Dict[Tuple[int, str], Counter], max_constants: int
) -> List[ConstantLiteral]:
    """Build the constant-literal alphabet from (merged) value counts.

    The ``Counter`` oracle of :func:`constant_literals_from_code_counts`,
    for tables without an index.  Ranking is total (:func:`_rank`), so
    every path produces the same alphabet.
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
        ranked = sorted(pool, key=_rank)
        for value, _ in ranked[:max_constants]:
            literals.append(ConstantLiteral(variable, attr, value))
    return literals


def constant_literals_from_code_counts(
    parts: Sequence[Tuple[np.ndarray, np.ndarray]],
    columns: Sequence[Tuple[int, str]],
    values: Sequence[Any],
    max_constants: int,
) -> List[ConstantLiteral]:
    """The constant-literal alphabet from shards' integer value counts.

    ``parts`` are :meth:`MatchTable.constant_code_counts` results of one
    pattern's shards, ``columns`` their slot order and ``values`` the
    index's ``value_of_code`` (so ``K = len(values)``).  Codes are
    graph-global on the index, so the merge is a sum per key.  Each
    column is cut at its ``max_constants``-th largest count; only the
    values at or above the cut are decoded and ranked
    (:func:`_top_ranked`).  Equal to :func:`constant_literals_from_counts`
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
    kept = np.flatnonzero(counts >= np.repeat(cut, sizes))
    literals: List[ConstantLiteral] = []
    for slot, run in groupby(
        zip(slots[kept].tolist(), codes[kept].tolist(), counts[kept].tolist()),
        key=lambda entry: entry[0],
    ):
        variable, attr = columns[slot]
        pool = [(values[code], count) for _, code, count in run]
        for value, _ in _top_ranked(pool, max_constants):
            literals.append(ConstantLiteral(variable, attr, value))
    return literals


def _top_ranked(
    pool: List[Tuple[Any, int]], limit: int
) -> List[Tuple[Any, int]]:
    """``sorted(pool, key=_rank)[:limit]`` for a count-descending ``pool``.

    Entries above the cut count all make it; of the ties at the cut only
    the ``need`` smallest by text can, and ``_rank`` orders equal counts
    by text first.  So the ties whose text is at most the ``need``-th
    smallest text are the only ones ranked — with a heavy tie (every value
    seen once) that is ``need`` or a few more entries, not the whole pool.
    """
    if len(pool) <= limit:
        return sorted(pool, key=_rank)
    cut = pool[limit - 1][1]
    above = [entry for entry in pool if entry[1] > cut]
    ties = [entry for entry in pool if entry[1] == cut]
    need = limit - len(above)
    texts = [str(value) for value, _ in ties]
    boundary = heapq.nsmallest(need, texts)[-1]
    near = [entry for entry, text in zip(ties, texts) if text <= boundary]
    return sorted(above, key=_rank) + sorted(near, key=_rank)[:need]


def variable_literals_from_counts(
    counts: Dict[Tuple[int, str, int, str], int],
) -> List[VariableLiteral]:
    """Build the variable-literal alphabet from (merged) agreement counts.

    A pair that agrees on no row (count 0) is not a candidate.
    """
    literals: List[VariableLiteral] = []
    for (var1, attr1, var2, attr2) in sorted(counts):
        if counts[(var1, attr1, var2, attr2)] > 0:
            literals.append(make_variable_literal(var1, attr1, var2, attr2))
    return literals
