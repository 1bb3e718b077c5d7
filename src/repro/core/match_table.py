"""Columnar match tables — the bridge between pattern and FD mining.

The paper's key algorithmic idea is to run pattern mining and dependency
mining *in a single process* (Section 5.1).  Once the matches of a pattern
``Q`` are known, checking a dependency ``X → l`` is relational work: treat
every match ``h(x̄)`` as a row, every pair ``(variable, attribute)`` as a
column, and evaluate literals column-wise.  :class:`MatchTable` is that
relation, restricted to the *active attributes* ``Γ`` (Section 4.3).  It
holds only its rows — the pivot-sorted match array over a frozen
:class:`~repro.graph.index.GraphIndex` — and materializes a column late:
each op that reads one gathers it from the index's attribute codes, uses
it and drops it.  It serves two roles:

* mining (``ParDis`` workers and ``ParArab``): the candidate alphabet's
  column statistics (:meth:`MatchTable.alphabet_counts`), and row sets as
  packed bitsets (``literal_bits`` / ``full_bits`` / ``bits_support`` /
  ``stack_supports``) — a row set is one Python int with row ``i`` at bit
  ``i``, an intersection is ``&``, a count is ``int.bit_count`` and the
  distinct-pivot support ``|Q(G, Xl, z)|`` one multi-word carry-add (see
  :meth:`MatchTable.bits_support`) — or as rows of a uint64 word matrix,
  whose pairs a lattice depth counts in bulk (``as_words`` /
  :func:`cross_counts`; a word matrix's ``uint8`` view is a packed stack,
  so its supports are ``stack_supports`` too);
* enforcement: one bool mask per literal (``literal_mask``) and per rule
  (``violation_mask``).

Its oracle is the dict-graph table :class:`repro.oracle.ReferenceTable`.
"""

from __future__ import annotations

import heapq
from itertools import groupby
from typing import (
    Any, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple, Union,
)

import numpy as np

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
    "cross_counts",
    "row_blocks",
    "merge_agreement_counts",
    "rank_value",
    "constant_literals_from_code_counts",
    "literal_alphabet",
    "variable_literals_from_counts",
]


class MatchTable:
    """The matches of one pattern as a columnar relation over an index.

    Args:
        index: a frozen :class:`~repro.graph.index.GraphIndex` — the
            attribute source; an op gathers the columns it reads from the
            index's attribute codes (one fancy-indexing each).
        pattern: the matched pattern.
        matches: the match tuples (graph node per variable), or an
            ``(N, num_vars)`` int64 array.
        attributes: the active attributes ``Γ`` — the table's columns.
        truncated: set when ``matches`` is a capped subset — validity
            judgements must not be made from a truncated table.
    """

    def __init__(
        self,
        index: GraphIndex,
        pattern: Pattern,
        matches: Union[Sequence[Match], np.ndarray],
        attributes: Sequence[str],
        truncated: bool = False,
    ) -> None:
        self.pattern = pattern
        self.index = index
        self.attributes = list(attributes)
        self.truncated = truncated
        # Rows are kept sorted by pivot (stable: preserves relative order
        # within a pivot), so distinct-pivot counting over a row set is a
        # run count instead of a sort.  Columns are the index's graph-global
        # integer value codes, code 0 = MISSING; none is stored — _gather
        # reads one when an op needs it (late materialization), so a row
        # costs 8·|x̄| bytes.
        if isinstance(matches, np.ndarray):
            array = matches.reshape(-1, pattern.num_nodes)
        elif len(matches):
            array = np.asarray(matches, dtype=np.int64)
        else:
            array = np.empty((0, pattern.num_nodes), dtype=np.int64)
        # matches usually arrive pivot-sorted: adopt them as they are
        pivots = array[:, pattern.pivot]
        if bool((pivots[1:] < pivots[:-1]).any()):
            array = array[np.argsort(pivots, kind="stable")]
        self.match_array = np.ascontiguousarray(array, dtype=np.int64)
        self._pivot_array = self.match_array[:, pattern.pivot]
        self._value_codes: Dict[Any, int] = index.code_of_value
        self.num_rows = self.match_array.shape[0]
        # lazily-computed row masks per literal (enforcement reuses them)
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
        """A table over a frozen graph index (the constructor, by name)."""
        return cls(index, pattern, matches, attributes, truncated=truncated)

    # ------------------------------------------------------------------
    # column gathers
    # ------------------------------------------------------------------
    def _node_rows(self) -> np.ndarray:
        """The match array as C-ordered ``(|x̄| × N)`` node rows, for an op
        that gathers several columns: a gather through a contiguous row is
        about 3× faster than through a column of the match array, and its
        result's rows are contiguous too."""
        return np.ascontiguousarray(self.match_array.T)

    def _gather(
        self, variable: int, attr: str, nodes: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """The value codes of column ``(variable, attr)`` (0 = MISSING).

        A fresh gather from the index's attribute codes (all zeros for an
        attribute no node carries), through :meth:`_node_rows` ``nodes``
        when given, that the caller drops when done.
        """
        codes = self.index.attr_code_array(attr)
        if codes is None:
            return np.zeros(self.num_rows, dtype=np.int64)
        return codes[self.match_array[:, variable] if nodes is None else nodes[variable]]

    def _gather_attribute(self, attr: str, nodes: np.ndarray) -> np.ndarray:
        """One attribute's columns as a C-ordered ``(|x̄| × N)`` code block
        (row ``v`` is column ``(v, attr)``), gathered through the
        :meth:`_node_rows` ``nodes`` in one call."""
        codes = self.index.attr_code_array(attr)
        if codes is None:
            return np.zeros(nodes.shape, dtype=np.int64)
        return codes[nodes]

    # -- bool row masks (enforcement) -----------------------------------
    def literal_mask(self, literal: Literal) -> np.ndarray:
        """Boolean row mask of ``literal`` (cached; do not mutate).

        Missing attributes never satisfy a literal (Section 2.2 semantics):
        code 0 (MISSING) never equals a value code, and two MISSING cells
        are explicitly excluded from variable-literal equality.  The mask
        is cached (enforcement reuses it); the columns it was computed from
        are not.
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
            return mask if mask is not None else np.ones(self.num_rows, dtype=bool)
        rhs_mask = self.literal_mask(rhs)
        return ~rhs_mask if mask is None else mask & ~rhs_mask

    # -- row bitsets (the mining kernel) -------------------------------
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
        stack = np.empty((len(literals), self.num_rows), dtype=bool)
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
        return (1 << self.num_rows) - 1

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
            last = np.ones(self.num_rows, dtype=bool)
            np.not_equal(self._pivot_array[1:], self._pivot_array[:-1], out=last[:-1])
            packed = np.packbits(last, bitorder="little")
            high = int.from_bytes(packed.tobytes(), "little")
            self._run_bits = (high, self.full_bits() ^ high)
        high, low = self._run_bits
        return ((((mask & low) + low) | mask) & high).bit_count()

    def stack_supports(self, packed: np.ndarray) -> List[int]:
        """:meth:`bits_support` of every row of a packed ``(masks × bytes)`` stack."""
        return [self.bits_support(mask) for mask in self.as_bitsets(packed)]

    # -- word matrices (the lattice's count kernel) ---------------------
    @staticmethod
    def as_words(packed: np.ndarray) -> np.ndarray:
        """A packed uint8 stack as a zero-padded ``(masks × ⌈N/64⌉)``
        uint64 word matrix: the same bytes, so row ``i`` is still bit ``i``
        of the uint8 view."""
        sets, width = packed.shape
        words = np.zeros((sets, -(-width // 8)), dtype=np.uint64)
        words.view(np.uint8)[:, :width] = packed
        return words

    def full_words(self) -> np.ndarray:
        """The ``(1 × words)`` matrix selecting every row."""
        every = np.ones((1, self.num_rows), dtype=bool)
        return self.as_words(np.packbits(every, axis=1, bitorder="little"))

    # ------------------------------------------------------------------
    # candidate literals (HSpawn's alphabet)
    # ------------------------------------------------------------------
    @staticmethod
    def column_keys(
        pattern: Pattern, attributes: Iterable[str]
    ) -> List[Tuple[int, str]]:
        """The sorted ``(variable, attr)`` columns of a table over ``pattern``.

        A column's position here is its *slot* in the code counts of
        :meth:`alphabet_counts`.
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

        Returns ``(code counts, agreements)``.  The code counts (``None``
        unless ``constants``) are per-column value-code frequencies as one
        integer group-by: ``(keys, counts)``, the distinct ``slot · K +
        code`` over every column's present cells, ascending, and the rows
        carrying each — ``slot`` is the column's position in
        :meth:`column_keys` and ``K`` the index's value-code count.  Codes
        are graph-global, so shards' arrays merge by key
        (:func:`constant_literals_from_code_counts`) and no value is
        decoded.  The agreements (empty when ``same_attr_only`` is
        ``None``) map each column pair — same attribute only, unless
        ``same_attr_only`` is ``False`` — to the rows on which both columns
        agree: a vectorized code compare, where code 0 (MISSING) never
        agrees; keys are ascending and merge across shards by sum.
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
            keys = np.empty(len(columns) * self.num_rows, dtype=dtype)
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


#: Transient bytes a word-matrix kernel materializes per block.
_BLOCK_BYTES = 1 << 17


def cross_counts(sets: np.ndarray, words: np.ndarray) -> np.ndarray:
    """``|sets[i] ∧ words[j]|`` for every pair of rows of two word
    matrices: a ``(sets × words)`` int64 count matrix, one ``AND`` and
    popcount over a block of ``sets`` rows at a time (each block's
    intermediate stays near ``_BLOCK_BYTES``)."""
    counts = np.empty((len(sets), len(words)), dtype=np.int64)
    for block in row_blocks(len(sets), words.nbytes):
        np.sum(
            np.bitwise_count(sets[block, None, :] & words[None, :, :]),
            axis=2, dtype=np.int64, out=counts[block],
        )
    return counts


def row_blocks(count: int, item_bytes: int) -> Iterator[slice]:
    """Slices over ``count`` items of ``item_bytes`` each, about
    ``_BLOCK_BYTES`` per slice (one item at least)."""
    step = max(1, _BLOCK_BYTES // max(1, item_bytes))
    for start in range(0, count, step):
        yield slice(start, start + step)


def merge_agreement_counts(
    parts: Iterable[Dict[Tuple[int, str, int, str], int]],
) -> Dict[Tuple[int, str, int, str], int]:
    """Combine per-shard column-pair agreement counts."""
    merged: Dict[Tuple[int, str, int, str], int] = {}
    for part in parts:
        for key, count in part.items():
            merged[key] = merged.get(key, 0) + count
    return merged


def rank_value(entry: Tuple[Any, int]) -> Tuple[int, str, str, str]:
    """The alphabet's total order on ``(value, count)``: descending count,
    then value text.

    Distinct values can print alike (``1`` and ``"1"``), so the type name
    and ``repr`` break what ``str`` leaves tied — without them the order
    would fall back to insertion order, which differs between one table
    and a merge of shards.
    """
    value, count = entry
    return (-count, str(value), type(value).__qualname__, repr(value))


def constant_literals_from_code_counts(
    parts: Sequence[Tuple[np.ndarray, np.ndarray]],
    columns: Sequence[Tuple[int, str]],
    values: Sequence[Any],
    max_constants: int,
    floor: int = 1,
) -> List[ConstantLiteral]:
    """The constant-literal alphabet from shards' integer value counts.

    ``parts`` are :meth:`MatchTable.alphabet_counts` code counts of one
    pattern's shards, ``columns`` their slot order and ``values`` the
    index's ``value_of_code`` (so ``K = len(values)``).  Codes are
    graph-global, so the merge is a sum per key.  Values on fewer than
    ``floor`` rows are dropped first; each column is then cut at its
    ``max_constants``-th largest count, and only the values at or above
    the cut are decoded and ranked (:func:`_top_ranked`).  The ranking is
    count-descending, so the floor keeps exactly the unfloored alphabet's
    literals of ``floor`` rows or more, in their order.  At ``floor=1``
    equal to :func:`repro.oracle.constant_literals_from_counts` over the
    decoded, merged counts.
    """
    keys = np.concatenate([part[0] for part in parts])
    counts = np.concatenate([part[1] for part in parts])
    if len(parts) > 1:
        order = np.argsort(keys)
        keys, sizes = run_lengths(keys[order])
        counts = np.add.reduceat(counts[order], np.cumsum(sizes) - sizes)
    alive = counts >= floor
    keys, counts = keys[alive], counts[alive]
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
    """``sorted(pool, key=rank_value)[:limit]`` for a count-descending ``pool``.

    Entries above the cut count all make it; of the ties at the cut only
    the ``need`` smallest by text can, and :func:`rank_value` orders equal counts
    by text first.  So the ties whose text is at most the ``need``-th
    smallest text are the only ones ranked — with a heavy tie (every value
    seen once) that is ``need`` or a few more entries, not the whole pool.
    """
    if len(pool) <= limit:
        return sorted(pool, key=rank_value)
    cut = pool[limit - 1][1]
    above = [entry for entry in pool if entry[1] > cut]
    ties = [entry for entry in pool if entry[1] == cut]
    need = limit - len(above)
    texts = [str(value) for value, _ in ties]
    boundary = heapq.nsmallest(need, texts)[-1]
    near = [entry for entry, text in zip(ties, texts) if text <= boundary]
    return sorted(above, key=rank_value) + sorted(near, key=rank_value)[:need]


def literal_alphabet(
    index: GraphIndex,
    pattern: Pattern,
    attributes: Sequence[str],
    value_parts: Sequence[Tuple[np.ndarray, np.ndarray]],
    agreements: Dict[Tuple[int, str, int, str], int],
    max_constants: int,
    floor: int = 1,
) -> List[Literal]:
    """``HSpawn``'s candidate alphabet from one pattern's column statistics.

    ``value_parts`` are its shards' :meth:`MatchTable.alphabet_counts`
    code counts and ``agreements`` the merged variable-literal agreement
    counts (empty when variable literals are off): the constant literals
    (:func:`constant_literals_from_code_counts`), then the variable
    literals, each holding on at least ``floor`` (and one) rows.

    ``ParDis`` passes ``floor = σ`` under pruning (Lemma 4): a literal's
    support never exceeds its row count, so a literal on fewer than ``σ``
    rows is in no frequent LHS or RHS, and ``NHSpawn`` takes no ``l''``
    of fewer than ``σ`` rows either.
    """
    literals: List[Literal] = list(
        constant_literals_from_code_counts(
            value_parts,
            MatchTable.column_keys(pattern, attributes),
            index.value_of_code,
            max_constants,
            floor,
        )
    )
    literals.extend(variable_literals_from_counts(agreements, floor))
    return literals


def variable_literals_from_counts(
    counts: Dict[Tuple[int, str, int, str], int],
    floor: int = 1,
) -> List[VariableLiteral]:
    """Build the variable-literal alphabet from (merged) agreement counts.

    A pair that agrees on fewer than ``floor`` rows (and one) is not a
    candidate.
    """
    floor = max(floor, 1)
    literals: List[VariableLiteral] = []
    for (var1, attr1, var2, attr2) in sorted(counts):
        if counts[(var1, attr1, var2, attr2)] >= floor:
            literals.append(make_variable_literal(var1, attr1, var2, attr2))
    return literals
