"""Tests for match tables, support, reduction, discovery and cover."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    DiscoveryConfig,
    MatchTable,
    discover,
    gfd_identity,
    gfd_reduces,
    gfd_support,
    gfd_support_any,
    minimal_cover_by_reduction,
    negative_base_support,
    normalize_gfd,
    pattern_support,
    sequential_cover,
    SequentialDiscovery,
)
from repro.core.config import CandidateBudgetExceeded
from repro.core.match_table import constant_literals_from_code_counts
from repro.oracle.reduction import _strict_topological
from repro.gfd import (
    FALSE,
    GFD,
    ConstantLiteral,
    graph_satisfies,
    implies,
    make_variable_literal,
    validate_set,
)
from repro.gfd.literals import rename_literal
from repro.graph import Graph
from repro.pattern import WILDCARD, Pattern, embedding_batch, find_matches
from repro.pattern.embedding import may_embed
from repro.oracle import ReferenceTable, support_set


def reducing_pairs(gfds):
    """Every ordered pair ``(i, j)``, ``i != j``, with ``gfds[i] ≪ gfds[j]``.

    The definition read off directly, independent of the prefilters of
    :func:`minimal_cover_by_reduction`: every rule's image under every
    pivot-preserving embedding of its pattern (one embedding-kernel call
    for all pattern pairs) is looked up by its RHS among the rules of the
    outer pattern, and kept where its LHS is a subset, properly so unless
    the embedding is topologically strict.
    """
    by_pattern = {}
    for index, gfd in enumerate(gfds):
        by_pattern.setdefault(gfd.pattern, []).append(index)
    pairs = [
        (inner, outer)
        for inner in by_pattern
        for outer in by_pattern
        if may_embed(inner, outer)
    ]
    found = embedding_batch((inner, outer, True) for inner, outer in pairs)
    reducing = set()
    for (inner, outer), mappings in zip(pairs, found):
        by_rhs = {}
        for j in by_pattern[outer]:
            by_rhs.setdefault(gfds[j].rhs, []).append(j)
        for mapping in mappings:
            proper = _strict_topological(inner, outer, mapping)
            for i in by_pattern[inner]:
                lhs = frozenset(rename_literal(l, mapping) for l in gfds[i].lhs)
                for j in by_rhs.get(rename_literal(gfds[i].rhs, mapping), ()):
                    larger = gfds[j].lhs
                    if i != j and lhs <= larger and (proper or lhs < larger):
                        reducing.add((i, j))
    return reducing


#: ``discover`` on the knowledge-base fixtures, by (name, lattice depth).
_DISCOVERED = {}


def discovered(kb_fixture, name, max_lhs_size):
    """``discover`` on a knowledge-base fixture, run once per session."""
    key = (name, max_lhs_size)
    if key not in _DISCOVERED:
        _DISCOVERED[key] = discover(*kb_fixture(name, max_lhs_size))
    return _DISCOVERED[key]


def table_fixture():
    graph = Graph()
    values = ["red", "red", "blue", None]
    pivots = []
    for value in values:
        attrs = {"color": value} if value is not None else {}
        pivots.append(graph.add_node("thing", attrs))
    matches = [(node,) for node in pivots]
    return graph, MatchTable(graph.index(), Pattern(["thing"]), matches, ["color"])


def literal_bitset(table, literal) -> int:
    """One literal's row bitset on a product table."""
    return table.as_bitsets(table.literal_bits([literal]))[0]


def to_bits(mask) -> int:
    """A bool row mask as the kernel's row bitset (row ``i`` = bit ``i``)."""
    packed = np.packbits(np.asarray(mask, dtype=bool), bitorder="little")
    return int.from_bytes(packed.tobytes(), "little")


def assert_bits_equal_masks(table, literals, masks):
    """``literal_bits`` row by row against per-literal bool ``masks``."""
    packed = table.literal_bits(literals)
    assert packed.dtype == np.uint8
    assert packed.shape == (len(literals), (table.num_rows + 7) // 8)
    rows = np.unpackbits(packed, axis=1, count=table.num_rows, bitorder="little")
    for row, literal in zip(rows, literals):
        assert row.astype(bool).tolist() == masks.literal_mask(literal).tolist()


class TestMatchTable:
    def test_columns_and_missing(self):
        graph, table = table_fixture()
        assert table.num_rows == 4
        red = ConstantLiteral(0, "color", "red")
        assert np.count_nonzero(table.literal_mask(red)) == 2
        missing = ConstantLiteral(0, "color", "green")
        assert np.count_nonzero(table.literal_mask(missing)) == 0

    def test_masks_and_support(self):
        graph, table = table_fixture()
        red = ConstantLiteral(0, "color", "red")
        bits = literal_bitset(table, red)
        assert bits.bit_count() == 2
        assert table.bits_support(bits) == 2
        assert table.bits_support(0) == 0

    def test_rows_sorted_by_pivot(self):
        graph = Graph()
        a, b = graph.add_node("t"), graph.add_node("t")
        table = MatchTable(graph.index(), Pattern(["t"]), [(b,), (a,), (b,)], [])
        assert table.match_array[:, 0].tolist() == [a, b, b]

    def test_stack_supports(self):
        graph = Graph()
        a, b = graph.add_node("t"), graph.add_node("t")
        # two matches share pivot a, one has pivot b
        pattern = Pattern(["t", "t"], [(0, 1, "e")], pivot=0)
        table = MatchTable(graph.index(), pattern, [(a, b), (a, a), (b, a)], [])
        # one packed row per candidate, one bit per table row (row i = bit i)
        masks = np.array(
            [[True, True, True],
             [True, False, False],
             [False, False, False],
             [False, True, False]]
        )
        packed = np.packbits(masks, axis=1, bitorder="little")
        assert packed.shape == (4, 1)
        assert table.stack_supports(packed) == [2, 1, 0, 1]
        # without table row 0 the first candidate still sees both pivots
        masks[:, 0] = False
        packed = np.packbits(masks, axis=1, bitorder="little")
        assert table.stack_supports(packed) == [2, 0, 0, 1]
        assert table.stack_supports(packed[:0]) == []

    @pytest.mark.parametrize("oracle", [False, True])
    def test_literal_bits_equal_literal_masks(self, oracle):
        """Constants of several columns (listed contiguously and not),
        variable literals, an absent value, an attribute no row has —
        against the table's own bool masks, and the reference table's."""
        graph = Graph()
        for a, b in [("u", "u"), ("v", None), (None, "v"), ("u", "v"), ("v", "v")] * 3:
            graph.add_node(
                "t", {k: v for k, v in (("a", a), ("b", b)) if v is not None}
            )
        matches = [(p, (p * 7 + 3) % 15) for p in range(15) for _ in range(p % 3 + 1)]
        pattern = Pattern(["t", "t"], [(0, 1, "e")])
        table = MatchTable(graph.index(), pattern, matches, ["a", "b", "c"])
        masks = (
            ReferenceTable(graph, pattern, matches, ["a", "b", "c"]) if oracle else table
        )
        assert table.num_rows % 8  # the last packed byte is partial
        literals = [
            ConstantLiteral(0, "a", "u"),
            ConstantLiteral(0, "a", "v"),
            ConstantLiteral(0, "a", "absent"),
            make_variable_literal(0, "a", 1, "a"),
            ConstantLiteral(1, "b", "v"),
            ConstantLiteral(0, "c", "u"),
            make_variable_literal(0, "c", 1, "c"),
            make_variable_literal(0, "b", 1, "b"),
            ConstantLiteral(1, "b", "u"),
            ConstantLiteral(0, "a", "u"),
        ]
        assert table.literal_bits(literals[:3]).any()
        assert table.mask_cache_misses == 0  # the bitset face caches nothing
        assert_bits_equal_masks(table, literals, masks)
        assert_bits_equal_masks(table, literals[::-1], masks)
        assert_bits_equal_masks(table, [], masks)

    def test_rows_satisfying_variable_literal(self):
        graph = Graph()
        a = graph.add_node("p", {"u": 1, "v": 1})
        b = graph.add_node("p", {"u": 1, "v": 2})
        graph.add_edge(a, b, "e")
        graph.add_edge(b, a, "e")
        pattern = Pattern(["p", "p"], [(0, 1, "e")])
        matches = list(find_matches(graph, pattern))
        table = MatchTable(graph.index(), pattern, matches, ["u", "v"])
        literal = make_variable_literal(0, "u", 1, "u")
        bits = literal_bitset(table, literal)
        assert bits.bit_count() == 2
        assert table.bits_support(bits) == 2
        other = make_variable_literal(0, "v", 1, "v")
        assert literal_bitset(table, other) == 0

    def test_candidate_constants_ranked(self):
        graph, table = table_fixture()
        literals = constant_literals_from_code_counts(
            [table.alphabet_counts()[0]],
            MatchTable.column_keys(table.pattern, table.attributes),
            table.index.value_of_code,
            max_constants=1,
        )
        assert literals == [ConstantLiteral(0, "color", "red")]
        oracle = ReferenceTable(graph, table.pattern, [(0,), (1,), (2,), (3,)], ["color"])
        assert oracle.candidate_constant_literals(max_constants=1) == literals

    def test_truncated_flag(self):
        graph, _ = table_fixture()
        table = MatchTable(graph.index(), Pattern(["thing"]), [(0,)], [], truncated=True)
        assert table.truncated


@st.composite
def kernel_cases(draw):
    """A random pivot-sorted table, its literal alphabet and a parent mask."""
    value = st.sampled_from([None, "u", "v"])
    attrs = draw(st.lists(st.tuples(value, value), min_size=1, max_size=6))
    graph = Graph()
    for a, b in attrs:
        graph.add_node(
            "t", {k: v for k, v in (("a", a), ("b", b)) if v is not None}
        )
    nodes = st.integers(0, len(attrs) - 1)
    shape = draw(st.sampled_from(["random", "row_per_pivot", "one_pivot"]))
    if shape == "row_per_pivot":
        pivots = list(range(len(attrs)))
    else:
        pivots = draw(st.lists(nodes, max_size=24))
        if shape == "one_pivot":
            pivots = [0] * len(pivots)
    matches = [(pivot, draw(nodes)) for pivot in pivots]
    # repeated, a table spans several 64-bit words
    matches = matches * draw(st.sampled_from([1, 3, 6]))
    literals = [
        ConstantLiteral(var, attr, val)
        for var in (0, 1)
        for attr in "ab"
        for val in "uv"
    ] + [
        make_variable_literal(0, "a", 1, "a"),
        make_variable_literal(0, "b", 1, "b"),
        # a value no row has, and an attribute (in Γ) no node has
        ConstantLiteral(0, "a", "absent"),
        ConstantLiteral(1, "c", "u"),
        make_variable_literal(0, "c", 1, "c"),
    ]
    literals = draw(
        st.lists(st.sampled_from(literals), min_size=2, max_size=6, unique=True)
    )
    parent = draw(
        st.one_of(
            st.just([False] * len(matches)),
            st.just([True] * len(matches)),
            st.lists(st.booleans(), min_size=len(matches), max_size=len(matches)),
        )
    )
    return graph, matches, literals, np.array(parent, dtype=bool)


#: Rows where CPython's 30-bit int digits and 64-bit words begin.
DIGIT_AND_WORD_EDGES = (29, 30, 31, 59, 60, 61, 63, 64, 65)


@st.composite
def pivot_run_cases(draw):
    """Pivot-run widths of a table (rows are runs of equal pivots) and a mask."""
    layout = draw(
        st.sampled_from(
            ["random", "row_per_pivot", "one_pivot", "edges", "wide", "empty"]
        )
    )
    if layout == "empty":
        widths = []
    elif layout == "row_per_pivot":
        widths = [1] * draw(st.integers(1, 130))
    elif layout == "one_pivot":
        widths = [draw(st.integers(1, 200))]
    elif layout == "edges":
        # a new run starts exactly at each drawn edge row
        starts = sorted(draw(st.sets(st.sampled_from(DIGIT_AND_WORD_EDGES), min_size=1)))
        bounds = [0] + starts + [starts[-1] + draw(st.integers(1, 70))]
        widths = [stop - start for start, stop in zip(bounds, bounds[1:])]
    elif layout == "wide":
        widths = draw(st.lists(st.integers(65, 200), min_size=1, max_size=3))
        widths += draw(st.lists(st.integers(1, 3), max_size=3))
        widths = draw(st.permutations(widths))
    else:
        widths = draw(st.lists(st.integers(1, 9), max_size=20))
    full = (1 << sum(widths)) - 1
    mask = draw(st.one_of(st.just(0), st.just(full), st.integers(0, full)))
    return widths, mask, draw(st.booleans())


def bare_graph(num_nodes):
    graph = Graph()
    for _ in range(num_nodes):
        graph.add_node("t")
    return graph


class TestRowBitsets:
    """``MatchTable``'s row bitsets against the reference table's bool masks."""

    PATTERN = Pattern(["t", "t"], [(0, 1, "e")])
    GRAPH = bare_graph(130)

    @given(pivot_run_cases())
    @settings(max_examples=300, deadline=None)
    def test_bits_support_and_count_equal_mask_support_and_count(self, case):
        widths, bits, reverse = case
        matches = [
            (pivot, (pivot + row) % 130)
            for pivot, width in enumerate(widths)
            for row in range(width)
        ]
        num_rows = len(matches)
        ordered = matches[::-1] if reverse else matches
        table = MatchTable(self.GRAPH.index(), self.PATTERN, ordered, [])
        oracle = ReferenceTable(self.GRAPH, self.PATTERN, ordered, [])
        mask = np.array([bits >> row & 1 for row in range(num_rows)], dtype=bool)
        assert to_bits(mask) == bits
        assert table.full_bits() == to_bits(oracle.full_mask())
        assert bits.bit_count() == oracle.mask_count(mask)
        assert table.bits_support(bits) == oracle.mask_support(mask)
        assert table.bits_support(table.full_bits()) == len(widths)
        packed = np.packbits(mask, bitorder="little")[None, :]
        assert table.stack_supports(packed) == [oracle.mask_support(mask)]


def word_masks(words, num_rows):
    """A word matrix's row sets as bool row masks (row ``i`` = bit ``i``)."""
    return np.unpackbits(
        words.view(np.uint8), axis=1, count=num_rows, bitorder="little"
    ).astype(bool)


class TestHSpawnKernel:
    """``ShardWorker.op_scan`` / ``op_eval`` against per-candidate masks.

    The worker holds row sets as uint64 word matrices and returns counts;
    the oracle side of every check is the reference table's
    ``literal_mask`` / ``mask_count`` / ``mask_support``, one candidate at
    a time.
    """

    PATTERN = Pattern(["t", "t"], [(0, 1, "e")])

    @staticmethod
    def check_eval(worker, table, literals, parents, groups, pairs=None, floor=1):
        """One lattice depth: ``groups`` are ``(parent row, literal
        position)`` over the bool ``parents`` masks (the store's rows).
        Returns the groups' masks, which the worker must now store."""
        payload = {"groups": tuple(
            np.array(column, dtype=np.int64).reshape(-1) for column in zip(*groups)
        ) if groups else (np.zeros(0, np.int64), np.zeros(0, np.int64))}
        if pairs is not None:
            # the pairs travel over the columns that list one (the lattice)
            lattice = np.flatnonzero(pairs.any(axis=0))
            payload.update(pairs=(pairs[:, lattice], lattice), floor=floor)
        counts, supports, both, pair_supports = worker.op_eval(1, payload)
        assert counts.dtype == supports.dtype == both.dtype == np.int64
        assert counts.shape == supports.shape == (len(groups),)
        assert both.shape == (len(groups), len(literals))
        assert (pair_supports is None) == (pairs is None)
        if pairs is not None:
            assert pair_supports.dtype == np.int64
            assert pair_supports.shape == (int(pairs.sum()),)
            # the listed pairs' supports, back in a groups × literals matrix
            pair_supports_at = np.zeros(pairs.shape, dtype=np.int64)
            pair_supports_at[np.nonzero(pairs)] = pair_supports
        masks = [parents[parent] & table.literal_mask(literals[l]) for parent, l in groups]
        for group, mask in enumerate(masks):
            assert counts[group] == table.mask_count(mask)
            assert supports[group] == table.mask_support(mask)
            for position, literal in enumerate(literals):
                joint = mask & table.literal_mask(literal)
                assert both[group, position] == table.mask_count(joint)
                if pairs is None or not pairs[group, position]:
                    continue
                # a listed pair's support is counted when it holds on every
                # group row (then it is the group's) or on ``floor`` rows
                rows = table.mask_count(joint)
                counted = rows == counts[group] or rows >= floor
                expected = table.mask_support(joint) if counted else 0
                assert pair_supports_at[group, position] == expected
        stored = worker.stores[1]
        assert stored.dtype == np.uint64 and len(stored) == len(groups)
        assert word_masks(stored, table.num_rows).tolist() == [
            mask.tolist() for mask in masks
        ]
        return masks

    @given(kernel_cases(), st.randoms(use_true_random=False))
    @settings(max_examples=120, deadline=None)
    def test_scan_and_eval_match_per_candidate_masks(self, case, rng):
        from repro.parallel.backend import ShardWorker

        graph, matches, literals, parent = case
        worker = ShardWorker(graph.index())
        worker.op_install(
            1,
            {
                "pattern": self.PATTERN,
                "matches": matches,
                "mined": False,
                "gamma": ["a", "b", "c"],
            },
        )
        # same input order, same stable pivot sort: the rows line up
        table = ReferenceTable(graph, self.PATTERN, matches, ["a", "b", "c"])
        rows, counts, supports = worker.op_scan(1, {"literals": literals})
        assert rows == table.num_rows
        for position, literal in enumerate(literals):
            assert counts[position] == table.literal_count(literal)
            assert supports[position] == table.mask_support(table.literal_mask(literal))
        assert word_masks(worker.bits[1], table.num_rows).tolist() == [
            table.literal_mask(literal).tolist() for literal in literals
        ]
        # level 0 is the one group ∅: every row
        assert word_masks(worker.stores[1], table.num_rows).tolist() == [
            table.full_mask().tolist()
        ]
        every = list(range(len(literals)))
        level1 = self.check_eval(
            worker, table, literals, [table.full_mask()], [(0, l) for l in every],
            pairs=np.ones((len(literals), len(literals)), dtype=bool),
        )
        # next depth: the store's rows plus an arbitrary parent, under a
        # random pair selection and a floor
        worker.stores[1] = np.vstack(
            [worker.stores[1], MatchTable.as_words(
                np.packbits(parent[None, :], axis=1, bitorder="little")
            )]
        )
        parents = level1 + [parent]
        groups = [(p, l) for p in range(len(parents)) for l in every if rng.random() < 0.6]
        # RHS columns outside a random lattice list no pair
        lattice = [rng.random() < 0.7 for _ in literals]
        pairs = np.array(
            [[on and rng.random() < 0.6 for on in lattice] for _ in groups],
            dtype=bool,
        ).reshape(len(groups), len(literals))
        level2 = self.check_eval(
            worker, table, literals, parents, groups, pairs, floor=rng.randint(1, 4)
        )
        level3 = self.check_eval(
            worker, table, literals, level2,
            [(p, l) for p in range(min(4, len(level2))) for l in every[:2]],
        )
        assert len(level3) == len(worker.stores[1])
        worker.op_drop_store(1, {})
        assert 1 not in worker.bits and 1 not in worker.stores

    def test_eval_peak_memory_is_linear_in_the_alphabet(self):
        """One transient ``literals × rows`` bool array, then only words.

        With ``L`` literals a level has ``L·(L−1)`` candidates in ``L``
        groups.  The scan's unpacked literal stack is ``N·L`` bytes and
        freed once packed; what stays resident — the alphabet's word
        matrix and the level's ``L`` stored LHS rows — is ``N·L/8`` each,
        the count matrix and the supports of every listed pair (each
        candidate, as below ``max_lhs_size`` under pruning) work in bounded
        blocks, and nothing is cached on the table.  (A bool mask per
        literal plus a ``rows × literals`` block and its gathers peaked at
        ``6·N·L``.)
        """
        import tracemalloc

        from repro.parallel.backend import ShardWorker

        num_rows, attrs, values = 20_000, 6, 4
        graph = Graph()
        for node in range(num_rows):
            graph.add_node(
                "t", {f"a{k}": (node * (k + 3)) % values for k in range(attrs)}
            )
        gamma = [f"a{k}" for k in range(attrs)]
        literals = [
            ConstantLiteral(0, attr, value) for attr in gamma for value in range(values)
        ]
        worker = ShardWorker(graph.index())
        worker.op_install(
            1,
            {
                "pattern": Pattern(["t"]),
                "matches": np.arange(num_rows).reshape(-1, 1),
                "mined": False,
                "gamma": gamma,
            },
        )
        # one depth: every literal's group of ∅, counted against every
        # literal, and a support for each of the L·(L−1) candidates of a
        # level (floor 1: every pair on a row is counted)
        groups = (np.zeros(len(literals), dtype=np.int64), np.arange(len(literals)))
        pairs = (~np.eye(len(literals), dtype=bool), np.arange(len(literals)))
        tracemalloc.start()
        try:
            worker.op_scan(1, {"literals": literals})
            supported = worker.op_eval(
                1, {"groups": groups, "pairs": pairs, "floor": 1}
            )[3]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * num_rows * len(literals)
        # the supports were counted, not skipped
        assert (supported > 0).sum() > len(literals)


class TestSupport:
    def build(self):
        graph = Graph()
        person = graph.add_node("person", {"kind": "producer"})
        others = [graph.add_node("person", {"kind": "actor"}) for _ in range(2)]
        films = []
        for index in range(3):
            film = graph.add_node("product", {"kind": "film"})
            graph.add_edge(person, film, "create")
            films.append(film)
        graph.add_edge(others[0], films[0], "create")
        return graph

    def test_pattern_support_counts_pivots(self):
        graph = self.build()
        pattern = Pattern(["person", "product"], [(0, 1, "create")], pivot=0)
        assert pattern_support(graph, pattern) == 2
        assert pattern_support(graph, pattern.with_pivot(1)) == 3

    def test_gfd_support(self):
        graph = self.build()
        pattern = Pattern(["person", "product"], [(0, 1, "create")], pivot=0)
        gfd = GFD(
            pattern,
            frozenset(),
            ConstantLiteral(0, "kind", "producer"),
        )
        assert gfd_support(graph, gfd) == 1

    def test_correlation(self):
        graph = self.build()
        pattern = Pattern(["person", "product"], [(0, 1, "create")], pivot=0)
        gfd = GFD(pattern, frozenset(), ConstantLiteral(0, "kind", "producer"))
        # ρ(φ, G) = |Q(G, Xl, z)| / |Q(G, z)|
        rho = len(support_set(graph, gfd)) / pattern_support(graph, pattern)
        assert rho == pytest.approx(0.5)

    def test_negative_base_support_structural(self):
        graph = self.build()
        mutual = Pattern(
            ["person", "product"],
            [(0, 1, "create"), (1, 0, "create")],
            pivot=0,
        )
        negative = GFD(mutual, frozenset(), FALSE)
        # base: remove one edge -> the plain create pattern, support 2
        assert negative_base_support(graph, negative) == 2
        assert gfd_support_any(graph, negative) == 2

    def test_negative_base_support_literal(self):
        graph = self.build()
        pattern = Pattern(["person", "product"], [(0, 1, "create")], pivot=0)
        negative = GFD(
            pattern,
            frozenset(
                {
                    ConstantLiteral(0, "kind", "producer"),
                    ConstantLiteral(1, "kind", "book"),
                }
            ),
            FALSE,
        )
        assert negative_base_support(graph, negative) >= 1

    def test_anti_monotonicity_on_extension(self):
        """Theorem 3: extending the pattern cannot raise support."""
        graph = self.build()
        small = Pattern(["person", "product"], [(0, 1, "create")], pivot=0)
        big = small.with_new_node("product", 0, True, "create")
        small_gfd = GFD(small, frozenset(), ConstantLiteral(0, "kind", "producer"))
        big_gfd = GFD(big, frozenset(), ConstantLiteral(0, "kind", "producer"))
        assert gfd_reduces(small_gfd, big_gfd)
        assert gfd_support(graph, small_gfd) >= gfd_support(graph, big_gfd)

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_anti_monotonicity_property(self, seed):
        """supp is anti-monotone in the ≪ order on random graphs."""
        import random

        rng = random.Random(seed)
        graph = Graph()
        for _ in range(12):
            graph.add_node(rng.choice("ab"), {"v": rng.choice([1, 2])})
        for _ in range(20):
            s, d = rng.randrange(12), rng.randrange(12)
            if s != d:
                graph.add_edge(s, d, rng.choice("ef"))
        base = Pattern(["a", WILDCARD], [(0, 1, "e")], pivot=0)
        bigger = base.with_new_node(WILDCARD, 1, True, "f")
        base_gfd = GFD(base, frozenset(), ConstantLiteral(0, "v", 1))
        bigger_gfd = GFD(bigger, frozenset(), ConstantLiteral(0, "v", 1))
        assert gfd_support(graph, base_gfd) >= gfd_support(graph, bigger_gfd)


PHI1 = GFD(
    Pattern(["person", "product"], [(0, 1, "create")], pivot=0),
    frozenset({ConstantLiteral(1, "type", "film")}),
    ConstantLiteral(0, "type", "producer"),
)


class TestReduction:
    def test_reduces_by_lhs_subset(self):
        stronger = GFD(
            PHI1.pattern,
            PHI1.lhs | {ConstantLiteral(1, "year", 2000)},
            PHI1.rhs,
        )
        assert gfd_reduces(PHI1, stronger)
        assert not gfd_reduces(stronger, PHI1)

    def test_reduces_by_pattern_extension(self):
        bigger = PHI1.pattern.with_new_node("award", 1, True, "receive")
        extended = GFD(bigger, PHI1.lhs, PHI1.rhs)
        assert gfd_reduces(PHI1, extended)

    def test_reduces_by_wildcard_upgrade(self):
        general = GFD(
            Pattern([WILDCARD, "product"], [(0, 1, "create")], pivot=0),
            PHI1.lhs,
            ConstantLiteral(0, "type", "producer"),
        )
        assert gfd_reduces(general, PHI1)

    def test_no_reduction_between_different_rhs(self):
        other = GFD(PHI1.pattern, PHI1.lhs, ConstantLiteral(0, "type", "actor"))
        assert not gfd_reduces(PHI1, other)
        assert not gfd_reduces(other, PHI1)

    def test_pivot_must_be_preserved(self):
        re_pivoted = GFD(PHI1.pattern.with_pivot(1), PHI1.lhs, PHI1.rhs)
        assert not gfd_reduces(PHI1, re_pivoted)

    def test_normalize_stable_across_renaming(self):
        renamed_pattern = Pattern(
            ["product", "person"], [(1, 0, "create")], pivot=1
        )
        renamed = GFD(
            renamed_pattern,
            frozenset({ConstantLiteral(0, "type", "film")}),
            ConstantLiteral(1, "type", "producer"),
        )
        assert gfd_identity(renamed) == gfd_identity(PHI1)
        assert normalize_gfd(renamed) == normalize_gfd(PHI1)

    def test_minimal_cover_removes_dominated(self):
        stronger = GFD(
            PHI1.pattern,
            PHI1.lhs | {ConstantLiteral(1, "year", 2000)},
            PHI1.rhs,
        )
        survivors = minimal_cover_by_reduction([PHI1, stronger])
        assert survivors == [PHI1]

    def test_minimal_cover_dedupes(self):
        duplicate = GFD(PHI1.pattern, PHI1.lhs, PHI1.rhs)
        assert len(minimal_cover_by_reduction([PHI1, duplicate])) == 1

    def test_minimal_cover_prefilters_equal_brute_force(self, yago_small, yago_config):
        """The per-pattern prefilters drop nothing ``gfd_reduces`` would keep.

        Fed the discovery oracle's emissions before its ``≪``-filter: the
        engine's own stream holds no removable rule any more."""
        from dataclasses import replace

        oracle = SequentialDiscovery(yago_small, replace(yago_config, max_lhs_size=1))
        oracle.mine()
        raw = [gfd for gfd, _support in oracle.emitted()]
        unique = list({gfd_identity(gfd): gfd for gfd in raw}.values())
        reduced = {larger for _, larger in reducing_pairs(unique)}
        expected = [gfd for j, gfd in enumerate(unique) if j not in reduced]
        assert len(expected) < len(unique)
        assert minimal_cover_by_reduction(raw) == expected

    @pytest.mark.parametrize("max_lhs_size", [1, 2, 3])
    @pytest.mark.parametrize("name", ["yago", "dbpedia", "imdb"])
    def test_discovered_sigma_is_reduced_at_emission(
        self, kb_fixture, name, max_lhs_size
    ):
        """No discovered rule has a ``≪``-smaller one beside it: the engine
        emits only reduced GFDs, and the oracle's filter removes nothing."""
        sigma = discovered(kb_fixture, name, max_lhs_size).gfds
        assert reducing_pairs(sigma) == set()
        assert minimal_cover_by_reduction(sigma) == sigma


class TestDiscovery:
    def test_finds_planted_rules(self, film_graph, film_config):
        result = discover(film_graph, film_config)
        texts = {str(gfd) for gfd in result.gfds}
        assert any(
            "x.type='producer' → y.type='film'" in text
            or "y.type='film'" in text and "producer" in text
            for text in texts
        )
        assert validate_set(film_graph, result.gfds)

    def test_finds_structural_negative(self, film_graph, film_config):
        result = discover(film_graph, film_config)
        negatives = [gfd for gfd in result.negatives if not gfd.lhs]
        assert negatives, "mutual-parent negative expected"
        mutual = [g for g in negatives if g.pattern.num_edges == 2]
        assert mutual

    def test_finds_literal_negative(self, film_graph, film_config):
        result = discover(film_graph, film_config)
        literal_negatives = [gfd for gfd in result.negatives if gfd.lhs]
        assert literal_negatives
        # e.g. actor ∧ film → false
        assert any(len(gfd.lhs) == 2 for gfd in literal_negatives)

    def test_supports_respect_sigma(self, film_graph, film_config):
        result = discover(film_graph, film_config)
        assert all(
            supp >= film_config.sigma for supp in result.supports.values()
        )

    def test_results_are_minimal(self, film_graph, film_config):
        result = discover(film_graph, film_config)
        assert not reducing_pairs(result.gfds)

    def test_all_positives_hold(self, film_graph, film_config):
        result = discover(film_graph, film_config)
        for gfd in result.positives:
            assert graph_satisfies(film_graph, gfd)

    def test_negative_mining_disabled(self, film_graph, film_config):
        from dataclasses import replace

        config = replace(film_config, mine_negative=False)
        result = discover(film_graph, config)
        assert not result.negatives

    def test_higher_sigma_finds_subset(self, film_graph, film_config):
        from dataclasses import replace

        low = discover(film_graph, film_config)
        high = discover(film_graph, replace(film_config, sigma=70))
        low_ids = {gfd_identity(g) for g in low.gfds}
        high_ids = {gfd_identity(g) for g in high.gfds}
        assert high_ids <= low_ids

    def test_candidate_budget(self, film_graph, film_config):
        from dataclasses import replace

        config = replace(film_config, max_candidates=5)
        with pytest.raises(CandidateBudgetExceeded):
            discover(film_graph, config)

    #: ``stats.candidates_checked`` on the knowledge-base fixtures: the LHS
    #: sets a pattern's primary parent chain holds seed its lattice tasks,
    #: so no candidate containing one is evaluated.
    CANDIDATES = {
        ("yago", 1): 12163,
        ("yago", 2): 44305,
        ("dbpedia", 1): 13136,
        ("dbpedia", 2): 38971,
        ("imdb", 1): 1047,
        ("imdb", 2): 5379,
    }

    @pytest.mark.parametrize("name, max_lhs_size", sorted(CANDIDATES))
    def test_candidates_checked_is_exact(self, kb_fixture, name, max_lhs_size):
        result = discovered(kb_fixture, name, max_lhs_size)
        assert result.stats.candidates_checked == self.CANDIDATES[
            name, max_lhs_size
        ]

    def test_stats_populated(self, film_graph, film_config):
        result = discover(film_graph, film_config)
        assert result.stats.patterns_spawned > 0
        assert result.stats.candidates_checked > 0
        assert result.stats.elapsed_seconds > 0
        assert result.stats.positives_found == len(result.positives)

    def test_average_support_and_order(self, film_graph, film_config):
        result = discover(film_graph, film_config)
        assert result.average_support() >= film_config.sigma
        ordered = result.sorted_by_support()
        supports = [result.supports[g] for g in ordered]
        assert supports == sorted(supports, reverse=True)


class TestCover:
    def test_cover_is_equivalent_and_minimal(self, film_graph, film_config):
        result = discover(film_graph, film_config)
        cover = sequential_cover(result.gfds)
        # equivalence: every removed GFD implied by the cover
        for removed in cover.removed:
            assert implies(cover.cover, removed)
        # minimality: nothing in the cover implied by the rest
        for index, gfd in enumerate(cover.cover):
            rest = cover.cover[:index] + cover.cover[index + 1:]
            assert not implies(rest, gfd)

    def test_cover_of_duplicate_set(self):
        cover = sequential_cover([PHI1, GFD(PHI1.pattern, PHI1.lhs, PHI1.rhs)])
        assert len(cover.cover) == 1
        assert cover.reduction_ratio == pytest.approx(0.5)

    def test_cover_of_empty(self):
        cover = sequential_cover([])
        assert cover.cover == []
        assert cover.reduction_ratio == 0
