"""Tests for match tables, support, reduction, discovery and cover."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    DiscoveryConfig,
    MatchTable,
    correlation,
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
)
from repro.core.config import CandidateBudgetExceeded
from repro.core.reduction import _reduces_through
from repro.gfd import (
    FALSE,
    GFD,
    ConstantLiteral,
    graph_satisfies,
    implies,
    make_variable_literal,
    validate_set,
)
from repro.graph import Graph
from repro.parallel import ParallelDiscovery
from repro.pattern import WILDCARD, Pattern, embedding_batch, find_matches
from repro.pattern.embedding import may_embed


def reducing_pairs(gfds):
    """Every ordered pair ``(i, j)``, ``i != j``, with ``gfds[i] ≪ gfds[j]``.

    :func:`gfd_reduces` over all pairs, but with one embedding-kernel call
    for every pair instead of one call each.
    """
    pairs = [
        (i, j)
        for i, smaller in enumerate(gfds)
        for j, larger in enumerate(gfds)
        if i != j
        and smaller.is_negative == larger.is_negative
        and may_embed(smaller.pattern, larger.pattern)
    ]
    mappings = embedding_batch(
        (gfds[i].pattern, gfds[j].pattern, True) for i, j in pairs
    )
    return {
        (i, j)
        for (i, j), found in zip(pairs, mappings)
        if _reduces_through(gfds[i], gfds[j], found)
    }


def table_fixture():
    graph = Graph()
    values = ["red", "red", "blue", None]
    pivots = []
    for value in values:
        attrs = {"color": value} if value is not None else {}
        pivots.append(graph.add_node("thing", attrs))
    matches = [(node,) for node in pivots]
    return graph, MatchTable(graph, Pattern(["thing"]), matches, ["color"])


def to_bits(mask) -> int:
    """A bool row mask as the kernel's row bitset (row ``i`` = bit ``i``)."""
    packed = np.packbits(np.asarray(mask, dtype=bool), bitorder="little")
    return int.from_bytes(packed.tobytes(), "little")


def assert_bits_equal_masks(table, literals):
    """``literal_bits`` row by row against the per-literal numpy oracle."""
    packed = table.literal_bits(literals)
    assert packed.dtype == np.uint8
    assert packed.shape == (len(literals), (table.num_rows + 7) // 8)
    rows = np.unpackbits(packed, axis=1, count=table.num_rows, bitorder="little")
    for row, literal in zip(rows, literals):
        assert row.astype(bool).tolist() == table.literal_mask(literal).tolist()


class TestMatchTable:
    def test_columns_and_missing(self):
        graph, table = table_fixture()
        assert table.num_rows == 4
        red = ConstantLiteral(0, "color", "red")
        assert table.literal_count(red) == 2
        missing = ConstantLiteral(0, "color", "green")
        assert table.literal_count(missing) == 0

    def test_masks_and_support(self):
        graph, table = table_fixture()
        red = ConstantLiteral(0, "color", "red")
        mask = table.literal_mask(red)
        assert table.mask_count(mask) == 2
        assert table.mask_support(mask) == 2
        assert table.mask_support(np.zeros(4, dtype=bool)) == 0

    def test_rows_sorted_by_pivot(self):
        graph = Graph()
        a, b = graph.add_node("t"), graph.add_node("t")
        table = MatchTable(graph, Pattern(["t"]), [(b,), (a,), (b,)], [])
        assert [m[0] for m in table.matches] == [a, b, b]

    def test_stack_supports(self):
        graph = Graph()
        a, b = graph.add_node("t"), graph.add_node("t")
        # two matches share pivot a, one has pivot b
        pattern = Pattern(["t", "t"], [(0, 1, "e")], pivot=0)
        table = MatchTable(graph, pattern, [(a, b), (a, a), (b, a)], [])
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

    @pytest.mark.parametrize("indexed", [False, True])
    def test_literal_bits_equal_literal_masks(self, indexed):
        """Constants of several columns (listed contiguously and not),
        variable literals, an absent value, an attribute no row has."""
        graph = Graph()
        for a, b in [("u", "u"), ("v", None), (None, "v"), ("u", "v"), ("v", "v")] * 3:
            graph.add_node(
                "t", {k: v for k, v in (("a", a), ("b", b)) if v is not None}
            )
        matches = [(p, (p * 7 + 3) % 15) for p in range(15) for _ in range(p % 3 + 1)]
        table = MatchTable(
            graph, Pattern(["t", "t"], [(0, 1, "e")]), matches, ["a", "b", "c"],
            index=graph.index() if indexed else None,
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
        assert_bits_equal_masks(table, literals)
        assert_bits_equal_masks(table, literals[::-1])
        assert_bits_equal_masks(table, [])

    def test_rows_satisfying_variable_literal(self):
        graph = Graph()
        a = graph.add_node("p", {"u": 1, "v": 1})
        b = graph.add_node("p", {"u": 1, "v": 2})
        graph.add_edge(a, b, "e")
        graph.add_edge(b, a, "e")
        pattern = Pattern(["p", "p"], [(0, 1, "e")])
        matches = list(find_matches(graph, pattern))
        table = MatchTable(graph, pattern, matches, ["u", "v"])
        literal = make_variable_literal(0, "u", 1, "u")
        assert table.mask_count(table.literal_mask(literal)) == 2
        assert table.mask_support(table.literal_mask(literal)) == 2
        other = make_variable_literal(0, "v", 1, "v")
        assert table.mask_count(table.literal_mask(other)) == 0
        assert table.mask_support(table.literal_mask(other)) == 0

    def test_candidate_constants_ranked(self):
        graph, table = table_fixture()
        literals = table.candidate_constant_literals(max_constants=1)
        assert literals == [ConstantLiteral(0, "color", "red")]

    def test_truncated_flag(self):
        graph, _ = table_fixture()
        table = MatchTable(graph, Pattern(["thing"]), [(0,)], [], truncated=True)
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
    return graph, matches, literals, np.array(parent, dtype=bool), draw(st.booleans())


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
    return widths, mask, draw(st.booleans()), draw(st.booleans())


def bare_graph(num_nodes):
    graph = Graph()
    for _ in range(num_nodes):
        graph.add_node("t")
    return graph


class TestRowBitsets:
    """The bitset face of ``MatchTable`` against its numpy oracle."""

    PATTERN = Pattern(["t", "t"], [(0, 1, "e")])
    GRAPH = bare_graph(130)

    @given(pivot_run_cases())
    @settings(max_examples=300, deadline=None)
    def test_bits_support_and_count_equal_mask_support_and_count(self, case):
        widths, bits, indexed, reverse = case
        matches = [
            (pivot, (pivot + row) % 130)
            for pivot, width in enumerate(widths)
            for row in range(width)
        ]
        num_rows = len(matches)
        table = MatchTable(
            self.GRAPH, self.PATTERN, matches[::-1] if reverse else matches, [],
            index=self.GRAPH.index() if indexed else None,
        )
        mask = np.array([bits >> row & 1 for row in range(num_rows)], dtype=bool)
        assert to_bits(mask) == bits
        assert table.full_bits() == to_bits(table.full_mask())
        assert bits.bit_count() == table.mask_count(mask)
        assert table.bits_support(bits) == table.mask_support(mask)
        assert table.bits_support(table.full_bits()) == len(widths)
        packed = np.packbits(mask, bitorder="little")[None, :]
        assert table.stack_supports(packed) == [table.mask_support(mask)]


class TestHSpawnKernel:
    """``ShardWorker.op_eval`` / ``op_probe`` against per-candidate masks.

    The worker holds row bitsets (Python ints); the oracle side of every
    check is the numpy ``literal_mask`` / ``mask_count`` / ``mask_support``.
    """

    PATTERN = Pattern(["t", "t"], [(0, 1, "e")])

    @staticmethod
    def check_eval(worker, table, specs, masks, drop=()):
        lhs, both, supp = worker.op_eval(1, {"specs": specs, "drop": list(drop)})
        for result in (lhs, both, supp):
            assert result.dtype == np.int64 and result.shape == (len(specs),)
        store = worker.stores[1]
        for position, (parent, lhs_literal, rhs_literal, new) in enumerate(specs):
            masks[new] = masks[parent] & table.literal_mask(lhs_literal)
            joint = masks[new] & table.literal_mask(rhs_literal)
            assert lhs[position] == table.mask_count(masks[new])
            assert both[position] == table.mask_count(joint)
            assert supp[position] == table.mask_support(joint)
            assert type(store[new]) is int and store[new] == to_bits(masks[new])

    @given(kernel_cases())
    @settings(max_examples=120, deadline=None)
    def test_eval_and_probe_match_per_candidate_masks(self, case):
        from repro.parallel.backend import ShardWorker

        graph, matches, literals, parent, indexed = case
        index = graph.index() if indexed else None
        worker = ShardWorker(graph, index)
        worker.op_install(
            1,
            {
                "pattern": self.PATTERN,
                "matches": matches,
                "mined": False,
                "gamma": ["a", "b", "c"],
            },
        )
        table = worker.tables[1]
        counts, supports = worker.op_scan(1, {"literals": literals})
        for literal, count, support in zip(literals, counts, supports):
            assert count == table.literal_count(literal)
            assert support == table.mask_support(table.literal_mask(literal))
            assert worker.bits[1][literal] == to_bits(table.literal_mask(literal))
        # parent ids: 0 is the scan's full set, 1 an arbitrary earlier level
        assert worker.stores[1] == {0: to_bits(table.full_mask())}
        worker.stores[1][1] = to_bits(parent)
        masks = {0: table.full_mask(), 1: parent}
        ids = iter(range(2, 10**6))
        pairs = [(l, r) for l in literals for r in literals if l != r]
        level1 = [(p, l, r, next(ids)) for p in (0, 1) for l, r in pairs]
        self.check_eval(worker, table, level1, masks)
        # next level: parents are level-1 ids, while the master retires
        # every other one — ids that alias the *same* stored LHS bitset
        kept = [spec[3] for spec in level1[::2]]
        retired = [spec[3] for spec in level1[1::2]]
        level2 = [(p, l, r, next(ids)) for p in kept[:6] for l, r in pairs[:4]]
        self.check_eval(worker, table, level2, masks, drop=retired)
        assert not set(retired) & set(worker.stores[1])
        level3 = [(spec[3], l, r, next(ids)) for spec in level2[:4] for l, r in pairs[:2]]
        self.check_eval(worker, table, level3, masks)
        probes = [(p, l) for p in [0, 1] + kept[:6] for l in literals]
        hits = worker.op_probe(1, {"specs": probes, "drop": kept[6:8]})
        assert not set(kept[6:8]) & set(worker.stores[1])
        assert [type(hit) for hit in hits] == [bool] * len(probes)
        for (p, literal), hit in zip(probes, hits):
            assert hit == bool((masks[p] & table.literal_mask(literal)).any())
        # every stored id still reads the rows the oracle derived for it
        for mask_id, bits in worker.stores[1].items():
            assert bits == to_bits(masks[mask_id])
        worker.op_drop_store(1, {})
        assert 1 not in worker.bits and 1 not in worker.stores

    def test_eval_peak_memory_is_linear_in_the_alphabet(self):
        """One transient ``literals × rows`` bool array, then only bitsets.

        With ``L`` literals a level has ``L·(L−1)`` candidates.  The scan's
        unpacked literal stack is ``N·L`` bytes and freed once packed; what
        stays resident — the alphabet's bitsets and the level's ``L``
        stored LHS bitsets — is ``N·L/8`` each, and nothing is cached on
        the table.  (A bool mask per literal plus a ``rows × literals``
        block and its gathers peaked at ``6·N·L``.)
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
        worker = ShardWorker(graph, graph.index())
        worker.op_install(
            1,
            {
                "pattern": Pattern(["t"]),
                "matches": np.arange(num_rows).reshape(-1, 1),
                "mined": False,
                "gamma": gamma,
            },
        )
        specs = [
            (0, lhs, rhs, mask_id)
            for mask_id, (lhs, rhs) in enumerate(
                ((l, r) for l in literals for r in literals if l != r), start=1
            )
        ]
        tracemalloc.start()
        try:
            worker.op_scan(1, {"literals": literals})
            worker.op_eval(1, {"specs": specs})
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * num_rows * len(literals)


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
        assert correlation(graph, gfd) == pytest.approx(0.5)

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
        """The per-pattern prefilters drop nothing ``gfd_reduces`` would keep."""
        from dataclasses import replace

        raw = [
            gfd
            for _level, batch in ParallelDiscovery(
                yago_small, replace(yago_config, max_lhs_size=1), 1,
                backend="serial",
            ).run_iter()
            for gfd, _support in batch
        ]
        unique = list({gfd_identity(gfd): gfd for gfd in raw}.values())
        reduced = {larger for _, larger in reducing_pairs(unique)}
        expected = [gfd for j, gfd in enumerate(unique) if j not in reduced]
        assert len(expected) < len(unique)
        assert minimal_cover_by_reduction(raw) == expected


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
