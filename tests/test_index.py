"""Equivalence of the dict-adjacency and frozen CSR-index hot paths.

The frozen :class:`~repro.graph.index.GraphIndex` re-implements candidate
seeding, edge checks, incremental joins, spawning tallies and match-table
construction as vectorized array operations.  These tests assert, on
randomized synthetic graphs, that every index-backed operation produces
*identical* results to the reference dict path — plus the freeze/invalidate
lifecycle.
"""

import gc
import shutil
import sys
import tempfile
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

from repro.core.config import DiscoveryConfig
from repro.core.discovery import discover, reference_discover
from repro.core.match_table import (
    MISSING,
    MatchTable,
    constant_literals_from_code_counts,
    constant_literals_from_counts,
    merge_value_counts,
)
from repro.core.reduction import gfd_identity
from repro.core.spawning import (
    counts_from_statistics,
    extension_counts,
    extension_statistics,
)
from repro.datasets import KB_ATTRIBUTES, dbpedia_like, imdb_like, yago2_like
from repro.datasets.synthetic import SYNTHETIC_ATTRIBUTES, synthetic_graph
from repro.gfd.literals import ConstantLiteral, make_variable_literal
from repro.graph.graph import Graph
from repro.graph.index import GraphIndex
from repro.pattern.incremental import Extension, extend_matches
from repro.pattern import matcher
from repro.pattern.matcher import (
    compile_plans,
    count_matches,
    find_matches,
    has_match,
    match_array,
    pivot_image,
)
from repro.pattern.pattern import WILDCARD, Pattern


def small_graph(seed: int):
    return synthetic_graph(
        240, 900, num_labels=6, num_values=12, regularity=0.7, seed=seed
    )


PATTERNS = [
    Pattern(["L0"]),
    Pattern(["L1", "L2"], [(0, 1, "e1")]),
    Pattern(["L0", "L1", "L2"], [(0, 1, "e0"), (1, 2, "e1")]),
    Pattern(["L0", "L1"], [(0, 1, WILDCARD)]),
    Pattern([WILDCARD, "L1"], [(0, 1, "e0")]),
    Pattern(["L2", "L3"], [(0, 1, "e2"), (0, 1, WILDCARD)]),  # parallel edges
    Pattern(["L0", "L1", "L0"], [(0, 1, "e0"), (2, 1, "e0")], pivot=1),
]


def counts_as_dicts(counts):
    return (
        counts.new_node,
        counts.closing,
        counts.prefix_pivots,
        counts.prefix_labels,
    )


def assert_tally_matches_oracle(graph, pattern, can_add_node, tallied=None):
    """Indexed ``extension_counts`` ≡ the dict scan's pivot sets, collapsed.

    The matches are ``pattern``'s; ``tallied`` (default ``pattern``) is the
    pattern the tally runs under — one with an extra edge whose label the
    graph lacks tallies the same matches with that edge excluded.
    """
    matches = list(find_matches(graph, pattern))
    tallied = tallied or pattern
    oracle = counts_from_statistics(
        extension_statistics(graph, tallied, matches, can_add_node)
    )
    counted = extension_counts(
        graph, tallied, matches, can_add_node, index=graph.index()
    )
    assert counts_as_dicts(counted) == counts_as_dicts(oracle)
    for value in list(counted.new_node.values()) + list(counted.closing.values()):
        assert type(value) is int and value > 0
    return counted


class TestMatcherEquivalence:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_find_matches_identical(self, seed):
        graph = small_graph(seed)
        index = graph.index()
        for pattern in PATTERNS:
            dict_matches = set(find_matches(graph, pattern))
            index_matches = set(find_matches(graph, pattern, index=index))
            assert dict_matches == index_matches

    def test_count_and_pivot_image(self):
        graph = small_graph(3)
        index = graph.index()
        for pattern in PATTERNS:
            assert count_matches(graph, pattern) == count_matches(
                graph, pattern, index=index
            )
            assert pivot_image(graph, pattern) == pivot_image(
                graph, pattern, index=index
            )

    def test_seeded_search(self):
        graph = small_graph(4)
        index = graph.index()
        pattern = PATTERNS[2]
        seeds = list(range(0, graph.num_nodes, 3))
        assert set(find_matches(graph, pattern, seeds=seeds)) == set(
            find_matches(graph, pattern, seeds=seeds, index=index)
        )


def assert_same_matches(graph, pattern, seeds=None, root=None):
    """``match_array`` ≡ the dict backtracker, as multisets of rows."""
    expected = sorted(find_matches(graph, pattern, seeds=seeds, root=root))
    array = match_array(graph.index(), pattern, seeds, root)
    assert array.dtype == np.int64 and array.shape[1:] == (pattern.num_nodes,)
    assert sorted(map(tuple, array.tolist())) == expected
    assert len(set(expected)) == len(expected)
    return expected


class TestJoinMatcher:
    """The join-based index matcher against the dict reference oracle."""

    @pytest.mark.parametrize(
        "factory, sigma",
        [(yago2_like, 20), (dbpedia_like, 25), (imdb_like, 20)],
    )
    def test_mined_patterns_unseeded_and_ball_seeded(self, factory, sigma):
        graph = factory(scale=0.3, seed=3)
        config = DiscoveryConfig(
            k=3, sigma=sigma, max_lhs_size=1, active_attributes=list(KB_ATTRIBUTES)
        )
        patterns = {gfd.pattern for gfd in discover(graph, config).gfds}
        assert any(
            pattern.num_edges > pattern.num_nodes - 1 for pattern in patterns
        )  # closing edges are exercised, not only trees
        seeds = np.arange(0, graph.num_nodes, 7)
        matched = 0
        for pattern in patterns:
            matched += len(assert_same_matches(graph, pattern))
            # the anchored joins of an incremental refresh: any root variable
            for root in pattern.variables():
                assert_same_matches(graph, pattern, seeds=seeds, root=root)
        assert matched

    @staticmethod
    def adversarial_graph():
        graph = Graph()
        a = [graph.add_node("A") for _ in range(4)]
        b = [graph.add_node("B") for _ in range(3)]
        c = graph.add_node("C")
        for src, dst, label in [
            (a[0], b[0], "p"), (a[0], b[0], "q"), (a[0], b[0], "r"),
            (a[1], b[0], "p"), (a[1], b[0], "q"),
            (a[2], b[1], "p"),
            (a[3], b[1], "q"), (a[3], b[1], "r"),
            # 2-cycles, one with parallel back edges
            (b[0], a[0], "p"), (b[1], a[2], "q"), (b[1], a[2], "r"),
            # triangles through every a[i] -> b[j] -> c -> a[i]
            (b[0], c, "t"), (b[1], c, "t"), (c, a[0], "t"), (c, a[2], "t"),
            (a[0], a[1], "s"), (a[1], a[0], "s"), (a[2], a[2], "s"),
        ]:
            graph.add_edge(src, dst, label)
        return graph

    @pytest.mark.parametrize(
        "pattern",
        [
            # parallel edges: one or two concrete labels plus a wildcard
            Pattern(["A", "B"], [(0, 1, "p"), (0, 1, WILDCARD)]),
            Pattern(["A", "B"], [(0, 1, WILDCARD), (0, 1, "q")], pivot=1),
            Pattern(["A", "B"], [(0, 1, "p"), (0, 1, "q"), (0, 1, WILDCARD)]),
            Pattern(["A", "B"], [(0, 1, "p"), (0, 1, "r")]),
            # wildcard node labels
            Pattern([WILDCARD, WILDCARD], [(0, 1, "p")]),
            Pattern([WILDCARD, "B", WILDCARD], [(0, 1, WILDCARD), (1, 2, "t")]),
            # 2-cycles
            Pattern(["A", "B"], [(0, 1, "p"), (1, 0, "p")]),
            Pattern(["A", "A"], [(0, 1, "s"), (1, 0, "s")]),
            Pattern(["A", "B"], [(0, 1, WILDCARD), (1, 0, WILDCARD)], pivot=1),
            # triangles closing on the pivot
            Pattern(["A", "B", "C"], [(0, 1, "p"), (1, 2, "t"), (2, 0, "t")]),
            Pattern(
                ["A", "B", "C"],
                [(0, 1, WILDCARD), (1, 2, WILDCARD), (2, 0, WILDCARD)],
                pivot=2,
            ),
            Pattern([WILDCARD] * 3, [(0, 1, WILDCARD), (1, 2, "t"), (2, 0, "t")]),
            # injectivity: both A's must differ
            Pattern(["A", "B", "A"], [(0, 1, "p"), (2, 1, WILDCARD)], pivot=1),
            # absent edge / node labels, on the fan-out and on a closing edge
            Pattern(["A", "B"], [(0, 1, "absent")]),
            Pattern(["A", "B"], [(0, 1, "p"), (1, 0, "absent")]),
            Pattern(["A", "Z"], [(0, 1, "p")]),
            Pattern(["Z"]),
            Pattern([WILDCARD]),
        ],
    )
    def test_adversarial_shapes(self, pattern):
        graph = self.adversarial_graph()
        assert_same_matches(graph, pattern)
        assert_same_matches(graph, pattern, seeds=[])
        # seeds of the wrong label are filtered, not matched
        assert_same_matches(graph, pattern, seeds=list(range(graph.num_nodes)))
        assert_same_matches(graph, pattern, seeds=[0, 5, 7])
        index = graph.index()
        assert has_match(graph, pattern, index=index) == has_match(graph, pattern)
        assert pivot_image(graph, pattern, index=index) == pivot_image(graph, pattern)

    def test_parallel_wildcards_need_distinct_graph_edges(self):
        graph = self.adversarial_graph()
        two = Pattern(["A", "B"], [(0, 1, "p"), (0, 1, WILDCARD)])
        three = Pattern(["A", "B"], [(0, 1, "p"), (0, 1, "q"), (0, 1, WILDCARD)])
        assert assert_same_matches(graph, two) == [(0, 4), (1, 4)]
        assert assert_same_matches(graph, three) == [(0, 4)]

    def test_root_pool_spanning_blocks_and_early_exit(self, monkeypatch):
        graph = small_graph(5)
        index = graph.index()
        pattern = Pattern(["L0", "L1", "L2"], [(0, 1, "e0"), (1, 2, "e1")])
        whole = assert_same_matches(graph, pattern)
        monkeypatch.setattr(matcher, "_ROOT_BLOCK", 7)
        assert len(index.nodes_with_label("L0")) > 3 * 7
        assert assert_same_matches(graph, pattern) == whole
        assert_same_matches(graph, pattern, seeds=np.arange(0, graph.num_nodes, 2))
        # max_matches smaller than one block: a prefix, and later blocks
        # are never joined
        blocks = []
        joined = matcher._match_blocks

        def counting(*args):
            for block in joined(*args):
                blocks.append(block.shape[0])
                yield block

        monkeypatch.setattr(matcher, "_match_blocks", counting)
        first = list(find_matches(graph, pattern, max_matches=2, index=index))
        assert len(first) == 2 and set(first) <= set(whole)
        assert len(blocks) == 1
        assert count_matches(graph, pattern, limit=5, index=index) == 5
        assert has_match(graph, pattern, index=index)

    def test_detached_index_needs_no_graph(self):
        graph = small_graph(6)
        meta, arrays = graph.index().export_buffers()
        detached = GraphIndex.from_buffers(meta, arrays)
        assert detached.graph is None
        for pattern in PATTERNS:
            expected = sorted(find_matches(graph, pattern))
            assert sorted(find_matches(None, pattern, index=detached)) == expected
            assert match_array(detached, pattern).shape[0] == len(expected)


def permuted(pattern, order, pivot):
    """``pattern`` respelled with variable ``order[i]`` renamed to ``i``."""
    rename = {old: new for new, old in enumerate(order)}
    return Pattern(
        [pattern.labels[old] for old in order],
        [(rename[e.src], rename[e.dst], e.label) for e in pattern.edges],
        pivot=rename[pivot],
    )


class TestPlanTrie:
    """One trie walk over a *set* of plans ≡ each plan matched on its own."""

    @staticmethod
    def walk(index, plans, seeds=None):
        """``(trie, {plan id: rows})`` of one walk, blocks in arrival order."""
        trie = compile_plans(plans)
        blocks = {}
        for plan_id, rows in trie.match(index, seeds):
            assert rows.shape[0]  # pruned subtrees yield nothing
            blocks.setdefault(plan_id, []).append(rows)
        return trie, {key: np.concatenate(value) for key, value in blocks.items()}

    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_trie_equals_per_pattern_matching(self, data):
        """Hostile little graphs (parallel / antiparallel edges, self-loops)
        × sets of 1–3-edge patterns sharing a stem, differing in the last
        edge only, respelled under another variable order and pivot, or
        plain duplicates; wildcard node and edge labels; every variable as
        anchor; with and without seeds; root pools spanning blocks."""
        num_nodes = data.draw(st.integers(2, 16), label="nodes")
        graph = Graph()
        for _ in range(num_nodes):
            graph.add_node(data.draw(st.sampled_from(["A", "A", "B"])))
        node_ids = st.integers(0, num_nodes - 1)
        for src, dst, label in data.draw(
            st.lists(
                st.tuples(node_ids, node_ids, st.sampled_from(["p", "q"])),
                max_size=40,
            ),
            label="edges",
        ):
            graph.add_edge(src, dst, label)
        node_label = st.sampled_from(["A", "B", WILDCARD])
        edge_label = st.sampled_from(["p", "q", WILDCARD])
        stem = Pattern(
            [data.draw(node_label), data.draw(node_label)],
            [(0, 1, data.draw(edge_label))],
        )
        patterns = [stem]
        for _ in range(data.draw(st.integers(1, 6), label="children")):
            parent = data.draw(st.sampled_from(patterns))
            if parent.num_edges == 3:
                continue
            src = data.draw(st.integers(0, parent.num_nodes - 1))
            if data.draw(st.booleans()):
                child = parent.with_new_node(
                    data.draw(node_label), src, data.draw(st.booleans()),
                    data.draw(edge_label),
                )
            else:
                dst = data.draw(st.integers(0, parent.num_nodes - 1))
                try:
                    child = parent.with_edge(src, dst, data.draw(edge_label))
                except ValueError:  # a duplicate edge
                    continue
                if src == dst:
                    continue
            patterns.append(child)
        twin = data.draw(st.sampled_from(patterns))
        patterns.append(twin)  # a duplicate
        patterns.append(
            permuted(
                twin,
                data.draw(st.permutations(list(twin.variables()))),
                data.draw(st.integers(0, twin.num_nodes - 1)),
            )
        )
        plans = [
            ((number, anchor), pattern, anchor)
            for number, pattern in enumerate(patterns)
            for anchor in pattern.variables()
        ]
        seeds = np.asarray(
            data.draw(st.lists(node_ids, unique=True), label="seeds"),
            dtype=np.int64,
        )
        index = graph.index()
        saved = matcher._ROOT_BLOCK
        matcher._ROOT_BLOCK = 7
        try:
            for seeded in (None, seeds):
                trie, found = self.walk(index, plans, seeded)
                assert trie.plans == len(plans)
                assert trie.steps == sum(p.num_nodes - 1 for _, p, _ in plans)
                for plan_id, pattern, anchor in plans:
                    alone = match_array(index, pattern, seeded, anchor)
                    rows = found.get(plan_id, alone[:0])
                    assert np.array_equal(rows, alone)  # row for row
                    assert sorted(map(tuple, rows.tolist())) == sorted(
                        find_matches(
                            graph,
                            pattern,
                            seeds=None if seeded is None else seeded.tolist(),
                            root=anchor,
                        )
                    )
        finally:
            matcher._ROOT_BLOCK = saved

    def test_shared_stem_is_joined_once_and_empty_prefixes_prune(self):
        graph = small_graph(5)
        index = graph.index()
        stem = Pattern(["L0", "L1"], [(0, 1, "e0")])
        children = [
            stem.with_new_node("L2", 1, True, "e1"),
            stem.with_new_node("L3", 1, True, "e1"),
            stem.with_new_node("L2", 0, True, "e1"),
            stem.with_new_node("L2", 1, True, "absent"),
        ]
        plans = [(i, p, 0) for i, p in enumerate([stem] + children)]
        trie, found = self.walk(index, plans)
        # root + the stem's fan-out + one fan-out per child, not 1 + 2 * 4
        assert (trie.plans, trie.steps, trie.nodes) == (5, 9, 6)
        assert len(index.nodes_with_label("L0")) <= matcher._ROOT_BLOCK
        assert trie.joins == 5 and 0 in found and 4 not in found
        for plan_id, pattern, _ in plans:
            alone = match_array(index, pattern)
            assert np.array_equal(found.get(plan_id, alone[:0]), alone)
        # nothing below an empty prefix runs: no seed carries the root label
        list(trie.match(index, index.nodes_with_label("L1")))
        assert trie.joins == 0
        dead = compile_plans(
            [(0, Pattern(["L0", "L1", "L2"], [(0, 1, "absent"), (1, 2, "e1")]), 0)]
        )
        assert list(dead.match(index)) == [] and dead.joins == 1

    def test_one_plan_trie_runs_the_per_block_joins(self, monkeypatch):
        """``match_array``'s walk: per root block, one fan-out per plan
        position until the block's rows run out — what ``_match_blocks``
        always ran."""
        graph = small_graph(5)
        index = graph.index()
        stem = Pattern(["L0", "L1"], [(0, 1, "e0")])
        pattern = stem.with_new_node("L2", 1, True, "e1")
        monkeypatch.setattr(matcher, "_ROOT_BLOCK", 7)
        pool = index.nodes_with_label("L0")
        expected = sum(
            1 + bool(match_array(index, stem, pool[lo:lo + 7]).shape[0])
            for lo in range(0, pool.size, 7)
        )
        trie = compile_plans([(None, pattern, 0)])
        rows = [rows for _, rows in trie.match(index)]
        assert trie.joins == expected > -(-pool.size // 7)
        assert np.array_equal(np.concatenate(rows), match_array(index, pattern))

    def test_plans_hold_labels_not_codes(self):
        """A trie compiled before the first snapshot survives patches that
        intern new labels, and a snapshot re-attached from a store file."""
        graph = small_graph(2)
        pattern = Pattern(["L0", "fresh"], [(0, 1, "brand-new")])
        trie = compile_plans([("p", pattern, 0), ("q", PATTERNS[2], 0)])
        assert not any(plan == "p" for plan, _ in trie.match(graph.index()))
        target = graph.add_node("fresh")
        graph.add_edge(int(graph.nodes_with_label("L0")[0]), target, "brand-new")
        for index in (graph.index(), GraphIndex.build(graph)):
            found = dict(trie.match(index))
            assert found["p"].tolist() == [[graph.nodes_with_label("L0")[0], target]]
            assert np.array_equal(found["q"], match_array(index, PATTERNS[2]))


class TestIncrementalEquivalence:
    @pytest.mark.parametrize("seed", [0, 1])
    def test_extend_matches_identical(self, seed):
        graph = small_graph(seed)
        index = graph.index()
        base = list(find_matches(graph, Pattern(["L0", "L1"], [(0, 1, "e0")])))
        extensions = [
            Extension(0, 2, "e1", "L2", True),
            Extension(1, 2, "e1", "L2", True),
            Extension(1, 2, WILDCARD, WILDCARD, False),
            Extension(1, 0, "e1"),  # closing
            Extension(0, 1, WILDCARD),  # closing wildcard
            Extension(0, 2, "missing-label", "L2", True),
        ]
        for extension in extensions:
            dict_result = set(extend_matches(graph, base, extension))
            index_array = extend_matches(graph, base, extension, index=index)
            assert dict_result == {tuple(row) for row in index_array.tolist()}

    def test_wildcard_over_parallel_edges_yields_no_duplicates(self):
        from repro.graph.graph import Graph

        graph = Graph()
        u = graph.add_node("U")
        v = graph.add_node("V")
        graph.add_edge(u, v, "a")
        graph.add_edge(u, v, "b")
        index = graph.index()
        pattern = Pattern(["U", "V"], [(0, 1, WILDCARD)])
        # list equality: duplicate emissions must not hide inside a set
        assert list(find_matches(graph, pattern)) == list(
            find_matches(graph, pattern, index=index)
        )
        extension = Extension(0, 1, WILDCARD, "V", True)
        assert extend_matches(graph, [(u,)], extension) == [
            tuple(row)
            for row in extend_matches(
                graph, [(u,)], extension, index=index
            ).tolist()
        ]

    def test_blockwise_capped_expansion_matches_full_join(self):
        from repro.graph.graph import Graph

        graph = Graph()
        hub = graph.add_node("H")
        for _ in range(3000):
            leaf = graph.add_node("W")
            graph.add_edge(hub, leaf, "e")
        index = graph.index()
        base = [(hub,)] * 400  # 1.2M-row join: exceeds the 1M block budget
        extension = Extension(0, 1, "e", "W", True)
        capped = extend_matches(
            graph, base, extension, max_matches=500, index=index
        )
        assert capped.shape == (500, 2)
        uncapped_prefix = extend_matches(
            graph, base[:1], extension, index=index
        )
        # block-wise capping returns the same leading rows as the full join
        assert capped.tolist() == uncapped_prefix.tolist()[:500]

    def test_extend_matches_respects_cap(self):
        graph = small_graph(2)
        index = graph.index()
        base = list(find_matches(graph, Pattern(["L0", "L1"], [(0, 1, "e0")])))
        capped = extend_matches(
            graph, base, Extension(1, 2, WILDCARD, WILDCARD, True),
            max_matches=5, index=index,
        )
        assert len(capped) <= 5


class TestSpawningEquivalence:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("can_add_node", [True, False])
    def test_extension_statistics_identical(self, seed, can_add_node):
        graph = small_graph(seed)
        for pattern in PATTERNS[:4]:
            assert_tally_matches_oracle(graph, pattern, can_add_node)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_extension_counts_random_graphs(self, data):
        """Counts ≡ collapsed oracle sets on hostile little graphs: parallel
        and antiparallel edges, self-loops (the closing tally's ``d = s``
        pairs), wildcard node labels, 2-node 2-edge patterns, patterns with
        no match at all (empty tables), and a tallied pattern edge whose
        label the graph lacks."""
        num_nodes = data.draw(st.integers(2, 7), label="nodes")
        graph = Graph()
        for _ in range(num_nodes):
            graph.add_node(data.draw(st.sampled_from(["A", "B"])))
        node_ids = st.integers(0, num_nodes - 1)
        edges = data.draw(
            st.lists(
                st.tuples(node_ids, node_ids, st.sampled_from(["p", "q"])),
                max_size=20,
            ),
            label="edges",
        )
        for src, dst, label in edges:
            graph.add_edge(src, dst, label)
        label = st.sampled_from(["A", "B", WILDCARD])
        shape = data.draw(st.sampled_from(["node", "edge", "pair", "path"]))
        if shape == "node":
            pattern = Pattern([data.draw(label)])
        elif shape == "edge":
            pattern = Pattern([data.draw(label), data.draw(label)], [(0, 1, "p")])
        elif shape == "pair":  # 2 nodes, 2 edges: parallel or antiparallel
            second = data.draw(st.sampled_from([(0, 1, "q"), (1, 0, "p"), (1, 0, "q")]))
            pattern = Pattern(
                [data.draw(label), data.draw(label)], [(0, 1, "p"), second]
            )
        else:
            pattern = Pattern(
                [data.draw(label), data.draw(label), data.draw(label)],
                [(0, 1, "p"), (2, 1, data.draw(st.sampled_from(["p", "q"])))],
                pivot=data.draw(st.integers(0, 2)),
            )
        variables = st.integers(0, pattern.num_nodes - 1)
        tallied = (
            pattern.with_edge(data.draw(variables), data.draw(variables), "r")
            if data.draw(st.booleans(), label="absent label")
            else pattern
        )
        for can_add_node in (True, False):
            assert_tally_matches_oracle(graph, pattern, can_add_node, tallied)

    def test_shared_node_and_self_loop(self):
        """Node 1 sits in column 0 of one match and column 1 of another and
        carries a self-loop: the closing tally records ``(v, v, q)`` under
        each column it occupies, and nothing for the pair the two columns
        share no edge of."""
        graph = Graph()
        for _ in range(3):
            graph.add_node("A")
        for src, dst, label in [(0, 1, "p"), (1, 2, "p"), (1, 1, "q"), (2, 0, "q")]:
            graph.add_edge(src, dst, label)
        pattern = Pattern(["A", "A"], [(0, 1, "p")])
        counted = assert_tally_matches_oracle(graph, pattern, False)
        assert counted.closing == {(0, 0, "q"): 1, (1, 1, "q"): 1}

    def test_empty_table_tallies_nothing(self):
        graph = small_graph(0)
        counted = extension_counts(
            graph, PATTERNS[2], np.empty((0, 3), dtype=np.int64), True,
            index=graph.index(),
        )
        assert counts_as_dicts(counted) == ({}, {}, {}, {})


#: Columns with missing cells (a2, a3 are sparse on ``small_graph``) and one
#: attribute no node carries, so the index has no code column for it.
LAZY_ATTRIBUTES = ["a0", "a2", "a3", "absent"]


def packed_mask(mask):
    return np.packbits(np.asarray(mask, dtype=bool), bitorder="little")


class TestMatchTableEquivalence:
    def build_tables(self, seed=1, attributes=None, limit=None):
        graph = small_graph(seed)
        index = graph.index()
        pattern = Pattern(["L0", "L1", "L2"], [(0, 1, "e0"), (1, 2, "e1")])
        matches = list(find_matches(graph, pattern))[:limit]
        if attributes is None:
            attributes = list(SYNTHETIC_ATTRIBUTES[:3])
        dict_table = MatchTable(graph, pattern, matches, attributes)
        index_table = MatchTable.from_index(index, pattern, matches, attributes)
        return dict_table, index_table

    @staticmethod
    def probe_literals(table):
        """The table's alphabet plus literals no alphabet lists: variable
        literals across attributes, a literal on the attribute no node
        carries, a value the graph never holds; interleaved so one column's
        constants are not adjacent."""
        literals = table.candidate_constant_literals(5) + list(
            table.candidate_variable_literals(same_attr_only=False)
        )
        literals += [
            make_variable_literal(0, "a0", 2, "a3"),
            make_variable_literal(1, "absent", 2, "absent"),
            ConstantLiteral(1, "absent", "v1"),
            ConstantLiteral(0, "a2", "no such value"),
        ]
        return literals[1::2] + literals[::2]

    @pytest.mark.parametrize("limit", [None, 0])
    def test_lazy_columns_equal_stored_columns(self, limit):
        """Every op of a table that gathers its columns when read answers as
        the table that stores them, twice in a row (no stale cache), on
        missing cells, an attribute the index has no column for and an
        empty table."""
        dict_table, index_table = self.build_tables(
            attributes=LAZY_ATTRIBUTES, limit=limit
        )
        assert index_table.num_rows == (0 if limit == 0 else dict_table.num_rows)
        assert np.array_equal(dict_table.match_array, index_table.match_array)
        literals = self.probe_literals(dict_table)
        for _ in range(2):
            assert index_table.candidate_constant_literals(
                5
            ) == dict_table.candidate_constant_literals(5)
            assert index_table.constant_value_counts() == (
                dict_table.constant_value_counts()
            )
            for same_attr_only in (True, False):
                expected = dict_table.variable_agreement_counts(same_attr_only)
                got = index_table.variable_agreement_counts(same_attr_only)
                assert got == expected
                assert list(got) == sorted(got)
                values, agreements = index_table.alphabet_counts(same_attr_only)
                assert agreements == expected
                assert all(
                    np.array_equal(a, b)
                    for a, b in zip(values, index_table.constant_code_counts())
                )
            for variable in range(3):
                for attr in LAZY_ATTRIBUTES:
                    assert index_table.column(variable, attr) == dict_table.column(
                        variable, attr
                    )
            for lhs, rhs in [
                ((), literals[0]),
                (literals[:2], literals[2]),
                (literals[3:5], None),
                ((), None),
            ]:
                assert np.array_equal(
                    index_table.violation_mask(lhs, rhs),
                    dict_table.violation_mask(lhs, rhs),
                )
            packed = index_table.literal_bits(literals)
            assert packed.shape == (len(literals), (index_table.num_rows + 7) // 8)
            for row, literal in zip(packed, literals):
                assert np.array_equal(row, packed_mask(dict_table.literal_mask(literal)))
                assert np.array_equal(
                    row, packed_mask(index_table.literal_mask(literal))
                )

    def test_code_counts_decode_to_value_counts(self):
        """The integer group-by, decoded, is the ``Counter`` oracle's."""
        dict_table, index_table = self.build_tables(attributes=LAZY_ATTRIBUTES)
        keys, counts = index_table.constant_code_counts()
        assert keys.dtype == np.int32 and counts.dtype == np.int64
        assert np.all(keys[1:] > keys[:-1])
        columns = MatchTable.column_keys(index_table.pattern, LAZY_ATTRIBUTES)
        num_codes = len(index_table.index.value_of_code)
        decoded = {column: {} for column in columns}
        for key, count in zip(keys.tolist(), counts.tolist()):
            value = index_table.index.value_of_code[key % num_codes]
            decoded[columns[key // num_codes]][value] = count
        assert decoded == {
            column: dict(counter)
            for column, counter in dict_table.constant_value_counts().items()
        }

    def test_rows_and_pivots(self):
        dict_table, index_table = self.build_tables()
        assert dict_table.num_rows == index_table.num_rows
        assert sorted(dict_table.matches) == sorted(index_table.matches)
        assert dict_table.support(dict_table.all_rows()) == index_table.support(
            index_table.all_rows()
        )

    def test_columns_decode(self):
        dict_table, index_table = self.build_tables()
        # rows sort stably by pivot but may interleave differently within a
        # pivot; compare columns as multisets of (match, value) pairs
        for variable in range(3):
            for attr in dict_table.attributes:
                dict_cells = {
                    (match, value if value is not MISSING else None)
                    for match, value in zip(
                        dict_table.matches, dict_table.column(variable, attr)
                    )
                }
                index_cells = {
                    (match, value if value is not MISSING else None)
                    for match, value in zip(
                        index_table.matches, index_table.column(variable, attr)
                    )
                }
                assert dict_cells == index_cells

    def test_literal_alphabet_and_masks(self):
        dict_table, index_table = self.build_tables()
        constants = dict_table.candidate_constant_literals(5)
        assert constants == index_table.candidate_constant_literals(5)
        variables = dict_table.candidate_variable_literals()
        assert variables == index_table.candidate_variable_literals()
        for literal in constants + variables:
            assert dict_table.literal_count(literal) == index_table.literal_count(
                literal
            )
            assert dict_table.mask_support(
                dict_table.literal_mask(literal)
            ) == index_table.mask_support(index_table.literal_mask(literal))
            assert np.array_equal(
                dict_table.literal_mask(literal), index_table.literal_mask(literal)
            )

    def test_value_counts_merge_equivalent(self):
        dict_table, index_table = self.build_tables()
        assert dict_table.constant_value_counts() == index_table.constant_value_counts()
        assert (
            dict_table.variable_agreement_counts()
            == index_table.variable_agreement_counts()
        )

    def test_mask_cache_audit(self):
        _, index_table = self.build_tables()
        literals = index_table.candidate_constant_literals(3)
        if not literals:
            pytest.skip("no literals on this synthetic graph")
        for literal in literals:
            index_table.literal_mask(literal)
        misses = index_table.mask_cache_misses
        for literal in literals:
            index_table.literal_mask(literal)
        # per-pattern lifetime reuse: the second sweep is all hits
        assert index_table.mask_cache_misses == misses
        assert index_table.mask_cache_hits >= len(literals)

    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_integer_alphabet_equals_counter_oracle(self, data):
        """The shards' integer code counts, merged and cut, give the alphabet
        the ``Counter`` oracle gives over dict tables: on heavy ties at the
        cut (a few values drawn many times, ``1`` beside ``"1"``) and with
        empty columns (a sparse attribute, one no
        node carries), over 1–3 shards of rows."""
        num_nodes = data.draw(st.integers(1, 14), label="nodes")
        values = st.sampled_from([1, "1", 2, "2", "x", "y", "z"])
        graph = Graph()
        for _ in range(num_nodes):
            attrs = {"a": data.draw(values)}
            if data.draw(st.booleans()):
                attrs["b"] = data.draw(values)
            if data.draw(st.integers(0, 9)) == 0:
                attrs["c"] = data.draw(values)
            graph.add_node("A", attrs)
        for _ in range(data.draw(st.integers(0, 2 * num_nodes), label="edges")):
            src = data.draw(st.integers(0, num_nodes - 1))
            dst = data.draw(st.integers(0, num_nodes - 1))
            if src != dst:
                graph.add_edge(src, dst, "p")
        pattern = data.draw(
            st.sampled_from([Pattern(["A"]), Pattern(["A", "A"], [(0, 1, "p")])])
        )
        attributes = ["a", "b", "c", "absent"]
        matches = list(find_matches(graph, pattern))
        num_shards = data.draw(st.integers(1, 3), label="shards")
        owner = [data.draw(st.integers(0, num_shards - 1)) for _ in matches]
        shards = [
            [match for match, at in zip(matches, owner) if at == shard]
            for shard in range(num_shards)
        ]
        max_constants = data.draw(st.integers(1, 4), label="k")

        index = graph.index()
        oracle = constant_literals_from_counts(
            merge_value_counts(
                MatchTable(graph, pattern, shard, attributes).constant_value_counts()
                for shard in shards
            ),
            max_constants,
        )
        integer = constant_literals_from_code_counts(
            [
                MatchTable.from_index(
                    index, pattern, shard, attributes
                ).constant_code_counts()
                for shard in shards
            ],
            MatchTable.column_keys(pattern, attributes),
            index.value_of_code,
            max_constants,
        )
        assert integer == oracle
        whole = MatchTable.from_index(index, pattern, matches, attributes)
        assert whole.candidate_constant_literals(max_constants) == oracle

    def test_tie_pool_larger_than_the_cut(self):
        """A cut inside a tie pool far larger than ``max_constants``: the
        entries above the cut stay, and of the ties only the smallest by
        text (then type name) make it — ``1`` before ``"1"``, both before
        ``"10"``, whose text sorts after theirs."""
        graph = Graph()
        pool = [1, "1", "10", 2, "2", "b", "a", 3.5, "zz", 30, "0x"]
        for value in pool:
            graph.add_node("A", {"a": value})
        for _ in range(3):
            graph.add_node("A", {"a": "top"})
        pattern = Pattern(["A"])
        matches = [(node,) for node in graph.nodes()]
        index = graph.index()
        for max_constants in (1, 2, 3, 4, 6):
            oracle = constant_literals_from_counts(
                MatchTable(graph, pattern, matches, ["a"]).constant_value_counts(),
                max_constants,
            )
            integer = constant_literals_from_code_counts(
                [
                    MatchTable.from_index(
                        index, pattern, shard, ["a"]
                    ).constant_code_counts()
                    for shard in (matches[::2], matches[1::2])
                ],
                MatchTable.column_keys(pattern, ["a"]),
                index.value_of_code,
                max_constants,
            )
            assert integer == oracle, max_constants
        assert [literal.value for literal in integer] == [
            "top", "0x", 1, "1", "10", 2,
        ]


def traced_bytes() -> int:
    """Bytes currently allocated under tracemalloc (numpy reports its
    buffers there), after a collection."""
    gc.collect()
    return tracemalloc.get_traced_memory()[0]


class TestWhatATableKeeps:
    """An index table holds its pivot-sorted match array and nothing else per
    row: a column is gathered when an op reads it and dropped after."""

    NUM_NODES = 4000
    NUM_ROWS = 30000
    ATTRIBUTES = ["a0", "a1", "a2", "a3", "a4"]
    PATTERN = Pattern(["A", "A", "A"], [(0, 1, "p"), (1, 2, "p")])

    def build(self):
        rng = np.random.default_rng(5)
        graph = Graph()
        for node in range(self.NUM_NODES):
            graph.add_node(
                "A",
                {attr: f"v{(node * (shift + 3)) % 11}"
                 for shift, attr in enumerate(self.ATTRIBUTES)},
            )
        rows = rng.integers(0, self.NUM_NODES, size=(self.NUM_ROWS, 3))
        return graph.index(), rows

    def test_table_keeps_only_its_match_array(self):
        index, rows = self.build()
        # warm-up: one-off allocations (imports, code-object caches)
        warm = MatchTable.from_index(index, self.PATTERN, rows[:50], self.ATTRIBUTES)
        warm.constant_code_counts()
        warm.variable_agreement_counts()
        del warm
        tracemalloc.start()
        try:
            before = traced_bytes()
            table = MatchTable.from_index(
                index, self.PATTERN, rows, self.ATTRIBUTES
            )
            built = traced_bytes() - before
            assert table.constant_code_counts()[0].size
            assert table.variable_agreement_counts()
            after_alphabet = traced_bytes() - before
        finally:
            tracemalloc.stop()
        assert table.match_array.nbytes == rows.nbytes
        assert built <= rows.nbytes + 1024
        # the ops keep no column (one is 240 KB); the slack is the
        # interpreter's free lists
        assert after_alphabet <= rows.nbytes + 2048

    def test_pivot_sorted_rows_are_adopted(self):
        index, rows = self.build()
        pivot = self.PATTERN.pivot
        ordered = np.ascontiguousarray(
            rows[np.argsort(rows[:, pivot], kind="stable")]
        )
        adopted = MatchTable.from_index(index, self.PATTERN, ordered, ())
        assert np.shares_memory(adopted.match_array, ordered)
        assert np.array_equal(adopted._pivot_array, ordered[:, pivot])

        sorted_copy = MatchTable.from_index(index, self.PATTERN, rows, ())
        assert not np.shares_memory(sorted_copy.match_array, rows)
        # stable: rows of one pivot keep their input order
        assert np.array_equal(sorted_copy.match_array, ordered)
        assert np.array_equal(sorted_copy._pivot_array, ordered[:, pivot])
        assert sorted_copy.match_array.flags.c_contiguous
        assert sorted_copy.match_array.dtype == np.int64

    def test_worker_keeps_match_array_and_bitsets(self):
        from repro.parallel.backend import ShardWorker

        index, rows = self.build()
        worker = ShardWorker(index.graph, index)
        install = {
            "pattern": self.PATTERN,
            "mined": True,
            "want_variable": True,
            "same_attr_only": True,
            "gamma": self.ATTRIBUTES,
        }
        table = MatchTable.from_index(index, self.PATTERN, rows, self.ATTRIBUTES)
        literals = table.candidate_constant_literals(5) + list(
            table.candidate_variable_literals()
        )
        del table
        # warm-up on another key
        worker.op_install(1, dict(install, matches=rows[:50]))
        worker.op_scan(1, {"literals": literals})
        tracemalloc.start()
        try:
            before = traced_bytes()
            worker.op_install(2, dict(install, matches=rows))
            worker.op_scan(2, {"literals": literals})
            kept = traced_bytes() - before
        finally:
            tracemalloc.stop()
        bitsets = list(worker.bits[2].values()) + list(worker.stores[2].values())
        bitsets += list(worker.tables[2]._run_bits)
        bitset_bytes = sum(sys.getsizeof(bits) for bits in bitsets)
        assert worker.tables[2].match_array.nbytes == rows.nbytes
        # the bitsets' dicts and list cells: well under 100 bytes a literal
        assert kept <= rows.nbytes + bitset_bytes + 100 * len(literals) + 2048


class TestFreezeLifecycle:
    def test_index_is_cached_per_version(self):
        graph = small_graph(0)
        first = graph.index()
        assert graph.index() is first

    def test_mutation_invalidates_index(self):
        graph = small_graph(0)
        index = graph.index()
        assert index.is_fresh()
        node = graph.add_node("L0", {"a0": "v1"})
        assert not index.is_fresh()
        rebuilt = graph.index()
        assert rebuilt is not index
        assert rebuilt.is_fresh()
        assert rebuilt.num_nodes == graph.num_nodes
        assert int(rebuilt.nodes_with_label("L0")[-1]) == node

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda g: g.add_edge(0, 1, "fresh-label"),
            lambda g: g.set_attr(0, "a0", "changed"),
            lambda g: g.remove_attr(0, "a0"),
            lambda g: g.relabel_node(0, "L5"),
        ],
    )
    def test_every_mutation_bumps_version(self, mutate):
        graph = small_graph(1)
        before = graph.version
        mutate(graph)
        assert graph.version > before

    def test_stale_index_queries_old_snapshot(self):
        graph = small_graph(0)
        index = graph.index()
        edges_before = index.num_edges
        graph.add_edge(0, 1, "brand-new")
        assert index.num_edges == edges_before  # frozen snapshot
        assert graph.index().has_edge(0, 1, "brand-new")


class TestDiscoveryEquivalence:
    @pytest.mark.parametrize("seed", [0, 5])
    def test_dict_and_index_paths_find_same_gfds(self, seed):
        graph = synthetic_graph(
            200, 700, num_labels=5, num_values=8, regularity=0.85, seed=seed
        )
        config = DiscoveryConfig(
            k=3, sigma=8, max_lhs_size=1,
            active_attributes=list(SYNTHETIC_ATTRIBUTES[:2]),
        )
        with_index = discover(graph, config)
        without = reference_discover(graph, config)
        keyed_with = {gfd_identity(g): with_index.supports[g] for g in with_index.gfds}
        keyed_without = {gfd_identity(g): without.supports[g] for g in without.gfds}
        assert keyed_with == keyed_without

    def test_precomputed_stats_and_index_accepted(self):
        graph = small_graph(2)
        index = graph.index()
        stats = index.statistics()
        config = DiscoveryConfig(k=2, sigma=10, max_lhs_size=1)
        result = discover(graph, config, stats=stats, index=index)
        baseline = discover(graph, config)
        assert {gfd_identity(g) for g in result.gfds} == {
            gfd_identity(g) for g in baseline.gfds
        }

    def test_index_statistics_match_dict_statistics(self):
        from repro.graph.statistics import compute_statistics

        graph = small_graph(3)
        fast = graph.index().statistics()
        slow = compute_statistics(graph)
        assert fast.node_label_counts == slow.node_label_counts
        assert fast.edge_label_counts == slow.edge_label_counts
        assert fast.triple_counts == slow.triple_counts
        assert fast.attr_counts == slow.attr_counts
        assert fast.attr_value_counts == slow.attr_value_counts
        assert fast.max_degree == slow.max_degree

    def test_statistics_do_not_keep_a_retired_snapshot_alive(self):
        """``attr_value_counts`` is computed on first read from arrays the
        statistics capture, not from the index: with the collector off, a
        retired snapshot whose statistics were read is freed by reference
        counting alone, and the statistics still decode afterwards."""
        from repro.graph.statistics import compute_statistics

        graph = small_graph(3)
        expected = compute_statistics(graph).attr_value_counts
        snapshot = graph.index()
        stats = snapshot.statistics()
        retired = weakref.ref(snapshot)
        enabled = gc.isenabled()
        gc.disable()
        try:
            graph.set_attr(0, "a0", "fresh value")
            assert graph.index() is not snapshot
            del snapshot
            assert retired() is None
        finally:
            if enabled:
                gc.enable()
        assert stats.attr_value_counts == expected


# ----------------------------------------------------------------------
# patched ≡ built
# ----------------------------------------------------------------------
def decoded_view(index):
    """Everything an index says about its graph, free of code numbering."""
    labels = [index.node_label_values[c] for c in index.node_label_codes.tolist()]
    attrs = [{} for _ in range(index.num_nodes)]
    for attr in index.attr_names:
        for node, value in enumerate(
            index.decode_values(index.attr_code_array(attr))
        ):
            if value is not MISSING:
                attrs[node][attr] = value
    rows = []
    for outward in (True, False):
        for node in range(index.num_nodes):
            neighbors, codes = index.csr_slice(node, outward)
            rows.append(
                [
                    (other, index.edge_label_values[code])
                    for other, code in zip(neighbors.tolist(), codes.tolist())
                ]
            )
    by_label = {
        label: index.nodes_with_label(label).tolist() for label in set(labels)
    }
    return labels, attrs, rows, by_label, index.triple_counts()


def assert_patched_equals_built(patched, graph):
    """``patched`` answers every decoded accessor like a fresh build."""
    built = GraphIndex.build(graph)
    assert patched.is_fresh() and patched.graph is graph
    assert (patched.num_nodes, patched.num_edges) == (
        built.num_nodes, built.num_edges
    )
    got, want = decoded_view(patched), decoded_view(built)
    # rows are (neighbor, label code)-sorted and codes may be numbered
    # differently, so parallel edges may come in another order
    assert [sorted(row) for row in got[2]] == [sorted(row) for row in want[2]]
    assert got[:2] + got[3:] == want[:2] + want[3:]
    assert patched.attr_names == built.attr_names
    assert patched.statistics() == built.statistics()
    assert np.all(np.diff(patched._edge_keys) > 0)
    assert np.all(np.diff(patched._pair_keys) > 0)
    nodes = np.arange(graph.num_nodes, dtype=np.int64)
    src, dst = np.repeat(nodes, nodes.size), np.tile(nodes, nodes.size)
    assert np.array_equal(
        patched.edge_label_counts(src, dst), built.edge_label_counts(src, dst)
    )
    for label in [None, "never-used"] + sorted(graph.edge_label_counts()):
        code = -1 if label is None else patched.edge_label_code(label)
        expected = np.fromiter(
            (graph.has_edge(s, d, label) for s, d in zip(src.tolist(), dst.tolist())),
            dtype=bool, count=src.size,
        )
        if label is None or code >= 0:
            assert np.array_equal(patched.edges_exist(src, dst, code), expected)
        else:
            assert not expected.any()
        assert patched.has_edge(0, graph.num_nodes - 1, label) == bool(expected[graph.num_nodes - 1])
    for pattern in PATTERNS:
        for root in (None, pattern.num_nodes - 1):
            assert sorted(
                map(tuple, match_array(patched, pattern, root=root).tolist())
            ) == sorted(map(tuple, match_array(built, pattern, root=root).tolist()))


def index_arrays(index):
    arrays = [getattr(index, name) for name in GraphIndex._BUFFER_FIELDS]
    return arrays + list(index._attr_codes.values()) + list(index._nodes_by_label)


class TestPatchedIndex:
    """``Graph.index()`` after a write patches the snapshot it has."""

    def test_scripted_edge_cases(self):
        graph = synthetic_graph(
            40, 120, num_labels=4, num_values=5, regularity=0.7, seed=5
        )
        graph.index()
        builds = GraphIndex.builds_performed
        steps = [
            # a node label nobody had, then the label vanishing again
            lambda: graph.relabel_node(3, "Lnew"),
            lambda: graph.relabel_node(3, "L0"),
            # the only holder of an attribute loses it
            lambda: graph.set_attr(7, "solo", "x"),
            lambda: graph.remove_attr(7, "solo"),
            # first and last edge of an edge label, over a parallel edge
            lambda: graph.add_edge(*next(iter(graph.edges()))[:2], "enew"),
            lambda: graph.remove_edge(*next(iter(graph.edges()))[:2], "enew"),
            # a new node of a new label with a self loop, then relabelled
            lambda: graph.add_edge(graph.add_node("Lsolo", {"a0": None}), 40, "e0"),
            lambda: graph.relabel_node(40, "L1"),
            # a batch: add and remove the same edge, set and unset a value
            lambda: (graph.add_edge(1, 2, "tmp"), graph.remove_edge(1, 2, "tmp"),
                     graph.set_attr(5, "a0", 1.5), graph.remove_attr(5, "a0")),
        ]
        for step in steps:
            before = graph.index()
            view = decoded_view(before)
            step()
            patched = graph.index()
            assert patched is not before and not before.is_fresh()
            assert decoded_view(before) == view  # the old snapshot is intact
            assert_patched_equals_built(patched, graph)
        # assert_patched_equals_built builds the oracle: one per step, and
        # graph.index() added none
        assert GraphIndex.builds_performed == builds + len(steps)

    def test_wide_batch_rebuilds_once(self):
        graph = small_graph(2)
        graph.index()
        builds = GraphIndex.builds_performed
        for node in range(graph.num_nodes // 8):
            graph.set_attr(node, "a0", "w")
        graph.index()
        assert GraphIndex.builds_performed == builds  # at the cut-over: patched
        for node in range(graph.num_nodes // 8 + 1):
            graph.set_attr(node, "a0", "x")
        index = graph.index()
        assert GraphIndex.builds_performed == builds + 1
        assert graph.index() is index

    def test_code_tables_stay_bounded_under_value_churn(self):
        """A long-lived writer of ever-new values cannot grow the tables."""
        graph = small_graph(1)
        live = graph.index()._interned_codes()
        builds = GraphIndex.builds_performed
        for commit in range(3000):
            graph.set_attr(commit % graph.num_nodes, "a0", f"unique-{commit}")
            index = graph.index()
            assert index._interned_codes() <= 2 * max(live, 1024) + 2
        rebuilt = GraphIndex.builds_performed - builds
        assert 1 <= rebuilt <= 3
        assert_patched_equals_built(index, graph)


NODE_LABEL_POOL = ["L0", "L1", "L2", "L3", "Lrare"]
EDGE_LABEL_POOL = ["e0", "e1", "e2", "e3", "erare"]
ATTR_POOL = ["a0", "a1", "solo"]
VALUE_POOL = ["v0", "v1", "v2", "fresh", 7, None]
ANY_NODE = st.integers(0, 10**6)


class PatchedIndexMachine(RuleBasedStateMachine):
    """Any interleaving of the six mutators, ``index()`` and save/load.

    After every step, patching the graph's current base snapshot at the
    nodes marked stale since equals a fresh build; ``index()`` and the
    store round trips move the base, so patches stack on patches, on
    mmap-attached and on eager-loaded snapshots.
    """

    def __init__(self):
        super().__init__()
        self.graph = synthetic_graph(
            24, 60, num_labels=4, num_values=5, regularity=0.7, seed=11
        )
        self.graph.index()
        self.directory = Path(tempfile.mkdtemp(prefix="patched-index-"))
        self.mappings = []
        self.held = []  # (snapshot, its decoded view when taken)

    def teardown(self):
        for mapping in self.mappings:
            mapping.close()
        shutil.rmtree(self.directory, ignore_errors=True)

    def node(self, pick):
        return pick % self.graph.num_nodes

    @rule(label=st.sampled_from(NODE_LABEL_POOL), value=st.sampled_from(VALUE_POOL))
    def add_node(self, label, value):
        self.graph.add_node(label, {"a0": value})

    @rule(src=ANY_NODE, dst=ANY_NODE, label=st.sampled_from(EDGE_LABEL_POOL))
    def add_edge(self, src, dst, label):
        self.graph.add_edge(self.node(src), self.node(dst), label)

    @precondition(lambda self: self.graph.num_edges)
    @rule(pick=ANY_NODE)
    def remove_edge(self, pick):
        edges = sorted(self.graph.edges())
        self.graph.remove_edge(*edges[pick % len(edges)])

    @rule(node=ANY_NODE, attr=st.sampled_from(ATTR_POOL),
          value=st.sampled_from(VALUE_POOL))
    def set_attr(self, node, attr, value):
        self.graph.set_attr(self.node(node), attr, value)

    @rule(node=ANY_NODE, attr=st.sampled_from(ATTR_POOL))
    def remove_attr(self, node, attr):
        self.graph.remove_attr(self.node(node), attr)

    @rule(node=ANY_NODE, label=st.sampled_from(NODE_LABEL_POOL))
    def relabel_node(self, node, label):
        self.graph.relabel_node(self.node(node), label)

    @rule()
    def index(self):
        index = self.graph.index()
        self.held = self.held[-2:] + [(index, decoded_view(index))]

    @rule(mmap=st.booleans())
    def save_and_load(self, mmap):
        path = self.directory / "snapshot.rgix"
        self.graph.index().save(path)
        loaded = GraphIndex.load(path, graph=self.graph, mmap=mmap)
        assert self.graph.index() is loaded
        if loaded.store_mapping is not None:
            self.mappings.append(loaded.store_mapping)

    @invariant()
    def patched_equals_built(self):
        base = self.graph._index_cache
        if base.is_fresh():
            patched = base
        else:
            patched = base.patched(self.graph, self.graph._stale_nodes)
            assert patched.store_path is None and patched.store_mapping is None
            for mapping in self.mappings:
                if mapping.closed:
                    continue
                mapped = np.frombuffer(mapping.buf, dtype=np.uint8)
                assert not any(
                    np.shares_memory(array, mapped)
                    for array in index_arrays(patched)
                )
        assert_patched_equals_built(patched, self.graph)
        for snapshot, view in self.held:
            assert decoded_view(snapshot) == view  # MVCC: never written to


TestPatchedIndexStateful = PatchedIndexMachine.TestCase
TestPatchedIndexStateful.settings = settings(
    max_examples=20, stateful_step_count=25, deadline=None
)
