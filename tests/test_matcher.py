"""Matcher tests: semantics, wildcards, pivots, and a brute-force oracle.

Every check runs the product matcher (the plan trie on the frozen index)
and the backtracking oracle on the dict graph, and asks them to agree.
"""

from __future__ import annotations

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import Graph
from repro.oracle import (
    match_exists_at_pivot,
    pivot_image,
    reference_extend_matches,
    reference_matches,
)
from repro.pattern import (
    WILDCARD,
    Extension,
    Pattern,
    apply_extension,
    extend_matches,
    find_matches,
    label_matches,
)


def matches_of(graph: Graph, pattern: Pattern, **options):
    """The oracle's matches, after checking the product finds the same."""
    oracle = list(reference_matches(graph, pattern, **options))
    assert sorted(find_matches(graph, pattern, **options)) == sorted(oracle)
    return oracle


def extended_by(graph: Graph, matches, extension: Extension):
    """The oracle's join, after checking the product's array joins the same."""
    oracle = reference_extend_matches(graph, matches, extension)
    product = extend_matches(graph.index(), matches, extension)
    assert sorted(map(tuple, product.tolist())) == sorted(oracle)
    return oracle


def brute_force_matches(graph: Graph, pattern: Pattern):
    """Oracle: try every injective assignment."""
    found = set()
    nodes = list(graph.nodes())
    for assignment in itertools.permutations(nodes, pattern.num_nodes):
        ok = True
        for variable, node in enumerate(assignment):
            if not label_matches(graph.node_label(node), pattern.labels[variable]):
                ok = False
                break
        if not ok:
            continue
        for edge in pattern.edges:
            labels = graph.edge_labels(assignment[edge.src], assignment[edge.dst])
            if edge.label == WILDCARD:
                if not labels:
                    ok = False
                    break
            elif edge.label not in labels:
                ok = False
                break
        if ok:
            found.add(assignment)
    return found


def random_graph(rng: random.Random, nodes=8, edges=14) -> Graph:
    graph = Graph()
    for _ in range(nodes):
        graph.add_node(rng.choice("abc"))
    for _ in range(edges):
        src, dst = rng.randrange(nodes), rng.randrange(nodes)
        if src != dst:
            graph.add_edge(src, dst, rng.choice("ef"))
    return graph


class TestMatcherBasics:
    def test_single_node(self):
        graph = Graph()
        graph.add_node("a")
        graph.add_node("b")
        pattern = Pattern(["a"])
        assert matches_of(graph, pattern) == [(0,)]

    def test_wildcard_node(self):
        graph = Graph()
        graph.add_node("a")
        graph.add_node("b")
        assert len(matches_of(graph, Pattern([WILDCARD]))) == 2

    def test_single_edge(self):
        graph = Graph()
        a, b = graph.add_node("a"), graph.add_node("b")
        graph.add_edge(a, b, "e")
        pattern = Pattern(["a", "b"], [(0, 1, "e")])
        assert matches_of(graph, pattern) == [(0, 1)]

    def test_direction_matters(self):
        graph = Graph()
        a, b = graph.add_node("a"), graph.add_node("b")
        graph.add_edge(a, b, "e")
        backward = Pattern(["a", "b"], [(1, 0, "e")])
        assert not matches_of(graph, backward)

    def test_edge_label_matters(self):
        graph = Graph()
        a, b = graph.add_node("a"), graph.add_node("b")
        graph.add_edge(a, b, "e")
        assert not matches_of(graph, Pattern(["a", "b"], [(0, 1, "f")]))
        assert matches_of(graph, Pattern(["a", "b"], [(0, 1, WILDCARD)]))

    def test_injectivity(self):
        graph = Graph()
        a = graph.add_node("a")
        graph.add_edge(a, a, "e")  # self-loop
        two = Pattern(["a", "a"], [(0, 1, "e")])
        assert not matches_of(graph, two)  # x and y must be distinct nodes

    def test_non_induced_semantics(self):
        """Extra graph edges among matched nodes are allowed."""
        graph = Graph()
        a, b = graph.add_node("a"), graph.add_node("b")
        graph.add_edge(a, b, "e")
        graph.add_edge(b, a, "f")  # extra edge
        assert matches_of(graph, Pattern(["a", "b"], [(0, 1, "e")]))

    def test_cycle_pattern(self):
        graph = Graph()
        a, b = graph.add_node("p"), graph.add_node("p")
        graph.add_edge(a, b, "parent")
        graph.add_edge(b, a, "parent")
        mutual = Pattern(["p", "p"], [(0, 1, "parent"), (1, 0, "parent")])
        assert len(matches_of(graph, mutual)) == 2  # both orientations

    def test_parallel_pattern_edges_need_distinct_graph_edges(self):
        graph = Graph()
        a, b = graph.add_node("a"), graph.add_node("b")
        graph.add_edge(a, b, "e")
        both = Pattern(["a", "b"], [(0, 1, "e"), (0, 1, WILDCARD)])
        assert not matches_of(graph, both)
        graph.add_edge(a, b, "f")
        assert matches_of(graph, both)

    def test_max_matches_cap(self):
        graph = Graph()
        for _ in range(5):
            graph.add_node("a")
        for matcher in (find_matches, reference_matches):
            assert len(list(matcher(graph, Pattern(["a"]), max_matches=3))) == 3

    def test_seeds_restrict_root(self):
        graph = Graph()
        nodes = [graph.add_node("a") for _ in range(4)]
        found = matches_of(graph, Pattern(["a"]), seeds=[nodes[2]])
        assert found == [(nodes[2],)]


class TestPivotImage:
    def test_pivot_image_distinct(self):
        graph = Graph()
        person = graph.add_node("person")
        for _ in range(3):
            child = graph.add_node("person")
            graph.add_edge(person, child, "hasChild")
        pattern = Pattern(["person", "person"], [(0, 1, "hasChild")], pivot=0)
        assert pivot_image(graph, pattern) == {person}
        re_pivoted = pattern.with_pivot(1)
        assert len(pivot_image(graph, re_pivoted)) == 3

    def test_match_exists_at_pivot(self):
        graph = Graph()
        a, b = graph.add_node("a"), graph.add_node("b")
        graph.add_edge(a, b, "e")
        pattern = Pattern(["a", "b"], [(0, 1, "e")], pivot=0)
        assert match_exists_at_pivot(graph, pattern, a)
        assert not match_exists_at_pivot(graph, pattern, b)


class TestIncrementalJoin:
    def test_new_node_extension(self):
        graph = Graph()
        a, b, c = graph.add_node("a"), graph.add_node("b"), graph.add_node("c")
        graph.add_edge(a, b, "e")
        graph.add_edge(b, c, "f")
        base = Pattern(["a", "b"], [(0, 1, "e")])
        base_matches = matches_of(graph, base)
        extension = Extension(src=1, dst=2, edge_label="f", new_node_label="c")
        extended = extended_by(graph, base_matches, extension)
        assert extended == [(a, b, c)]
        # equals matching the extended pattern from scratch
        full = apply_extension(base, extension)
        assert set(extended) == set(matches_of(graph, full))

    def test_closing_extension_filters(self):
        graph = Graph()
        a, b = graph.add_node("a"), graph.add_node("b")
        graph.add_edge(a, b, "e")
        graph.add_edge(b, a, "back")
        base = Pattern(["a", "b"], [(0, 1, "e")])
        base_matches = matches_of(graph, base)
        closing = Extension(src=1, dst=0, edge_label="back")
        assert extended_by(graph, base_matches, closing) == [(a, b)]
        missing = Extension(src=1, dst=0, edge_label="nope")
        assert extended_by(graph, base_matches, missing) == []

    def test_inward_extension(self):
        graph = Graph()
        a, b = graph.add_node("a"), graph.add_node("b")
        graph.add_edge(b, a, "e")
        base = Pattern(["a"])
        extension = Extension(
            src=0, dst=1, edge_label="e", new_node_label="b", outward=False
        )
        assert extended_by(graph, [(a,)], extension) == [(a, b)]

    def test_extension_injectivity(self):
        graph = Graph()
        a = graph.add_node("a")
        b = graph.add_node("a")
        graph.add_edge(a, b, "e")
        graph.add_edge(b, a, "e")
        base = Pattern(["a", "a"], [(0, 1, "e")])
        matches = matches_of(graph, base)
        extension = Extension(src=1, dst=2, edge_label="e", new_node_label="a")
        for extended in extended_by(graph, matches, extension):
            assert len(set(extended)) == len(extended)

    def test_incremental_equals_scratch(self):
        rng = random.Random(5)
        graph = random_graph(rng)
        base = Pattern(["a", "b"], [(0, 1, "e")])
        matches = matches_of(graph, base)
        extension = Extension(src=1, dst=2, edge_label="f", new_node_label="c")
        extended = apply_extension(base, extension)
        incremental = set(extended_by(graph, matches, extension))
        scratch = set(matches_of(graph, extended))
        assert incremental == scratch


class TestAgainstBruteForce:
    @pytest.mark.parametrize("seed", range(6))
    def test_random_graphs_single_edge(self, seed):
        rng = random.Random(seed)
        graph = random_graph(rng)
        pattern = Pattern(["a", "b"], [(0, 1, "e")])
        assert set(matches_of(graph, pattern)) == brute_force_matches(
            graph, pattern
        )

    @pytest.mark.parametrize("seed", range(6))
    def test_random_graphs_wedge(self, seed):
        rng = random.Random(seed + 100)
        graph = random_graph(rng)
        pattern = Pattern(
            ["a", WILDCARD, "b"], [(0, 1, "e"), (1, 2, WILDCARD)], pivot=1
        )
        assert set(matches_of(graph, pattern)) == brute_force_matches(
            graph, pattern
        )

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_property_triangle(self, seed):
        rng = random.Random(seed)
        graph = random_graph(rng, nodes=7, edges=16)
        pattern = Pattern(
            ["a", "b", WILDCARD],
            [(0, 1, "e"), (1, 2, "f"), (2, 0, WILDCARD)],
        )
        assert set(matches_of(graph, pattern)) == brute_force_matches(
            graph, pattern
        )
