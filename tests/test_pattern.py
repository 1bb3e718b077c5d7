"""Unit tests for patterns, canonical forms and embeddings."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.pattern import (
    WILDCARD,
    Pattern,
    are_isomorphic,
    canonical_key,
    canonical_ordering,
    canonicalize,
    embedding_batch,
    embeds_strictly,
    is_embedded,
    label_matches,
    variable_name,
)
from repro.oracle import embeddings
from repro.pattern.embedding import DistinctPatterns, may_embed


def chain(labels, edge_label="e", pivot=0):
    edges = [(i, i + 1, edge_label) for i in range(len(labels) - 1)]
    return Pattern(labels, edges, pivot)


class TestPatternBasics:
    def test_label_matches(self):
        assert label_matches("person", "person")
        assert label_matches("person", WILDCARD)
        assert not label_matches("person", "city")
        assert not label_matches(WILDCARD, "person")

    def test_variable_names(self):
        assert variable_name(0) == "x"
        assert variable_name(1) == "y"
        assert variable_name(26) == "x1"

    def test_counts(self):
        pattern = chain(["a", "b", "c"])
        assert pattern.num_nodes == 3
        assert pattern.num_edges == 2

    def test_duplicate_edges_rejected(self):
        with pytest.raises(ValueError):
            Pattern(["a", "b"], [(0, 1, "e"), (0, 1, "e")])

    def test_bad_pivot_rejected(self):
        with pytest.raises(ValueError):
            Pattern(["a"], [], pivot=3)

    def test_bad_edge_rejected(self):
        with pytest.raises(ValueError):
            Pattern(["a"], [(0, 1, "e")])

    def test_immutability(self):
        pattern = chain(["a", "b"])
        with pytest.raises(AttributeError):
            pattern.pivot = 1

    def test_connectivity(self):
        assert chain(["a", "b", "c"]).is_connected()
        disconnected = Pattern(["a", "b", "c"], [(0, 1, "e")])
        assert not disconnected.is_connected()
        assert Pattern(["a"]).is_connected()

    def test_with_edge(self):
        pattern = chain(["a", "b"])
        closed = pattern.with_edge(1, 0, "back")
        assert closed.num_edges == 2
        assert (1, 0, "back") in closed.edge_set()

    def test_with_new_node_outward(self):
        pattern = chain(["a", "b"])
        extended = pattern.with_new_node("c", 1, True, "f")
        assert extended.num_nodes == 3
        assert (1, 2, "f") in extended.edge_set()

    def test_with_new_node_inward(self):
        pattern = chain(["a", "b"])
        extended = pattern.with_new_node("c", 0, False, "f")
        assert (2, 0, "f") in extended.edge_set()

    def test_with_pivot(self):
        pattern = chain(["a", "b"])
        assert pattern.with_pivot(1).pivot == 1

    def test_without_edge_drops_isolated(self):
        pattern = chain(["a", "b", "c"])
        reduced = pattern.without_edge(1)  # drop b->c, c becomes isolated
        assert reduced.num_nodes == 2
        assert reduced.num_edges == 1

    def test_without_edge_keeps_pivot(self):
        pattern = chain(["a", "b"], pivot=0)
        reduced = pattern.without_edge(0)
        assert reduced.num_nodes == 1
        assert reduced.labels == ("a",)

    def test_structural_equality(self):
        assert chain(["a", "b"]) == chain(["a", "b"])
        assert chain(["a", "b"]) != chain(["a", "b"], pivot=1)
        assert hash(chain(["a", "b"])) == hash(chain(["a", "b"]))


class TestCanonical:
    def test_isomorphic_relabelings_share_key(self):
        p1 = Pattern(["a", "b", "c"], [(0, 1, "e"), (1, 2, "f")], pivot=0)
        # same shape, nodes listed in another order
        p2 = Pattern(["a", "c", "b"], [(0, 2, "e"), (2, 1, "f")], pivot=0)
        assert canonical_key(p1) == canonical_key(p2)
        assert are_isomorphic(p1, p2)

    def test_pivot_distinguishes(self):
        p1 = chain(["a", "a"], pivot=0)
        p2 = chain(["a", "a"], pivot=1)
        assert canonical_key(p1) != canonical_key(p2)

    def test_direction_distinguishes(self):
        p1 = Pattern(["a", "a"], [(0, 1, "e")])
        p2 = Pattern(["a", "a"], [(1, 0, "e")])
        assert canonical_key(p1) != canonical_key(p2)

    def test_canonicalize_representative(self):
        p1 = Pattern(["b", "a"], [(0, 1, "e")], pivot=1)
        rep = canonicalize(p1)
        assert rep.pivot == 0
        assert are_isomorphic(rep, p1)

    def test_canonical_ordering_matches_key(self):
        pattern = Pattern(["b", "a", "a"], [(0, 1, "e"), (0, 2, "e")], pivot=0)
        ordering = canonical_ordering(pattern)
        position = {old: new for new, old in enumerate(ordering)}
        labels = tuple(pattern.labels[old] for old in ordering)
        edges = tuple(
            sorted(
                (position[e.src], position[e.dst], e.label)
                for e in pattern.edges
            )
        )
        assert (labels, edges) == canonical_key(pattern)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_permutation_invariance(self, data):
        """Permuting variables never changes the canonical key (property)."""
        import itertools
        import random as random_module

        size = data.draw(st.integers(min_value=2, max_value=4))
        labels = data.draw(
            st.lists(
                st.sampled_from(["a", "b", WILDCARD]),
                min_size=size,
                max_size=size,
            )
        )
        possible = list(itertools.permutations(range(size), 2))
        edge_count = data.draw(st.integers(min_value=1, max_value=min(4, len(possible))))
        chosen = data.draw(
            st.lists(
                st.sampled_from(possible),
                min_size=edge_count,
                max_size=edge_count,
                unique=True,
            )
        )
        edges = [(src, dst, "e") for src, dst in chosen]
        pivot = data.draw(st.integers(min_value=0, max_value=size - 1))
        pattern = Pattern(labels, edges, pivot)

        perm = data.draw(st.permutations(list(range(size))))
        mapped_edges = [(perm[s], perm[d], l) for s, d, l in edges]
        mapped_labels = [None] * size
        for old, new in enumerate(perm):
            mapped_labels[new] = labels[old]
        permuted = Pattern(mapped_labels, mapped_edges, perm[pivot])
        assert canonical_key(pattern) == canonical_key(permuted)


class TestEmbedding:
    def test_single_edge_into_triangle(self):
        inner = Pattern(["a", "a"], [(0, 1, "e")])
        outer = Pattern(
            ["a", "a", "a"], [(0, 1, "e"), (1, 2, "e"), (2, 0, "e")]
        )
        found = list(embeddings(inner, outer))
        assert len(found) == 3  # each triangle edge hosts the inner edge

    def test_wildcard_inner_accepts_concrete_outer(self):
        inner = Pattern([WILDCARD, WILDCARD], [(0, 1, "e")])
        outer = Pattern(["a", "b"], [(0, 1, "e")])
        assert is_embedded(inner, outer)

    def test_concrete_inner_rejects_wildcard_outer(self):
        inner = Pattern(["a", "b"], [(0, 1, "e")])
        outer = Pattern([WILDCARD, "b"], [(0, 1, "e")])
        assert not is_embedded(inner, outer)

    def test_wildcard_edge_label(self):
        inner = Pattern(["a", "b"], [(0, 1, WILDCARD)])
        outer = Pattern(["a", "b"], [(0, 1, "e")])
        assert is_embedded(inner, outer)
        assert not is_embedded(outer, inner)

    def test_pivot_preserving(self):
        inner = Pattern(["a", "b"], [(0, 1, "e")], pivot=0)
        same_pivot = Pattern(["b", "a"], [(1, 0, "e")], pivot=1)
        assert is_embedded(inner, same_pivot, pivot_preserving=True)
        # re-pivot the outer pattern at its 'b' end: the pivots now disagree
        other_pivot = same_pivot.with_pivot(0)
        assert is_embedded(inner, other_pivot, pivot_preserving=False)
        assert not is_embedded(inner, other_pivot, pivot_preserving=True)

    def test_larger_cannot_embed(self):
        small = Pattern(["a"], [])
        big = chain(["a", "a", "a"])
        assert is_embedded(small, big)
        assert not is_embedded(big, small)

    def test_embeds_strictly(self):
        small = chain(["a", "b"])
        big = chain(["a", "b", "c"])
        assert embeds_strictly(small, big)
        assert not embeds_strictly(small, chain(["a", "b"]))

    def test_strict_by_wildcard_upgrade(self):
        general = Pattern([WILDCARD, "b"], [(0, 1, "e")])
        specific = Pattern(["a", "b"], [(0, 1, "e")])
        assert embeds_strictly(general, specific)

    def test_embedding_respects_direction(self):
        inner = Pattern(["a", "b"], [(0, 1, "e")])
        outer = Pattern(["a", "b"], [(1, 0, "e")])
        assert not is_embedded(inner, outer)

    def test_max_results(self):
        inner = Pattern(["a"], [])
        outer = Pattern(["a", "a", "a"], [(0, 1, "e"), (1, 2, "e")])
        assert len(list(embeddings(inner, outer, max_results=2))) == 2


# ----------------------------------------------------------------------
# the vectorized kernel against the backtracking oracle
# ----------------------------------------------------------------------
NODE_LABELS = ["a", "b", WILDCARD]
EDGE_LABELS = ["e", "f", WILDCARD]


@st.composite
def kernel_patterns(draw, max_nodes):
    """Patterns with wildcard nodes and edges, several labels on one
    variable pair, loops and (rarely) disconnected variables."""
    size = draw(st.integers(min_value=1, max_value=max_nodes))
    labels = draw(
        st.lists(st.sampled_from(NODE_LABELS), min_size=size, max_size=size)
    )
    variable = st.integers(min_value=0, max_value=size - 1)
    # a random spanning tree keeps most patterns connected, as mined ones are
    edges = set()
    for node in range(1, size):
        parent = draw(st.integers(min_value=0, max_value=node - 1))
        pair = (parent, node) if draw(st.booleans()) else (node, parent)
        edges.add(pair + (draw(st.sampled_from(EDGE_LABELS)),))
    edges |= draw(st.sets(
        st.tuples(variable, variable, st.sampled_from(EDGE_LABELS)),
        max_size=size + 1,
    ))
    return Pattern(labels, sorted(edges), draw(variable))


@st.composite
def sub_patterns(draw, outer):
    """A pattern that often embeds into ``outer``: a subset of its edges
    over renamed variables, some labels relaxed to the wildcard."""
    edges = []
    if outer.edges:
        edges = draw(st.lists(st.sampled_from(outer.edges), unique=True))
    used = sorted({outer.pivot} | {v for e in edges for v in (e.src, e.dst)})
    renamed = draw(st.permutations(range(len(used))))
    name = {old: renamed[position] for position, old in enumerate(used)}
    labels = [None] * len(used)
    for old in used:
        keep = draw(st.booleans()) or draw(st.booleans())
        labels[name[old]] = outer.labels[old] if keep else WILDCARD
    relaxed = {
        (name[e.src], name[e.dst], e.label if draw(st.booleans()) else WILDCARD)
        for e in edges
    }
    return Pattern(labels, sorted(relaxed), name[outer.pivot])


@st.composite
def kernel_batches(draw, max_nodes):
    """A batch of (inner, outer, pivot-preserving) pairs and a cap."""
    pairs = []
    for _ in range(draw(st.integers(min_value=1, max_value=6))):
        outer = draw(kernel_patterns(max_nodes))
        inner = draw(st.one_of(kernel_patterns(max_nodes), sub_patterns(outer)))
        pairs.append((inner, outer, draw(st.booleans())))
    cap = draw(st.one_of(st.none(), st.integers(min_value=1, max_value=4)))
    return pairs, cap


def _assert_kernel_is_oracle(pairs, cap):
    found = embedding_batch(pairs, max_results=cap)
    assert len(found) == len(pairs)
    for (inner, outer, preserving), got in zip(pairs, found):
        assert got == tuple(embeddings(inner, outer, preserving, cap))


class TestEmbeddingKernel:
    """``embedding_batch`` is ``embeddings()`` as a sequence, per pair:
    the same embeddings, in the same order, under the same cap."""

    @given(kernel_batches(max_nodes=4))
    @settings(max_examples=200, deadline=None)
    def test_kernel_equals_backtracking(self, batch):
        _assert_kernel_is_oracle(*batch)

    @pytest.mark.slow
    @given(kernel_batches(max_nodes=7))
    @settings(max_examples=400, deadline=None)
    def test_kernel_equals_backtracking_up_to_seven_nodes(self, batch):
        _assert_kernel_is_oracle(*batch)

    def test_all_wildcard_pair_keeps_search_order(self):
        inner = Pattern([WILDCARD] * 3, [(0, 1, WILDCARD), (1, 2, WILDCARD)], 1)
        outer = Pattern(["a"] * 4, [(0, 1, "e"), (1, 2, "f"), (1, 3, "e"),
                                    (2, 3, "e")])
        for preserving in (False, True):
            for cap in (None, 1, 3):
                _assert_kernel_is_oracle([(inner, outer, preserving)], cap)

    def test_self_loop_needs_a_host_loop(self):
        """``x:a -e-> x`` does not embed into ``x:a -e-> y:b``: a loop maps
        to ``(f(x), f(x))``, which the host lacks — on the oracle and the
        kernel alike — and embeds once the host has that loop."""
        loop = Pattern(["a"], [(0, 0, "e")])
        host = Pattern(["a", "b"], [(0, 1, "e")])
        assert list(embeddings(loop, host)) == []
        assert embedding_batch([(loop, host, False)]) == [()]
        assert not is_embedded(loop, host)
        looped = Pattern(["a", "b"], [(0, 0, "e"), (0, 1, "e")])
        assert list(embeddings(loop, looped)) == [(0,)]
        assert embedding_batch([(loop, looped, False)]) == [((0,),)]
        assert is_embedded(loop, looped)

    def test_duplicate_pairs_and_empty_batch(self):
        inner = chain(["a", "b"])
        outer = chain(["a", "b", "a", "b"])
        found = embedding_batch([(inner, outer, False)] * 3 + [(outer, inner, False)])
        assert found[0] == found[1] == found[2] == ((0, 1), (2, 3))
        assert found[3] == ()
        assert embedding_batch([]) == []

    def test_cap_must_be_positive(self):
        with pytest.raises(ValueError):
            embedding_batch([(chain(["a"]), chain(["a"]), False)], max_results=0)

    def test_no_label_limit(self):
        labels = [f"l{index}" for index in range(300)]
        outer = Pattern(labels, [(i, i + 1, f"e{i}") for i in range(299)])
        inner = Pattern(labels[150:153], [(0, 1, "e150"), (1, 2, "e151")])
        assert embedding_batch([(inner, outer, False)]) == [((150, 151, 152),)]

    @given(st.lists(kernel_patterns(max_nodes=4), min_size=1, max_size=8),
           st.lists(kernel_patterns(max_nodes=4), min_size=1, max_size=4))
    @settings(max_examples=100, deadline=None)
    def test_distinct_patterns_prefilter_is_may_embed(self, rules, hosts):
        patterns = DistinctPatterns(rules)
        expected = [
            [slot for slot, inner in enumerate(patterns.patterns)
             if may_embed(inner, host)]
            for host in hosts
        ]
        assert patterns.may_embed_into(hosts) == expected
