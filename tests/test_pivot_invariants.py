"""Property tests for the pivot-disjoint sharding invariants of ParDis.

The parallel algorithm's integer-sum support aggregation is sound only if
every pivot's matches live on exactly one worker; these tests pin that
invariant through seeding and incremental joins.
"""

from __future__ import annotations

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import Graph
from repro.oracle import reference_extend_matches
from repro.pattern import Extension, Pattern, find_matches


def _pivot_locations(shards, pivot_var):
    locations = {}
    for worker, shard in enumerate(shards):
        for match in shard:
            locations.setdefault(match[pivot_var], set()).add(worker)
    return locations


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000), workers=st.integers(2, 6))
def test_extension_preserves_pivot_disjointness(seed, workers):
    rng = random.Random(seed)
    graph = Graph()
    for _ in range(14):
        graph.add_node(rng.choice("ab"))
    for _ in range(24):
        s, d = rng.randrange(14), rng.randrange(14)
        if s != d:
            graph.add_edge(s, d, rng.choice("ef"))
    base = Pattern(["a"])
    shards = [[] for _ in range(workers)]
    for v in graph.nodes_with_label("a"):
        shards[v % workers].append((v,))
    extension = Extension(src=0, dst=1, edge_label="e", new_node_label="b")
    extended = [
        reference_extend_matches(graph, shard, extension) for shard in shards
    ]
    locations = _pivot_locations(extended, 0)
    assert all(len(where) == 1 for where in locations.values())
    # union equals from-scratch matching of the extended pattern
    big = Pattern(["a", "b"], [(0, 1, "e")])
    merged = {match for shard in extended for match in shard}
    assert merged == set(find_matches(graph, big))

