"""Property tests for the pivot-disjoint sharding invariants of ParDis.

The parallel algorithm's integer-sum support aggregation is sound only if
every pivot's matches live on exactly one worker; these tests pin that
invariant through seeding, incremental joins and rebalancing.
"""

from __future__ import annotations

import random

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import Graph
from repro.parallel import rebalance_pivot_group_arrays
from repro.pattern import Extension, Pattern, extend_matches, find_matches


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
        extend_matches(graph, shard, extension) for shard in shards
    ]
    locations = _pivot_locations(extended, 0)
    assert all(len(where) == 1 for where in locations.values())
    # union equals from-scratch matching of the extended pattern
    big = Pattern(["a", "b"], [(0, 1, "e")])
    merged = {match for shard in extended for match in shard}
    assert merged == set(find_matches(graph, big))


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_rebalance_keeps_disjointness_and_items(seed):
    rng = random.Random(seed)
    workers = rng.randint(2, 5)
    rows = [[] for _ in range(workers)]
    for pivot in range(rng.randint(1, 12)):
        worker = rng.randrange(workers)
        rows[worker].extend((pivot, item) for item in range(rng.randint(1, 10)))
    shards = [np.array(r, dtype=np.int64).reshape(-1, 2) for r in rows]
    balanced = rebalance_pivot_group_arrays(shards, 0)
    locations = _pivot_locations(
        [shard.tolist() for shard in balanced], 0
    )
    assert all(len(where) == 1 for where in locations.values())
    # the same rows, regrouped: nothing lost, duplicated or rewritten
    assert sorted(map(tuple, np.concatenate(balanced).tolist())) == sorted(
        map(tuple, np.concatenate(shards).tolist())
    )
