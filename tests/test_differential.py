"""Randomized differential harness: every engine finds the same GFDs.

The paper's Theorem 5 claims ``ParDis`` changes *time*, never *results*.
This harness generates a seeded population of adversarial graphs (skewed
label distributions, dense attribute columns, multigraph edges, isolated
nodes, self-referential structure) and asserts the one mining engine agrees
exactly with the oracle on every one:

* ``reference_discover`` — ``SeqDis`` over dict adjacency, the oracle,
* ``discover`` — ``ParallelDiscovery`` at ``n = 1`` on the ``serial``
  backend, the paper's ``SeqDis``,
* ``ParallelDiscovery`` on the ``serial`` backend (2–4 workers),
* ``ParallelDiscovery`` on the ``multiprocess`` backend (2–4 real workers
  over shared-memory graph buffers).

Agreement is checked on the canonical-keyed GFD sets, the per-rule support
counts, and the minimal covers.  A second class pins budgeted streaming
discovery to its oracle, the unbudgeted stream's filtered prefix, at one
worker and at several.  A companion class locks down the serving
monitor's union semantics over sharded pivot populations.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.core import DiscoveryConfig, discover, gfd_identity, sequential_cover
from repro.oracle import reference_discover
from repro.datasets import dbpedia_like, imdb_like, yago2_like
from repro.enforce import RuleSketchMonitor
from repro.gfd import format_gfd, implies, parse_gfd
from repro.graph import Graph
from repro.session import Session
from repro.parallel import (
    ParallelDiscovery,
    parallel_cover,
    parallel_cover_ungrouped,
)

#: Number of random graphs in the population (one pytest case each).
NUM_GRAPHS = 30

NODE_LABELS = ["person", "film", "book", "city", "award", "studio"]
EDGE_LABELS = ["create", "like", "live_in", "win", "made_by"]
ATTRS = ["kind", "year", "grade"]


def _random_graph(seed: int) -> Graph:
    """One adversarial random graph, deterministic per seed.

    Varies along the axes the engines disagree on when buggy: label skew
    (Zipf-ish weights stress shard imbalance), dense
    vs sparse attribute columns (stresses the MISSING handling), parallel
    edges between one node pair (multigraph CSR dedup), and isolated nodes
    (empty shards, empty neighborhoods).
    """
    rng = random.Random(seed)
    num_nodes = rng.randint(36, 80)
    num_labels = rng.randint(2, len(NODE_LABELS))
    labels = NODE_LABELS[:num_labels]
    # skewed label choice: weight 1/(rank+1)
    weights = [1.0 / (rank + 1) for rank in range(num_labels)]
    dense_attrs = rng.random() < 0.5
    attr_density = 0.95 if dense_attrs else rng.uniform(0.25, 0.7)
    value_pool = {
        "kind": ["a", "b", "c"][: rng.randint(2, 3)],
        "year": list(range(2000, 2000 + rng.randint(2, 4))),
        "grade": ["x", "y"],
    }

    graph = Graph()
    for _ in range(num_nodes):
        label = rng.choices(labels, weights=weights)[0]
        attrs = {
            attr: rng.choice(value_pool[attr])
            for attr in ATTRS
            if rng.random() < attr_density
        }
        graph.add_node(label, attrs)

    # leave a tail of isolated nodes (no incident edges at all)
    num_isolated = rng.randint(2, 6)
    connectable = list(range(num_nodes - num_isolated))
    num_edges = rng.randint(num_nodes, 3 * num_nodes)
    edge_labels = EDGE_LABELS[: rng.randint(2, len(EDGE_LABELS))]
    for _ in range(num_edges):
        src = rng.choice(connectable)
        dst = rng.choice(connectable)
        if src == dst:
            continue
        graph.add_edge(src, dst, rng.choice(edge_labels))
    # multigraph stress: stack several labels on a few fixed pairs
    for _ in range(rng.randint(1, 5)):
        src = rng.choice(connectable)
        dst = rng.choice(connectable)
        if src == dst:
            continue
        for label in edge_labels:
            graph.add_edge(src, dst, label)
    return graph


def _config(seed: int) -> DiscoveryConfig:
    """Discovery parameters varied (deterministically) with the graph."""
    rng = random.Random(10_000 + seed)
    return DiscoveryConfig(
        k=rng.choice([2, 2, 3]),
        sigma=rng.randint(3, 7),
        max_lhs_size=1,
        active_attributes=list(ATTRS),
        mine_negative=rng.random() < 0.8,
        variable_literals=rng.random() < 0.8,
    )


#: ordered rule identities -> cover identities, for the one rule list last
#: seen: a test fingerprints several engines' (normally equal) outputs in a
#: row, and the quadratic cover oracle is a function of the ordered list.
_cover_memo = {}


def _fingerprint(result):
    """(gfd set, supports, cover) under canonical keys — the parity basis."""
    order = tuple(gfd_identity(g) for g in result.gfds)
    supports = {key: result.supports[g] for key, g in zip(order, result.gfds)}
    cover = _cover_memo.get(order)
    if cover is None:  # an unequal list pays for (and is judged by) its own cover
        _cover_memo.clear()
        cover = _cover_memo[order] = frozenset(
            gfd_identity(g) for g in sequential_cover(result.gfds).cover
        )
    return frozenset(order), supports, cover


class TestDifferentialEngines:
    @pytest.mark.parametrize("seed", range(NUM_GRAPHS))
    def test_engines_agree(self, seed):
        graph = _random_graph(seed)
        config = _config(seed)
        reference = _fingerprint(reference_discover(graph, config))
        assert _fingerprint(discover(graph, config)) == reference, (
            "ParDis(n=1, serial) diverged from the oracle"
        )

        workers = 2 + seed % 3  # 2–4 real processes on multiprocess
        runner = ParallelDiscovery(graph, config, workers, backend="serial")
        assert _fingerprint(runner.run()) == reference, "ParDis(serial) diverged"
        assert runner.work.supersteps > 0

        multiprocess = ParallelDiscovery(
            graph, config, workers, backend="multiprocess"
        ).run()
        assert _fingerprint(multiprocess) == reference, (
            f"ParDis(multiprocess, {workers} workers) diverged"
        )

    def test_values_that_print_alike_rank_alike(self):
        """``1`` and ``"1"`` tie on count and on ``str``: with one constant
        per column every engine must keep the same one.  The ranking breaks
        the tie by type name and ``repr``, not by the order values reached
        a counter — one table's code order on ``SeqDis``, the shards' merge
        order on ``ParDis``."""
        graph = Graph()
        for v, w in [("y", "r"), (1, "p"), ("1", "q"), (1, "p"), ("1", "q")]:
            graph.add_node("A", {"v": v, "w": w})
        config = DiscoveryConfig(
            k=1, sigma=2, max_lhs_size=1, max_constants=1,
            active_attributes=["v", "w"], variable_literals=False,
        )
        reference = _fingerprint(reference_discover(graph, config))
        assert len(reference[0]) == 2  # x.v = 1 → x.w = 'p' and its converse
        assert _fingerprint(discover(graph, config)) == reference
        with Session(graph, config, backend="serial", num_workers=2) as session:
            assert _fingerprint(session.discover()) == reference


def _kb(name):
    """The yago / dbpedia / imdb fixtures at k = 3."""
    if name == "yago":
        graph, sigma = yago2_like(scale=0.35, seed=7), 25
    elif name == "dbpedia":
        graph, sigma = dbpedia_like(scale=0.3, seed=7), 40
    else:
        graph, sigma = imdb_like(scale=0.3, seed=7), 40
    return graph, DiscoveryConfig(k=3, sigma=sigma, max_lhs_size=1)


KB_FIXTURES = ["yago", "dbpedia", "imdb"]
#: ``"all"`` stands for len(Σ) of the unbudgeted stream.
RULE_BUDGETS = [0, 1, 2, 3, 5, 10, 17, "all", None]
LEVEL_BUDGETS = [None, 0, 1, 2]


def _budget_grid(full):
    """``(max_rules, max_levels, expected prefix)`` over the budget grid:
    the unbudgeted stream ``full`` of ``(text, support, edges)`` filtered
    to patterns with at most ``max_levels`` edges, cut to ``max_rules``.
    The unbudgeted pair itself is left out: it is how ``full`` was made."""
    for max_levels in LEVEL_BUDGETS:
        kept = [
            rule for rule in full
            if max_levels is None or rule[2] <= max_levels
        ]
        for max_rules in RULE_BUDGETS:
            if max_rules is None and max_levels is None:
                continue
            if max_rules == "all":
                max_rules = len(full)
            yield max_rules, max_levels, kept[:max_rules]


def _rule(gfd, support):
    return format_gfd(gfd), support, gfd.pattern.num_edges


def _engine_stream(engine, max_rules=None, max_levels=None):
    return [
        _rule(gfd, support)
        for _level, batch in engine.run_iter(max_rules, max_levels)
        for gfd, support in batch
    ]


class _Counting(ParallelDiscovery):
    """ParDis recording the size of every ``_mine_nodes`` call."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.mined = []

    def _mine_nodes(self, nodes):
        self.mined.append(len(nodes))
        super()._mine_nodes(nodes)


class TestBudgetedDiscovery:
    """A budgeted stream is the unbudgeted stream's prefix.

    ``run_iter`` / ``Session.discover_iter`` mine a level in node-order
    prefixes and stop once ``max_rules`` is met; ``max_levels`` stops the
    search after that level.  The oracle is independent of that code: the
    exhausted unbudgeted stream, filtered to patterns with at most
    ``max_levels`` edges and cut to ``max_rules`` — as a list, with equal
    supports.
    """

    @pytest.mark.parametrize("name", KB_FIXTURES)
    def test_session_stream_is_a_prefix(self, name):
        """ParDis on the session backend, with and without a Σ update."""
        graph, config = _kb(name)
        with Session(graph, config, num_workers=2) as session:
            list(session.discover_iter())
            full = [_rule(gfd, session.supports[gfd]) for gfd in session.sigma]
            for max_rules, max_levels, expected in _budget_grid(full):
                budgets = {"max_rules": max_rules, "max_levels": max_levels}
                served = session.discover_iter(update_sigma=False, **budgets)
                assert [format_gfd(gfd) for gfd in served] == [
                    text for text, _, _ in expected
                ], budgets
                # Σ := the yielded rules, with their supports
                list(session.discover_iter(**budgets))
                assert [
                    _rule(gfd, session.supports[gfd]) for gfd in session.sigma
                ] == expected, budgets

    @pytest.mark.parametrize("name", KB_FIXTURES)
    def test_sequential_stream_is_a_prefix(self, name):
        """ParDis at ``n = 1`` on the ``serial`` backend (``SeqDis``)."""
        graph, config = _kb(name)

        def sequential():
            return ParallelDiscovery(graph, config, 1, backend="serial")

        full = _engine_stream(sequential())
        for max_rules, max_levels, expected in _budget_grid(full):
            streamed = _engine_stream(sequential(), max_rules, max_levels)
            assert streamed == expected, (max_rules, max_levels)

    @pytest.mark.parametrize("num_workers", [1, 4])
    def test_budget_mines_doubling_prefixes(self, num_workers):
        """Exact counts on the imdb fixture: ``run()`` mines each level in
        one ``_mine_nodes`` call; a 10-rule budget mines levels in
        node-order prefixes of 1, 1, 2, 4, … patterns, stops inside a level,
        and checks strictly fewer candidates."""
        graph, config = _kb("imdb")
        full = _Counting(graph, config, num_workers)
        result = full.run()
        assert full.mined == [
            len(result.tree.level(i))
            for i in range(1 + max(node.level for node in result.tree.all_nodes()))
        ] == [2, 10, 35, 56]

        budgeted = _Counting(graph, config, num_workers)
        assert len(_engine_stream(budgeted, max_rules=10)) == 10
        # level 0's two patterns one at a time, then 8 of level 1's 10
        assert budgeted.mined == [1, 1, 1, 1, 2, 4]
        checked = budgeted.stats.candidates_checked
        assert 0 < checked < full.stats.candidates_checked


class TestParCoverDifferential:
    """``ParCover``/``ParCovern`` sharded over real worker processes.

    The cover phase runs on the same ``ShardWorker`` op layer as discovery:
    workers receive ``Σ`` once plus unit manifests, and return removed
    indices (grouped) or implication verdicts (ungrouped).  Since unit
    checks are deterministic and independent, the computed cover must be
    *byte-identical* — same GFDs in the same order — across backends and
    worker counts.
    """

    def _sigma(self, seed):
        graph = _random_graph(seed)
        return discover(graph, _config(seed)).gfds

    @pytest.mark.parametrize("seed", [0, 7, 19])
    def test_grouped_cover_identical_across_backends(self, seed, cover_backend):
        sigma = self._sigma(seed)
        reference = parallel_cover(sigma, cover_backend(2))
        for workers in (2, 3, 4):
            serial_pool = cover_backend(workers)
            serial = parallel_cover(sigma, serial_pool)
            pool = cover_backend(workers, "multiprocess")
            multiprocess = parallel_cover(sigma, pool)
            pool.shutdown()  # one live pool set at a time
            for result in (serial, multiprocess):
                assert result.cover == reference.cover
                assert result.removed == reference.removed
                assert result.implication_tests == reference.implication_tests
            # the same units land on the same workers on either backend
            assert serial_pool.work == pool.work
        # the cover is sound: every removed GFD is implied by the survivors
        for removed in reference.removed:
            assert implies(reference.cover, removed)

    @pytest.mark.parametrize("seed", [3, 11])
    def test_ungrouped_cover_identical_across_backends(
        self, seed, cover_backend
    ):
        sigma = self._sigma(seed)
        reference = parallel_cover_ungrouped(sigma, cover_backend(2))
        for workers, backend in ((2, "multiprocess"), (4, "multiprocess"),
                                 (3, "serial")):
            pool = cover_backend(workers, backend)
            result = parallel_cover_ungrouped(sigma, pool)
            pool.shutdown()  # one live pool set at a time
            assert result.cover == reference.cover
            assert result.removed == reference.removed

    def test_cover_equivalent_to_sequential(self, cover_backend):
        """Both parallel variants agree with ``SeqCover`` on identity sets."""
        sigma = self._sigma(5)
        sequential = {
            gfd_identity(g) for g in sequential_cover(sigma).cover
        }
        backend = cover_backend(3, "multiprocess")
        for compute in (parallel_cover, parallel_cover_ungrouped):
            result = compute(sigma, backend)
            assert {gfd_identity(g) for g in result.cover} == sequential

    def test_sigma_ships_once_and_no_match_rows(self, cover_backend):
        """The cover phase broadcasts Σ and exchanges scalars otherwise."""
        sigma = self._sigma(0)
        backend = cover_backend(3, "multiprocess")
        result = parallel_cover(sigma, backend)
        # Σ rides the work units' superstep: one round in all
        assert backend.work.supersteps == 1
        assert backend.transfers.sigma_rules == 3 * len(sigma)
        assert backend.transfers.rows_to_workers == 0
        assert backend.transfers.rows_to_master == 0
        reference = parallel_cover(sigma, cover_backend(3))
        assert result.cover == reference.cover


class TestSketchMergeSemantics:
    """The :class:`~repro.enforce.monitor.RuleSketchMonitor` fed per-worker
    shards, one ``absorb`` each.

    Shards may be pivot-disjoint, but the count must not depend on that:
    it is the exact union for arbitrary overlap and absorb order.
    """

    RULE = parse_gfd('Q[x] { (x:person) } ( -> x.type="actor")')

    def _shard(self, values: np.ndarray, num_workers: int):
        return [values[values % num_workers == w] for w in range(num_workers)]

    @pytest.mark.parametrize("seed", range(8))
    def test_merged_upper_bound_covers_exact_union(self, seed):
        rng = np.random.default_rng(seed)
        values = rng.integers(0, 5_000, size=rng.integers(10, 20_000))
        exact = len(set(values.tolist()))
        for num_workers in (2, 3, 5):
            merged = RuleSketchMonitor()
            for shard in self._shard(values, num_workers):
                merged.absorb(self.RULE, shard)
            assert merged.estimate(self.RULE) == exact

    def test_merge_equals_single_sketch(self):
        """Overlapping shards absorbed one by one == one absorb of all."""
        rng = np.random.default_rng(42)
        values = rng.integers(0, 100_000, size=50_000)
        single = RuleSketchMonitor()
        single.absorb(self.RULE, values)
        merged = RuleSketchMonitor()
        # overlapping shards: every worker also re-sees a common chunk
        common = values[:5_000]
        for shard in self._shard(values, 4)[::-1]:
            merged.absorb(self.RULE, np.concatenate([shard, common]))
        assert merged.as_state()["rules"] == single.as_state()["rules"]
