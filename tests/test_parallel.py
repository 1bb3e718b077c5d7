"""Tests for the worker count, balancing, ParDis, ParCover and the exact
per-worker work they report."""

from __future__ import annotations

import hashlib
import random
from dataclasses import replace

import numpy as np
import pytest

from repro.core import (
    DiscoveryConfig,
    MatchTable,
    discover,
    gfd_identity,
    sequential_cover,
)
from repro.datasets import dbpedia_like, imdb_like, yago2_like
from repro.gfd import FALSE, GFD, ConstantLiteral, implication, implies
from repro.gfd.implication import ImplicationChecker
from repro.parallel import (
    ParallelDiscovery,
    assign_units_lpt,
    is_skewed,
    parallel_cover,
    parallel_cover_ungrouped,
    rebalance_pivot_group_arrays,
)
from repro.parallel.backend import ShardWorker, make_backend
from repro.parallel import parcover
from repro.parallel.parcover import _group_sigma
from repro.pattern import Pattern, embedding
from repro.pattern.embedding import is_embedded
from repro.pattern.incremental import apply_extension, extend_matches
from repro.pattern.matcher import match_array
from repro.pattern.pattern import WILDCARD


class TestCluster:
    """The ``n`` workers a parallel run gets."""

    def test_invalid_worker_count(self, film_graph, film_config):
        for backend in ("serial", "multiprocess"):
            with pytest.raises(ValueError, match="num_workers must be >= 1"):
                make_backend(backend, 0, film_graph, film_graph.index())
            with pytest.raises(ValueError, match="num_workers must be >= 1"):
                ParallelDiscovery(
                    film_graph, film_config, num_workers=0, backend=backend
                ).run()


class TestBalancer:
    def test_is_skewed(self):
        assert is_skewed([100, 1, 1, 1])
        assert not is_skewed([10, 10, 10, 10])
        assert not is_skewed([])
        assert not is_skewed([0, 0])

    def test_rebalance_pivot_groups_keeps_groups_together(self):
        # (pivot, payload) rows; the pivot is column 0
        rows = np.array(
            [(p, i) for p in range(6) for i in range(10)], dtype=np.int64
        )  # 60 matches
        empty = np.empty((0, 2), dtype=np.int64)
        balanced = rebalance_pivot_group_arrays([rows, empty, empty], 0)
        # every pivot's matches stay on one shard
        location = {}
        for worker, shard in enumerate(balanced):
            assert shard.dtype == np.int64 and shard.shape[1] == 2
            for pivot in shard[:, 0].tolist():
                location.setdefault(pivot, set()).add(worker)
        assert all(len(workers) == 1 for workers in location.values())
        sizes = [int(shard.shape[0]) for shard in balanced]
        assert sorted(sizes) != [0, 0, 60] and sum(sizes) == 60

    def test_lpt_assignment(self):
        assignment = assign_units_lpt([5, 3, 3, 2, 2, 1], 2)
        loads = [
            sum([5, 3, 3, 2, 2, 1][unit] for unit in units)
            for units in assignment
        ]
        assert abs(loads[0] - loads[1]) <= 2

    def test_lpt_all_assigned(self):
        assignment = assign_units_lpt([1.0] * 7, 3)
        assigned = sorted(unit for units in assignment for unit in units)
        assert assigned == list(range(7))


class TestParDisParity:
    def test_results_equal_sequential(self, film_graph, film_config):
        sequential = discover(film_graph, film_config)
        runner = ParallelDiscovery(film_graph, film_config, num_workers=4)
        parallel = runner.run()
        assert {gfd_identity(g) for g in sequential.gfds} == {
            gfd_identity(g) for g in parallel.gfds
        }
        parallel_supports = {
            gfd_identity(g): parallel.supports[g] for g in parallel.gfds
        }
        for gfd in sequential.gfds:
            assert parallel_supports[gfd_identity(gfd)] == sequential.supports[gfd]
        assert runner.work.supersteps > 0

    def test_parity_on_kb(self, yago_small, yago_config):
        sequential = discover(yago_small, yago_config)
        parallel = ParallelDiscovery(yago_small, yago_config, num_workers=3).run()
        assert {gfd_identity(g) for g in sequential.gfds} == {
            gfd_identity(g) for g in parallel.gfds
        }

    def test_parity_without_balancing(self, film_graph, film_config):
        sequential = discover(film_graph, film_config)
        parallel = ParallelDiscovery(
            film_graph, film_config, num_workers=4, balance=False
        ).run()
        assert {gfd_identity(g) for g in sequential.gfds} == {
            gfd_identity(g) for g in parallel.gfds
        }

    def test_parity_across_worker_counts(self, film_graph, film_config):
        def identities(workers):
            runner = ParallelDiscovery(film_graph, film_config, workers)
            return {gfd_identity(g) for g in runner.run().gfds}

        baseline = identities(2)
        for workers in (3, 5):
            assert identities(workers) == baseline

    def test_cluster_accounting_positive(self, film_graph, film_config):
        """Every worker runs ops and installs and joins rows; the work is
        spread, not piled on one worker."""
        runner = ParallelDiscovery(film_graph, film_config, num_workers=4)
        runner.run()
        work = runner.work
        assert work.supersteps > 0
        assert all(ops > 0 for ops in work.ops)
        assert all(rows > 0 for rows in work.rows_installed)
        assert all(rows > 0 for rows in work.rows_joined)
        assert max(work.rows_installed) < sum(work.rows_installed)


class TestParCover:
    def make_sigma(self):
        pattern = Pattern(["person", "product"], [(0, 1, "create")], pivot=0)
        base = GFD(
            pattern,
            frozenset({ConstantLiteral(1, "type", "film")}),
            ConstantLiteral(0, "type", "producer"),
        )
        weaker = GFD(
            pattern,
            frozenset(
                {
                    ConstantLiteral(1, "type", "film"),
                    ConstantLiteral(1, "year", 2000),
                }
            ),
            ConstantLiteral(0, "type", "producer"),
        )
        bigger_pattern = pattern.with_new_node("award", 1, True, "receive")
        extended = GFD(
            bigger_pattern,
            frozenset({ConstantLiteral(1, "type", "film")}),
            ConstantLiteral(0, "type", "producer"),
        )
        other = GFD(
            Pattern(["city", "country"], [(0, 1, "located")], pivot=0),
            frozenset(),
            ConstantLiteral(1, "kind", "place"),
        )
        return [base, weaker, extended, other]

    def test_grouped_cover_equivalent(self, cover_backend):
        sigma = self.make_sigma()
        backend = cover_backend(2)
        result = parallel_cover(sigma, backend)
        for removed in result.removed:
            assert implies(result.cover, removed)
        assert len(result.cover) == 2  # base + other survive
        assert backend.work.supersteps == 1
        assert sum(backend.work.implication_units) > 0

    def test_ungrouped_cover_equivalent(self, cover_backend):
        sigma = self.make_sigma()
        result = parallel_cover_ungrouped(sigma, cover_backend(2))
        for removed in result.removed:
            assert implies(result.cover, removed)
        assert len(result.cover) == 2

    def test_mutual_implication_keeps_one(self, cover_backend):
        """Pivot variants imply each other; the cover must keep exactly one."""
        pattern = Pattern(["a", "b"], [(0, 1, "e")], pivot=0)
        gfd_x = GFD(pattern, frozenset(), ConstantLiteral(0, "v", 1))
        gfd_y = GFD(pattern.with_pivot(1), frozenset(), ConstantLiteral(0, "v", 1))
        for compute in (
            lambda s: parallel_cover(s, cover_backend(2)),
            lambda s: parallel_cover_ungrouped(s, cover_backend(2)),
            sequential_cover,
        ):
            result = compute([gfd_x, gfd_y])
            assert len(result.cover) == 1

    def test_matches_sequential_on_discovered(
        self, film_graph, film_config, cover_backend
    ):
        discovered = discover(film_graph, film_config)
        seq = sequential_cover(discovered.gfds)
        par = parallel_cover(discovered.gfds, cover_backend(3))
        # both covers are equivalent to Σ (sizes may differ by tie-breaks;
        # here the scan orders coincide, so compare sets)
        assert {gfd_identity(g) for g in par.cover} == {
            gfd_identity(g) for g in seq.cover
        }

    def test_empty_sigma(self, cover_backend):
        result = parallel_cover([], cover_backend(2))
        assert result.cover == []

    def test_grouping_needs_fewer_implication_units(self, cover_backend):
        """Lemma 6 in exact counts: a grouped unit checks its rules against
        the embedded set only, a ``ParCovern`` test against the whole Σ."""
        sigma = self.make_sigma()
        grouped, ungrouped = cover_backend(2), cover_backend(2)
        parallel_cover(sigma, grouped)
        parallel_cover_ungrouped(sigma, ungrouped)
        # groups {base, weaker} (embedded: themselves), {extended}
        # (embedded: base, weaker, itself), {other}: 2·2 + 1·3 + 1·1
        assert sum(grouped.work.implication_units) == 8
        # four leave-one-out tests against the 4 rules of Σ
        assert sum(ungrouped.work.implication_units) == 16
        assert ungrouped.work.implication_units == [8, 8]


# ----------------------------------------------------------------------
# VSpawn: a closing child the tally fixes as a leaf is never joined
# ----------------------------------------------------------------------
def _kb_fixture(name):
    if name == "yago":
        return yago2_like(scale=0.35, seed=7), 25
    if name == "dbpedia":
        return dbpedia_like(scale=0.3, seed=7), 40
    return imdb_like(scale=0.3, seed=7), 40


KB_FIXTURES = ["yago", "dbpedia", "imdb"]


class TestPerWorkerWork:
    """Parallel scalability in exact counts (Theorem 5): as workers are
    added, the largest per-worker share of the installed and joined rows
    falls while the total stays put."""

    #: ``{fixture: {n: (max installed, total installed, max joined,
    #: total joined)}}`` at k = 3, σ of the fixture, |X| <= 1.
    PINNED = {
        "yago": {
            1: (25255, 25255, 24793, 24793),
            2: (12654, 25255, 12423, 24793),
            4: (6604, 25255, 6489, 24793),
        },
        "dbpedia": {
            1: (76087, 76087, 75667, 75667),
            2: (40195, 76087, 39985, 75667),
            4: (20250, 76087, 20145, 75667),
        },
        "imdb": {
            1: (13583, 13583, 13223, 13223),
            2: (6809, 13583, 6629, 13223),
            4: (3496, 13583, 3406, 13223),
        },
    }

    @pytest.mark.parametrize("name", KB_FIXTURES)
    def test_max_rows_per_worker_fall_with_n(self, name):
        graph, sigma = _kb_fixture(name)
        config = DiscoveryConfig(k=3, sigma=sigma, max_lhs_size=1)
        counts = {}
        for workers in (1, 2, 4):
            runner = ParallelDiscovery(
                graph, config, num_workers=workers, backend="serial"
            )
            runner.run()
            work = runner.work
            counts[workers] = (
                max(work.rows_installed), sum(work.rows_installed),
                max(work.rows_joined), sum(work.rows_joined),
            )
        assert counts == self.PINNED[name]
        maxima = [counts[workers] for workers in (1, 2, 4)]
        for fewer, more in zip(maxima, maxima[1:]):
            assert more[0] < fewer[0] and more[2] < fewer[2]
            assert more[1] == fewer[1] and more[3] == fewer[3]


class _RecordingDiscovery(ParallelDiscovery):
    """Records every child ``_leaf_support`` lets skip the join, and every
    child it sends to the join with its parent's merged tally."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.skipped = []
        self.joined = []
        self._current_parent = None

    def _extensions_from_tallies(self, parent, merged):
        self._current_parent = parent
        return super()._extensions_from_tallies(parent, merged)

    def _leaf_support(self, merged, extension):
        support = super()._leaf_support(merged, extension)
        parent = self._current_parent.pattern
        if support is not None:
            self.skipped.append((parent, extension, support))
        else:
            self.joined.append((parent, extension, merged))
        return support


class _CountingBackend:
    """Counts the ops a borrowed serial backend is asked to run."""

    def __init__(self, graph, num_workers):
        self.backend = make_backend("serial", num_workers, graph, graph.index())
        self.ops = {}
        inner = self.backend.run_superstep

        def run_superstep(requests):
            for _, op, _, _ in requests:
                self.ops[op] = self.ops.get(op, 0) + 1
            return inner(requests)

        self.backend.run_superstep = run_superstep


class TestTallyFixedLeaves:
    @pytest.mark.parametrize("backend", ["serial", "multiprocess"])
    @pytest.mark.parametrize("name", KB_FIXTURES)
    def test_tally_support_equals_join_support(self, name, backend):
        """Every skipped child's tally support is what the join would count."""
        graph, sigma = _kb_fixture(name)
        config = DiscoveryConfig(k=3, sigma=sigma, max_lhs_size=1)
        engine = _RecordingDiscovery(
            graph, config, num_workers=2, backend=backend
        )
        result = engine.run()
        assert engine.skipped, "the fixture must exercise the shortcut"
        assert any(support > 0 for _, _, support in engine.skipped)
        index = graph.index()
        for parent, extension, support in engine.skipped:
            joined = extend_matches(
                graph, match_array(index, parent), extension,
                index=index,
            )
            assert support == np.unique(joined[:, parent.pivot]).size
            assert support < sigma
        # and the parallel engine still agrees with the sequential oracle
        sequential = discover(graph, config)
        assert {gfd_identity(g): result.supports[g] for g in result.gfds} == {
            gfd_identity(g): sequential.supports[g] for g in sequential.gfds
        }
        assert result.stats.patterns_zero_support == (
            sequential.stats.patterns_zero_support
        )

    @pytest.mark.parametrize("name", KB_FIXTURES)
    def test_every_joined_child_is_frequent(self, name):
        """No infrequent child is ever joined, so a new-node leaf needs no
        tally shortcut: a concrete-label new-node child's support *is* its
        merged tally count, and only counts ≥ σ spawn such a child."""
        graph, sigma = _kb_fixture(name)
        config = DiscoveryConfig(k=3, sigma=sigma, max_lhs_size=1)
        engine = _RecordingDiscovery(graph, config, num_workers=2)
        result = engine.run()
        new_node = 0
        for parent, extension, merged in engine.joined:
            node = result.tree.find(apply_extension(parent, extension))
            assert node.support >= sigma
            if not extension.is_closing and extension.new_node_label != WILDCARD:
                key = (
                    extension.src, extension.outward,
                    extension.edge_label, extension.new_node_label,
                )
                assert node.support == merged.new_node[key]
                new_node += 1
        assert new_node, "the fixture must join new-node children"

    @pytest.mark.parametrize("name", KB_FIXTURES)
    def test_only_mined_patterns_are_installed(self, name):
        """No join/install for an unmined child; no master-side table."""
        graph, sigma = _kb_fixture(name)
        config = DiscoveryConfig(k=3, sigma=sigma, max_lhs_size=1)
        counting = _CountingBackend(graph, num_workers=2)
        engine = _RecordingDiscovery(graph, config, backend=counting.backend)
        result = engine.run()
        nodes = result.tree.all_nodes()
        mined = [node for node in nodes if node.support >= sigma]
        assert len(mined) < len(nodes)
        assert counting.ops["install"] == len(mined) * 2
        assert all(node.table is None for node in nodes)
        # the skipped children are exactly the nodes that were never joined
        assert len(engine.skipped) == len(nodes) - len(mined)

    def test_unpruned_run_skips_only_zero_support_children(self, film_graph, film_config):
        """Without pruning an infrequent child is still mined, so joined."""
        config = replace(film_config, prune=False, sigma=70)
        engine = _RecordingDiscovery(film_graph, config, num_workers=2)
        result = engine.run()
        assert all(support == 0 for _, _, support in engine.skipped)
        sequential = discover(film_graph, config)
        assert {gfd_identity(g) for g in result.gfds} == {
            gfd_identity(g) for g in sequential.gfds
        }


# ----------------------------------------------------------------------
# HSpawn: the worker lattice runs on row bitsets, never on numpy masks
# ----------------------------------------------------------------------
class TestHSpawnOnBitsets:
    @pytest.mark.parametrize("name", KB_FIXTURES)
    def test_worker_lattice_builds_no_numpy_mask(self, name, monkeypatch):
        """``scan`` / ``eval`` / ``probe`` never call ``literal_mask``.

        Exact counts over a whole serial-backend ``ParDis`` run: zero
        ``MatchTable.literal_mask`` calls and untouched mask-cache counters
        on every worker table the three ops read — while Σ and the supports
        still equal ``SeqDis``'s, whose lattice *is* those numpy masks.
        """
        graph, sigma = _kb_fixture(name)
        config = DiscoveryConfig(k=2, sigma=sigma)  # two lattice depths, negatives
        mask_calls, ops, touched = [], {}, {}

        def recording(op):
            original = getattr(ShardWorker, op)

            def run(worker, key, payload):
                table = worker.tables[key]
                touched[id(table)] = table
                ops[op] = ops.get(op, 0) + 1
                return original(worker, key, payload)

            return run

        original_mask = MatchTable.literal_mask

        def literal_mask(table, literal):
            mask_calls.append(literal)
            return original_mask(table, literal)

        with monkeypatch.context() as patch:
            patch.setattr(MatchTable, "literal_mask", literal_mask)
            for op in ("op_scan", "op_eval", "op_probe"):
                patch.setattr(ShardWorker, op, recording(op))
            result = ParallelDiscovery(
                graph, config, num_workers=2, backend="serial"
            ).run()
        assert set(ops) == {"op_scan", "op_eval", "op_probe"}
        assert mask_calls == []
        assert touched
        for table in touched.values():
            assert (table.mask_cache_misses, table.mask_cache_hits) == (0, 0)
        sequential = discover(graph, config)
        assert sequential.gfds and any(g.rhs is FALSE for g in sequential.gfds)
        assert {gfd_identity(g): result.supports[g] for g in result.gfds} == {
            gfd_identity(g): sequential.supports[g] for g in sequential.gfds
        }


# ----------------------------------------------------------------------
# ParCover: Σ̄_Q is decided per distinct pattern, not per rule
# ----------------------------------------------------------------------
def _reference_removed(sigma):
    """``ParCover``'s removed indices the slow way: per-rule embedding
    tests and the functional ``implies`` over explicitly reduced lists."""
    removed_all = set()
    groups = _group_sigma(sigma)
    for key in sorted(groups):
        group = groups[key]
        representative = sigma[group[0]].pattern
        embedded = [
            index
            for index, gfd in enumerate(sigma)
            if index in group
            or is_embedded(gfd.pattern, representative, pivot_preserving=False)
        ]
        removed = set()
        ordered = sorted(
            group,
            key=lambda index: (
                -sigma[index].pattern.num_edges,
                -len(sigma[index].lhs),
                str(sigma[index]),
            ),
        )
        for index in ordered:
            context = [
                sigma[other]
                for other in embedded
                if other != index and other not in removed
            ]
            if implies(context, sigma[index]):
                removed.add(index)
        removed_all |= removed
    return removed_all


class TestParCoverPerPattern:
    #: (|Σ|, |removed|, sha1 of the removed Σ-indices) as computed by the
    #: per-rule filter this replaced; the indices are positions in
    #: ``discover()``'s rule order (ParDis's node-major emission order)
    PINNED = {
        "yago": (527, 404, "33e979f119be"),
        "dbpedia": (777, 546, "c3207085308b"),
        "imdb": (163, 84, "879e15579e69"),
    }

    @staticmethod
    def _sigma(name):
        graph, sigma = _kb_fixture(name)
        return discover(
            graph, DiscoveryConfig(k=3, sigma=sigma, max_lhs_size=1)
        ).gfds

    @pytest.mark.parametrize("name", KB_FIXTURES)
    def test_cover_differential(self, name, cover_backend):
        sigma = self._sigma(name)
        result = parallel_cover(sigma, cover_backend(2))
        position = {id(gfd): index for index, gfd in enumerate(sigma)}
        removed = sorted(position[id(gfd)] for gfd in result.removed)
        assert set(removed) == _reference_removed(sigma)
        digest = hashlib.sha1(repr(removed).encode()).hexdigest()[:12]
        assert (len(sigma), len(removed), digest) == self.PINNED[name]
        assert result.implication_tests == len(sigma)
        # SeqCover scans globally instead of per group, so tie-breaks may
        # differ — but both covers must be equivalent to Σ
        sequential = sequential_cover(sigma)
        for gfd in sequential.removed:
            assert implies(result.cover, gfd)
        for gfd in result.removed:
            assert implies(sequential.cover, gfd)

    @pytest.mark.parametrize("name", KB_FIXTURES)
    def test_checker_exclude_equals_functional_implies(self, name):
        sigma = self._sigma(name)[:160]
        checker = ImplicationChecker(sigma)
        rng = random.Random(5)
        for _ in range(60):
            index = rng.randrange(len(sigma))
            exclude = set(rng.sample(range(len(sigma)), rng.randint(0, 40)))
            exclude.add(index)
            reduced = [g for i, g in enumerate(sigma) if i not in exclude]
            expected = implies(reduced, sigma[index])
            assert checker.implies(sigma[index], exclude=exclude) == expected
            allowed = frozenset(range(len(sigma))) - exclude
            assert checker.implies(sigma[index], allowed=allowed) == expected

    def test_prefilter_runs_per_distinct_pattern(
        self, monkeypatch, cover_backend
    ):
        sigma = self._sigma("dbpedia")
        calls = []

        def counting(pairs, max_results=None):
            pairs = list(pairs)
            calls.append(pairs)
            return embedding.embedding_batch(pairs, max_results)

        # Σ̄_Q on the master and Σ_Q's instantiation on the (serial)
        # workers each hand the kernel one batch of distinct-pattern pairs;
        # the per-rule filter this replaced asked once per rule
        monkeypatch.setattr(parcover, "embedding_batch", counting)
        monkeypatch.setattr(implication, "embedding_batch", counting)
        parallel_cover(sigma, cover_backend(2))
        distinct = {gfd.pattern for gfd in sigma}
        assert len(distinct) < len(sigma)
        assert calls
        for pairs in calls:
            assert 0 < len(pairs) == len(set(pairs)) <= len(distinct) ** 2
            assert all(inner in distinct for inner, _, _ in pairs)
