"""Execution-backend tests: shared-memory lifecycle, skew rebalancing, the cap.

Covers the multiprocess plumbing the differential harness treats as a black
box: buffer export/attach round trips, stale-index export refusal, segment
cleanup after shutdown (name probing — an unlinked segment must not be
re-attachable), the typed failure on a platform without shared memory, the
one skew-rebalance route (fetch through the master) with its exact ledger,
and the per-shard ``max_matches_per_pattern`` enforcement that keeps both
engines in agreement when the cap binds.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import DiscoveryConfig, discover, gfd_identity
from repro.core.discovery import reference_discover
from repro.graph import Graph
from repro.graph.index import GraphIndex
from repro.parallel import (
    MultiprocessBackend,
    ParallelDiscovery,
    SerialBackend,
    SharedIndexBuffers,
    make_backend,
    shared_memory_available,
)

pytestmark = pytest.mark.skipif(
    not shared_memory_available(), reason="platform lacks shared memory"
)


def _probe_segment(name: str):
    """Attach an existing segment by name (caller closes)."""
    from multiprocessing import shared_memory

    return shared_memory.SharedMemory(name=name)


def small_graph() -> Graph:
    graph = Graph()
    people = [
        graph.add_node("person", {"kind": "a" if i % 2 else "b", "year": 2000 + i % 3})
        for i in range(24)
    ]
    cities = [graph.add_node("city", {"kind": "c"}) for _ in range(8)]
    for i, person in enumerate(people):
        graph.add_edge(person, cities[i % len(cities)], "live_in")
        graph.add_edge(person, people[(i + 1) % len(people)], "like")
    return graph


def small_config(**overrides) -> DiscoveryConfig:
    defaults = dict(
        k=2, sigma=4, max_lhs_size=1, active_attributes=["kind", "year"]
    )
    defaults.update(overrides)
    return DiscoveryConfig(**defaults)


class TestBufferExport:
    def test_round_trip_preserves_arrays(self):
        graph = small_graph()
        index = graph.index()
        meta, arrays = index.export_buffers()
        rebuilt = GraphIndex.from_buffers(meta, arrays)
        assert rebuilt.detached and rebuilt.is_fresh()
        assert rebuilt.num_nodes == index.num_nodes
        assert rebuilt.num_edges == index.num_edges
        np.testing.assert_array_equal(
            rebuilt.node_label_codes, index.node_label_codes
        )
        np.testing.assert_array_equal(rebuilt.out_indptr, index.out_indptr)
        np.testing.assert_array_equal(
            rebuilt.nodes_with_label("person"), index.nodes_with_label("person")
        )
        for attr in index.attr_names:
            np.testing.assert_array_equal(
                rebuilt.attr_code_array(attr), index.attr_code_array(attr)
            )
        # value interning survives (code 0 re-anchors on this process's
        # MISSING sentinel)
        assert rebuilt.code_of_value == index.code_of_value
        # statistics compute detached (no backing graph needed)
        assert (
            rebuilt.statistics().edge_label_counts
            == index.statistics().edge_label_counts
        )
        assert (
            rebuilt.statistics().node_label_counts
            == index.statistics().node_label_counts
        )

    def test_stale_index_export_raises(self):
        graph = small_graph()
        index = graph.index()
        graph.add_node("person", {})
        assert not index.is_fresh()
        with pytest.raises(RuntimeError, match="stale"):
            index.export_buffers()

    def test_shared_buffers_attach_by_name_then_unlink(self):
        graph = small_graph()
        buffers = SharedIndexBuffers(graph.index())
        name = buffers.name
        probe = _probe_segment(name)  # attachable while alive
        probe.close()
        buffers.close()
        with pytest.raises(FileNotFoundError):
            _probe_segment(name)
        buffers.close()  # idempotent


class TestBackendLifecycle:
    def test_shutdown_unlinks_segment(self):
        graph = small_graph()
        index = graph.index()
        backend = MultiprocessBackend(2, index)
        name = backend.shm_name
        assert name is not None
        probe = _probe_segment(name)
        probe.close()
        backend.shutdown()
        with pytest.raises(FileNotFoundError):
            _probe_segment(name)
        backend.shutdown()  # idempotent

    def test_engine_run_leaves_no_segment(self):
        graph = small_graph()
        config = small_config(parallel_backend="multiprocess")
        engine = ParallelDiscovery(graph, config, num_workers=2)
        tracked = {}
        original = SharedIndexBuffers.__init__

        def spy(self, index):
            original(self, index)
            tracked["name"] = self.name

        SharedIndexBuffers.__init__ = spy
        try:
            engine.run()
        finally:
            SharedIndexBuffers.__init__ = original
        assert "name" in tracked
        with pytest.raises(FileNotFoundError):
            _probe_segment(tracked["name"])

    def test_missing_shared_memory_fails_before_any_pool(self, monkeypatch):
        """No ``multiprocessing.shared_memory``: a typed error at
        construction — no worker pool, no segment, no silent fallback."""
        from repro.parallel import backend as backend_module
        from repro.parallel import janitor

        graph = small_graph()
        index = graph.index()
        pools = []
        original_pool = backend_module.ProcessPoolExecutor

        def counting_pool(*args, **kwargs):
            pools.append(1)
            return original_pool(*args, **kwargs)

        monkeypatch.setattr(backend_module, "_shared_memory", None)
        monkeypatch.setattr(
            backend_module, "ProcessPoolExecutor", counting_pool
        )
        segments_before = janitor.live_segments()
        mappings_before = len(janitor.live_mappings())
        with pytest.raises(RuntimeError, match="multiprocessing.shared_memory"):
            make_backend("multiprocess", 2, graph, index)
        assert pools == []
        assert janitor.live_segments() == segments_before
        assert len(janitor.live_mappings()) == mappings_before

    def test_external_backend_reused_across_runs(self):
        graph = small_graph()
        config = small_config()
        reference = {gfd_identity(g) for g in discover(graph, config).gfds}
        backend = make_backend("multiprocess", 2, graph, graph.index())
        try:
            for _ in range(2):
                result = ParallelDiscovery(graph, config, backend=backend).run()
                assert {gfd_identity(g) for g in result.gfds} == reference
        finally:
            backend.shutdown()

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="parallel_backend"):
            small_config(parallel_backend="ray")
        graph = small_graph()
        with pytest.raises(ValueError, match="unknown parallel backend"):
            ParallelDiscovery(
                graph, small_config(), num_workers=2, backend="ray"
            )

    def test_default_backend_follows_config_and_env(self):
        import os

        expected = os.environ.get("REPRO_PARALLEL_BACKEND", "serial")
        engine = ParallelDiscovery(small_graph(), small_config(), num_workers=2)
        assert engine.backend_name == expected
        pinned = ParallelDiscovery(
            small_graph(),
            small_config(parallel_backend="serial"),
            num_workers=2,
        )
        assert pinned.backend_name == "serial"
        assert isinstance(
            make_backend("serial", 2, None, None), SerialBackend
        )


class TestMatchCapAgreement:
    """``max_matches_per_pattern`` per-shard enforcement (both engines)."""

    def _engines(self, graph, config):
        runs = {"seq": discover(graph, config)}
        for backend in ("serial", "multiprocess"):
            runs[backend] = ParallelDiscovery(
                graph, config, 3, backend=backend
            ).run()
        return runs

    def test_engines_agree_when_cap_binds(self):
        graph = small_graph()
        config = small_config(max_matches_per_pattern=10)
        runs = self._engines(graph, config)
        fingerprints = {
            name: frozenset(gfd_identity(g) for g in result.gfds)
            for name, result in runs.items()
        }
        assert fingerprints["seq"] == fingerprints["serial"]
        assert fingerprints["seq"] == fingerprints["multiprocess"]
        # the cap did bind: truncated patterns were counted on every engine
        assert runs["seq"].stats.truncated_patterns > 0
        assert runs["serial"].stats.truncated_patterns > 0
        assert runs["multiprocess"].stats.truncated_patterns > 0

    def test_capped_run_is_subset_of_uncapped(self):
        graph = small_graph()
        uncapped = {
            gfd_identity(g)
            for g in discover(graph, small_config()).gfds
        }
        capped_result = discover(
            graph, small_config(max_matches_per_pattern=10)
        )
        capped = {gfd_identity(g) for g in capped_result.gfds}
        # truncation only suppresses rules; it never invents them
        assert capped <= uncapped

    def test_truncated_patterns_are_leaves(self):
        """A truncated pattern spawns no children: on the oracle, whose
        capped tables say so, and on ParDis, whose installs do."""
        graph = small_graph()
        config = small_config(max_matches_per_pattern=10)
        tree = reference_discover(graph, config).tree
        truncated = {
            id(node)
            for node in tree.all_nodes()
            if node.table is not None and node.table.truncated
        }
        assert truncated  # the cap did bind
        for node in tree.all_nodes():
            assert not any(id(parent) in truncated for parent in node.parents)

        class Recording(ParallelDiscovery):
            """ParDis keeping the nodes its installs were told are truncated."""

            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                self.truncated = set()

            def _install_shards_many(self, batch):
                self.truncated.update(
                    id(node) for node, _, capped, _ in batch if capped
                )
                super()._install_shards_many(batch)

        engine = Recording(graph, config, 1, backend="serial")
        tree = engine.run().tree
        assert len(engine.truncated) == engine.stats.truncated_patterns > 0
        for node in tree.all_nodes():
            assert not any(
                id(parent) in engine.truncated for parent in node.parents
            )


def skewed_graph(num_workers: int = 3) -> Graph:
    """Hub pivots colocated on worker 0 so rebalancing must move groups."""
    graph = Graph()
    nodes = []
    for i in range(3 * num_workers):
        if i % num_workers == 0:
            nodes.append(graph.add_node("hub", {"kind": "h"}))
        else:
            nodes.append(graph.add_node("person", {"kind": "a", "year": 2000}))
    hubs = [n for n in nodes if graph.node_label(n) == "hub"]
    people = [
        graph.add_node("person", {"kind": "ab"[i % 2], "year": 2000 + i % 3})
        for i in range(60)
    ]
    for i, person in enumerate(people):
        graph.add_edge(person, hubs[i % len(hubs)], "link")
        if i % 2:
            graph.add_edge(person, people[(i * 7 + 1) % 60], "like")
    return graph


class TestWorkerToWorkerStaging:
    """Rebalanced pivot groups used to be staged worker-to-worker; they now
    go through the master, and an owned backend still leaves nothing behind."""

    def test_no_segment_leak_after_staged_run(self):
        from repro.parallel import janitor

        segments_before = janitor.live_segments()
        graph = skewed_graph()
        config = small_config(k=3, sigma=3, active_attributes=["kind", "year"])
        runner = ParallelDiscovery(
            graph, config, num_workers=3, backend="multiprocess"
        )
        runner.run()  # owned backend: shutdown inside run()
        # the index segment and every per-batch payload segment are gone
        assert runner._backend is None
        assert janitor.live_segments() == segments_before


class TestSkewRebalance:
    """A skewed join is fetched through the master and re-dealt in whole
    pivot groups — the one rebalance route, on every backend."""

    @staticmethod
    def _run(graph, config, backend_name, balance=True):
        """``(rules → supports, transfer ledger, work ledger)`` of one run."""
        backend = make_backend(backend_name, 3, graph, graph.index())
        try:
            runner = ParallelDiscovery(
                graph, config, balance=balance, backend=backend
            )
            result = runner.run()
            ledger = backend.transfers.snapshot()
        finally:
            backend.shutdown()
        supports = {gfd_identity(g): result.supports[g] for g in result.gfds}
        return supports, ledger, runner.work

    def test_rebalance_through_master_matches_serial(self):
        """Same Σ and supports as the serial backend and ``SeqDis``; the
        rebalance fires, the ledger counts exactly its round trip, and the
        serial backend ships the same rows in the same supersteps and gives
        every worker the same work."""
        from repro.parallel import janitor

        segments_before = janitor.live_segments()
        graph = skewed_graph()
        config = small_config(k=3, sigma=3, active_attributes=["kind", "year"])
        reference = discover(graph, config)
        expected = {
            gfd_identity(g): reference.supports[g] for g in reference.gfds
        }
        serial, serial_ledger, serial_work = self._run(graph, config, "serial")
        balanced, ledger, work = self._run(graph, config, "multiprocess")
        assert serial == expected
        assert balanced == expected
        # one join protocol: the serial run parks, fetches and re-deals
        # exactly as the multiprocess run does, op for op and row for row
        assert serial_ledger == ledger
        assert serial_work == work
        assert work.supersteps > 0 and min(work.rows_installed) > 0
        unbalanced, plain, plain_work = self._run(
            graph, config, "multiprocess", balance=False
        )
        assert unbalanced == expected
        # only the rebalance pulls parked rows to the master, and every
        # fetched row is shipped back out exactly once
        assert ledger.rows_to_master > 0
        assert plain.rows_to_master == 0
        assert (
            ledger.rows_to_workers - plain.rows_to_workers
            == ledger.rows_to_master
        )
        # the re-deal moves installed rows between workers, not in or out
        assert sum(work.rows_installed) == sum(plain_work.rows_installed)
        assert work.rows_installed != plain_work.rows_installed
        # every index and payload segment of the three runs is unlinked
        assert janitor.live_segments() == segments_before

    def test_unskewed_run_ships_equal_ledgers(self, yago_small, yago_config):
        """No rebalance fires: no row returns to the master on either
        backend, and both ship the same install rows in as many supersteps."""
        serial, serial_ledger, serial_steps = self._run(
            yago_small, yago_config, "serial"
        )
        parallel, ledger, steps = self._run(
            yago_small, yago_config, "multiprocess"
        )
        assert serial == parallel
        assert ledger.rows_to_master == 0
        assert serial_ledger == ledger
        assert serial_steps == steps


class TestGraphFreeAndIndexRefresh:
    def test_graph_free_multiprocess_backend(self):
        """Cover-phase workers need processes but no graph."""
        backend = make_backend("multiprocess", 2, None, None)
        try:
            assert backend.shm_name is None
            results = backend.run_unmetered(
                [(w, "drop_sigma", 0, {}) for w in range(2)]
            )
            assert results == [None, None]
        finally:
            backend.shutdown()

    def test_refresh_index_swaps_segment_and_keeps_state(self):
        graph = small_graph()
        index = graph.index()
        backend = MultiprocessBackend(2, index)
        try:
            first_segment = backend.shm_name
            # park enforcement state worker-side
            from repro.pattern import Pattern

            pattern = Pattern(["person", "city"], [(0, 1, "live_in")], pivot=0)
            from repro.pattern.matcher import find_matches

            rows = np.asarray(
                list(find_matches(graph, pattern, index=index)), dtype=np.int64
            )
            from repro.gfd.literals import ConstantLiteral

            rules = [((ConstantLiteral(0, "kind", "a"),), None)]
            install = backend.run_unmetered(
                [
                    (0, "enforce_install", 7,
                     {"pattern": pattern, "matches": rows, "rules": rules}),
                ]
            )
            before = install[0][0][0]
            # mutate the graph, ship the new snapshot
            node = graph.add_node("person", {"kind": "a"})
            new_index = graph.index()
            backend.refresh_index(new_index)
            assert backend.shm_name != first_segment
            with pytest.raises(FileNotFoundError):
                _probe_segment(first_segment)
            # resident state survived the swap: the rule results re-read
            # from the resident rows and violating slots are unchanged
            after = backend.run_unmetered([(0, "enforce_results", 7, {})])
            assert after[0][0][0] == before
            # and an empty delta changes no rule, so it ships nothing
            empty = {
                "drop": np.empty(0, dtype=np.int64),
                "rejudge": np.empty(0, dtype=np.int64),
                "fresh": np.empty((0, 2), dtype=np.int64),
            }
            assert backend.run_unmetered(
                [(0, "enforce_update", 7, empty)]
            ) == [[None]]
        finally:
            backend.shutdown()
        if backend.shm_name is not None:
            with pytest.raises(FileNotFoundError):
                _probe_segment(backend.shm_name)
