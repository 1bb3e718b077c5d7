"""Execution-backend tests: shared-memory lifecycle, skewed shards, the cap.

Covers the multiprocess plumbing the differential harness treats as a black
box: buffer export/attach round trips, stale-index export refusal, segment
cleanup after shutdown (name probing — an unlinked segment must not be
re-attachable), the typed failure on a platform without shared memory, a
skewed run's exact ledgers (its joined rows stay on the workers that joined
them), and the per-shard ``max_matches_per_pattern`` enforcement that keeps
both engines in agreement when the cap binds.
"""

from __future__ import annotations

import re

import numpy as np
import pytest

from repro import (
    EnforcementConfig,
    EnforcementEngine,
    EnforcementService,
    Session,
)
from repro.cli import main as cli_main
from repro.core import DiscoveryConfig, discover, gfd_identity
from repro.oracle import reference_discover
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
from repro.parallel import backend as backend_module
from repro.parallel.backend import resolve_execution

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
        engine = ParallelDiscovery(
            graph, small_config(), num_workers=2, backend="multiprocess"
        )
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
        with pytest.raises(ValueError, match="unknown parallel backend"):
            resolve_execution("ray")
        with pytest.raises(ValueError, match="num_workers"):
            resolve_execution("serial", 0)
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
            small_graph(), small_config(), num_workers=2, backend="serial"
        )
        assert pinned.backend_name == "serial"
        assert isinstance(
            make_backend("serial", 2, None, None), SerialBackend
        )


def recording_multiprocess(built):
    """A stand-in for :class:`MultiprocessBackend` that runs in-process
    shards, so no pool starts, and appends ``(workers, fault)`` of every
    backend built to ``built``."""

    class Recording(SerialBackend):
        name = "multiprocess"

        def __init__(self, num_workers, index, fault=None, tracer=None):
            graph = index.graph if index is not None else None
            super().__init__(num_workers, graph, index)
            built.append((num_workers, fault))

    return Recording


def _session_resolution(graph, name, workers, _tmp_path, _capsys):
    with Session(graph, backend=name, num_workers=workers) as session:
        return session.backend_name, session.num_workers


def _pardis_resolution(graph, name, workers, _tmp_path, _capsys):
    engine = ParallelDiscovery(graph, small_config(), workers, backend=name)
    return engine.backend_name, engine.num_workers


def _engine_resolution(graph, name, workers, _tmp_path, _capsys):
    config = EnforcementConfig(backend=name, num_workers=workers)
    with EnforcementEngine(graph, [], config) as engine:
        return engine._backend_name, engine.num_workers


def _service_resolution(graph, name, workers, _tmp_path, _capsys):
    service = EnforcementService(
        graph, sigma=[], backend=name, num_workers=workers
    )
    return (
        service._session_kwargs["backend"],
        service._session_kwargs["num_workers"],
    )


def _cover_verb_resolution(_graph, name, workers, tmp_path, capsys):
    rules = tmp_path / "rules.txt"
    rules.write_text("")
    argv = ["cover", str(rules)]
    if name is not None:
        argv += ["--backend", name]
    if workers is not None:
        argv += ["--workers", str(workers)]
    assert cli_main(argv) == 0
    stated = re.search(r"# backend=(\w+) workers=(\d+)", capsys.readouterr().err)
    return stated.group(1), int(stated.group(2))


RESOLUTION_ENTRY_POINTS = {
    "session": _session_resolution,
    "pardis": _pardis_resolution,
    "engine": _engine_resolution,
    "service": _service_resolution,
    "cli-cover": _cover_verb_resolution,
}


class TestExecutionResolution:
    """Every entry point resolves backend and worker count through
    :func:`resolve_execution`, so all of them agree on every input."""

    @pytest.mark.parametrize("env", [None, "multiprocess"], ids=["no-env", "env"])
    @pytest.mark.parametrize("workers", [None, 3], ids=["n-default", "n3"])
    @pytest.mark.parametrize(
        "name", [None, "serial", "multiprocess"],
        ids=["name-default", "serial", "multiprocess"],
    )
    @pytest.mark.parametrize("entry", sorted(RESOLUTION_ENTRY_POINTS))
    def test_entry_points_resolve_alike(
        self, entry, name, workers, env, monkeypatch, tmp_path, capsys
    ):
        built = []
        monkeypatch.setattr(
            backend_module, "MultiprocessBackend", recording_multiprocess(built)
        )
        if env is None:
            monkeypatch.delenv("REPRO_PARALLEL_BACKEND", raising=False)
        else:
            monkeypatch.setenv("REPRO_PARALLEL_BACKEND", env)
        expected_name = name or env or "serial"
        expected = (
            expected_name,
            workers or (1 if expected_name == "serial" else 4),
        )
        assert resolve_execution(name, workers)[:2] == expected
        resolve = RESOLUTION_ENTRY_POINTS[entry]
        assert resolve(small_graph(), name, workers, tmp_path, capsys) == expected
        # only the cover verb builds a backend here, and no real pool
        assert len(built) == (
            entry == "cli-cover" and expected_name == "multiprocess"
        )

    def test_borrowing_engine_rejects_a_conflicting_config(self):
        """An engine on a borrowed backend runs where that backend runs; a
        config stating otherwise is an error, not silently overridden, and
        a session reports it when it opens, before any phase runs."""
        graph = small_graph()
        backend = make_backend("serial", 2, graph, graph.index())
        for config in (
            EnforcementConfig(backend="multiprocess"),
            EnforcementConfig(num_workers=3),
        ):
            with pytest.raises(ValueError, match="conflicts"):
                EnforcementEngine(graph, [], config, backend=backend)
            with pytest.raises(ValueError, match="conflicts"):
                Session(graph, enforcement=config, backend="serial",
                        num_workers=2)
        agreeing = EnforcementConfig(backend="serial", num_workers=2)
        with EnforcementEngine(graph, [], agreeing, backend=backend) as engine:
            assert engine.num_workers == 2


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
                    id(node) for node, capped, _ in batch if capped
                )
                super()._install_shards_many(batch)

        engine = Recording(graph, config, 1, backend="serial")
        tree = engine.run().tree
        assert len(engine.truncated) == engine.stats.truncated_patterns > 0
        for node in tree.all_nodes():
            assert not any(
                id(parent) in engine.truncated for parent in node.parents
            )

    #: ``{(cap, k, n): {truncated pattern: support}}``: the supports the
    #: capped joins gave (each shard's distinct pivots over its first
    #: ``cap`` rows, summed), pinned from the engine that still joined them.
    TRUNCATED = {
        (10, 2, 1): {
            "Pattern[x:city,y:person | y-[live_in]->x | pivot=x]": 4,
            "Pattern[x:person,y:city | x-[live_in]->y | pivot=x]": 10,
            "Pattern[x:person,y:person | x-[like]->y | pivot=x]": 10,
            "Pattern[x:person,y:person | y-[like]->x | pivot=x]": 10,
        },
        (10, 2, 3): {
            "Pattern[x:city,y:person | y-[live_in]->x | pivot=x]": 8,
            "Pattern[x:person,y:city | x-[live_in]->y | pivot=x]": 24,
            "Pattern[x:person,y:person | x-[like]->y | pivot=x]": 24,
            "Pattern[x:person,y:person | y-[like]->x | pivot=x]": 24,
        },
        (30, 3, 1): {
            "Pattern[x:city,y:person,z:person | y-[live_in]->x, "
            "z-[live_in]->x | pivot=x]": 5,
            "Pattern[x:person,y:city,z:person | x-[live_in]->y, "
            "z-[live_in]->y | pivot=x]": 15,
        },
        (30, 3, 3): {
            "Pattern[x:city,y:person,z:person | y-[live_in]->x, "
            "z-[live_in]->x | pivot=x]": 8,
            "Pattern[x:person,y:city,z:person | x-[live_in]->y, "
            "z-[live_in]->y | pivot=x]": 24,
        },
    }

    @pytest.mark.parametrize("cap, k, workers", sorted(TRUNCATED))
    def test_truncation_needs_no_join(self, cap, k, workers):
        """The tally's row counts truncate a child before any join: every
        joined row is installed, each truncated child keeps the capped
        join's support, and serial and multiprocess agree."""
        config = small_config(max_matches_per_pattern=cap, k=k)
        outcomes = []
        for backend in ("serial", "multiprocess"):
            engine = _TruncationRecorder(
                small_graph(), config, workers, backend=backend
            )
            result = engine.run()
            seeded = sum(node.support for node in result.tree.level(0))
            work = engine.work
            assert sum(work.rows_joined) == sum(work.rows_installed) - seeded
            truncated = {
                repr(node.pattern): node.support for node in engine.truncated
            }
            assert len(truncated) == result.stats.truncated_patterns
            assert truncated == self.TRUNCATED[(cap, k, workers)]
            result.stats.elapsed_seconds = 0.0  # the one field a clock sets
            outcomes.append((work.supersteps, work.as_dict(), result.stats))
        assert outcomes[0] == outcomes[1]


class _TruncationRecorder(ParallelDiscovery):
    """ParDis keeping the nodes its installs are told are truncated."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.truncated = []

    def _install_shards_many(self, batch):
        self.truncated.extend(node for node, capped, _ in batch if capped)
        super()._install_shards_many(batch)


def skewed_graph(num_workers: int = 3) -> Graph:
    """Hub pivots colocated on worker 0, so hub-pivoted shards are skewed."""
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
    """An owned multiprocess backend leaves no index or payload segment
    behind after a skewed run."""

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


class TestSkewedShards:
    """A skewed join stays where it was joined: the child's install adopts
    the parked rows on every worker, on every backend."""

    @staticmethod
    def _run(graph, config, backend_name):
        """``(rules → supports, transfer ledger, work ledger)`` of one run."""
        backend = make_backend(backend_name, 3, graph, graph.index())
        try:
            runner = ParallelDiscovery(graph, config, backend=backend)
            result = runner.run()
            ledger = backend.transfers.snapshot()
        finally:
            backend.shutdown()
        supports = {gfd_identity(g): result.supports[g] for g in result.gfds}
        return supports, ledger, runner.work

    def test_skewed_run_keeps_rows_on_workers(self):
        """Same Σ and supports as ``discover`` on both backends; the serial
        backend ships the same rows in the same supersteps and gives every
        worker the same work as the multiprocess one, and no match row
        returns to the master although the hub shards are skewed."""
        from repro.parallel import janitor

        segments_before = janitor.live_segments()
        graph = skewed_graph()
        config = small_config(k=3, sigma=3, active_attributes=["kind", "year"])
        reference = discover(graph, config)
        expected = {
            gfd_identity(g): reference.supports[g] for g in reference.gfds
        }
        serial, serial_ledger, serial_work = self._run(graph, config, "serial")
        parallel, ledger, work = self._run(graph, config, "multiprocess")
        assert serial == expected
        assert parallel == expected
        # one join protocol: both backends park and adopt op for op and
        # row for row
        assert serial_ledger == ledger
        assert serial_work == work
        assert work.supersteps > 0 and min(work.rows_installed) > 0
        # the hub-pivoted rows stay on worker 0, which joined them
        assert work.rows_installed[0] > sum(work.rows_installed[1:])
        # seeds are the only rows shipped out, and none comes back
        assert ledger.rows_to_workers == graph.num_nodes
        assert ledger.rows_to_master == 0
        # every index and payload segment of both runs is unlinked
        assert janitor.live_segments() == segments_before

    def test_unskewed_run_ships_equal_ledgers(self, yago_small, yago_config):
        """No row returns to the master on either backend, and both ship
        the same install rows in as many supersteps."""
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


def _worker_segment_chain():
    """Inside a worker: the sizes of the segments its index views map."""
    return [segment.size for segment in backend_module._SEGMENTS]


class TestGraphFreeAndIndexRefresh:
    def test_delta_segment_chain_stays_bounded(self):
        """Attribute-only writes refresh through deltas, and every delta
        segment stays mapped in the worker until a full re-attach; the
        deltas a worker holds, each rounded to whole pages, never exceed
        half the snapshot, while the delta route stays in use."""
        import mmap

        from repro.datasets.knowledge_base import imdb_like

        graph = imdb_like(1.0)
        meta, arrays = graph.index().export_buffers()
        half = sum(array.nbytes for array in arrays.values()) // 2
        backend = make_backend("multiprocess", 2, graph, graph.index())
        lengths = []
        try:
            people = [
                node for node in graph.nodes()
                if graph.node_label(node) == "person"
            ]
            for step in range(40):
                graph.set_attr(people[step], "name", f"renamed {step}")
                backend.refresh_index(graph.index())
                chain = backend._pools[0].submit(_worker_segment_chain).result()
                deltas = sum(
                    -(-size // mmap.PAGESIZE) * mmap.PAGESIZE
                    for size in chain[1:]
                )
                assert deltas <= half, (step, len(chain), deltas)
                lengths.append(len(chain))
        finally:
            backend.shutdown()
        assert backend.lifecycle.delta_refreshes > 20
        assert max(lengths) > 2 and 1 in lengths

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
            # and an empty delta reaches no group, so it ships nothing
            empty = {
                "structural": np.empty(0, dtype=np.int64),
                "attribute": np.empty(0, dtype=np.int64),
                "groups": [(7, 0)],
                "fresh": np.empty(0, dtype=np.int64),
            }
            assert backend.run_unmetered(
                [(0, "enforce_update", 8, empty)]
            ) == [([None], (0, 0, 0))]
        finally:
            backend.shutdown()
        if backend.shm_name is not None:
            with pytest.raises(FileNotFoundError):
                _probe_segment(backend.shm_name)
