"""Persistence suite: the on-disk index store, attach transports, janitor.

Covers the ``repro.graph.store`` format end to end: property-based
save/load round trips (every export buffer byte-identical under both the
mmap and the eager loader, deterministic file bytes), typed corruption
detection (truncation, flipped header/region bytes, wrong schema), the
stale-fingerprint guards, Session ``index_path`` semantics, a
fresh-process attach that answers a pinned query with *zero* index
rebuilds, differential discover → cover → enforce identity on both
backends, and the janitor regression: a live mmap attachment must survive
``sweep_orphans`` and repeated backend shutdowns untouched.
"""

from __future__ import annotations

import os
import random
import struct
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    DiscoveryConfig,
    EnforcementEngine,
    Session,
    format_gfd,
    parse_gfd,
)
from repro.datasets import scale_graph
from repro.graph import (
    Graph,
    IndexStoreCorrupt,
    IndexStoreError,
    IndexStoreStale,
    inspect_index,
    load_index,
    save_index,
)
from repro.graph.index import GraphIndex
from repro.graph.store import _PREAMBLE, SCHEMA_VERSION, release_index
from repro.parallel import janitor, shared_memory_available
from repro.pattern import Pattern
from repro.pattern.matcher import match_array


def store_graph(num_people: int = 24) -> Graph:
    """A small deterministic graph with enough structure to index."""
    graph = Graph()
    people = [
        graph.add_node(
            "person", {"kind": "a" if i % 2 else "b", "year": 2000 + i % 3}
        )
        for i in range(num_people)
    ]
    cities = [graph.add_node("city", {"kind": "c"}) for _ in range(8)]
    for i, person in enumerate(people):
        graph.add_edge(person, cities[i % len(cities)], "live_in")
        graph.add_edge(person, people[(i + 1) % len(people)], "like")
    return graph


def assert_buffers_identical(built: GraphIndex, loaded: GraphIndex) -> None:
    """Every export buffer must match bytewise, dtype included."""
    meta_b, arrays_b = built.export_buffers()
    meta_l, arrays_l = loaded.export_buffers()
    assert meta_b == meta_l
    assert set(arrays_b) == set(arrays_l)
    for name in arrays_b:
        assert arrays_b[name].dtype == arrays_l[name].dtype, name
        assert arrays_b[name].tobytes() == arrays_l[name].tobytes(), name


@st.composite
def graphs(draw) -> Graph:
    """Random small graphs with JSON-stable attribute values."""
    num_nodes = draw(st.integers(1, 40))
    num_labels = draw(st.integers(1, 4))
    graph = Graph()
    for _ in range(num_nodes):
        attrs = {}
        for slot in range(draw(st.integers(0, 2))):
            attrs[f"a{slot}"] = draw(
                st.one_of(
                    st.integers(-5, 5),
                    st.text(alphabet="abcxyz", min_size=0, max_size=4),
                )
            )
        graph.add_node(f"L{draw(st.integers(0, num_labels - 1))}", attrs)
    for _ in range(draw(st.integers(0, 3 * num_nodes))):
        src = draw(st.integers(0, num_nodes - 1))
        dst = draw(st.integers(0, num_nodes - 1))
        if src != dst:
            graph.add_edge(src, dst, f"e{draw(st.integers(0, 2))}")
    return graph


class TestRoundTrip:
    @settings(deadline=None, max_examples=30)
    @given(graph=graphs())
    def test_save_load_byte_identity(self, graph):
        """Property: both loaders reproduce every buffer bytewise."""
        index = GraphIndex.build(graph)
        with tempfile.TemporaryDirectory() as temp:
            path = Path(temp) / "g.rgix"
            save_index(index, path)
            first_bytes = path.read_bytes()
            save_index(index, path)
            assert path.read_bytes() == first_bytes  # deterministic bytes

            attached = load_index(path, mmap=True)
            eager = load_index(path, mmap=False, verify=True)
            try:
                assert_buffers_identical(index, attached)
                assert_buffers_identical(index, eager)
                for label in {graph.node_label(v) for v in graph.nodes()}:
                    assert sorted(attached.nodes_with_label(label)) == sorted(
                        index.nodes_with_label(label)
                    )
            finally:
                attached.store_mapping.close()

    def test_load_binds_graph(self, tmp_path):
        graph = store_graph()
        path = save_index(GraphIndex.build(graph), tmp_path / "g.rgix")
        loaded = load_index(path, graph=graph, mmap=False)
        assert loaded.graph is graph
        assert loaded.is_fresh()
        pattern = Pattern(["person", "city"], [(0, 1, "live_in")])
        assert np.array_equal(
            match_array(loaded, pattern), match_array(graph.index(), pattern)
        )

    def test_bound_load_seeds_the_graph_cache_until_released(self, tmp_path):
        graph = store_graph()
        path = save_index(GraphIndex.build(graph), tmp_path / "g.rgix")
        builds = GraphIndex.builds_performed
        attached = load_index(path, graph=graph, mmap=True)
        assert graph.index() is attached
        assert GraphIndex.builds_performed == builds
        # a released mapping is never handed out (or patched from) again
        assert release_index(attached)
        rebuilt = graph.index()
        assert rebuilt is not attached and rebuilt.store_mapping is None
        assert GraphIndex.builds_performed == builds + 1
        # a failed bind leaves the cache alone
        graph.add_node("person", {"kind": "z"})
        with pytest.raises(IndexStoreStale):
            load_index(path, graph=graph)
        assert graph.index().num_nodes == graph.num_nodes
        assert GraphIndex.builds_performed == builds + 1  # patched

    def test_inspect_reports_layout(self, tmp_path):
        graph = store_graph()
        index = GraphIndex.build(graph)
        path = save_index(index, tmp_path / "g.rgix")
        facts = inspect_index(path)
        assert facts["schema"] == SCHEMA_VERSION
        assert facts["fingerprint"]["num_nodes"] == graph.num_nodes
        assert facts["fingerprint"]["num_edges"] == graph.num_edges
        _, arrays = index.export_buffers()
        assert set(arrays) <= set(facts["arrays"])

    def test_save_stamps_store_path(self, tmp_path):
        graph = store_graph()
        index = graph.index()
        path = save_index(index, tmp_path / "g.rgix")
        assert index.store_path == str(path)


class TestCorruption:
    @pytest.fixture
    def saved(self, tmp_path):
        graph = store_graph()
        return save_index(GraphIndex.build(graph), tmp_path / "g.rgix")

    def test_truncated_preamble(self, saved):
        saved.write_bytes(saved.read_bytes()[:3])
        with pytest.raises(IndexStoreCorrupt):
            load_index(saved)

    def test_truncated_data(self, saved):
        blob = saved.read_bytes()
        saved.write_bytes(blob[:-10])
        with pytest.raises(IndexStoreCorrupt, match="truncated data"):
            load_index(saved, mmap=False)

    def test_flipped_header_byte(self, saved):
        blob = bytearray(saved.read_bytes())
        blob[_PREAMBLE.size + 5] ^= 0xFF
        saved.write_bytes(bytes(blob))
        with pytest.raises(IndexStoreCorrupt, match="header checksum"):
            load_index(saved)

    def test_flipped_region_byte(self, saved):
        blob = bytearray(saved.read_bytes())
        blob[-1] ^= 0xFF  # the final region's last byte
        saved.write_bytes(bytes(blob))
        with pytest.raises(IndexStoreCorrupt, match="checksum mismatch"):
            load_index(saved, mmap=False)
        with pytest.raises(IndexStoreCorrupt, match="checksum mismatch"):
            index = load_index(saved, mmap=True, verify=True)
            index.store_mapping.close()
        # the documented trade-off: an unverified mmap attach stays cheap
        index = load_index(saved, mmap=True)
        index.store_mapping.close()

    def test_wrong_schema_version(self, saved):
        blob = bytearray(saved.read_bytes())
        magic, _, crc, length = _PREAMBLE.unpack(blob[: _PREAMBLE.size])
        blob[: _PREAMBLE.size] = _PREAMBLE.pack(
            magic, SCHEMA_VERSION + 7, crc, length
        )
        saved.write_bytes(bytes(blob))
        with pytest.raises(IndexStoreError, match="schema version") as info:
            load_index(saved)
        assert not isinstance(info.value, IndexStoreCorrupt)

    def test_wrong_magic(self, saved):
        blob = bytearray(saved.read_bytes())
        blob[:4] = b"NOPE"
        saved.write_bytes(bytes(blob))
        with pytest.raises(IndexStoreCorrupt, match="magic"):
            load_index(saved)

    def test_atomic_write_leaves_no_temp(self, saved):
        assert list(saved.parent.glob("*.tmp*")) == []


class TestStaleGuards:
    def test_load_rejects_mutated_graph(self, tmp_path):
        graph = store_graph()
        path = save_index(GraphIndex.build(graph), tmp_path / "g.rgix")
        graph.add_node("person", {"kind": "z"})
        with pytest.raises(IndexStoreStale):
            load_index(path, graph=graph)

    def test_save_rejects_stale_index(self, tmp_path):
        graph = store_graph()
        index = graph.index()
        graph.add_node("person", {"kind": "z"})
        with pytest.raises(IndexStoreStale):
            save_index(index, tmp_path / "g.rgix")

    def test_fingerprint_collision_caught_by_spot_check(self, tmp_path):
        """Same shape + mutation count but different content must not bind.

        ``Graph.version`` counts mutations, so two graphs replaying the
        same construction sequence with different attribute values share
        the whole fingerprint — the bind-time sample must still refuse.
        """

        def build(kind_of):
            graph = Graph()
            for i in range(30):
                graph.add_node("person", {"kind": kind_of(i)})
            for i in range(29):
                graph.add_edge(i, i + 1, "knows")
            return graph

        clean = build(lambda i: f"k{i % 3}")
        dirty = build(lambda i: f"k{(i + 1) % 3}")
        assert (clean.num_nodes, clean.num_edges, clean.version) == (
            dirty.num_nodes, dirty.num_edges, dirty.version
        )
        path = save_index(GraphIndex.build(clean), tmp_path / "g.rgix")
        with pytest.raises(IndexStoreStale, match="different content"):
            load_index(path, graph=dirty)
        load_index(path, graph=clean, mmap=False)  # the true graph binds


class TestSessionIndexPath:
    CONFIG = dict(k=2, sigma=4, max_lhs_size=1, active_attributes=["kind"])

    def test_missing_file_builds_and_saves(self, tmp_path):
        path = tmp_path / "session.rgix"
        with Session(store_graph(), DiscoveryConfig(**self.CONFIG),
                     index_path=path) as session:
            session.discover()
        assert path.exists()
        assert inspect_index(path)["schema"] == SCHEMA_VERSION

    def test_valid_file_loads_without_rebuild(self, tmp_path):
        path = save_index(
            GraphIndex.build(store_graph()), tmp_path / "session.rgix"
        )
        graph = store_graph()  # same construction → same fingerprint
        before = GraphIndex.builds_performed
        with Session(graph, DiscoveryConfig(**self.CONFIG),
                     index_path=path) as session:
            session.discover()
        assert GraphIndex.builds_performed == before

    def test_attach_enforce_refresh_never_rebuilds(self, film_graph, tmp_path):
        """Writes beside reads on an attached snapshot: zero full builds."""
        path = save_index(
            GraphIndex.build(film_graph.copy()), tmp_path / "film.rgix"
        )
        sigma = [
            parse_gfd(
                'Q[x, y] { (x:person)-[create]->(y:product) } '
                '(y.type="film" -> x.type="producer")'
            ),
            parse_gfd(
                "Q[x, y] { (x:person)-[parent]->(y:person), "
                "(y)-[parent]->(x) } ( -> false)"
            ),
        ]
        rng = random.Random(5)
        edges = sorted(film_graph.edges())
        builds = GraphIndex.builds_performed
        with Session(film_graph, index_path=path,
                     index_autosave=False) as session:
            session.set_sigma(sigma)
            assert session.index.store_mapping is not None
            assert film_graph.index() is session.index  # attach seeds the cache
            session.enforce()
            for _ in range(6):
                for _ in range(2):
                    node = rng.randrange(film_graph.num_nodes)
                    film_graph.set_attr(node, "type", rng.choice(["film", "actor"]))
                    film_graph.add_edge(node, rng.randrange(120), "parent")
                    film_graph.remove_edge(*edges.pop(rng.randrange(len(edges))))
                    fresh = film_graph.add_node("person", {"type": "actor"})
                    film_graph.add_edge(fresh, 130, "create")
                report = session.refresh()
                assert report.mode == "incremental"
                assert session.index.store_mapping is None  # patched: owns its arrays
            assert GraphIndex.builds_performed == builds
            assert session.metrics().lifecycle.index_attaches == 1
            with EnforcementEngine(film_graph.copy(), sigma) as engine:
                expected = engine.validate()
            assert [(r.violation_count, r.nodes) for r in report.rules] == [
                (r.violation_count, r.nodes) for r in expected.rules
            ]
            assert report.total_violations
            # a batch past the cut-over is one full build, then patches again
            builds = GraphIndex.builds_performed
            for node in range(film_graph.num_nodes // 8 + 1):
                film_graph.set_attr(node, "name", "wide")
            assert session.refresh().mode == "incremental"
            assert GraphIndex.builds_performed == builds + 1
            film_graph.set_attr(0, "name", "narrow")
            session.refresh()
            assert GraphIndex.builds_performed == builds + 1

    def test_stale_verdict_is_remembered_until_the_file_changes(
        self, film_graph, tmp_path, monkeypatch
    ):
        """A store file found stale is not re-opened on every refresh — but
        a rewritten one is picked up again."""
        from repro.graph import store

        path = save_index(
            GraphIndex.build(film_graph.copy()), tmp_path / "film.rgix"
        )
        opened = []
        real = store.load_index

        def counting(*args, **kwargs):
            opened.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(store, "load_index", counting)
        with Session(film_graph, index_path=path,
                     index_autosave=False) as session:
            assert len(opened) == 1 and session.index.store_mapping is not None
            film_graph.set_attr(0, "name", "first")
            session.refresh()  # the file is stale now: opened, rejected
            assert len(opened) == 2 and session.index.store_mapping is None
            for round in range(3):
                film_graph.set_attr(0, "name", f"again{round}")
                session.refresh()
            assert len(opened) == 2  # same (mtime, size): verdict remembered
            film_graph.set_attr(0, "name", "rewritten")
            film_graph.index().save(path)
            session.refresh()
            assert len(opened) == 3 and session.index.store_mapping is not None

    def test_stale_file_rebuilds_and_resaves(self, tmp_path):
        path = save_index(
            GraphIndex.build(store_graph(num_people=12)),
            tmp_path / "session.rgix",
        )
        graph = store_graph()
        with Session(graph, DiscoveryConfig(**self.CONFIG),
                     index_path=path) as session:
            session.discover()
        assert inspect_index(path)["fingerprint"]["num_nodes"] == (
            graph.num_nodes
        )

    def test_corrupt_file_raises(self, tmp_path):
        path = save_index(
            GraphIndex.build(store_graph()), tmp_path / "session.rgix"
        )
        blob = bytearray(path.read_bytes())
        blob[_PREAMBLE.size + 5] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(IndexStoreCorrupt):
            Session(store_graph(), DiscoveryConfig(**self.CONFIG),
                    index_path=path)


_CHILD_ATTACH = """
import sys

from repro.graph import load_index
from repro.graph.index import GraphIndex
from repro.pattern import Pattern
from repro.pattern.matcher import match_array

index = load_index(sys.argv[1], mmap=True)
assert GraphIndex.builds_performed == 0, (
    f"attach rebuilt the index {GraphIndex.builds_performed} time(s)"
)
pattern = Pattern(["L0", "L1"], [(0, 1, "e0")])
print(match_array(index, pattern).shape[0])
"""


class TestZeroCopyAttach:
    def test_mmap_attach_builds_nothing_and_copies_nothing(self, tmp_path):
        """An mmap attach costs no rebuild and no copy: no ``GraphIndex``
        is built, and every array the attached index exports is a view of
        the mapped file."""
        path = save_index(GraphIndex.build(store_graph()), tmp_path / "g.rgix")
        builds = GraphIndex.builds_performed
        attached = load_index(path, mmap=True)
        assert GraphIndex.builds_performed == builds
        mapped = np.frombuffer(attached.store_mapping.buf, dtype=np.uint8)
        _, arrays = attached.export_buffers()
        shared = {
            name: np.shares_memory(array, mapped)
            for name, array in arrays.items()
        }
        del mapped, arrays
        attached.store_mapping.close()
        assert shared and all(shared.values()), shared


class TestFreshProcessAttach:
    def test_subprocess_answers_pinned_query_without_rebuild(self, tmp_path):
        graph = scale_graph(100_000, seed=3)
        index = GraphIndex.build(graph)
        path = save_index(index, tmp_path / "scale.rgix")
        pattern = Pattern(["L0", "L1"], [(0, 1, "e0")])
        expected = match_array(index, pattern).shape[0]
        assert expected > 0  # the planted L0 -e0-> L1 regularity

        env = dict(os.environ)
        src = str(Path(__file__).resolve().parent.parent / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        out = subprocess.run(
            [sys.executable, "-c", _CHILD_ATTACH, str(path)],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert out.returncode == 0, out.stderr
        assert int(out.stdout.strip()) == expected

    @pytest.mark.skipif(
        not shared_memory_available(), reason="platform lacks shared memory"
    )
    def test_multiprocess_workers_take_mmap_route(self, tmp_path):
        graph = store_graph()
        path = save_index(graph.index(), tmp_path / "g.rgix")
        with Session(
            graph,
            DiscoveryConfig(**TestSessionIndexPath.CONFIG),
            num_workers=2,
            backend="multiprocess",
            index_path=path,
        ) as session:
            session.discover()
            backend = session.backend()
            assert backend.index_transport == "mmap"
            assert backend.lifecycle.index_attaches == 1


class TestDifferentialIdentity:
    """Loaded-index pipelines ≡ built-index pipelines, per backend."""

    BACKENDS = ["serial"] + (
        ["multiprocess"] if shared_memory_available() else []
    )

    @staticmethod
    def _signature(session: Session):
        result = session.discover()
        cover = session.cover()
        report = session.enforce()
        rules = sorted(
            (format_gfd(gfd), result.supports.get(gfd, 0))
            for gfd in result.gfds
        )
        return (
            rules,
            sorted(format_gfd(gfd) for gfd in cover.cover),
            sorted(
                (format_gfd(rule.gfd), rule.violation_count,
                 rule.distinct_pivots)
                for rule in report.rules
            ),
        )

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_pipeline_identity(self, backend, tmp_path, film_graph,
                               film_config):
        with Session(film_graph, film_config, num_workers=2,
                     backend=backend) as session:
            built = self._signature(session)
        assert built[0], "no rules discovered — the identity would be vacuous"

        path = save_index(GraphIndex.build(film_graph), tmp_path / "f.rgix")
        with Session(film_graph, film_config, num_workers=2,
                     backend=backend, index_path=path) as session:
            loaded = self._signature(session)
        assert built == loaded


@pytest.mark.skipif(
    not shared_memory_available(), reason="platform lacks shared memory"
)
class TestJanitorMmapRegression:
    """sweep/shutdown must never unlink or double-close a live mmap attach."""

    def test_live_mapping_survives_sweep_orphans(self, tmp_path):
        graph = store_graph()
        path = save_index(GraphIndex.build(graph), tmp_path / "g.rgix")
        index = load_index(path, mmap=True)
        mapping = index.store_mapping
        assert mapping in janitor.live_mappings()
        try:
            janitor.sweep_orphans()
            assert path.exists()
            # the mapped views must still be readable after the sweep
            _, arrays = index.export_buffers()
            for array in arrays.values():
                np.asarray(array).tobytes()
        finally:
            mapping.close()
        assert mapping not in janitor.live_mappings()
        assert path.exists()

    def test_mapping_close_is_idempotent(self, tmp_path):
        graph = store_graph()
        path = save_index(GraphIndex.build(graph), tmp_path / "g.rgix")
        index = load_index(path, mmap=True)
        index.store_mapping.close()
        index.store_mapping.close()  # second close must be a no-op
        assert path.exists()
        load_index(path, mmap=False, verify=True)  # file intact

    def test_backend_shutdown_leaves_store_intact(self, tmp_path):
        graph = store_graph()
        path = save_index(graph.index(), tmp_path / "g.rgix")
        config = DiscoveryConfig(**TestSessionIndexPath.CONFIG)
        with Session(graph, config, num_workers=2, backend="multiprocess",
                     index_path=path) as session:
            session.discover()
            backend = session.backend()
            assert backend.index_transport == "mmap"
            backend.shutdown()
            backend.shutdown()  # double shutdown must not double-close
        assert path.exists()
        reloaded = load_index(path, mmap=False, verify=True)
        assert reloaded.num_nodes == graph.num_nodes


def _descriptors_on(path: Path) -> int:
    """This process's open file descriptors on ``path`` (from procfs)."""
    target = os.path.realpath(path)
    count = 0
    for entry in os.listdir("/proc/self/fd"):
        try:
            count += os.readlink(f"/proc/self/fd/{entry}") == target
        except OSError:  # closed between listing and reading
            pass
    return count


@pytest.mark.skipif(
    not os.path.isdir("/proc/self/fd"), reason="needs procfs descriptors"
)
class TestClosedSessionReleasesIndex:
    """A closed session keeps nothing mapped: after any number of attach →
    enforce → refresh → close cycles over one persisted index, this
    process holds as many store mappings and descriptors on the file as
    before the first."""

    SIGMA = (
        'Q[x, y] { (x:person)-[create]->(y:product) } '
        '(y.type="film" -> x.type="producer")'
    )

    def test_cycles_leave_no_mapping_or_descriptor(self, film_graph, tmp_path):
        path = save_index(film_graph.copy().index(), tmp_path / "film.rgix")
        sigma = [parse_gfd(self.SIGMA)]
        mappings = len(janitor.live_mappings())
        descriptors = _descriptors_on(path)
        for cycle in range(10):
            # every copy has the same version, so the file attaches to each
            graph = film_graph.copy()
            with Session(graph, index_path=path, num_workers=2,
                         index_autosave=False) as session:
                assert session.index.store_mapping is not None
                session.set_sigma(sigma)
                session.enforce()
                if cycle % 2:
                    # a write supersedes the attached snapshot with a patch
                    graph.set_attr(120, "type", "book")
                report = session.refresh()
                assert report.mode == ("incremental" if cycle % 2 else "full")
            assert session.index is None
            assert len(janitor.live_mappings()) == mappings
            assert _descriptors_on(path) == descriptors
