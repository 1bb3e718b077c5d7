"""Fault tolerance: chaos differential tests, janitor, degradation ladder.

The acceptance property of the robustness PR: ``SIGKILL`` of any single
worker — mid-``ParDis`` superstep, mid-``ParCover`` batch, or mid-
enforcement refresh — yields results *byte-identical* to a fault-free
serial run, because the supervision layer respawns the worker and replays
its install log before retrying the failed op.  Faults are injected
deterministically via :class:`~repro.parallel.faults.FaultPlan` (the
``REPRO_FAULT_PLAN`` chaos hook), so every test is reproducible.

A module-wide leak-check fixture asserts no ``repro_shm_*`` segment
survives any test — the janitor's contract.
"""

from __future__ import annotations

import json
import os
from dataclasses import replace
from pathlib import Path

import pytest

from repro import DiscoveryConfig, FaultConfig, Session, discover, format_gfd
from repro.core import gfd_identity, sequential_cover
from repro.gfd.satisfaction import find_violations
from repro.parallel import (
    FaultPlan,
    parallel_cover,
    shared_memory_available,
)
from repro.parallel import backend as backend_module
from repro.parallel import janitor
from repro.parallel.backend import (
    MultiprocessBackend,
    SerialBackend,
    ShardWorker,
    make_backend,
    next_node_key,
)
from repro.parallel.pardis import ParallelDiscovery
from repro.serve import report_payload
from test_backend import skewed_graph, small_config

needs_mp = pytest.mark.skipif(
    not shared_memory_available(),
    reason="multiprocessing.shared_memory unavailable",
)


@pytest.fixture(autouse=True)
def isolated_fault_env(monkeypatch):
    """This suite builds its own plans; the chaos-CI env must not leak in.

    (The env-driven ``REPRO_FAULT_PLAN`` path is exercised by running the
    *differential* suite under it — the chaos CI job — and by the explicit
    env tests below.)
    """
    monkeypatch.delenv("REPRO_FAULT_PLAN", raising=False)


@pytest.fixture(autouse=True)
def no_leaked_segments():
    """Every test must leave zero janitor-managed segments behind."""
    yield
    assert janitor.live_segments() == []
    shm = Path("/dev/shm")
    if shm.is_dir():
        leaked = sorted(
            entry.name
            for entry in shm.iterdir()
            if entry.name.startswith(janitor.SEGMENT_PREFIX)
        )
        assert leaked == [], f"leaked shared-memory segments: {leaked}"


def _plan(**kwargs) -> str:
    """A JSON fault plan literal."""
    return json.dumps(kwargs)


def _fingerprint(result):
    """(gfd set, supports, cover) under canonical keys — the parity basis."""
    keys = frozenset(gfd_identity(g) for g in result.gfds)
    supports = {gfd_identity(g): result.supports[g] for g in result.gfds}
    cover = frozenset(
        gfd_identity(g) for g in sequential_cover(result.gfds).cover
    )
    return keys, supports, cover


# ----------------------------------------------------------------------
# the fault-plan DSL
# ----------------------------------------------------------------------
class TestFaultPlan:
    def test_empty_plans_parse_to_none(self):
        assert FaultPlan.from_json(None) is None
        assert FaultPlan.from_json("") is None
        assert FaultPlan.from_json("{}") is None

    def test_fields_round_trip(self):
        plan = FaultPlan.from_json(
            _plan(
                kill_every=5,
                kill_on={"op": "eval", "nth": 2},
                delay={"every": 3, "seconds": 0.25},
                workers=[1, 2],
                persist=True,
            )
        )
        assert plan.kill_every == 5
        assert plan.kill_on == ("eval", 2)
        assert plan.delay_every == 3
        assert plan.delay_seconds == 0.25
        assert plan.workers == (1, 2)
        assert plan.persist is True

    def test_kill_on_nth_defaults_to_one(self):
        plan = FaultPlan.from_json(_plan(kill_on={"op": "install"}))
        assert plan.kill_on == ("install", 1)

    def test_applies_to(self):
        assert FaultPlan.from_json(_plan(kill_every=1)).applies_to(7)
        scoped = FaultPlan.from_json(_plan(kill_every=1, workers=[1]))
        assert scoped.applies_to(1)
        assert not scoped.applies_to(0)

    def test_env_hook(self, monkeypatch):
        monkeypatch.delenv("REPRO_FAULT_PLAN", raising=False)
        assert FaultPlan.from_env() is None
        monkeypatch.setenv("REPRO_FAULT_PLAN", _plan(kill_every=9))
        assert FaultPlan.from_env().kill_every == 9

    def test_config_follows_env(self, monkeypatch):
        """``DiscoveryConfig.fault`` arms itself when the chaos env is set."""
        monkeypatch.delenv("REPRO_FAULT_PLAN", raising=False)
        assert DiscoveryConfig().fault is None
        monkeypatch.setenv("REPRO_FAULT_PLAN", _plan(kill_every=9))
        config = DiscoveryConfig()
        assert config.fault is not None
        assert config.fault.fault_plan == _plan(kill_every=9)

    def test_fault_config_validates(self):
        with pytest.raises(ValueError):
            FaultConfig(op_timeout_s=0)
        with pytest.raises(ValueError):
            FaultConfig(max_respawns=-1)
        with pytest.raises(ValueError, match="fault_plan"):
            FaultConfig(fault_plan="[1]")


# ----------------------------------------------------------------------
# the segment janitor
# ----------------------------------------------------------------------
@needs_mp
class TestJanitor:
    def test_create_registers_and_unregister_releases(self):
        segment = janitor.create_segment(64)
        name = segment.name.lstrip("/")
        assert name.startswith(janitor.SEGMENT_PREFIX)
        assert name in janitor.live_segments()
        spool = janitor.spool_dir() / f"{os.getpid()}.json"
        payload = json.loads(spool.read_text())
        assert name in payload["segments"]
        assert payload["token"] == janitor._process_token(os.getpid())
        janitor.unregister(segment)
        segment.close()
        segment.unlink()
        assert name not in janitor.live_segments()

    def test_sweep_orphans_unlinks_dead_pid_segments(self):
        from multiprocessing import shared_memory

        dead = max(os.getpid() + 100_000, 500_000)
        while janitor._alive(dead):
            dead += 1
        orphan_name = f"{janitor.SEGMENT_PREFIX}{dead}_0"
        orphan = shared_memory.SharedMemory(
            create=True, size=16, name=orphan_name
        )
        orphan.close()
        spool = janitor.spool_dir() / f"{dead}.json"
        spool.write_text(json.dumps([orphan_name]), encoding="utf-8")
        removed = janitor.sweep_orphans()
        assert orphan_name in removed
        assert not spool.exists()
        with pytest.raises(FileNotFoundError):
            janitor.attach_segment(orphan_name)

    def test_spool_writes_are_atomic(self):
        """Registration never leaves a temp file or unparseable spool."""
        segments = [janitor.create_segment(16) for _ in range(3)]
        try:
            spool = janitor.spool_dir() / f"{os.getpid()}.json"
            assert not list(janitor.spool_dir().glob("*.tmp")), (
                "temp-then-replace must not leave .tmp files behind"
            )
            payload = json.loads(spool.read_text())  # always whole JSON
            assert sorted(payload["segments"]) == payload["segments"]
        finally:
            for segment in segments:
                janitor.unregister(segment)
                segment.close()
                segment.unlink()

    def test_sweep_quarantines_corrupt_dead_spool(self):
        dead = max(os.getpid() + 100_000, 500_000)
        while janitor._alive(dead):
            dead += 1
        spool = janitor.spool_dir() / f"{dead}.json"
        spool.write_text('{"token": "starttime:1", "segm', encoding="utf-8")
        corrupt = spool.with_suffix(".json.corrupt")
        try:
            removed = janitor.sweep_orphans()
            assert removed == []
            # the truncated file was moved aside, not retried forever
            assert not spool.exists()
            assert corrupt.exists()
            # a second sweep no longer sees it at all
            assert janitor.sweep_orphans() == []
        finally:
            corrupt.unlink(missing_ok=True)
            spool.unlink(missing_ok=True)

    def test_corrupt_spool_of_live_owner_is_left_alone(self):
        spool = janitor.spool_dir() / f"{os.getpid()}.json"
        had_spool = spool.exists()
        original = spool.read_text() if had_spool else None
        spool.write_text("not json at all", encoding="utf-8")
        try:
            janitor.sweep_orphans()
            # own pid: skipped before parsing; file untouched either way
            assert spool.read_text() == "not json at all"
        finally:
            if had_spool:
                spool.write_text(original, encoding="utf-8")
            else:
                spool.unlink(missing_ok=True)

    def test_pid_reuse_token_sweeps_recycled_owner(self):
        """A live pid with a *mismatched* start-time token is a recycled
        pid: the spool's real owner is dead and its segments are orphans."""
        from multiprocessing import shared_memory

        owner = 1  # init: alive for the whole test, never ours
        if janitor._process_token(owner) is None:
            pytest.skip("procfs start-time tokens unavailable")
        orphan_name = f"{janitor.SEGMENT_PREFIX}{owner}_0"
        orphan = shared_memory.SharedMemory(
            create=True, size=16, name=orphan_name
        )
        orphan.close()
        spool = janitor.spool_dir() / f"{owner}.json"
        spool.write_text(
            json.dumps(
                {"token": "starttime:0-recycled", "segments": [orphan_name]}
            ),
            encoding="utf-8",
        )
        try:
            removed = janitor.sweep_orphans()
            assert orphan_name in removed
            assert not spool.exists()
            with pytest.raises(FileNotFoundError):
                janitor.attach_segment(orphan_name)
        finally:
            spool.unlink(missing_ok=True)
            try:
                leftover = janitor.attach_segment(orphan_name)
                leftover.close()
                leftover.unlink()
            except FileNotFoundError:
                pass

    def test_matching_token_of_live_owner_is_never_swept(self):
        from multiprocessing import shared_memory

        owner = 1
        token = janitor._process_token(owner)
        if token is None:
            pytest.skip("procfs start-time tokens unavailable")
        name = f"{janitor.SEGMENT_PREFIX}{owner}_0"
        segment = shared_memory.SharedMemory(create=True, size=16, name=name)
        spool = janitor.spool_dir() / f"{owner}.json"
        spool.write_text(
            json.dumps({"token": token, "segments": [name]}),
            encoding="utf-8",
        )
        try:
            removed = janitor.sweep_orphans()
            assert name not in removed
            assert spool.exists()  # live owner: file stays
            janitor.attach_segment(name).close()  # segment stays
        finally:
            spool.unlink(missing_ok=True)
            segment.close()
            segment.unlink()

    def test_sweep_never_touches_live_or_foreign_segments(self):
        from multiprocessing import shared_memory

        dead = max(os.getpid() + 100_000, 500_000)
        while janitor._alive(dead):
            dead += 1
        foreign_name = f"not_ours_{os.getpid()}"
        foreign = shared_memory.SharedMemory(
            create=True, size=16, name=foreign_name
        )
        mine = janitor.create_segment(16)
        try:
            spool = janitor.spool_dir() / f"{dead}.json"
            spool.write_text(
                json.dumps([foreign_name, mine.name.lstrip("/")]),
                encoding="utf-8",
            )
            removed = janitor.sweep_orphans()
            # foreign prefix is never swept, and a live process's segment
            # is never unlinked on a dead spool file's say-so (segment
            # names embed their creating pid)
            assert removed == []
            janitor.attach_segment(foreign_name).close()  # still there
            janitor.attach_segment(mine.name).close()  # still there
        finally:
            foreign.close()
            foreign.unlink()
            janitor.unregister(mine)
            mine.close()
            mine.unlink()


# ----------------------------------------------------------------------
# supervision plumbing (white-box regressions)
# ----------------------------------------------------------------------
@needs_mp
class TestSupervisionPlumbing:
    def test_shutdown_is_idempotent(self):
        for fault in (None, FaultConfig()):
            backend = make_backend("multiprocess", 2, None, None, fault=fault)
            backend.shutdown()
            backend.shutdown()
            assert backend.lifecycle.shutdowns == 1

    def test_journal_compacts_released_sigma(self):
        backend = make_backend(
            "multiprocess", 1, None, None, fault=FaultConfig()
        )
        try:
            key = next_node_key()
            backend.run_unmetered([(0, "sigma", key, {"sigma": []})])
            assert ("sigma", key, {"sigma": []}) in backend._journals[0]
            backend.run_unmetered([(0, "drop_sigma", key, {})])
            assert backend._journals[0] == []
        finally:
            backend.shutdown()

    def test_worker_dead_after_fire_and_forget_batch_recovers(self):
        """A kill inside an uncollected (``wait=False``) batch leaves a
        broken pool behind; the next submit recovers it instead of raising
        ``BrokenProcessPool`` out of the superstep."""
        import time

        fault = FaultConfig(
            fault_plan=_plan(kill_on={"op": "drop", "nth": 1}, workers=[0])
        )
        backend = make_backend("multiprocess", 1, None, None, fault=fault)
        try:
            key = next_node_key()
            backend.run_unmetered([(0, "sigma", key, {"sigma": []})])
            pool = backend._pools[0]
            backend.run_unmetered([(0, "drop", key, {})], wait=False)
            deadline = time.monotonic() + 30
            while not pool._broken and time.monotonic() < deadline:
                time.sleep(0.01)
            assert pool._broken  # the next submit meets a broken pool
            assert backend.run_unmetered(
                [(0, "sigma", next_node_key(), {"sigma": []})]
            ) == [0]
            assert backend.lifecycle.respawns == 1
            assert backend.lifecycle.retries == 1
        finally:
            backend.shutdown()

    @needs_mp
    def test_worker_dead_before_an_index_refresh_recovers(
        self, film_graph, film_config
    ):
        """A budgeted stream can end on a fire-and-forget ``drop_store``:
        its structural frontier keeps every table, so no waited drop
        follows.  A worker killed there is recovered by the next index
        refresh, which then reaches it, instead of raising
        ``BrokenProcessPool`` out of the refresh."""
        import time

        # the film stream's first rule comes from its third mining batch,
        # so worker 0 dies on the stream's last op
        fault = FaultConfig(
            fault_plan=_plan(kill_on={"op": "drop_store", "nth": 3}, workers=[0])
        )
        budgets = {"max_rules": 1, "update_sigma": False}
        with Session(
            film_graph, replace(film_config, fault=fault),
            backend="multiprocess", num_workers=2,
        ) as session:
            assert len(list(session.discover_iter(**budgets))) == 1
            backend = session.backend()
            pool = backend._pools[0]
            deadline = time.monotonic() + 30
            while not pool._broken and time.monotonic() < deadline:
                time.sleep(0.01)
            assert pool._broken and backend.lifecycle.respawns == 0
            film_graph.set_attr(0, "type", "gardener")
            served = [format_gfd(g) for g in session.discover_iter(**budgets)]
            assert backend.lifecycle.respawns == 1
            assert backend.lifecycle.delta_refreshes == 1
        with Session(film_graph.copy(), film_config) as fresh:
            assert served == [
                format_gfd(g) for g in fresh.discover_iter(**budgets)
            ]


def _worker_state(shard: ShardWorker):
    """Every state family of one worker, in comparable form."""
    return {
        "tables": {key: table.num_rows for key, table in shard.tables.items()},
        "stores": {key: dict(store) for key, store in shard.stores.items()},
        "bits": {key: dict(bits) for key, bits in shard.bits.items()},
        "joins": {slot: rows.tolist() for slot, rows in shard.joins.items()},
        "sigmas": sorted(shard.sigmas),
        "enforce_state": sorted(shard.enforce_state),
    }


class _ReplayCheckingBackend(SerialBackend):
    """In-process shards that keep the supervised install log; after every
    batch, replaying each worker's log onto a fresh shard must rebuild that
    worker's live state exactly."""

    _RETIRES = MultiprocessBackend._RETIRES
    _JOURNALED_OPS = MultiprocessBackend._JOURNALED_OPS
    _journal = MultiprocessBackend._journal

    def __init__(self, *args) -> None:
        super().__init__(*args)
        self._fault = FaultConfig()
        self._journals = [[] for _ in range(self.num_workers)]
        self.checks = 0
        self.tombstones = 0
        self.journaled = set()

    def run_superstep(self, requests):
        results = super().run_superstep(requests)
        self._settle(requests)
        return results

    def run_unmetered(self, requests, wait=True):
        results = super().run_unmetered(requests, wait)
        self._settle(requests)
        return results

    def _settle(self, requests) -> None:
        for worker, op, key, payload in requests:
            self._journal(worker, op, key, payload)
        for worker, shard in enumerate(self.workers):
            journal = self._journals[worker]
            self.journaled.update(entry[0] for entry in journal)
            self.tombstones = max(
                self.tombstones, sum(entry[0] == "drop" for entry in journal)
            )
            replayed = ShardWorker(shard.graph, shard.index)
            for op, key, payload in journal:
                replayed.execute(op, key, payload)
            assert _worker_state(replayed) == _worker_state(shard)
        self.checks += 1


class TestJournalCompaction:
    """The install log's one compaction rule, checked by replay."""

    @pytest.mark.parametrize(
        "skewed, abandon",
        [(False, False), (False, True), (True, False), (True, True)],
        ids=["run", "abandoned", "skewed-run", "skewed-abandoned"],
    )
    def test_replay_rebuilds_live_state_after_every_batch(
        self, film_graph, film_config, skewed, abandon
    ):
        if skewed:
            # hub pivots colocated on worker 0 of 3: a join is fetched and
            # re-dealt, so the replay covers the rebalance route too
            graph, workers = skewed_graph(), 3
            config = small_config(
                k=3, sigma=3, active_attributes=["kind", "year"]
            )
        else:
            graph, config, workers = film_graph, film_config, 2
        index = graph.index()
        backend = _ReplayCheckingBackend(workers, graph, index)
        engine = ParallelDiscovery(graph, config, index=index, backend=backend)
        if abandon:
            levels = engine.run_iter()
            next(levels)
            next(levels)  # level 1: the seeds' children adopted parked joins
            levels.close()
        else:
            assert engine.run().gfds
        assert backend.checks > 0
        # a dropped parent stayed as a tombstone while a child adopted from it
        assert backend.tombstones > 0
        assert ("fetch_join" in backend.journaled) == skewed
        # a finished (or abandoned) discovery drops every key it made
        assert backend._journals == [[]] * workers
        assert all(
            _worker_state(shard) == _worker_state(ShardWorker(None, None))
            for shard in backend.workers
        )
        backend.shutdown()

    def test_releases_retire_their_family(self):
        journal_of = _ReplayCheckingBackend(1, None, None)
        key = next_node_key()
        journal_of._journal(0, "sigma", key, {"sigma": []})
        journal_of._journal(0, "enforce_install", key, {"matches": None})
        journal_of._journal(0, "drop_sigma", key, {})
        assert [entry[0] for entry in journal_of._journals[0]] == [
            "enforce_install"
        ]
        journal_of._journal(0, "enforce_drop", key, {})
        journal_of._journal(0, "drop", key, {})  # nothing adopts: no tombstone
        assert journal_of._journals[0] == []


# ----------------------------------------------------------------------
# chaos differential: kill one worker in every phase
# ----------------------------------------------------------------------
@needs_mp
class TestChaosDifferential:
    """Seeded worker kills; results must equal the fault-free serial run."""

    @pytest.mark.parametrize(
        "op, worker",
        [("install", 0), ("eval", 0), ("join", 1)],
        ids=["kill-install-w0", "kill-eval-w0", "kill-join-w1"],
    )
    def test_kill_single_worker_mid_discovery(
        self, film_graph, film_config, op, worker
    ):
        reference = _fingerprint(discover(film_graph, film_config))
        fault = FaultConfig(
            fault_plan=_plan(kill_on={"op": op, "nth": 1}, workers=[worker])
        )
        config = replace(film_config, fault=fault)
        with Session(
            film_graph, config, backend="multiprocess", num_workers=2
        ) as session:
            result = session.discover()
            metrics = session.metrics()
            assert metrics.lifecycle.respawns >= 1
            assert metrics.recovery_seconds > 0.0
        assert _fingerprint(result) == reference

    def test_kill_mid_parcover_batch(
        self, film_graph, film_config, cover_backend
    ):
        sigma = discover(film_graph, film_config).gfds
        reference = parallel_cover(sigma, cover_backend(2))
        fault = FaultConfig(
            fault_plan=_plan(kill_on={"op": "sigma", "nth": 1}, workers=[1])
        )
        backend = make_backend("multiprocess", 2, None, None, fault=fault)
        try:
            result = parallel_cover(sigma, backend)
            assert backend.lifecycle.respawns >= 1
        finally:
            backend.shutdown()
        assert result.cover == reference.cover
        assert result.removed == reference.removed

    def test_kill_mid_enforcement_refresh(self, film_graph, film_config):
        fault = FaultConfig(
            fault_plan=_plan(
                kill_on={"op": "enforce_update", "nth": 1}, workers=[0]
            )
        )
        config = replace(film_config, fault=fault)
        with Session(
            film_graph, config, backend="multiprocess", num_workers=2
        ) as session:
            session.discover()
            sigma = session.cover().cover
            assert session.enforce().is_clean
            film_graph.set_attr(0, "type", "gardener")
            refreshed = session.refresh()
            assert refreshed.mode == "incremental"
            assert session.metrics().lifecycle.respawns >= 1
        # the incremental result under faults must equal a fault-free
        # serial from-scratch enforcement of the same Σ on the same graph
        with Session(
            film_graph, film_config, backend="serial", num_workers=2
        ) as ref_session:
            reference = ref_session.enforce(sigma)
        assert refreshed.total_violations == reference.total_violations
        assert refreshed.flagged_nodes() == reference.flagged_nodes()
        assert {
            gfd_identity(rule.gfd): rule.violation_count
            for rule in refreshed.rules
        } == {
            gfd_identity(rule.gfd): rule.violation_count
            for rule in reference.rules
        }

    def test_hung_worker_hits_deadline_and_recovers(
        self, film_graph, film_config
    ):
        reference = _fingerprint(discover(film_graph, film_config))
        fault = FaultConfig(
            fault_plan=_plan(delay={"every": 1, "seconds": 30.0}, workers=[0]),
            op_timeout_s=0.5,
        )
        config = replace(film_config, fault=fault)
        with Session(
            film_graph, config, backend="multiprocess", num_workers=2
        ) as session:
            result = session.discover()
            metrics = session.metrics()
            assert metrics.lifecycle.timeouts >= 1
            assert metrics.lifecycle.respawns >= 1
        assert _fingerprint(result) == reference

    def test_degradation_ladder_demotes_to_serial(
        self, film_graph, film_config
    ):
        """A persistently-crashing worker degrades; results still agree."""
        reference = _fingerprint(discover(film_graph, film_config))
        fault = FaultConfig(
            fault_plan=_plan(kill_every=1, persist=True, workers=[0]),
            max_respawns=1,
        )
        config = replace(film_config, fault=fault)
        with pytest.warns(RuntimeWarning, match="respawn budget"):
            with Session(
                film_graph, config, backend="multiprocess", num_workers=2
            ) as session:
                result = session.discover()
                metrics = session.metrics()
                assert metrics.lifecycle.degraded_workers == 1
                assert metrics.lifecycle.respawns >= 2
        assert _fingerprint(result) == reference

    def test_fault_free_supervision_is_transparent(
        self, film_graph, film_config
    ):
        """Supervision without injected faults: same results, zero events."""
        reference = _fingerprint(discover(film_graph, film_config))
        config = replace(film_config, fault=FaultConfig())
        with Session(
            film_graph, config, backend="multiprocess", num_workers=2
        ) as session:
            result = session.discover()
            data = session.metrics().as_dict()
        assert _fingerprint(result) == reference
        assert data["faults"] == {
            "timeouts": 0,
            "retries": 0,
            "respawns": 0,
            "degraded_workers": 0,
        }
        assert data["timings"]["recovery_seconds"] == 0.0

    def test_transfer_ledger_identical_under_faults(
        self, film_graph, film_config
    ):
        """Retries/replays never double-account master-boundary rows,
        supersteps or per-worker work."""
        with Session(
            film_graph,
            replace(film_config, fault=FaultConfig()),
            backend="multiprocess",
            num_workers=2,
        ) as clean_session:
            clean_session.discover()
            clean = _counted(clean_session.metrics().as_dict())
        fault = FaultConfig(
            fault_plan=_plan(kill_on={"op": "eval", "nth": 1}, workers=[0])
        )
        with Session(
            film_graph,
            replace(film_config, fault=fault),
            backend="multiprocess",
            num_workers=2,
        ) as chaos_session:
            chaos_session.discover()
            chaos = _counted(chaos_session.metrics().as_dict())
            assert chaos_session.metrics().lifecycle.respawns >= 1
        assert chaos == clean


def _counted(metrics):
    """The exact-count blocks of a ``SessionMetrics.as_dict()``."""
    return {key: metrics[key] for key in ("transfers", "cluster", "work")}


# ----------------------------------------------------------------------
# supervision is a failure policy: the supervised route is the production one
# ----------------------------------------------------------------------
@needs_mp
class TestOneTransport:
    """A supervised backend stages large payloads and ships index deltas
    like an unsupervised one; recovery still yields identical results.

    ``film_graph``'s arrays are far below the staging threshold, so each
    test lowers it to one byte and the staged route really runs."""

    @pytest.fixture(autouse=True)
    def stage_everything(self, monkeypatch):
        monkeypatch.setattr(backend_module, "_SHM_PAYLOAD_MIN_BYTES", 1)

    @staticmethod
    def _batches(monkeypatch):
        """Spy on payload staging: per waited batch, whether it was staged
        and its ``(worker, op)`` pairs."""
        batches = []
        original = backend_module._stage_payloads

        def spy(requests):
            submitted, pack = original(requests)
            batches.append(
                (pack is not None, [(worker, op) for worker, op, _, _ in requests])
            )
            return submitted, pack

        monkeypatch.setattr(backend_module, "_stage_payloads", spy)
        return batches

    @staticmethod
    def _staged(batches, op):
        """Whether some staged batch carried ``op``."""
        return any(
            staged and any(each == op for _, each in pairs)
            for staged, pairs in batches
        )

    @staticmethod
    def _enforce_then_refresh(session, graph):
        session.discover()
        assert session.enforce().is_clean
        graph.set_attr(0, "type", "gardener")
        assert session.refresh().mode == "incremental"

    def test_delta_refresh_then_kill_recovers_current_snapshot(
        self, film_graph, film_config, monkeypatch
    ):
        """A delta refresh leaves the respawn base on the old snapshot; a
        worker killed at the next refresh must come back on the current
        one, or its re-judged rows read stale attributes."""
        batches = self._batches(monkeypatch)
        twin_graph = film_graph.copy()
        with Session(
            twin_graph, replace(film_config, fault=FaultConfig()),
            backend="multiprocess", num_workers=2,
        ) as twin:
            self._enforce_then_refresh(twin, twin_graph)
        # worker 0 dies on its first enforce_update of the *next* refresh
        nth = 1 + sum(
            pair == (0, "enforce_update") for _, pairs in batches for pair in pairs
        )
        batches.clear()
        fault = FaultConfig(
            fault_plan=_plan(
                kill_on={"op": "enforce_update", "nth": nth}, workers=[0]
            )
        )
        config = replace(film_config, fault=fault)
        with Session(
            film_graph, config, backend="multiprocess", num_workers=2
        ) as session:
            self._enforce_then_refresh(session, film_graph)
            sigma = session.sigma
            lifecycle = session.metrics().lifecycle
            assert lifecycle.delta_refreshes == 1
            assert lifecycle.respawns == 0
            for node in range(1, 60, 7):
                film_graph.set_attr(node, "type", "gardener")
            report = session.refresh()
            lifecycle = session.metrics().lifecycle
            assert lifecycle.respawns == 1
            assert lifecycle.delta_refreshes == 2
        assert self._staged(batches, "enforce_install")
        assert self._staged(batches, "enforce_update")
        assert report.mode == "incremental"
        with Session(film_graph.copy()) as fresh:
            fresh.set_sigma(sigma)
            assert report_payload(report) == report_payload(fresh.enforce())
        assert [rule.violation_count for rule in report.rules] == [
            len({violation.match for violation in find_violations(film_graph, gfd)})
            for gfd in sigma
        ]
        assert report.total_violations > 0

    def test_degraded_slot_runs_a_staged_batch_unstaged(
        self, film_graph, film_config, monkeypatch
    ):
        """Worker 0 dies on every install and has no respawn budget: its
        slot degrades mid-batch and must run the batch's real arrays, not
        the segment markers its pool was sent."""
        batches = self._batches(monkeypatch)
        reference = discover(film_graph, film_config)
        fault = FaultConfig(
            fault_plan=_plan(
                kill_on={"op": "install", "nth": 1}, persist=True, workers=[0]
            ),
            max_respawns=0,
        )
        config = replace(film_config, fault=fault)
        with pytest.warns(RuntimeWarning, match="respawn budget"):
            with Session(
                film_graph, config, backend="multiprocess", num_workers=2
            ) as session:
                result = session.discover()
                assert session.metrics().lifecycle.degraded_workers == 1
        assert self._staged(batches, "install")
        assert _fingerprint(result) == _fingerprint(reference)
