"""The serving layer (PR 10): MVCC snapshots, group commit, identity.

Four guarantee families:

1. **Chain mechanics** — publish/pin/release refcounting, retire-on-
   publish, pinned-version survival, store-mapping release through the
   PR 9 seam, leak accounting at close.
2. **Group commit** — batches land in one published version, every
   waiter resolves with the version whose report first reflects its
   write, failed ops poison only their batch.
3. **Service semantics** — admission control (queue depth, deadlines,
   closed), budget clamping, read-your-writes, the HTTP front and the
   ``repro-gfd serve`` CLI verb.
4. **Replay identity under concurrency** (the satellite-4 harness) —
   randomized concurrent read/write traffic, on the serial and
   multiprocess backends and under a seeded worker-kill fault plan,
   where every validate / discover / cover response served at pinned
   version ``V`` must equal a single-client :class:`repro.Session`
   replaying the commit log up to ``V``.

Plus the answer memos: each read answer is computed once per state it
reads (validate per snapshot, cover per served Σ, discover per graph
version and budget), with one engine build while covers are served.

Plus the satellite units: the streaming per-rule exact monitor, the
engine's start-of-pass version capture (readers on version ``N`` never
observe ``N+1`` mid-request and racing deltas are never lost), and the
Σ-adjacent warm-start persistence (monitor state).
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import random
import threading

import numpy as np
import pytest

from repro import Session, Tracer, format_gfd, parse_gfd
from repro.core import FaultConfig
from repro.enforce import RuleSketchMonitor
from repro.gfd.parser import dumps_sigma
from repro.oracle import find_violations
from repro.graph import load_index, save_index
from repro.graph.index import GraphIndex
from repro.parallel import shared_memory_available
from repro.parallel.janitor import live_mappings, live_segments
from repro.serve import (
    DeadlineExceeded,
    EnforcementService,
    GroupCommitWriter,
    LoadResult,
    MutationOp,
    ServeConfig,
    ServiceClosed,
    ServiceOverloaded,
    Snapshot,
    SnapshotChain,
    TrafficMix,
    apply_ops,
    report_payload,
    run_load,
    serve_http,
)

BACKENDS = ["serial"]
if shared_memory_available():
    BACKENDS.append("multiprocess")

#: The film_graph invariants (it is clean w.r.t. all three).
PHI_FILM = (
    'Q[x, y] { (x:person)-[create]->(y:product) } '
    '(y.type="film" -> x.type="producer")'
)
PHI_BOOK = (
    'Q[x, y] { (x:person)-[create]->(y:product) } '
    '(y.type="book" -> x.type="actor")'
)
PHI_PARENT = (
    "Q[x, y] { (x:person)-[parent]->(y:person), (y)-[parent]->(x) } "
    "( -> false)"
)


#: A monitor state as the HyperLogLog monitor persisted it (schema v1).
V1_HLL_STATE = {
    "version": 1,
    "backend": "hll",
    "precision": 4,
    "absorbed": 1,
    "rules": {
        PHI_FILM: {
            "kind": "registers",
            "precision": 4,
            "registers": "AAAAAAAAAAAAAAAAAAAAAA==",
        }
    },
}


def film_rules():
    return [parse_gfd(PHI_FILM), parse_gfd(PHI_BOOK), parse_gfd(PHI_PARENT)]


def _report(graph, rules):
    """A real EnforcementReport (the chain stores them as read surface)."""
    with Session(graph) as session:
        session.set_sigma(rules)
        return session.enforce()


# ---------------------------------------------------------------------------
# 1. SnapshotChain mechanics
# ---------------------------------------------------------------------------
class TestSnapshotChain:
    def _snapshot(self, version, index=None):
        return Snapshot(
            version=version, graph_version=version, index=index, report=None
        )

    def test_publish_retires_older_unpinned(self):
        chain = SnapshotChain()
        chain.publish(self._snapshot(0))
        chain.publish(self._snapshot(1))
        assert chain.live_versions() == [1]
        stats = chain.stats()
        assert stats["published"] == 2 and stats["retired"] == 1

    def test_publish_must_increase(self):
        chain = SnapshotChain()
        chain.publish(self._snapshot(3))
        with pytest.raises(ValueError):
            chain.publish(self._snapshot(3))

    def test_pinned_version_survives_publication(self):
        chain = SnapshotChain()
        chain.publish(self._snapshot(0))
        lease = chain.pin()
        chain.publish(self._snapshot(1))
        chain.publish(self._snapshot(2))
        # version 0 is pinned: alive; version 1 was unpinned: retired
        assert chain.live_versions() == [0, 2]
        assert lease.version == 0
        lease.release()
        assert chain.live_versions() == [2]

    def test_pin_specific_and_missing_version(self):
        chain = SnapshotChain()
        chain.publish(self._snapshot(0))
        chain.publish(self._snapshot(1))
        with chain.pin(1) as lease:
            assert lease.version == 1
        with pytest.raises(LookupError):
            chain.pin(0)  # retired
        with pytest.raises(LookupError):
            chain.pin(7)  # never existed

    def test_release_is_idempotent_but_chain_guards_overrelease(self):
        chain = SnapshotChain()
        chain.publish(self._snapshot(0))
        lease = chain.pin()
        lease.release()
        lease.release()  # lease-level double release: fine
        chain.publish(self._snapshot(1))
        with pytest.raises(RuntimeError):
            chain.release(1)  # never pinned

    def test_retire_releases_store_mapping(self, film_graph, tmp_path):
        path = save_index(GraphIndex.build(film_graph), tmp_path / "g.rgix")
        attached = load_index(path, mmap=True)
        assert attached.store_mapping is not None
        chain = SnapshotChain()
        chain.publish(self._snapshot(0, index=attached))
        chain.publish(self._snapshot(1))
        assert attached.store_mapping is None  # released through the seam
        assert chain.stats()["mappings_released"] == 1
        assert attached not in live_mappings()

    def test_close_counts_leaked_leases(self):
        chain = SnapshotChain()
        chain.publish(self._snapshot(0))
        chain.pin()
        chain.pin()
        assert chain.close() == 2
        assert chain.live_versions() == []

    def test_shared_index_released_once_with_last_version(self, film_graph, tmp_path):
        path = save_index(GraphIndex.build(film_graph), tmp_path / "g.rgix")
        attached = load_index(path, mmap=True)
        chain = SnapshotChain()
        chain.publish(self._snapshot(0, index=attached))
        lease = chain.pin(0)
        chain.publish(self._snapshot(1, index=attached))
        lease.release()  # retires 0, but version 1 still holds the index
        assert attached.store_mapping is not None
        chain.publish(self._snapshot(2))
        assert attached.store_mapping is None
        assert chain.stats()["mappings_released"] == 1


# ---------------------------------------------------------------------------
# 2. MutationOp + GroupCommitWriter
# ---------------------------------------------------------------------------
class TestMutationOp:
    def test_from_dict_roundtrip(self):
        op = MutationOp.from_dict(
            {"op": "set_attr", "node": 3, "attr": "name", "value": "x"}
        )
        assert op.as_dict() == {
            "op": "set_attr", "node": 3, "attr": "name", "value": "x"
        }

    def test_unknown_op_and_missing_args_rejected(self):
        with pytest.raises(ValueError, match="unknown mutation op"):
            MutationOp.from_dict({"op": "drop_table"})
        with pytest.raises(ValueError, match="missing"):
            MutationOp.from_dict({"op": "add_edge", "src": 0, "dst": 1})

    def test_apply_ops_replays(self, film_graph):
        replica = film_graph.copy()
        ops = [
            MutationOp("set_attr", {"node": 0, "attr": "type", "value": "actor"}),
            MutationOp("add_node", {"label": "person", "attrs": {"type": "actor"}}),
        ]
        apply_ops(replica, ops)
        assert replica.get_attr(0, "type") == "actor"
        assert replica.num_nodes == film_graph.num_nodes + 1


class TestGroupCommitWriter:
    def test_bootstrap_then_commits_publish_increasing_versions(self, film_graph):
        with Session(film_graph) as session:
            session.set_sigma(film_rules())
            chain = SnapshotChain()
            writer = GroupCommitWriter(session, chain)
            v0 = writer.bootstrap()
            assert v0.version == 0 and v0.report.is_clean
            batch = [
                MutationOp("set_attr", {"node": 0, "attr": "type", "value": "actor"})
            ]
            v1 = writer.commit(batch)
            assert v1.version == 1
            assert v1.report.total_violations > 0
            assert writer.commit_log == [batch]
            v2 = writer.commit(
                [MutationOp("set_attr",
                            {"node": 0, "attr": "type", "value": "producer"})]
            )
            assert v2.version == 2 and v2.report.is_clean
            assert chain.current_version == 2
            chain.close()

    def test_fifty_commits_never_rebuild_the_index(self, film_graph):
        """Every published version's index is a patch of the previous one."""
        rng = random.Random(3)
        base = film_graph.copy()
        with Session(film_graph) as session:
            session.set_sigma(film_rules())
            chain = SnapshotChain()
            writer = GroupCommitWriter(session, chain)
            writer.bootstrap()
            builds = GraphIndex.builds_performed
            for commit in range(50):
                node = rng.randrange(film_graph.num_nodes)
                ops = [
                    MutationOp("set_attr", {
                        "node": node, "attr": "type",
                        "value": rng.choice(["actor", "producer", "film"])}),
                    MutationOp("add_edge", {
                        "src": node, "dst": rng.randrange(120),
                        "label": rng.choice(["parent", "create"])}),
                    MutationOp("add_node", {
                        "label": "person", "attrs": {"name": f"n{commit}"}}),
                ]
                snapshot = writer.commit(ops)
                assert snapshot.index is session.index
                assert snapshot.report.mode == "incremental"
            assert GraphIndex.builds_performed == builds
            served = report_payload(snapshot.report)
            chain.close()
        for batch in writer.commit_log:
            apply_ops(base, batch)
        assert served == report_payload(_report(base, film_rules()))

    def test_failed_op_poisons_batch_next_commit_absorbs_prefix(self, film_graph):
        with Session(film_graph) as session:
            session.set_sigma(film_rules())
            chain = SnapshotChain()
            writer = GroupCommitWriter(session, chain)
            writer.bootstrap()
            bad = [
                MutationOp("set_attr", {"node": 0, "attr": "type", "value": "actor"}),
                MutationOp("set_attr",
                           {"node": 10**6, "attr": "type", "value": "actor"}),
            ]
            with pytest.raises(Exception):
                writer.commit(bad)
            assert writer.commit_log == []  # failed batch not recorded
            # the applied prefix is still in the graph + delta log: the next
            # successful commit's refresh absorbs it
            good = [
                MutationOp("set_attr", {"node": 1, "attr": "name", "value": "z"})
            ]
            snapshot = writer.commit(good)
            assert snapshot.version == 1
            assert snapshot.report.total_violations > 0  # sees node 0's edit
            chain.close()

    def test_failed_batch_prefix_is_in_the_replay_record(self, film_graph):
        """Replaying ``commit_log[:1]`` reproduces version 1, including the
        prefix the failed batch applied before it raised."""
        base = film_graph.copy()
        with Session(film_graph) as session:
            session.set_sigma(film_rules())
            chain = SnapshotChain()
            writer = GroupCommitWriter(session, chain)
            writer.bootstrap()
            prefix = MutationOp(
                "set_attr", {"node": 0, "attr": "type", "value": "actor"}
            )
            with pytest.raises(Exception):
                writer.commit([
                    prefix,
                    MutationOp("set_attr",
                               {"node": 10**6, "attr": "type", "value": "x"}),
                ])
            good = MutationOp(
                "set_attr", {"node": 1, "attr": "name", "value": "z"}
            )
            snapshot = writer.commit([good])
            served = report_payload(snapshot.report)
            chain.close()
        assert snapshot.ops == [prefix, good]
        assert writer.commit_log == [[prefix, good]]
        apply_ops(base, writer.commit_log[0])
        assert served == report_payload(_report(base, film_rules()))
        assert served["total_violations"] > 0


# ---------------------------------------------------------------------------
# 3. Service semantics
# ---------------------------------------------------------------------------
def _service(graph, **kwargs):
    kwargs.setdefault("sigma", film_rules())
    return EnforcementService(graph, **kwargs)


class TestServiceSemantics:
    def test_validate_mutate_read_your_writes(self, film_graph):
        async def scenario():
            async with _service(film_graph.copy()) as service:
                v0 = await service.validate()
                assert v0["version"] == 0 and v0["clean"]
                answer = await service.mutate(
                    [{"op": "set_attr", "node": 0, "attr": "type",
                      "value": "actor"}]
                )
                dirty = await service.validate(version=answer["version"])
                assert dirty["total_violations"] > 0
                assert dirty["version"] == answer["version"]
            assert service.leaked_leases == 0

        asyncio.run(scenario())

    def test_pinned_reader_does_not_observe_next_version(self, film_graph):
        """A lease pinned at version N serves N even after N+1 publishes."""
        async def scenario():
            async with _service(film_graph.copy()) as service:
                lease = service.pin()
                assert lease.version == 0
                await service.mutate(
                    [{"op": "set_attr", "node": 0, "attr": "type",
                      "value": "actor"}]
                )
                assert service.chain.current_version == 1
                # the pinned lease still reads version 0's clean report
                assert lease.report.is_clean
                pinned = await service.validate(version=0)
                assert pinned["clean"] and pinned["version"] == 0
                lease.release()
                with pytest.raises(LookupError):
                    await service.validate(version=0)  # now retired

        asyncio.run(scenario())

    def test_group_commit_batches_concurrent_writers(self, film_graph):
        async def scenario():
            config = ServeConfig(commit_linger_s=0.05)
            async with _service(film_graph.copy(), serve=config) as service:
                answers = await asyncio.gather(*(
                    service.mutate(
                        [{"op": "set_attr", "node": node, "attr": "name",
                          "value": "w"}]
                    )
                    for node in range(6)
                ))
                versions = {a["version"] for a in answers}
                # all six are pending before the flush runs: one commit
                assert len(versions) < 6
                assert service.writer.commits == len(versions)
                assert service.writer.mutations == 6

        asyncio.run(scenario())

    def test_queue_depth_rejection(self, film_graph):
        async def scenario():
            config = ServeConfig(max_queue_depth=1, commit_linger_s=0.0)
            async with _service(film_graph.copy(), serve=config) as service:
                gate = threading.Event()
                blocker = service._loop.run_in_executor(
                    service._pool, gate.wait
                )
                queued = asyncio.ensure_future(service.discover(max_rules=1))
                try:
                    await asyncio.sleep(0.02)  # fills the one admitted slot
                    with pytest.raises(ServiceOverloaded):
                        await service.cover()
                finally:
                    # opened on every exit: a held lane would hang close()
                    gate.set()
                    await queued
                    await blocker

        asyncio.run(scenario())

    def test_deadline_rejection_for_queued_work(self, film_graph):
        async def scenario():
            async with _service(film_graph.copy()) as service:
                gate = threading.Event()
                blocker = service._loop.run_in_executor(
                    service._pool, gate.wait
                )
                try:
                    await asyncio.sleep(0.01)
                    expired = asyncio.ensure_future(
                        service.cover(deadline_s=0.05)
                    )
                    await asyncio.sleep(0.15)  # deadline passes while queued
                finally:
                    # opened on every exit: a held lane would hang close()
                    gate.set()
                with pytest.raises(DeadlineExceeded):
                    await expired
                await blocker

        asyncio.run(scenario())

    def test_closed_service_rejects(self, film_graph):
        async def scenario():
            service = _service(film_graph.copy())
            await service.start()
            await service.close()
            with pytest.raises(ServiceClosed):
                await service.validate()
            with pytest.raises(ServiceClosed):
                await service.mutate(
                    [{"op": "set_attr", "node": 0, "attr": "name",
                      "value": "x"}]
                )

        asyncio.run(scenario())

    def test_discover_budgets_clamp_to_service_caps(self, film_graph, film_config):
        async def scenario():
            config = ServeConfig(discover_max_rules=4, discover_max_levels=2)
            async with _service(
                film_graph.copy(), config=film_config, serve=config
            ) as service:
                answer = await service.discover(max_rules=500, max_levels=50)
                assert answer["max_rules"] == 4
                assert answer["max_levels"] == 2
                assert len(answer["rules"]) <= 4
                # and the served Σ is untouched (read-only analytics)
                assert len(service.session.sigma) == 3

        asyncio.run(scenario())

    def test_zero_and_negative_discover_budgets(self, film_graph, film_config):
        async def scenario():
            async with _service(
                film_graph.copy(), config=film_config
            ) as service:
                answer = await service.discover(max_rules=0)
                assert answer["max_rules"] == 0 and answer["rules"] == []
                memo = dict(service.stats()["answer_memo"]["discover"])
                streams = service.session.metrics().phases["discover_iter"]
                for budgets in ({"max_rules": -1}, {"max_levels": -1}):
                    with pytest.raises(ValueError, match="must be >= 0"):
                        await service.discover(**budgets)
                # rejected before admission: never reached the lane
                assert service.stats()["answer_memo"]["discover"] == memo
                phases = service.session.metrics().phases
                assert phases["discover_iter"] == streams

        asyncio.run(scenario())

    def test_startup_discovery_when_no_sigma(self, film_graph, film_config):
        async def scenario():
            async with EnforcementService(
                film_graph.copy(), config=film_config,
                serve=ServeConfig(discover_max_rules=6),
            ) as service:
                assert 0 < len(service.session.sigma) <= 6
                answer = await service.validate()
                assert answer["version"] == 0

        asyncio.run(scenario())

    def test_metrics_and_stats_surfaces(self, film_graph):
        async def scenario():
            async with _service(film_graph.copy()) as service:
                await service.validate()
                await service.mutate(
                    [{"op": "set_attr", "node": 0, "attr": "type",
                      "value": "actor"}]
                )
                stats = service.stats()
                assert stats["version"] == 1
                assert stats["commits"] == 1
                text = service.metrics_text()
                assert "repro_serve_requests_total" in text
                assert 'kind="validate",outcome="ok"' in text
                assert "repro_serve_rule_distinct_pivots_ever" in text
                assert "repro_serve_current_version 1" in text

        asyncio.run(scenario())

    def test_zero_leaks_after_shutdown(self, film_graph, tmp_path):
        # earlier test modules may hold their own registrations open, so
        # assert the serve run adds nothing rather than global emptiness
        segments_before = set(live_segments())
        mappings_before = set(id(m) for m in live_mappings())

        async def scenario():
            index_path = tmp_path / "serve.rgix"
            async with _service(
                film_graph.copy(), index_path=index_path
            ) as service:
                await service.mutate(
                    [{"op": "set_attr", "node": 0, "attr": "type",
                      "value": "actor"}]
                )
                await service.validate()
            assert service.leaked_leases == 0
            assert service.chain.live_versions() == []

        asyncio.run(scenario())
        assert set(live_segments()) <= segments_before
        assert {id(m) for m in live_mappings()} <= mappings_before

    def test_validate_rejects_bad_rule_positions(self, film_graph):
        """A rule subset is distinct positions of Σ, checked before pinning:
        no negative alias, no bool alias, no rule counted twice."""
        async def scenario():
            async with _service(film_graph.copy()) as service:
                size = len(service.session.sigma)
                assert size > 1
                await service.mutate(_set_attr(0))
                for rules in ([-1], [True], [False], [0, 0], [size], [1.0]):
                    with pytest.raises(ValueError):
                        await service.validate(rules=rules)
                # nothing was pinned by a rejected request
                assert service.chain.pinned_leases() == 0
                answer = await service.validate(rules=[1, 0])
                assert [e["position"] for e in answer["rules"]] == [1, 0]
                assert answer["total_violations"] == sum(
                    e["violations"] for e in answer["rules"])

        asyncio.run(scenario())


def _set_attr(node, attr="type", value="actor"):
    return [{"op": "set_attr", "node": node, "attr": attr, "value": value}]


class TestAnswerMemo:
    """Each read answer is computed once per exact state it reads."""

    @staticmethod
    def _memo(service, kind):
        return service.stats()["answer_memo"][kind]

    def test_commit_retires_discover_memo_not_cover_memo(
        self, film_graph, film_config
    ):
        async def scenario():
            async with _service(
                film_graph.copy(), config=film_config
            ) as service:
                first = await service.discover(max_rules=2)
                again = await service.discover(max_rules=2)
                assert again == first and again is not first
                assert again["rules"] is first["rules"]
                await service.discover(max_rules=1)  # another budget: a miss
                cover = await service.cover()
                await service.mutate(_set_attr(0))
                # the stored budget again, at a new graph version: a miss
                after = await service.discover(max_rules=1)
                assert after["version"] == 1
                covered = await service.cover()
                assert covered["version"] == 1
                assert covered["rules"] is cover["rules"]
                assert self._memo(service, "discover") == {"hit": 1, "miss": 3}
                assert self._memo(service, "cover") == {"hit": 1, "miss": 1}
                assert service.session.metrics().phases["cover"] == 1

        asyncio.run(scenario())

    def test_sigma_change_retires_cover_memo(self, film_graph):
        async def scenario():
            async with _service(film_graph.copy()) as service:
                full = await service.cover()
                await service._loop.run_in_executor(
                    service._pool, service.session.set_sigma, film_rules()[:2]
                )
                smaller = await service.cover()
                assert (full["input_size"], smaller["input_size"]) == (3, 2)
                assert self._memo(service, "cover") == {"hit": 0, "miss": 2}

        asyncio.run(scenario())

    def test_retired_snapshot_holds_no_payloads(self, film_graph):
        async def scenario():
            async with _service(film_graph.copy()) as service:
                lease = service.pin()
                v0 = lease.snapshot
                await service.validate()
                await service.validate(include_nodes=True)
                assert len(v0.payloads) == 2
                await service.mutate(_set_attr(0))
                assert v0.payloads  # pinned: still live
                lease.release()  # the last lease retires version 0
                assert v0.payloads == {}
                await service.validate()
                return service.chain.current
        current = asyncio.run(scenario())
        assert current.payloads == {}  # close retires every version

    def test_validate_responses_share_one_render(self, film_graph):
        async def scenario():
            async with _service(film_graph.copy()) as service:
                await service.mutate(_set_attr(0))
                flags = dict(include_nodes=True, include_samples=True)
                a = await service.validate(**flags)
                b = await service.validate(**flags)
                assert a == b and a is not b and a["rules"] is b["rules"]
                assert a["total_violations"] > 0
                subset = await service.validate(rules=[0], **flags)
                assert _strip_envelope(subset) == report_payload(
                    service.chain.current.report, rules=[0]
                )
                assert self._memo(service, "validate") == {"hit": 1, "miss": 2}

        asyncio.run(scenario())

    def test_covers_between_commits_build_one_engine(self, film_graph):
        tracer = Tracer()

        async def scenario():
            async with _service(film_graph.copy(), tracer=tracer) as service:
                for node in range(5):
                    await service.cover()
                    await service.mutate(_set_attr(node, "name", "w"))
                    await service.validate()
                return service.session.metrics().phases

        phases = asyncio.run(scenario())
        builds = [e for e in tracer.events if e["type"] == "engine_build"]
        assert [e["reason"] for e in builds] == ["first_use"]
        assert phases["cover"] == 1

    def test_hits_plus_misses_equal_requests(self, film_graph):
        async def scenario():
            async with _service(
                film_graph.copy(), serve=ServeConfig(commit_linger_s=0.01)
            ) as service:
                load = await run_load(
                    service, clients=3, requests_per_client=20, seed=9,
                    mix=TrafficMix(0.55, 0.15, 0.15, 0.15),
                    mutation_attrs=["name"], discover_budget=3,
                )
                return load, service.stats(), service.metrics_text()

        load, stats, text = asyncio.run(scenario())
        assert load.errors == 0
        memo = stats["answer_memo"]
        for kind in ("validate", "discover", "cover"):
            assert sum(memo[kind].values()) == load.completed.get(kind, 0)
        assert memo["cover"]["miss"] == 1
        assert (
            'repro_serve_answer_memo_total{kind="cover",outcome="miss"} 1'
            in text
        )

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_resident_work_is_done_once(self, film_graph, backend):
        """Under mixed load: ``enforce_install`` ops = workers × plan groups
        × full passes (a discovery drops only its own worker keys, so a
        refresh never re-installs a group), and ``VSpawn`` rounds = levels
        × structure versions (budgeted discovers replay the structural
        frontier after attribute writes)."""
        tracer = Tracer()

        async def scenario():
            async with _service(
                film_graph.copy(),
                serve=ServeConfig(commit_linger_s=0.01),
                backend=backend,
                num_workers=2,
                tracer=tracer,
            ) as service:
                load = await run_load(
                    service, clients=3, requests_per_client=12, seed=2,
                    mix=TrafficMix(0.4, 0.2, 0.1, 0.3),
                    mutation_attrs=["name"], discover_budget=3,
                )
                return load, service.writer.commits, service.chain.current_version

        load, commits, version = asyncio.run(scenario())
        assert load.errors == 0 and load.completed["discover"] > 1
        assert commits == version > 0
        full = [
            event for event in tracer.events
            if event["type"] == "enforce_pass" and event["mode"] == "full"
        ]
        installs = sum(
            span.kind == "op" and span.name == "enforce_install"
            for span in tracer.spans
        )
        assert full and installs == 2 * full[0]["groups_revalidated"] * len(full)
        levels = [
            span.args["level"] for span in tracer.spans
            if span.kind == "level" and span.name.startswith("vspawn")
        ]
        structures = 1 + sum(
            event["type"] == "frontier_drop" and event["reason"] == "structure"
            for event in tracer.events
        )
        assert levels and len(levels) == len(set(levels)) * structures


class TestCommitTriggers:
    """A pending batch lingers only while lane work can still add to it.

    Every scenario sets a 30 s linger under a 5 s ``wait_for``: a commit
    fired by the timer fails the test, so the counts below are exact and
    no timing decides them.
    """

    LINGER = ServeConfig(commit_linger_s=30)

    @staticmethod
    @contextlib.asynccontextmanager
    async def _busy_lane(service):
        """Hold the lane thread and queue a discover behind it: one
        in-flight request until the yielded gate opens (at the latest on
        exit, so a failed assertion cannot leave the lane held)."""
        gate = threading.Event()
        blocker = service._loop.run_in_executor(service._pool, gate.wait)
        queued = asyncio.ensure_future(service.discover(max_rules=0))
        try:
            yield gate
        finally:
            gate.set()
            await queued
            await blocker

    @staticmethod
    def _triggers(**counts):
        return {"size": 0, "drained": 0, "linger": 0, "close": 0, **counts}

    def test_lone_mutation_on_idle_lane_commits_drained(self, film_graph):
        async def scenario():
            async with _service(film_graph.copy(), serve=self.LINGER) as service:
                answer = await asyncio.wait_for(
                    service.mutate(_set_attr(0, "name", "w")), 5
                )
                assert answer["version"] == 1
                return service.stats()

        stats = asyncio.run(scenario())
        assert stats["commits"] == 1
        assert stats["commit_triggers"] == self._triggers(drained=1)

    def test_concurrent_writers_on_idle_lane_share_one_commit(self, film_graph):
        async def scenario():
            async with _service(film_graph.copy(), serve=self.LINGER) as service:
                answers = await asyncio.wait_for(
                    asyncio.gather(
                        service.mutate(_set_attr(0, "name", "a")),
                        service.mutate(_set_attr(1, "name", "b")),
                    ),
                    5,
                )
                assert [a["version"] for a in answers] == [1, 1]
                assert [a["batched_ops"] for a in answers] == [2, 2]
                return service.stats()

        stats = asyncio.run(scenario())
        assert stats["commits"] == 1 and stats["mutations"] == 2
        assert stats["commit_triggers"] == self._triggers(drained=1)

    def test_mutation_lingers_while_lane_busy_then_commits_drained(
        self, film_graph
    ):
        async def scenario():
            async with _service(film_graph.copy(), serve=self.LINGER) as service:
                for version in (1, 2):
                    async with self._busy_lane(service) as gate:
                        if version == 2:
                            # a drain's wake that no flush consumed must
                            # not cut a later linger short
                            service._flush_now.set()
                        write = asyncio.ensure_future(
                            service.mutate(_set_attr(0, "name", f"v{version}"))
                        )
                        await asyncio.sleep(0.05)
                        assert not write.done()
                        assert service.stats()["pending_mutations"] == 1
                        assert service.writer.commits == version - 1
                        gate.set()
                        answer = await asyncio.wait_for(write, 5)
                        assert answer["version"] == version
                return service.stats()

        stats = asyncio.run(scenario())
        assert stats["commit_triggers"] == self._triggers(drained=2)

    def test_size_trigger_fires_while_lane_busy(self, film_graph):
        async def scenario():
            config = ServeConfig(commit_max_batch=2, commit_linger_s=30)
            async with _service(film_graph.copy(), serve=config) as service:
                async with self._busy_lane(service) as gate:
                    writes = [
                        asyncio.ensure_future(
                            service.mutate(_set_attr(node, "name", "w"))
                        )
                        for node in (0, 1)
                    ]
                    await asyncio.sleep(0.05)
                    # the batch left the buffer and waits on the lane
                    assert service.stats()["pending_mutations"] == 0
                    gate.set()
                    answers = await asyncio.wait_for(
                        asyncio.gather(*writes), 5
                    )
                    assert [a["version"] for a in answers] == [1, 1]
                return service.stats()

        stats = asyncio.run(scenario())
        assert stats["commit_triggers"] == self._triggers(size=1)

    def test_triggers_sum_to_commits_after_load(self, film_graph):
        async def scenario():
            async with _service(
                film_graph.copy(), serve=ServeConfig(commit_linger_s=0.01)
            ) as service:
                load = await run_load(
                    service, clients=3, requests_per_client=20, seed=4,
                    mix=TrafficMix(0.4, 0.15, 0.15, 0.3),
                    mutation_attrs=["name"], discover_budget=3,
                )
                return load, service.stats(), service.metrics_text()

        load, stats, text = asyncio.run(scenario())
        assert load.errors == 0
        triggers = stats["commit_triggers"]
        assert stats["commits"] > 0
        assert sum(triggers.values()) == stats["commits"]
        for trigger, count in triggers.items():
            assert (
                f'repro_serve_commit_triggers_total{{trigger="{trigger}"}} '
                f"{count}" in text
            )


class TestLoadResult:
    def test_repr_is_bounded(self):
        response = {"total_violations": 1, "clean": False,
                    "rules": [{"gfd": "x" * 80, "nodes": list(range(64))}]}
        result = LoadResult(requests=10_000, completed={"validate": 10_000})
        result.validate_responses = [dict(response) for _ in range(10_000)]
        result.cover_responses = [response] * 100
        result.discover_responses = [response] * 100
        text = repr(result)
        assert "requests=10000" in text and len(text) < 300


# ---------------------------------------------------------------------------
# 4. HTTP front + CLI verb
# ---------------------------------------------------------------------------
async def _http_json(host, port, method, path, body=None):
    reader, writer = await asyncio.open_connection(host, port)
    payload = json.dumps(body or {}).encode()
    request = (
        f"{method} {path} HTTP/1.1\r\nHost: {host}\r\n"
        f"Content-Length: {len(payload) if method == 'POST' else 0}\r\n\r\n"
    ).encode()
    writer.write(request + (payload if method == "POST" else b""))
    await writer.drain()
    status_line = await reader.readline()
    status = int(status_line.split()[1])
    length = 0
    content_type = ""
    while True:
        line = await reader.readline()
        if line in (b"\r\n", b"\n", b""):
            break
        name, _, value = line.decode().partition(":")
        if name.strip().lower() == "content-length":
            length = int(value.strip())
        elif name.strip().lower() == "content-type":
            content_type = value.strip()
    raw = await reader.readexactly(length)
    writer.close()
    await writer.wait_closed()
    if content_type.startswith("application/json"):
        return status, json.loads(raw)
    return status, raw.decode()


class TestHttpFront:
    def test_routes(self, film_graph):
        async def scenario():
            async with _service(film_graph.copy()) as service:
                server = await serve_http(service, port=0)
                host, port = server.sockets[0].getsockname()[:2]
                try:
                    status, health = await _http_json(host, port, "GET", "/healthz")
                    assert status == 200 and health["ok"]

                    status, answer = await _http_json(
                        host, port, "POST", "/validate")
                    assert status == 200 and answer["version"] == 0

                    status, answer = await _http_json(
                        host, port, "POST", "/mutate",
                        {"ops": [{"op": "set_attr", "node": 0,
                                  "attr": "type", "value": "actor"}]})
                    assert status == 200 and answer["version"] == 1

                    status, answer = await _http_json(
                        host, port, "POST", "/validate")
                    assert answer["total_violations"] > 0

                    status, text = await _http_json(host, port, "GET", "/metrics")
                    assert status == 200
                    assert "repro_serve_requests_total" in text

                    status, answer = await _http_json(host, port, "GET", "/stats")
                    assert status == 200 and answer["commits"] == 1

                    status, _ = await _http_json(host, port, "GET", "/nowhere")
                    assert status == 404

                    status, answer = await _http_json(
                        host, port, "POST", "/mutate",
                        {"ops": [{"op": "drop_table"}]})
                    assert status == 400
                finally:
                    server.close()
                    await server.wait_closed()

        asyncio.run(scenario())

    def test_validate_rejects_bad_rule_positions(self, film_graph):
        async def scenario():
            async with _service(film_graph.copy()) as service:
                size = len(service.session.sigma)
                server = await serve_http(service, port=0)
                host, port = server.sockets[0].getsockname()[:2]
                try:
                    for rules in ([-1], [True], [0, 0], [size], ["0"], "0"):
                        status, answer = await _http_json(
                            host, port, "POST", "/validate", {"rules": rules})
                        assert status == 400, rules
                        assert "bad request" in answer["error"]
                    status, answer = await _http_json(
                        host, port, "POST", "/validate",
                        {"rules": [size - 1, 0]})
                    assert status == 200
                    assert [e["position"] for e in answer["rules"]] == [
                        size - 1, 0]
                finally:
                    server.close()
                    await server.wait_closed()

        asyncio.run(scenario())

    def test_discover_budgets(self, film_graph):
        async def scenario():
            async with _service(film_graph.copy()) as service:
                server = await serve_http(service, port=0)
                host, port = server.sockets[0].getsockname()[:2]
                try:
                    status, answer = await _http_json(
                        host, port, "POST", "/discover", {"max_rules": 0})
                    assert status == 200 and answer["rules"] == []
                    for budgets in ({"max_rules": -1}, {"max_levels": -2}):
                        status, answer = await _http_json(
                            host, port, "POST", "/discover", budgets)
                        assert status == 400, budgets
                        assert "must be >= 0" in answer["detail"]
                finally:
                    server.close()
                    await server.wait_closed()

        asyncio.run(scenario())

    def test_cli_serve_duration(self, film_graph, tmp_path, capsys):
        from repro.cli import main
        from repro.graph.io import save_json

        graph_path = tmp_path / "g.json"
        rules_path = tmp_path / "rules.txt"
        save_json(film_graph, graph_path)
        rules_path.write_text(f"{PHI_FILM}\n{PHI_BOOK}\n")
        code = main([
            "serve", str(graph_path), "--rules", str(rules_path),
            "--port", "0", "--duration", "0.2",
        ])
        assert code == 0
        err = capsys.readouterr().err
        assert "# serving http://" in err
        assert "leaked leases 0" in err


# ---------------------------------------------------------------------------
# 5. Replay identity under randomized concurrency (satellite 4)
# ---------------------------------------------------------------------------
def _strip_envelope(response):
    return {
        k: v for k, v in response.items()
        if k not in ("kind", "version", "graph_version")
    }


def _replayed_graph(base, commit_log, version):
    graph = base.copy()
    for batch in commit_log[:version]:
        apply_ops(graph, batch)
    return graph


def _replay(base, sigma, commit_log, version):
    with Session(_replayed_graph(base, commit_log, version)) as session:
        session.set_sigma(sigma)
        return json.dumps(
            report_payload(
                session.enforce(), include_nodes=True, include_samples=True
            ),
            sort_keys=True,
        )


def _replay_discover(base, commit_log, version, max_rules, max_levels):
    """The unbudgeted stream at ``version``, filtered to patterns with at
    most ``max_levels`` edges and cut to ``max_rules`` — an oracle that
    does not run the engine's budgeted mining."""
    with Session(_replayed_graph(base, commit_log, version)) as session:
        return [
            format_gfd(gfd)
            for gfd in session.discover_iter(update_sigma=False)
            if gfd.pattern.num_edges <= max_levels
        ][:max_rules]


def _assert_replay_identity(base, sigma, commit_log, load):
    """Every validate / discover / cover answer equals a fresh
    single-client ``Session`` at the replayed version."""
    assert load.validate_responses, "load run issued no validate requests"
    assert load.discover_responses, "load run issued no discover requests"
    assert load.cover_responses, "load run issued no cover requests"
    truth = {}
    for response in load.validate_responses:
        version = response["version"]
        if version not in truth:
            truth[version] = _replay(base, sigma, commit_log, version)
        served = json.dumps(_strip_envelope(response), sort_keys=True)
        assert served == truth[version], f"divergence at version {version}"
    discovered = {}
    for response in load.discover_responses:
        key = (response["version"], response["max_rules"], response["max_levels"])
        if key not in discovered:
            discovered[key] = _replay_discover(base, commit_log, *key)
        assert response["rules"] == discovered[key], f"discover diverges at {key}"
    with Session(base.copy()) as session:
        cover = [format_gfd(gfd) for gfd in session.cover(sigma).cover]
    for response in load.cover_responses:
        assert response["rules"] == cover
        assert response["input_size"] == len(sigma)
        assert response["cover_size"] == len(cover)
    return len(truth)


class TestConcurrentReplayIdentity:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_randomized_traffic_is_serializable(self, film_graph, backend):
        base = film_graph
        sigma = film_rules()
        segments_before = set(live_segments())
        mappings_before = set(id(m) for m in live_mappings())

        async def scenario():
            service = EnforcementService(
                base.copy(),
                sigma=sigma,
                serve=ServeConfig(commit_linger_s=0.01),
                backend=backend,
                num_workers=2 if backend == "multiprocess" else None,
            )
            await service.start()
            try:
                load = await run_load(
                    service,
                    clients=4,
                    requests_per_client=12,
                    seed=3,
                    mutation_attrs=["type", "name"],
                    discover_budget=5,
                )
                commit_log = [list(b) for b in service.writer.commit_log]
            finally:
                await service.close()
            assert load.errors == 0
            assert service.leaked_leases == 0
            return load, commit_log

        load, commit_log = asyncio.run(scenario())
        versions = _assert_replay_identity(base, sigma, commit_log, load)
        assert versions >= 1
        assert set(live_segments()) <= segments_before
        assert {id(m) for m in live_mappings()} <= mappings_before

    @pytest.mark.skipif(
        not shared_memory_available(), reason="needs multiprocessing"
    )
    def test_replay_identity_under_worker_kills(self, film_graph):
        """Chaos variant: a worker dies mid-serving; supervision respawns
        it and every served answer still matches the serial replay."""
        base = film_graph
        sigma = film_rules()
        # the service's one backend serves every phase, so the plan
        # supervises the enforcement lane too; the first
        # incremental refresh op on worker 0 dies and is respawn-replayed
        fault = FaultConfig(
            fault_plan=json.dumps(
                {"kill_on": {"op": "enforce_update", "nth": 1},
                 "workers": [0]}
            )
        )

        async def scenario():
            service = EnforcementService(
                base.copy(),
                sigma=sigma,
                serve=ServeConfig(commit_linger_s=0.01),
                backend="multiprocess",
                num_workers=2,
                fault=fault,
            )
            await service.start()
            try:
                # a discover before the first commit: the killed update
                # must replay resident shards that outlived a discovery
                opening = await service.discover(max_rules=3)
                load = await run_load(
                    service,
                    clients=3,
                    requests_per_client=8,
                    mix=TrafficMix(validate=0.6, discover=0.1, cover=0.1,
                                   mutate=0.2),
                    seed=5,
                    mutation_attrs=["type"],
                    discover_budget=3,
                )
                load.discover_responses.append(opening)
                commit_log = [list(b) for b in service.writer.commit_log]
                respawns = service.session.metrics().lifecycle.respawns
            finally:
                await service.close()
            assert service.leaked_leases == 0
            return load, commit_log, respawns

        load, commit_log, respawns = asyncio.run(scenario())
        assert load.errors == 0
        if commit_log:  # a commit ran the killed op: the chaos actually hit
            assert respawns >= 1
        _assert_replay_identity(base, sigma, commit_log, load)


# ---------------------------------------------------------------------------
# 6. Satellite units: monitor, engine version capture, persistence
# ---------------------------------------------------------------------------
class TestRuleSketchMonitor:
    def test_exact_backend_counts_distinct_pivots_ever(self, film_graph):
        monitor = RuleSketchMonitor()
        rules = film_rules()
        with Session(film_graph, monitor=monitor) as session:
            session.set_sigma(rules)
            session.enforce()
            assert monitor.estimates() == {}  # clean graph: nothing absorbed
            film_graph.set_attr(0, "type", "actor")  # node 0 made violating
            session.refresh()
            estimates = monitor.estimates()
            assert estimates[format_gfd(rules[0])] == 1
            # repair it, then break a different node: the count is a
            # monotone union — "ever", not "currently"
            film_graph.set_attr(0, "type", "producer")
            film_graph.set_attr(1, "type", "actor")
            session.refresh()
            assert monitor.estimates()[format_gfd(rules[0])] == 2

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_counts_are_the_exact_union_of_violations(self, film_graph, backend):
        """After every refresh, each rule's count is the size of the union
        of its ``find_violations`` pivots over every state so far."""
        monitor = RuleSketchMonitor()
        rules = film_rules()
        rng = random.Random(17)
        people = film_graph.nodes_with_label("person")
        products = film_graph.nodes_with_label("product")
        ever = {format_gfd(rule): set() for rule in rules}
        with Session(
            film_graph,
            monitor=monitor,
            backend=backend,
            num_workers=2 if backend == "multiprocess" else None,
        ) as session:
            session.set_sigma(rules)
            for step in range(21):
                if step == 0:
                    session.enforce()
                else:
                    kind = rng.randrange(3)
                    if kind == 0:
                        film_graph.set_attr(
                            rng.choice(people), "type",
                            rng.choice(["producer", "actor"]),
                        )
                    elif kind == 1:
                        film_graph.set_attr(
                            rng.choice(products), "type",
                            rng.choice(["film", "book"]),
                        )
                    else:
                        film_graph.add_edge(
                            rng.choice(people), rng.choice(people), "parent"
                        )
                    session.refresh()
                for rule in rules:
                    ever[format_gfd(rule)].update(
                        violation.match[rule.pattern.pivot]
                        for violation in find_violations(film_graph, rule)
                    )
                counts = monitor.estimates()
                for rule in rules:
                    text = format_gfd(rule)
                    assert counts.get(text, 0) == len(ever[text])
                    assert type(monitor.estimate(rule)) is int
        assert sum(map(len, ever.values())) > 3  # the walk did break rules

    def test_rule_keys_survive_freed_rules(self):
        """Keys are rule texts, never object ids a freed rule hands on."""
        monitor = RuleSketchMonitor()
        for index in range(200):
            rule = parse_gfd(
                f'Q[x] {{ (x:person) }} ( -> x.name="n{index}")'
            )
            monitor.absorb(rule, np.array([index]))
            del rule
        counts = monitor.estimates()
        assert len(counts) == 200
        assert set(counts.values()) == {1}

    def test_state_roundtrip_and_gauges(self):
        monitor = RuleSketchMonitor()
        rule = parse_gfd(PHI_FILM)
        monitor.absorb(rule, np.array([5, 1, 2, 2]))
        state = monitor.as_state()
        assert state == {
            "version": 2, "absorbed": 1, "rules": {format_gfd(rule): [1, 2, 5]}
        }
        restored = RuleSketchMonitor.from_state(json.loads(json.dumps(state)))
        assert restored.estimates() == monitor.estimates() == {
            format_gfd(rule): 3
        }
        assert restored.absorbed == monitor.absorbed

        from repro.obs import MetricsRegistry

        registry = MetricsRegistry()
        restored.fill_registry(registry)
        text = registry.to_prometheus()
        assert "repro_serve_rule_distinct_pivots_ever" in text
        assert "repro_serve_monitor_absorbed 1" in text

    @pytest.mark.parametrize(
        "bad",
        [
            (V1_HLL_STATE, "unsupported monitor state version 1"),
            (
                {"version": 2, "rules": {PHI_FILM: {"values": [1, 2]}}},
                "expected a list of ints",
            ),
            (
                {"version": 2, "rules": {PHI_FILM: [1, "2"]}},
                "expected a list of ints",
            ),
        ],
    )
    def test_bad_state_fails_at_load_not_at_absorb(self, bad):
        state, message = bad
        with pytest.raises(ValueError, match=message):
            RuleSketchMonitor.from_state(state)

    def test_service_always_builds_a_monitor(self, film_graph):
        service = EnforcementService(film_graph, sigma=film_rules())
        assert isinstance(service.monitor, RuleSketchMonitor)
        assert len(service.monitor) == 0


class TestEngineVersionCapture:
    """Satellite 3: the engine stamps the version it captured at pass
    start, and a delta racing into a running pass is never lost."""

    def test_mid_pass_mutation_not_lost_and_version_is_start_version(
        self, film_graph
    ):
        rules = film_rules()

        class MutatingMonitor:
            """Fires a graph mutation from *inside* the pass (the absorb
            hook runs per evaluated rule) — a stand-in for a writer racing
            the enforcement pass."""

            def __init__(self, graph):
                self.graph = graph
                self.fired = False

            def absorb(self, rule, pivots):
                if not self.fired:
                    self.fired = True
                    self.graph.set_attr(1, "type", "actor")

        monitor = MutatingMonitor(film_graph)
        with Session(film_graph, monitor=monitor) as session:
            session.set_sigma(rules)
            film_graph.set_attr(0, "type", "actor")  # make absorb fire
            start_version = film_graph.version
            report = session.refresh()
            assert monitor.fired
            # stamped with the version captured at pass START, not the
            # version the racing mutation bumped it to
            assert report.graph_version == start_version
            assert film_graph.version > start_version
            # the racing delta survives: the next refresh sees node 1
            flagged = session.refresh().flagged_nodes()
            assert 1 in flagged

    def test_drain_takes_and_clears_atomically(self):
        from repro.enforce import DeltaLog

        delta = DeltaLog()
        delta.record([3])
        delta.record([9])
        taken = delta.drain()
        assert taken == {3, 9}
        assert delta.drain() == set()


class TestSigmaWarmStartPersistence:
    """Monitor state persists beside Σ."""

    def test_sketches_roundtrip(self, film_graph, tmp_path):
        path = tmp_path / "sigma.json"
        monitor = RuleSketchMonitor()
        rules = film_rules()
        with Session(film_graph, monitor=monitor) as session:
            session.set_sigma(rules)
            film_graph.set_attr(0, "type", "actor")
            session.refresh()
            session.cover()
            session.save_sigma(path)
            saved_estimates = monitor.estimates()

        payload = json.loads(path.read_text())
        assert set(payload["state"]) == {"sketches"}

        with Session(film_graph.copy()) as fresh:
            loaded = fresh.load_sigma(path)
            assert {format_gfd(g) for g in loaded} == {
                format_gfd(g) for g in rules
            }
            assert fresh.monitor is not None
            assert fresh.monitor.estimates() == saved_estimates

    def test_envelope_with_chase_costs_still_loads(self, film_graph, tmp_path):
        """Older envelopes carry ``state.chase_costs`` beside the sketches:
        rules, supports and the monitor restore, the costs are ignored, and
        a re-save no longer writes them."""
        rules = film_rules()
        monitor = RuleSketchMonitor()
        with Session(film_graph, monitor=monitor) as session:
            session.set_sigma(rules)
            film_graph.set_attr(0, "type", "actor")
            session.refresh()
            sketches = monitor.as_state()
        supports = {rules[0]: 7, rules[1]: 3}
        path = tmp_path / "old.json"
        for chase_costs in (
            {
                "alpha": 0.5,
                "observations": 3,
                "rate": 0.002,
                "seconds": {'[["person", "product"], [[0, 1, "create"]]]': 0.25},
            },
            {"alpha": 2.0},  # once a load error; now never read
        ):
            payload = json.loads(dumps_sigma(rules, supports=supports))
            payload["state"] = {"chase_costs": chase_costs, "sketches": sketches}
            path.write_text(json.dumps(payload))
            with Session(film_graph.copy()) as fresh:
                loaded = fresh.load_sigma(path)
                assert [format_gfd(g) for g in loaded] == [
                    format_gfd(g) for g in rules
                ]
                assert {
                    format_gfd(g): count for g, count in fresh.supports.items()
                } == {format_gfd(g): count for g, count in supports.items()}
                assert fresh.monitor.as_state() == sketches
                fresh.save_sigma(tmp_path / "resaved.json")
            resaved = json.loads((tmp_path / "resaved.json").read_text())
            assert set(resaved["state"]) == {"sketches"}

    def test_bad_sketch_state_fails_load_sigma_early(
        self, film_graph, tmp_path
    ):
        path = tmp_path / "sigma.json"
        rules = film_rules()
        with Session(film_graph, monitor=RuleSketchMonitor()) as session:
            session.set_sigma(rules)
            film_graph.set_attr(0, "type", "actor")
            session.refresh()
            session.save_sigma(path)
        payload = json.loads(path.read_text())
        sketches = payload["state"]["sketches"]
        malformed = dict(
            sketches, rules={text: [0, "1"] for text in sketches["rules"]}
        )
        for bad, message in [
            (V1_HLL_STATE, "unsupported monitor state version 1"),
            (malformed, "expected a list of ints"),
        ]:
            payload["state"]["sketches"] = bad
            path.write_text(json.dumps(payload))
            with Session(film_graph.copy()) as fresh:
                with pytest.raises(ValueError, match=message):
                    fresh.load_sigma(path)
                # the failed load left the session untouched
                assert fresh.sigma == [] and fresh.monitor is None

    def test_sigma_files_without_state_still_load(self, film_graph, tmp_path):
        path = tmp_path / "plain.json"
        with Session(film_graph) as session:
            session.set_sigma(film_rules())
            session.save_sigma(path, include_state=False)
        payload = json.loads(path.read_text())
        assert "state" not in payload
        with Session(film_graph.copy()) as fresh:
            assert len(fresh.load_sigma(path)) == 3
