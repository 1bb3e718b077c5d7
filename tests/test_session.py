"""The Session facade: one backend lifecycle, streaming, budgets, plugins.

The acceptance property of the API redesign lives here: a full
discover → cover → enforce → refresh pipeline under one
:class:`repro.Session` starts its worker pools exactly once and attaches
the graph index exactly once — read off ``session.metrics()``, not assumed.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro import (
    DiscoveryConfig,
    EnforcementConfig,
    FaultConfig,
    Session,
    Tracer,
    discover,
    parse_gfd,
)
from repro.core import gfd_identity
from repro.core.discovery import reference_discover
from repro.enforce import RuleSketchMonitor
from repro.gfd.satisfaction import find_violations
from repro.parallel import shared_memory_available
from repro.parallel.pardis import ParallelDiscovery
from repro.quality.detector import detect_gfd_violations
from repro.serve import report_payload

BACKENDS = ["serial"]
if shared_memory_available():
    BACKENDS.append("multiprocess")


class TestOneBackendLifecycle:
    """The ISSUE acceptance criterion, per backend."""

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_full_pipeline_single_lifecycle(
        self, film_graph, film_config, backend
    ):
        with Session(
            film_graph, film_config, backend=backend, num_workers=2
        ) as session:
            result = session.discover()
            assert result.gfds
            cover = session.cover()
            assert cover.cover
            report = session.enforce()
            assert report.is_clean  # rules mined from this very graph
            film_graph.set_attr(0, "type", "gardener")
            refreshed = session.refresh()
            assert refreshed.mode == "incremental"
            assert not refreshed.is_clean

            metrics = session.metrics()
            # pools started exactly once, for every phase
            assert metrics.backend_starts == 1
            assert metrics.lifecycle.pools_started == 2
            assert metrics.lifecycle.shutdowns == 0
            # the index was attached exactly once; the post-mutation
            # snapshot went through refresh_index (pools survive)
            assert metrics.lifecycle.index_attaches == 1
            assert metrics.lifecycle.index_refreshes == 1
            assert metrics.phases == {
                "discover": 1,
                "cover": 1,
                "enforce": 1,
                "refresh": 1,
            }
            # supersteps are bounded per level, whatever the pattern count:
            # one install per seeded label (2 here), then per level at most
            # tally + join + install and scan + one eval per lattice depth
            # + probe; the cover adds one (Σ rides the work units' round).
            # No join is skewed on this graph, so no rebalance rounds.
            levels = film_config.edge_budget
            hspawn = 2 + film_config.max_lhs_size
            assert 0 < metrics.cluster.supersteps <= (
                2 + hspawn + levels * (3 + hspawn) + 1
            )
            assert metrics.sigma_size == len(cover.cover)
        # after close the pools are gone
        assert session.metrics().lifecycle.shutdowns == 1

    def test_results_equal_legacy_entry_points(self, film_graph, film_config):
        legacy = discover(film_graph, film_config)
        with Session(film_graph, film_config, num_workers=2) as session:
            result = session.discover()
        assert {gfd_identity(g) for g in result.gfds} == {
            gfd_identity(g) for g in legacy.gfds
        }

    def test_enforce_only_session_never_reads_statistics(
        self, film_graph, film_config, monkeypatch
    ):
        """Γ belongs to the discovery engine, so a session that only
        enforces scans no graph statistics — not when it opens, not after
        a write."""
        from repro.graph.index import GraphIndex

        sigma = discover(film_graph, film_config).gfds
        calls = []
        original = GraphIndex.statistics

        def counted(index, *args, **kwargs):
            calls.append(1)
            return original(index, *args, **kwargs)

        monkeypatch.setattr(GraphIndex, "statistics", counted)
        with Session(film_graph) as session:
            assert session.config.active_attributes is None
            session.enforce(sigma)
            film_graph.set_attr(0, "name", "renamed")
            assert session.refresh().mode == "incremental"
        assert calls == []

    def test_clean_refresh_ships_zero_rows(self, film_graph, film_config):
        with Session(film_graph, film_config) as session:
            session.discover()
            session.enforce()
            before = session.metrics().transfers
            report = session.refresh()  # nothing changed
            after = session.metrics().transfers
            assert report.mode == "full"  # the cached report, unchanged
            assert after.rows_to_workers == before.rows_to_workers
            assert after.rows_to_master == before.rows_to_master

    def test_closed_session_refuses_work(self, film_graph, film_config):
        session = Session(film_graph, film_config)
        session.close()
        with pytest.raises(RuntimeError, match="closed"):
            session.discover()
        session.close()  # idempotent


class TestStreamingDiscovery:
    def test_full_stream_equals_unfiltered_discover(
        self, film_graph, film_config
    ):
        with Session(film_graph, film_config) as session:
            streamed = list(session.discover_iter())
            assert {gfd_identity(g) for g in streamed} == {
                gfd_identity(g) for g in session.sigma
            }
        unfiltered = discover(
            film_graph, replace(film_config, minimality_filter=False)
        )
        assert {gfd_identity(g) for g in streamed} == {
            gfd_identity(g) for g in unfiltered.gfds
        }

    def test_max_rules_budget_stops_early_and_sets_sigma(
        self, film_graph, film_config
    ):
        with Session(film_graph, film_config) as session:
            streamed = list(session.discover_iter(max_rules=3))
            assert len(streamed) == 3
            assert [str(g) for g in session.sigma] == [
                str(g) for g in streamed
            ]
            # supports of the yielded rules came along
            assert all(g in session.supports for g in session.sigma)
            # the session stays usable: the backend survived the early stop
            report = session.enforce()
            assert len(report.rules) == 3
            assert session.metrics().backend_starts == 1

    def test_max_levels_budget(self, film_graph, film_config):
        with Session(film_graph, film_config) as session:
            level0 = list(session.discover_iter(max_levels=0))
            # level 0 = single-node patterns only
            assert all(g.pattern.num_edges == 0 for g in level0)

    def test_zero_rule_budget_yields_nothing_and_mines_nothing(
        self, film_graph, film_config, monkeypatch
    ):
        mined = []
        original = ParallelDiscovery._mine_nodes

        def counting(engine, nodes):
            mined.append(len(nodes))
            return original(engine, nodes)

        monkeypatch.setattr(ParallelDiscovery, "_mine_nodes", counting)
        with Session(film_graph, film_config) as session:
            assert list(session.discover_iter(max_rules=0)) == []
            assert session.sigma == []
            assert mined == []  # no HSpawn at all
            assert list(session.discover_iter(max_rules=0, max_levels=0)) == []
            assert mined == []

    @pytest.mark.parametrize(
        "budgets",
        [
            {"max_rules": -1},
            {"max_levels": -1},
            {"max_rules": -5, "max_levels": 1},
        ],
    )
    def test_negative_budgets_raise_before_any_work(
        self, film_graph, film_config, budgets
    ):
        with Session(film_graph, film_config) as session:
            with pytest.raises(ValueError, match="must be >= 0"):
                session.discover_iter(**budgets)
            assert session.metrics().phases.get("discover_iter", 0) == 0
            assert session.sigma == []

    def test_abandoned_stream_releases_cleanly(self, film_graph, film_config):
        with Session(film_graph, film_config) as session:
            iterator = session.discover_iter()
            first = next(iterator)
            iterator.close()  # abandon mid-level
            assert [str(g) for g in session.sigma] == [str(first)]
            assert session.discover().gfds  # full run still works


class TestReadOnlyCover:
    def test_read_only_cover_keeps_sigma_supports_and_engine(
        self, film_graph, film_config
    ):
        tracer = Tracer()
        with Session(film_graph, film_config, tracer=tracer) as session:
            session.discover()
            session.enforce()
            sigma, supports = session.sigma, session.supports
            read_only = session.cover(update_sigma=False)
            assert session.sigma == sigma
            assert session.supports == supports
            session.enforce()
            builds = [e for e in tracer.events if e["type"] == "engine_build"]
            assert [e["reason"] for e in builds] == ["first_use"]
            # the same answer the Σ-replacing mode gives
            assert session.cover().cover == read_only.cover
            assert session.sigma == read_only.cover

    def test_engine_build_reasons(self, film_graph, film_config):
        tracer = Tracer()
        with Session(film_graph, film_config, tracer=tracer) as session:
            session.discover()
            session.enforce()
            session.enforce(sigma=session.sigma[:1])
            session.refresh()  # continues the override: no build
        builds = [e for e in tracer.events if e["type"] == "engine_build"]
        assert [(e["reason"], e["sigma_size"]) for e in builds] == [
            ("first_use", len(session.sigma)),
            ("sigma_changed", 1),
        ]


class TestSigmaPersistence:
    def test_save_load_round_trip(self, film_graph, film_config, tmp_path):
        path = tmp_path / "sigma.json"
        with Session(film_graph, film_config) as session:
            result = session.discover()
            session.save_sigma(path)
            supports = session.supports
        with Session(film_graph, film_config) as fresh:
            loaded = fresh.load_sigma(path)
            assert [str(g) for g in loaded] == [str(g) for g in result.gfds]
            assert {str(g): s for g, s in fresh.supports.items()} == {
                str(g): s for g, s in supports.items()
            }
            # the loaded Σ drives enforcement directly
            assert fresh.enforce().is_clean


class TestViolationCap:
    def _negative_rule(self):
        # every person match satisfies the (empty) LHS: |violations| = 120
        return [parse_gfd("Q[x] { (x:person) } ( -> false)")]

    def test_counts_stay_exact_under_cap(self, film_graph):
        sigma = self._negative_rule()
        with Session(
            film_graph,
            enforcement=EnforcementConfig(max_violations_per_rule=7),
            num_workers=2,
        ) as capped:
            capped_report = capped.enforce(sigma)
        with Session(film_graph, num_workers=2) as exact:
            exact_report = exact.enforce(sigma)
        capped_rule = capped_report.rules[0]
        exact_rule = exact_report.rules[0]
        assert exact_rule.violation_count == 120
        assert capped_rule.violation_count == 120  # popcounts, not rows
        assert not capped_report.is_clean
        assert capped_rule.witnesses_truncated
        assert not exact_rule.witnesses_truncated
        # witnesses degrade to a subset: at most cap rows per shard
        assert len(capped_rule.nodes) <= 7 * 2
        assert capped_rule.nodes <= exact_rule.nodes
        assert capped_rule.distinct_pivots <= exact_rule.distinct_pivots

    def test_cap_not_binding_is_identity(self, film_graph, film_config):
        sigma = discover(film_graph, film_config).gfds
        film_graph.set_attr(0, "type", "gardener")
        with Session(
            film_graph,
            film_config,
            enforcement=EnforcementConfig(max_violations_per_rule=10_000),
        ) as capped:
            capped_report = capped.enforce(sigma)
        with Session(film_graph, film_config) as exact:
            exact_report = exact.enforce(sigma)
        assert [
            (r.violation_count, r.nodes, r.sample, r.witnesses_truncated)
            for r in capped_report.rules
        ] == [
            (r.violation_count, r.nodes, r.sample, r.witnesses_truncated)
            for r in exact_report.rules
        ]

    def test_cap_survives_incremental_refresh(self, film_graph):
        sigma = self._negative_rule()
        with Session(
            film_graph,
            enforcement=EnforcementConfig(max_violations_per_rule=5),
        ) as session:
            first = session.enforce(sigma)
            film_graph.set_attr(0, "name", "renamed")
            second = session.refresh()
            assert second.mode == "incremental"
            assert second.rules[0].violation_count == 120
            assert second.rules[0].witnesses_truncated
            assert first.rules[0].violation_count == 120


class TestSketchPluggability:
    """The monitor counts exactly, like every other reported count."""

    def test_exact_backend_reports_exact_pivots(self, film_graph):
        sigma = [parse_gfd("Q[x] { (x:person) } ( -> false)")]
        monitor = RuleSketchMonitor()
        with Session(film_graph, monitor=monitor) as session:
            report = session.enforce(sigma)
        assert report.rules[0].distinct_pivots == 120  # no estimation error
        assert monitor.estimate(sigma[0]) == 120
        assert type(monitor.estimate(sigma[0])) is int


class TestPostMutationParity:
    """A long-lived session must equal a fresh run after graph mutations."""

    @staticmethod
    def _chain_graph():
        from repro import Graph

        graph = Graph()
        for _ in range(40):
            graph.add_node("person", {"a": "x"})
        for node in range(39):
            graph.add_edge(node, node + 1, "knows")
        return graph

    def test_gamma_follows_the_mutated_snapshot(self):
        # the top attribute changes after discovery; the session's live
        # workers must mine the new Γ, not the construction-time one
        config = DiscoveryConfig(
            k=2, sigma=10, max_lhs_size=1, max_active_attributes=1
        )
        live = self._chain_graph()
        with Session(live, config) as session:
            session.discover()
            for node in range(40):
                live.set_attr(node, "0b", "y")  # sorts before "a"
            second = session.discover()
        fresh_graph = self._chain_graph()
        for node in range(40):
            fresh_graph.set_attr(node, "0b", "y")
        fresh = discover(fresh_graph, config)
        assert {gfd_identity(g) for g in second.gfds} == {
            gfd_identity(g) for g in fresh.gfds
        }

    def test_labels_added_after_discovery_are_mined(self):
        # a node and edge label that did not exist at the first discovery:
        # the patched snapshot's statistics must seed and extend them
        config = DiscoveryConfig(k=2, sigma=10, max_lhs_size=1)
        live = self._chain_graph()
        with Session(live, config) as session:
            first = session.discover()
            robots = [
                live.add_node("robot", {"a": "r"}) for _ in range(30)
            ]
            for position in range(29):
                live.add_edge(robots[position], robots[position + 1], "serves")
            second = session.discover()
        fresh_graph = self._chain_graph()
        robots = [fresh_graph.add_node("robot", {"a": "r"}) for _ in range(30)]
        for position in range(29):
            fresh_graph.add_edge(robots[position], robots[position + 1], "serves")
        fresh = reference_discover(fresh_graph, config)
        assert {gfd_identity(g) for g in second.gfds} == {
            gfd_identity(g) for g in fresh.gfds
        }
        labels = lambda result: {
            label for g in result.gfds for label in g.pattern.labels
        }
        assert "robot" not in labels(first) and "robot" in labels(second)
        assert any(
            edge.label == "serves" for g in second.gfds for edge in g.pattern.edges
        )

    def test_detector_rejects_a_foreign_session(self, film_graph, film_config):
        sigma = discover(film_graph, film_config).gfds
        other = self._chain_graph()
        with Session(other) as foreign:
            with pytest.raises(ValueError, match="different graph"):
                detect_gfd_violations(film_graph, sigma, session=foreign)

    def test_detector_rejects_mismatched_caps(self, film_graph, film_config):
        # a session-backed detection samples by the session's enforcement
        # config; a contradictory explicit cap must not be dropped silently
        sigma = discover(film_graph, film_config).gfds
        with Session(film_graph) as session:  # default samples cap = 10
            with pytest.raises(ValueError, match="does not match"):
                detect_gfd_violations(
                    film_graph, sigma, max_per_gfd=500, session=session
                )

    def test_metrics_snapshots_do_not_alias_live_counters(
        self, film_graph, film_config
    ):
        with Session(film_graph, film_config) as session:
            session.discover()
            session.enforce()
            before = session.metrics()
            film_graph.set_attr(0, "name", "renamed")
            session.refresh()
            after = session.metrics()
            assert (
                after.lifecycle.index_refreshes
                > before.lifecycle.index_refreshes
            )
            assert after.cluster.supersteps >= before.cluster.supersteps


class TestDetectorSessionReuse:
    def test_detector_reuses_a_supplied_session(self, film_graph, film_config):
        sigma = discover(film_graph, film_config).gfds
        film_graph.set_attr(0, "type", "gardener")
        scoped = detect_gfd_violations(film_graph, sigma, 10_000)
        with Session(
            film_graph,
            enforcement=EnforcementConfig(max_violation_samples=10_000),
            backend="serial",
            num_workers=1,
        ) as session:
            reused = detect_gfd_violations(
                film_graph, sigma, session=session
            )
            # a second call reuses the compiled plan and resident shards
            again = detect_gfd_violations(film_graph, sigma, session=session)
            assert session.metrics().backend_starts == 1
        key = lambda vs: [(str(v.gfd), v.match) for v in vs]  # noqa: E731
        assert key(scoped) == key(reused) == key(again)


class TestAutoBackendPlanner:
    """There is no ``"auto"`` backend: a session runs on exactly one."""

    def test_unknown_backend_still_rejected(self, film_graph, film_config):
        for name in ("bogus", "auto"):
            with pytest.raises(ValueError, match="unknown parallel backend"):
                Session(film_graph, film_config, backend=name)
        with pytest.raises(ValueError, match="parallel_backend"):
            DiscoveryConfig(parallel_backend="auto")


class TestFusedSession:
    """Index snapshots reach live multiprocess workers as array deltas."""

    @pytest.mark.skipif(
        not shared_memory_available(),
        reason="multiprocessing.shared_memory unavailable",
    )
    def test_mutation_ships_a_delta_refresh(self, film_graph, film_config):
        """A small post-mutation snapshot goes through the delta path:
        only the changed arrays cross into shared memory, counted by
        ``lifecycle.delta_refreshes``.  Pinned unsupervised: a supervised
        backend re-ships the whole snapshot (a respawn could not replay a
        delta chain), so a chaos-env fault plan must not leak in."""
        config = replace(film_config, fault=None)
        with Session(
            film_graph, config, backend="multiprocess", num_workers=2
        ) as session:
            session.discover()
            before = session.metrics().lifecycle
            assert before.delta_refreshes == 0
            film_graph.set_attr(0, "type", "gardener")
            session.enforce()
            after = session.metrics().lifecycle
            assert after.index_refreshes == before.index_refreshes + 1
            assert after.delta_refreshes == 1


# ----------------------------------------------------------------------
# worker state belongs to the engine that made it
# ----------------------------------------------------------------------
def _run_full_discover(session):
    session.discover()


def _run_budgeted_stream(session):
    assert len(list(session.discover_iter(max_rules=3, update_sigma=False))) == 3


def _run_abandoned_stream(session):
    stream = session.discover_iter(update_sigma=False)
    next(stream)
    stream.close()


DISCOVERIES = {
    "discover": _run_full_discover,
    "budgeted": _run_budgeted_stream,
    "abandoned": _run_abandoned_stream,
}


def _supervised(config, backend):
    """Multiprocess runs keep the install log, so journals can be compared."""
    return replace(config, fault=FaultConfig()) if backend == "multiprocess" else config


def _resident_keys(session):
    engine = session._engine
    return sorted(engine._group_keys[position] for position in engine._resident)


def _assert_only_enforcement_state(session):
    """Serial workers hold every group of the engine and nothing else."""
    assert len(_resident_keys(session)) == len(session._engine.plan.groups)
    for shard in session.backend().workers:
        assert shard.tables == {} and shard.stores == {} and shard.bits == {}
        assert shard.joins == {} and shard.sigmas == {} and shard.checkers == {}
        assert sorted(shard.enforce_state) == _resident_keys(session)


def _normalized_journals(session):
    """Install logs with keys renamed by first use and arrays as lists."""
    journals = []
    for journal in session.backend()._journals:
        names = {}
        journals.append(
            [
                (
                    op,
                    names.setdefault(key, len(names)),
                    {
                        name: value.tolist() if hasattr(value, "tolist") else value
                        for name, value in payload.items()
                    },
                )
                for op, key, payload in journal
            ]
        )
    return journals


def _assert_reports_agree(report, graph, sigma):
    """``report`` ≡ a fresh session's full pass ≡ ``find_violations``."""
    with Session(graph.copy()) as fresh:
        fresh.set_sigma(sigma)
        assert report_payload(report) == report_payload(fresh.enforce())
    assert [rule.violation_count for rule in report.rules] == [
        len({violation.match for violation in find_violations(graph, gfd)})
        for gfd in sigma
    ]


def _rewire(graph, node):
    """A structural write that leaves the graph as it was: drop and restore
    one out-edge of ``node``, so the matches at both ends re-derive."""
    dst, labels = next(iter(graph.out_neighbors(node).items()))
    label = min(labels)
    graph.remove_edge(node, dst, label)
    graph.add_edge(node, dst, label)


class TestWorkerStateOwnership:
    """A discovery drops exactly its own worker keys: the enforcement
    engine's resident shards survive it, so the next refresh ships only
    the delta — the rows a twin session that never discovered ships."""

    @staticmethod
    def _refresh_after(graph, config, backend, discovery):
        with Session(graph, config, backend=backend, num_workers=2) as session:
            session.discover()
            session.enforce()
            if discovery is not None:
                DISCOVERIES[discovery](session)
            graph.set_attr(0, "type", "gardener")
            before = session.metrics().transfers.rows_to_workers
            rejudged = session.refresh()
            # an attribute write re-judges resident rows in place
            assert session.metrics().transfers.rows_to_workers == before
            _rewire(graph, 0)
            report = session.refresh()
            shipped = session.metrics().transfers.rows_to_workers - before
            assert report_payload(report) == report_payload(rejudged)
            return report, shipped, session.sigma

    @pytest.mark.parametrize("discovery", sorted(DISCOVERIES))
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_refresh_after_discovery_ships_only_the_delta(
        self, film_graph, film_config, backend, discovery
    ):
        twin_graph = film_graph.copy()
        report, shipped, sigma = self._refresh_after(
            film_graph, film_config, backend, discovery
        )
        twin, twin_shipped, twin_sigma = self._refresh_after(
            twin_graph, film_config, backend, None
        )
        assert sigma == twin_sigma
        assert report.mode == twin.mode == "incremental"
        assert 0 < shipped == twin_shipped
        assert report_payload(report) == report_payload(twin)
        assert not report.is_clean
        _assert_reports_agree(report, film_graph, sigma)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_no_worker_state_leaks_across_cycles(
        self, film_graph, film_config, backend
    ):
        config = _supervised(film_config, backend)
        sigma = discover(film_graph, film_config).gfds
        twin_graph = film_graph.copy()
        with Session(
            film_graph, config, backend=backend, num_workers=2
        ) as session, Session(
            twin_graph, config, backend=backend, num_workers=2
        ) as twin:
            for each in (session, twin):
                each.set_sigma(sigma)
                each.enforce()
            for node, discovery in enumerate(sorted(DISCOVERIES)):
                if discovery == "discover":
                    # a full run replaces Σ: stream the whole run instead
                    list(session.discover_iter(update_sigma=False))
                else:
                    DISCOVERIES[discovery](session)
                session.cover(update_sigma=False)
                for graph, each in ((film_graph, session), (twin_graph, twin)):
                    graph.set_attr(node, "type", "gardener")
                    assert each.refresh().mode == "incremental"
            assert report_payload(session.refresh()) == report_payload(
                twin.refresh()
            )
            if backend == "serial":
                _assert_only_enforcement_state(session)
            else:
                assert _normalized_journals(session) == _normalized_journals(
                    twin
                )
                assert all(
                    op.startswith("enforce_")
                    for journal in session.backend()._journals
                    for op, _, _ in journal
                )

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_failed_discovery_drops_its_keys(
        self, film_graph, film_config, backend, monkeypatch
    ):
        config = _supervised(film_config, backend)
        twin_graph = film_graph.copy()
        mine_nodes_batch = ParallelDiscovery._mine_nodes_batch

        def failing(engine, nodes):
            if any(node.pattern.num_edges for node in nodes):
                # level 1 is installed: a real op error (a tally of a key no
                # worker holds), which supervision must not mask
                with engine.cluster.superstep() as step:
                    engine._backend.run_superstep(
                        step, [(0, "tally", -1, {"can_add": False})]
                    )
            return mine_nodes_batch(engine, nodes)

        shipped = {}
        with Session(
            film_graph, config, backend=backend, num_workers=2
        ) as session, Session(
            twin_graph, config, backend=backend, num_workers=2
        ) as twin:
            for each in (session, twin):
                each.discover()
                each.enforce()
            with monkeypatch.context() as patch:
                patch.setattr(ParallelDiscovery, "_mine_nodes_batch", failing)
                with pytest.raises(KeyError):
                    session.discover()
            if backend == "serial":
                _assert_only_enforcement_state(session)
            else:
                assert _normalized_journals(session) == _normalized_journals(
                    twin
                )
            for graph, each in ((film_graph, session), (twin_graph, twin)):
                graph.set_attr(0, "type", "gardener")
                before = each.metrics().transfers.rows_to_workers
                assert each.refresh().mode == "incremental"
                assert each.metrics().transfers.rows_to_workers == before
                _rewire(graph, 0)
                report = each.refresh()
                assert report.mode == "incremental"
                shipped[each is twin] = (
                    each.metrics().transfers.rows_to_workers - before,
                    report_payload(report),
                )
        assert shipped[False] == shipped[True]
        assert shipped[False][0] > 0
