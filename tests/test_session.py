"""The Session facade: one backend lifecycle, streaming, budgets, plugins.

The acceptance property of the API redesign lives here: a full
discover → cover → enforce → refresh pipeline under one
:class:`repro.Session` starts its worker pools exactly once and attaches
the graph index exactly once — read off ``session.metrics()``, not assumed.
"""

from __future__ import annotations

import random
from dataclasses import replace

import pytest

from repro import (
    DiscoveryConfig,
    EnforcementConfig,
    FaultConfig,
    Session,
    Tracer,
    discover,
    format_gfd,
    parse_gfd,
)
from repro.core import gfd_identity
from repro.oracle import reference_discover
from repro.datasets import KB_ATTRIBUTES, imdb_like
from repro.enforce import RuleSketchMonitor
from repro.oracle import find_violations
from repro.parallel import shared_memory_available
from repro.parallel.backend import resolve_execution
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
            supersteps = []
            result = session.discover()
            assert result.gfds
            supersteps.append(session.metrics().work.supersteps)
            cover = session.cover()
            assert cover.cover
            supersteps.append(session.metrics().work.supersteps)
            report = session.enforce()
            assert report.is_clean  # rules mined from this very graph
            supersteps.append(session.metrics().work.supersteps)
            film_graph.set_attr(0, "type", "gardener")
            refreshed = session.refresh()
            assert refreshed.mode == "incremental"
            assert not refreshed.is_clean
            supersteps.append(session.metrics().work.supersteps)

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
            # rounds are per level, not per pattern: seed + k levels of
            # VSpawn/HSpawn, then Σ rides the cover's one round;
            # enforcement ops run outside the superstep count
            assert supersteps == [10, 11, 11, 11]
            assert metrics.sigma_size == len(cover.cover)
        # after close the pools are gone
        assert session.metrics().lifecycle.shutdowns == 1

    def test_repeated_cover_is_identical(self, film_graph, film_config):
        with Session(film_graph, film_config, num_workers=2) as session:
            sigma = session.discover().gfds
            first = session.cover(sigma, update_sigma=False)
            second = session.cover(sigma, update_sigma=False)
        assert first.cover and second.cover == first.cover
        assert second.removed == first.removed

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
    def test_full_stream_equals_unfiltered_discover(self, kb_fixture):
        """An exhausted stream is ``discover()``: the same rules, in the same
        order, with the same supports — every rule is reduced when it is
        emitted, so no final filter separates the two."""
        for name in ("yago", "dbpedia", "imdb"):
            for max_lhs_size in (1, 2):
                graph, config = kb_fixture(name, max_lhs_size)
                with Session(graph, config) as session:
                    yielded = [format_gfd(gfd) for gfd in session.discover_iter()]
                    # Σ := the yielded rules, with their supports
                    streamed = [
                        (format_gfd(gfd), session.supports[gfd])
                        for gfd in session.sigma
                    ]
                    result = session.discover()
                assert [text for text, _ in streamed] == yielded
                assert streamed == [
                    (format_gfd(gfd), result.supports[gfd]) for gfd in result.gfds
                ], (name, max_lhs_size)

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
            assert after.work.supersteps >= before.work.supersteps


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
            with pytest.raises(ValueError, match="unknown parallel backend"):
                resolve_execution(name)


class TestFusedSession:
    """Index snapshots reach live multiprocess workers as array deltas."""

    @pytest.mark.skipif(
        not shared_memory_available(),
        reason="multiprocessing.shared_memory unavailable",
    )
    def test_mutation_ships_a_delta_refresh(self, film_graph, film_config):
        """A small post-mutation snapshot goes through the delta path:
        only the changed arrays cross into shared memory, counted by
        ``lifecycle.delta_refreshes`` — supervised or not."""
        with Session(
            film_graph, film_config, backend="multiprocess", num_workers=2
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


def _supervised(backend):
    """Multiprocess runs keep the install log, so journals can be compared."""
    return FaultConfig() if backend == "multiprocess" else None


def _resident_keys(session):
    engine = session._engine
    return sorted(engine._group_keys[position] for position in engine._resident)


def _frontier_keys(session):
    """The worker keys the session's structural frontier owns (the tables
    its budgeted streams verified; none without such a stream)."""
    return session._frontier.keys if session._frontier is not None else set()


def _assert_only_enforcement_state(session):
    """Serial workers hold every group of the engine, the structural
    frontier's tables, and nothing else."""
    frontier = _frontier_keys(session)
    assert len(_resident_keys(session)) == len(session._engine.plan.groups)
    for shard in session.backend().workers:
        assert set(shard.tables) == frontier
        assert shard.stores == {} and shard.bits == {}
        # un-adopted parks (truncated children) go with their parent's key
        assert {slot[0] for slot in shard.joins} <= frontier
        assert shard.sigmas == {} and shard.checkers == {}
        assert sorted(shard.enforce_state) == _resident_keys(session)


def _normalized_journals(session):
    """Install logs with keys renamed by first use (also the group keys an
    ``enforce_update`` lists) and arrays as lists — without the structural
    frontier's entries, which are its table-making ``install`` / ``join``
    ops and nothing else."""
    frontier = _frontier_keys(session)
    journals = []
    for journal in session.backend()._journals:
        assert all(
            op in ("install", "join") for op, key, _ in journal if key in frontier
        )
        names = {}
        journals.append(
            [
                (
                    op,
                    names.setdefault(key, len(names)),
                    {
                        name: (
                            [(names.setdefault(group, len(names)), rows)
                             for group, rows in value]
                            if name == "groups"
                            else value.tolist() if hasattr(value, "tolist")
                            else value
                        )
                        for name, value in payload.items()
                    },
                )
                for op, key, payload in journal
                if key not in frontier
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
        fault = _supervised(backend)
        sigma = discover(film_graph, film_config).gfds
        twin_graph = film_graph.copy()
        with Session(
            film_graph, film_config, backend=backend, num_workers=2,
            fault=fault,
        ) as session, Session(
            twin_graph, film_config, backend=backend, num_workers=2,
            fault=fault,
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
                    for journal in _normalized_journals(session)
                    for op, _, _ in journal
                )

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_failed_discovery_drops_its_keys(
        self, film_graph, film_config, backend, monkeypatch
    ):
        fault = _supervised(backend)
        twin_graph = film_graph.copy()
        mine_nodes_batch = ParallelDiscovery._mine_nodes_batch

        def failing(engine, nodes):
            if any(node.pattern.num_edges for node in nodes):
                # level 1 is installed: a real op error (a tally of a key no
                # worker holds), which supervision must not mask
                engine._backend.run_superstep(
                    [(0, "tally", -1, {"can_add": False})]
                )
            return mine_nodes_batch(engine, nodes)

        shipped = {}
        with Session(
            film_graph, film_config, backend=backend, num_workers=2,
            fault=fault,
        ) as session, Session(
            twin_graph, film_config, backend=backend, num_workers=2,
            fault=fault,
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


# ----------------------------------------------------------------------
# the structural frontier: VSpawn once per structure version
# ----------------------------------------------------------------------
def _capture_engines(session):
    """Record every discovery engine ``session`` builds (for its stats)."""
    engines = []
    build = session._discovery_engine

    def capture(*args, **kwargs):
        engines.append(build(*args, **kwargs))
        return engines[-1]

    session._discovery_engine = capture
    return engines


def _counters(stats):
    """The non-timing ``MiningStats`` counters."""
    return {
        name: value
        for name, value in vars(stats).items()
        if not name.endswith("seconds")
    }


def _op_counts(tracer):
    counts = {}
    for span in tracer.spans:
        if span.kind == "op":
            counts[span.name] = counts.get(span.name, 0) + 1
        elif span.kind == "level" and span.name.startswith(("seed", "vspawn")):
            level = span.args["level"]
            counts[("vspawn", level)] = counts.get(("vspawn", level), 0) + 1
    return counts


def _worker_keys(workers):
    """Every discovery key a serial backend's workers hold rows under."""
    return {
        key
        for shard in workers
        for key in set(shard.tables) | {slot[0] for slot in shard.joins}
    }


class TestStructuralFrontier:
    """A budgeted stream verifies each level once per structure version.

    ``VSpawn`` reads labels and edges only: after attribute-only writes a
    budgeted stream replays the session's recorded levels — no tally, no
    join — and mines literals at the current values; a structural write
    drops them.  The answer is a fresh session's, every time."""

    BUDGETS = {"max_rules": 10, "max_levels": 3, "update_sigma": False}
    #: The streams replayed, with their config changes: a 10-rule budget
    #: at lattice depths 1 and 2, and a k = 3 stream no budget cuts, which
    #: replays every recorded level whole — each replayed pattern inherits
    #: from every parent it is re-linked to.
    STREAMS = [
        ({"max_lhs_size": 1}, BUDGETS),
        ({"max_lhs_size": 2}, BUDGETS),
        (
            {"k": 3},
            {"max_rules": 10**6, "max_levels": None, "update_sigma": False},
        ),
    ]

    @staticmethod
    def _workload():
        graph = imdb_like(0.4, seed=1)
        config = DiscoveryConfig(
            k=2, sigma=30, max_lhs_size=1,
            active_attributes=list(KB_ATTRIBUTES),
        )
        return graph, config

    def _fresh(self, graph, config, backend, budgets):
        with Session(graph.copy(), config, backend=backend, num_workers=2) as fresh:
            engines = _capture_engines(fresh)
            answer = [format_gfd(gfd) for gfd in fresh.discover_iter(**budgets)]
            return answer, _counters(engines[0].stats)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_replays_equal_fresh_sessions(self, backend):
        for changes, budgets in self.STREAMS:
            self._replay_writes(backend, changes, budgets)

    def _replay_writes(self, backend, changes, budgets):
        graph, config = self._workload()
        config = replace(config, **changes)
        rng = random.Random(7)
        tracer = Tracer()
        session = Session(
            graph, config, backend=backend, num_workers=2, tracer=tracer
        )
        try:
            engines = _capture_engines(session)
            recorded = []
            for write in ["none", "attr", "attr", "edge", "attr", "relabel", "attr"]:
                kept = set(session._frontier.keys) if recorded else set()
                if write == "attr":
                    for _ in range(3):
                        node = rng.randrange(graph.num_nodes)
                        graph.set_attr(node, "name", f"fresh {rng.random()}")
                elif write == "edge":
                    graph.add_edge(0, graph.num_nodes - 1, "actedIn")
                elif write == "relabel":
                    graph.relabel_node(5, "genre")
                before, events = _op_counts(tracer), len(tracer.events)
                answer = [
                    format_gfd(gfd) for gfd in session.discover_iter(**budgets)
                ]
                assert (answer, _counters(engines[-1].stats)) == self._fresh(
                    graph, config, backend, budgets
                ), (changes, write)
                ran = {
                    name: count - before.get(name, 0)
                    for name, count in _op_counts(tracer).items()
                    if count != before.get(name, 0)
                }
                verified = [name[1] for name in ran if isinstance(name, tuple)]
                replayed = [
                    event["level"] for event in tracer.events[events:]
                    if event["type"] == "frontier_replay"
                ]
                if write == "attr":
                    # every level replays: no seed, no tally, no join
                    assert verified == [] and replayed == recorded
                    assert "tally" not in ran and "join" not in ran
                else:
                    # the first stream at a structure verifies each level once
                    recorded = sorted(verified)
                    assert replayed == [] and recorded == list(range(len(verified)))
                    assert len(recorded) > 1 and ran["join"] > 0
                    # a 10-rule stream joins every parent it tallies; an
                    # uncut one also tallies level-1 parents with no child
                    # to join
                    if budgets is self.BUDGETS:
                        assert ran["tally"] == ran["join"]
                    else:
                        assert ran["tally"] > ran["join"]
                    assert all(ran[("vspawn", level)] == 1 for level in recorded)
                if backend == "serial":
                    workers = session.backend().workers
                    held = _worker_keys(workers)
                    assert held == session._frontier.keys
                    assert all(shard.stores == {} for shard in workers)
                    if write in ("edge", "relabel"):
                        assert kept and not held & kept
            kept = set(session._frontier.keys)
            workers = session.backend().workers if backend == "serial" else []
        finally:
            session.close()
        drops = [e["reason"] for e in tracer.events if e["type"] == "frontier_drop"]
        assert drops == ["structure", "structure", "close"]
        assert kept and not _worker_keys(workers) & kept

    @pytest.mark.skipif(
        not shared_memory_available(), reason="needs shared memory"
    )
    def test_supervised_journal_stays_flat(self):
        graph, config = self._workload()
        with Session(
            graph, config, backend="multiprocess", num_workers=2,
            fault=FaultConfig(),
        ) as session:
            list(session.discover_iter(**self.BUDGETS))
            lengths = [len(journal) for journal in session.backend()._journals]
            assert all(lengths)
            for step in range(10):
                graph.set_attr(step, "name", f"fresh {step}")
                assert len(list(session.discover_iter(**self.BUDGETS))) == 10
                assert [
                    len(journal) for journal in session.backend()._journals
                ] == lengths, step

    def test_unbudgeted_runs_keep_no_frontier(self, film_graph, film_config):
        with Session(film_graph, film_config, num_workers=2) as session:
            session.discover()
            list(session.discover_iter(update_sigma=False))
            assert session._frontier is None
            list(session.discover_iter(max_rules=3, update_sigma=False))
            assert session._frontier.keys

    def test_structural_write_ends_an_open_budgeted_stream(
        self, film_graph, film_config
    ):
        """The stream's recorded tables went with the old structure: it
        raises instead of mining rows no worker holds any more."""
        with Session(film_graph, film_config, num_workers=2) as session:
            stream = session.discover_iter(max_rules=50, update_sigma=False)
            next(stream)
            _rewire(film_graph, 0)
            assert list(session.discover_iter(max_rules=1, update_sigma=False))
            with pytest.raises(RuntimeError, match="structure changed"):
                list(stream)
