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
    Session,
    Tracer,
    discover,
    parse_gfd,
)
from repro.core import gfd_identity
from repro.enforce import RuleSketchMonitor
from repro.parallel import ChaseCostModel, shared_memory_available
from repro.quality.detector import detect_gfd_violations

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


class TestChaseCostModel:
    def test_weight_falls_back_to_static(self):
        model = ChaseCostModel()
        assert model.weight("k", 3, 4) == 12.0  # static |group|×|embedded|
        model.observe("k", 3, 4, seconds=0.5)
        assert model.weight("k", 3, 4) == 0.5  # measured wins
        # unseen keys scale by the global seconds-per-static-weight rate
        assert model.weight("other", 2, 2) == pytest.approx(
            4 * (0.5 / 12.0)
        )
        model.observe("k", 3, 4, seconds=0.1)
        assert model.weight("k", 3, 4) == pytest.approx(0.3)  # EWMA α=0.5

    def test_repeated_covers_feed_the_model(self, film_graph, film_config):
        with Session(film_graph, film_config) as session:
            session.discover()
            sigma = session.sigma
            first = session.cover(sigma)
            seen = session.cover_costs.observations
            assert seen > 0  # timings came back from the workers
            second = session.cover(sigma)  # measured-weight LPT this time
            assert session.cover_costs.observations > seen
            # weights shift assignment only — never the cover itself
            assert [str(g) for g in first.cover] == [
                str(g) for g in second.cover
            ]

    def test_rejects_bad_alpha(self):
        with pytest.raises(ValueError):
            ChaseCostModel(alpha=0.0)


class TestChaseCostModelZeroWeight:
    """Regression: an empty leave-out group must not crash the feedback."""

    def test_zero_static_weight_observation_does_not_raise(self):
        model = ChaseCostModel()
        model.observe("empty-class", group_size=0, embedded_size=4,
                      seconds=0.05)
        assert model.observations == 1
        # the per-class EWMA still absorbed the timing
        assert model.weight("empty-class", 0, 4) == pytest.approx(0.05)

    def test_zero_weight_never_calibrates_the_global_rate(self):
        model = ChaseCostModel()
        model.observe("empty-class", group_size=0, embedded_size=4,
                      seconds=123.0)
        # an unseen class falls back to the *static* weight — the garbage
        # timing above must not have poisoned the seconds-per-weight rate
        assert model.weight("unseen", 3, 2) == ChaseCostModel.static_weight(
            3, 2
        )

    def test_mixed_observations_keep_rate_from_real_weights(self):
        model = ChaseCostModel(alpha=1.0)
        model.observe("real", group_size=2, embedded_size=5, seconds=1.0)
        model.observe("empty", group_size=0, embedded_size=9, seconds=50.0)
        # rate == 1.0 s / (2*5) from the real unit only
        assert model.weight("unseen", 4, 5) == pytest.approx(
            ChaseCostModel.static_weight(4, 5) * 0.1
        )


class TestSketchPluggability:
    """The monitor's two estimators; every reported count is exact."""

    def test_exact_backend_reports_exact_pivots(self, film_graph):
        sigma = [parse_gfd("Q[x] { (x:person) } ( -> false)")]
        monitor = RuleSketchMonitor(backend="exact")
        with Session(film_graph, monitor=monitor) as session:
            report = session.enforce(sigma)
        assert report.rules[0].distinct_pivots == 120  # no estimation error
        assert monitor.estimate(sigma[0]) == 120.0

    def test_unknown_backend_is_a_clear_error(self):
        """A bad estimator fails when the monitor is built, not mid-pass."""
        with pytest.raises(ValueError, match="unknown monitor backend"):
            RuleSketchMonitor(backend="bogus")
        with pytest.raises(ValueError, match="precision"):
            RuleSketchMonitor(backend="hll", precision=30)


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

    def test_dict_path_statistics_follow_mutations(self):
        # use_index=False has no index snapshot to invalidate; the session
        # must rescan statistics on version change all the same
        config = DiscoveryConfig(k=2, sigma=10, max_lhs_size=1, use_index=False)
        live = self._chain_graph()
        # the dict reference path is serial by definition (multiprocess
        # requires the index), whatever REPRO_PARALLEL_BACKEND says
        with Session(live, config, backend="serial") as session:
            session.discover()
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
        fresh = discover(fresh_graph, config)
        assert {gfd_identity(g) for g in second.gfds} == {
            gfd_identity(g) for g in fresh.gfds
        }

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
