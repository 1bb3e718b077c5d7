"""Public-API surface snapshot + legacy-shim differential identity.

Two guarantees:

1. the top-level public surface is *pinned* — adding or removing a name
   from ``repro.__all__`` (or the session/parallel sub-surfaces) is a
   deliberate, test-updating act, never an accident;
2. the legacy entry points (``discover``, ``discover_parallel``,
   ``parallel_cover``, a directly-constructed ``EnforcementEngine``, the
   detector) are now thin shims over the same engines the
   :class:`repro.session.Session` drives — and produce *byte-identical*
   results, asserted here rule by rule.
"""

from __future__ import annotations

import warnings

import pytest

import repro
from repro import (
    DiscoveryConfig,
    EnforcementConfig,
    EnforcementEngine,
    Session,
    discover,
    discover_parallel,
    parallel_cover,
)
from repro.core import gfd_identity
from repro.quality.detector import detect_gfd_violations

#: The pinned top-level surface.  Update deliberately, with the docs.
EXPECTED_TOP_LEVEL = {
    "__version__",
    # graph
    "Graph",
    "GraphBuilder",
    # patterns
    "WILDCARD",
    "Pattern",
    "find_matches",
    "pivot_image",
    # GFDs
    "GFD",
    "FALSE",
    "ConstantLiteral",
    "VariableLiteral",
    "Violation",
    "parse_gfd",
    "format_gfd",
    "graph_satisfies",
    "find_violations",
    "validate_set",
    "implies",
    "is_satisfiable",
    # discovery
    "DiscoveryConfig",
    "DiscoveryResult",
    "MiningStats",
    "CoverResult",
    "CandidateBudgetExceeded",
    "FaultConfig",
    "SequentialDiscovery",
    "discover",
    "sequential_cover",
    "pattern_support",
    "gfd_support",
    # parallel
    "ParallelDiscovery",
    "SimulatedCluster",
    "ChaseCostModel",
    "discover_parallel",
    "parallel_cover",
    # enforcement
    "EnforcementConfig",
    "EnforcementEngine",
    "EnforcementReport",
    "RuleSketchMonitor",
    # session facade
    "Session",
    "SessionMetrics",
    # serving (PR 10)
    "EnforcementService",
    "ServeConfig",
    # observability
    "Tracer",
    "NullTracer",
    "MetricsRegistry",
    "write_chrome_trace",
    "write_event_log",
    "write_prometheus",
}

#: The pinned ``repro.parallel`` surface.  One rebalance route (fetch
#: through the master, :func:`rebalance_pivot_group_arrays`), so no move
#: planner.
EXPECTED_PARALLEL = {
    "BACKEND_NAMES",
    "ExecutionBackend",
    "SerialBackend",
    "MultiprocessBackend",
    "SharedIndexBuffers",
    "TransferLedger",
    "LifecycleCounters",
    "ChaseCostModel",
    "FaultPlan",
    "live_segments",
    "sweep_orphans",
    "make_backend",
    "shared_memory_available",
    "SimulatedCluster",
    "ClusterMetrics",
    "WorkerMetrics",
    "ParallelDiscovery",
    "discover_parallel",
    "parallel_cover",
    "parallel_cover_ungrouped",
    "assign_units_lpt",
    "is_skewed",
    "rebalance_shards",
    "rebalance_pivot_groups",
    "rebalance_pivot_group_arrays",
}


class TestSurfaceSnapshot:
    def test_top_level_all_is_pinned(self):
        assert set(repro.__all__) == EXPECTED_TOP_LEVEL

    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert getattr(repro, name, None) is not None, name

    def test_session_surface(self):
        from repro import session as session_module

        assert set(session_module.__all__) == {"Session", "SessionMetrics"}
        for method in (
            "discover",
            "discover_iter",
            "cover",
            "enforce",
            "refresh",
            "save_sigma",
            "load_sigma",
            "metrics",
            "trace",
            "backend",
            "close",
        ):
            assert callable(getattr(Session, method)), method

    def test_parallel_surface_has_session_collaborators(self):
        from repro import parallel

        assert set(parallel.__all__) == EXPECTED_PARALLEL
        for name in (
            "ExecutionBackend",
            "TransferLedger",
            "LifecycleCounters",
            "ChaseCostModel",
            "make_backend",
        ):
            assert getattr(parallel, name, None) is not None, name

    def test_config_field_counts_are_pinned(self):
        """50 knobs in all: adding, deleting or resurrecting one is a
        decision this test makes visible (update the README table too)."""
        import dataclasses

        from repro.core import DiscoveryConfig, EnforcementConfig, FaultConfig
        from repro.serve import ServeConfig

        counts = {
            cls.__name__: len(dataclasses.fields(cls))
            for cls in (
                DiscoveryConfig, EnforcementConfig, ServeConfig, FaultConfig
            )
        }
        assert counts == {
            "DiscoveryConfig": 25,
            "EnforcementConfig": 8,
            "ServeConfig": 11,
            "FaultConfig": 6,
        }

    def test_sketch_surface(self):
        """Two concrete estimators, no plug-in registry."""
        from repro import core
        from repro.core.sketch import DistinctPivotSketch

        assert {
            name for name in core.__all__ if "Sketch" in name
        } == {"DistinctPivotSketch", "ExactCardinalitySketch"}
        assert DistinctPivotSketch(10).precision == 10


def _identity_set(gfds):
    return {gfd_identity(gfd) for gfd in gfds}


def _report_key(report):
    """A byte-comparable rendering of an enforcement report."""
    return [
        (
            str(rule.gfd),
            rule.violation_count,
            tuple(sorted(rule.nodes)),
            rule.sample,
            rule.sample_truncated,
            rule.distinct_pivots,
            rule.witnesses_truncated,
        )
        for rule in report.rules
    ]


class TestShimDifferentialIdentity:
    """Old entry points ≡ Session results, byte for byte."""

    def test_discover_matches_session(self, film_graph, film_config):
        legacy = discover(film_graph, film_config)
        with Session(film_graph, film_config) as session:
            result = session.discover()
        assert _identity_set(result.gfds) == _identity_set(legacy.gfds)
        legacy_supports = {
            gfd_identity(g): s for g, s in legacy.supports.items()
        }
        for gfd in result.gfds:
            assert result.supports[gfd] == legacy_supports[gfd_identity(gfd)]

    def test_discover_parallel_matches_session(self, film_graph, film_config):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DeprecationWarning)
            legacy, _ = discover_parallel(
                film_graph, film_config, num_workers=3, backend="serial"
            )
        with Session(
            film_graph, film_config, num_workers=3, backend="serial"
        ) as session:
            result = session.discover()
        assert _identity_set(result.gfds) == _identity_set(legacy.gfds)

    def test_parallel_cover_matches_session(self, film_graph, film_config):
        sigma = discover(film_graph, film_config).gfds
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DeprecationWarning)
            legacy, _ = parallel_cover(sigma, num_workers=2)
        with Session(film_graph, film_config, num_workers=2) as session:
            result = session.cover(sigma)
        assert [str(g) for g in result.cover] == [str(g) for g in legacy.cover]
        assert [str(g) for g in result.removed] == [
            str(g) for g in legacy.removed
        ]

    def test_enforcement_engine_matches_session(self, film_graph, film_config):
        sigma = discover(film_graph, film_config).gfds
        film_graph.set_attr(0, "type", "gardener")  # plant a violation
        config = EnforcementConfig(backend="serial", num_workers=2)
        with EnforcementEngine(film_graph, sigma, config) as engine:
            legacy = engine.validate()
        with Session(
            film_graph,
            film_config,
            enforcement=config,
            backend="serial",
            num_workers=2,
        ) as session:
            report = session.enforce(sigma)
        assert not legacy.is_clean
        assert _report_key(report) == _report_key(legacy)

    def test_detector_matches_direct_engine(self, film_graph, film_config):
        sigma = discover(film_graph, film_config).gfds
        film_graph.set_attr(0, "type", "gardener")
        via_session = detect_gfd_violations(film_graph, sigma, 50, seed=3)
        config = EnforcementConfig(
            backend="serial",
            num_workers=1,
            max_violation_samples=50,
            sample_seed=3,
        )
        with EnforcementEngine(film_graph, sigma, config) as engine:
            direct = engine.validate().violations()
        assert [(str(v.gfd), v.match) for v in via_session] == [
            (str(v.gfd), v.match) for v in direct
        ]


class TestDeprecationShims:
    def test_standalone_discover_parallel_warns(self, film_graph, film_config):
        with pytest.warns(DeprecationWarning, match="Session"):
            discover_parallel(film_graph, film_config, num_workers=2)

    def test_standalone_parallel_cover_warns(self, film_graph, film_config):
        sigma = discover(film_graph, film_config).gfds
        with pytest.warns(DeprecationWarning, match="Session"):
            parallel_cover(sigma, num_workers=2)

    def test_prestarted_backend_does_not_warn(self, film_graph, film_config):
        sigma = discover(film_graph, film_config).gfds
        with Session(film_graph, film_config) as session:
            with warnings.catch_warnings():
                warnings.simplefilter("error", DeprecationWarning)
                parallel_cover(
                    sigma,
                    cluster=session.cluster,
                    backend=session.backend(),
                )
