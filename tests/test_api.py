"""Public-API surface snapshot + engine/session differential identity.

Two guarantees:

1. the top-level public surface is *pinned* — adding or removing a name
   from ``repro.__all__`` (or the session/parallel sub-surfaces) is a
   deliberate, test-updating act, never an accident;
2. the engines a :class:`repro.session.Session` drives, run without one
   (``discover``, ``ParallelDiscovery``, ``parallel_cover`` on a borrowed
   backend, a directly-constructed ``EnforcementEngine``, the detector),
   produce *byte-identical* results, asserted here rule by rule.
"""

from __future__ import annotations

import inspect

import pytest

import repro
from repro import (
    DiscoveryConfig,
    EnforcementConfig,
    EnforcementEngine,
    ParallelDiscovery,
    Session,
    discover,
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
#: through the master, :func:`rebalance_pivot_group_arrays` on int64
#: shards), so no move planner and no list rebalancers.
EXPECTED_PARALLEL = {
    "BACKEND_NAMES",
    "ExecutionBackend",
    "SerialBackend",
    "MultiprocessBackend",
    "SharedIndexBuffers",
    "TransferLedger",
    "WorkLedger",
    "LifecycleCounters",
    "FaultPlan",
    "live_segments",
    "sweep_orphans",
    "make_backend",
    "shared_memory_available",
    "ParallelDiscovery",
    "parallel_cover",
    "parallel_cover_ungrouped",
    "assign_units_lpt",
    "is_skewed",
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
            "make_backend",
        ):
            assert getattr(parallel, name, None) is not None, name

    def test_backends_are_built_without_gamma(self):
        """Γ is the discovery engine's and travels with each install; no
        backend, worker or worker spec holds one."""
        from repro.parallel import parallel_cover_ungrouped
        from repro.parallel.backend import (
            MultiprocessBackend,
            SerialBackend,
            ShardWorker,
            make_backend,
        )

        for constructor in (
            make_backend, SerialBackend, MultiprocessBackend, ShardWorker
        ):
            assert "gamma" not in inspect.signature(constructor).parameters
        assert not hasattr(ShardWorker(None, None), "gamma")
        # both cover variants borrow a started backend
        for cover in (parallel_cover, parallel_cover_ungrouped):
            assert list(inspect.signature(cover).parameters) == [
                "sigma", "backend"
            ]

    def test_config_field_counts_are_pinned(self):
        """37 knobs in all: adding, deleting or resurrecting one is a
        decision this test makes visible, and the README's count of them
        is read back so it cannot drift from the pin."""
        import dataclasses
        import re
        from pathlib import Path

        from repro.core import DiscoveryConfig, EnforcementConfig, FaultConfig
        from repro.serve import ServeConfig

        counts = {
            cls.__name__: len(dataclasses.fields(cls))
            for cls in (
                DiscoveryConfig, EnforcementConfig, ServeConfig, FaultConfig
            )
        }
        assert counts == {
            "DiscoveryConfig": 18,
            "EnforcementConfig": 7,
            "ServeConfig": 9,
            "FaultConfig": 3,
        }
        readme = Path(__file__).resolve().parent.parent / "README.md"
        text = " ".join(readme.read_text().split())
        stated = re.search(
            r"hold (\d+) fields in all: `DiscoveryConfig` (\d+), "
            r"`EnforcementConfig` (\d+), `ServeConfig` (\d+) and "
            r"`FaultConfig` (\d+)",
            text,
        )
        assert stated, "README lost its knob-count sentence"
        total, *per_class = (int(group) for group in stated.groups())
        assert per_class == [
            counts[name]
            for name in (
                "DiscoveryConfig", "EnforcementConfig", "ServeConfig",
                "FaultConfig",
            )
        ]
        assert total == sum(counts.values())

    def test_discovery_oracle_has_one_entry_point(self):
        """The dict-adjacency oracle is reached by name only (no config
        field selects it — the pinned field counts above hold that)."""
        from repro import core
        from repro.core.discovery import reference_discover

        assert callable(reference_discover)
        assert "reference_discover" not in repro.__all__
        assert "reference_discover" not in core.__all__
        assert not hasattr(core, "reference_discover")

    def test_sketch_surface(self):
        """No estimator: ``repro.core`` exports no sketch, and the monitor
        takes no backend or precision."""
        import importlib

        from repro import core

        assert not [name for name in core.__all__ if "Sketch" in name]
        with pytest.raises(ImportError):
            importlib.import_module("repro.core.sketch")
        with pytest.raises(TypeError):
            repro.RuleSketchMonitor(backend="hll")


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


class TestConfigValidation:
    """A bad knob fails when its config is built, naming the field — not
    later, deep inside the first discover or request that reads it."""

    @pytest.mark.parametrize(
        "field, bad, lowest",
        [
            ("max_constants", 0, 1),
            ("max_constants", -1, 1),
            ("max_negatives_per_pattern", -1, 0),
            ("max_active_attributes", 0, 1),
            ("max_active_attributes", -2, 1),
            ("max_matches_per_pattern", 0, 1),
            ("max_candidates", -1, 0),
        ],
    )
    def test_discovery_config_rejects_bad_counts(self, field, bad, lowest):
        with pytest.raises(ValueError, match=field):
            DiscoveryConfig(**{field: bad})
        assert getattr(DiscoveryConfig(**{field: lowest}), field) == lowest

    @pytest.mark.parametrize(
        "field, bad, lowest",
        [
            ("max_queue_depth", 0, 1),
            ("default_deadline_s", 0.0, 0.001),
            ("commit_max_batch", 0, 1),
            ("commit_linger_s", -0.001, 0.0),
            ("max_pending_mutations", 0, 1),
            ("discover_max_rules", -1, 0),
            ("discover_max_levels", -1, 0),
        ],
    )
    def test_serve_config_rejects_bad_numbers(self, field, bad, lowest):
        from repro.serve import ServeConfig

        with pytest.raises(ValueError, match=field):
            ServeConfig(**{field: bad})
        assert getattr(ServeConfig(**{field: lowest}), field) == lowest


class TestShimDifferentialIdentity:
    """Engines run without a session ≡ Session results, byte for byte."""

    def test_discover_matches_session(self, film_graph, film_config):
        direct = discover(film_graph, film_config)
        with Session(film_graph, film_config) as session:
            result = session.discover()
        assert _identity_set(result.gfds) == _identity_set(direct.gfds)
        direct_supports = {
            gfd_identity(g): s for g, s in direct.supports.items()
        }
        for gfd in result.gfds:
            assert result.supports[gfd] == direct_supports[gfd_identity(gfd)]

    def test_parallel_discovery_matches_session(self, film_graph, film_config):
        direct = ParallelDiscovery(
            film_graph, film_config, num_workers=3, backend="serial"
        ).run()
        with Session(
            film_graph, film_config, num_workers=3, backend="serial"
        ) as session:
            result = session.discover()
        assert _identity_set(result.gfds) == _identity_set(direct.gfds)

    def test_parallel_cover_matches_session(
        self, film_graph, film_config, cover_backend
    ):
        sigma = discover(film_graph, film_config).gfds
        direct = parallel_cover(sigma, cover_backend(2))
        with Session(film_graph, film_config, num_workers=2) as session:
            result = session.cover(sigma)
        assert [str(g) for g in result.cover] == [str(g) for g in direct.cover]
        assert [str(g) for g in result.removed] == [
            str(g) for g in direct.removed
        ]

    def test_enforcement_engine_matches_session(self, film_graph, film_config):
        sigma = discover(film_graph, film_config).gfds
        film_graph.set_attr(0, "type", "gardener")  # plant a violation
        config = EnforcementConfig(backend="serial", num_workers=2)
        with EnforcementEngine(film_graph, sigma, config) as engine:
            direct = engine.validate()
        with Session(
            film_graph,
            film_config,
            enforcement=config,
            backend="serial",
            num_workers=2,
        ) as session:
            report = session.enforce(sigma)
        assert not direct.is_clean
        assert _report_key(report) == _report_key(direct)

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

