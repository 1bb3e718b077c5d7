"""The telemetry layer: tracer invariants, registry, exports, no-op path.

The PR 8 acceptance properties:

* every opened span closes — on clean runs, abandoned generators, and
  chaos runs with injected worker kills (retries + respawns);
* the span tree nests by phase: phase spans parent to the session root,
  superstep/master spans to the enclosing phase/level;
* the disabled tracer records nothing and its hooks are no-ops;
* tracing on vs off yields byte-identical results on both backends;
* the exports are well-formed (Chrome trace events, JSONL event log,
  Prometheus text).
"""

from __future__ import annotations

import json
from dataclasses import replace

import pytest

from repro import (
    DiscoveryConfig,
    FaultConfig,
    MetricsRegistry,
    NullTracer,
    Session,
    Tracer,
    write_chrome_trace,
    write_event_log,
    write_prometheus,
)
from repro.core import gfd_identity
from repro.obs import NULL_TRACER, chrome_trace_document
from repro.parallel import shared_memory_available

needs_mp = pytest.mark.skipif(
    not shared_memory_available(),
    reason="multiprocessing.shared_memory unavailable",
)


def _fingerprint(result):
    return frozenset(gfd_identity(g) for g in result.gfds)


def _pipeline(graph, config, tracer=None, backend=None, workers=None):
    with Session(
        graph, config, backend=backend, num_workers=workers, tracer=tracer
    ) as session:
        result = session.discover()
        cover = session.cover()
        report = session.enforce()
        metrics = session.metrics().as_dict()
    return result, cover, report, metrics


# ----------------------------------------------------------------------
# the tracer itself
# ----------------------------------------------------------------------
class TestTracer:
    def test_span_stack_and_tree(self):
        tracer = Tracer()
        root = tracer.begin("session", "session")
        child = tracer.begin("discover", "phase")
        grandchild = tracer.begin("superstep 0", "superstep")
        assert child.parent_id == root.id
        assert grandchild.parent_id == child.id
        tracer.end(grandchild)
        tracer.end(child)
        tracer.end(root)
        assert tracer.spans_opened == tracer.spans_closed == 3
        assert len(tracer.open_spans) == 0

    def test_defensive_end_closes_abandoned_children(self):
        """Ending an outer span closes inner spans left open by errors."""
        tracer = Tracer()
        outer = tracer.begin("outer", "phase")
        tracer.begin("inner", "op")
        tracer.begin("innermost", "op")
        tracer.end(outer)
        assert tracer.spans_opened == tracer.spans_closed == 3
        assert len(tracer.open_spans) == 0

    def test_span_contextmanager_closes_on_exception(self):
        tracer = Tracer()
        with pytest.raises(RuntimeError):
            with tracer.span("phase", "phase"):
                raise RuntimeError("boom")
        assert tracer.spans_opened == tracer.spans_closed == 1

    def test_worker_ops_stack_per_lane_inside_superstep(self):
        tracer = Tracer()
        step = tracer.begin("superstep 0", "superstep")
        tracer.worker_op(0, "eval", 0.5)
        tracer.worker_op(0, "eval", 0.25)
        tracer.worker_op(1, "eval", 0.125)
        tracer.end(step)
        ops = [s for s in tracer.spans if s.kind == "op"]
        assert len(ops) == 3
        lane0 = sorted(
            (s for s in ops if s.worker == 0), key=lambda s: s.t0
        )
        # ops on one worker lane abut end-to-end from the superstep start
        assert lane0[0].t0 == pytest.approx(step.t0)
        assert lane0[1].t0 == pytest.approx(lane0[0].t1)
        assert tracer.workers() == [0, 1]

    def test_events_record_type_and_fields(self):
        tracer = Tracer()
        tracer.event("enforce_pass", mode="full", backend="serial")
        (record,) = tracer.events
        assert record["type"] == "enforce_pass"
        assert record["backend"] == "serial"
        assert "ts" in record

    def test_null_tracer_records_nothing(self):
        tracer = NullTracer()
        assert tracer.enabled is False
        span = tracer.begin("x", "phase")
        tracer.end(span)
        tracer.worker_op(0, "eval", 1.0)
        tracer.event("retry", worker=0)
        with tracer.span("y", "op"):
            pass
        assert list(tracer.spans) == []
        assert list(tracer.events) == []
        assert tracer.spans_opened == tracer.spans_closed == 0
        assert NULL_TRACER.enabled is False


# ----------------------------------------------------------------------
# the registry
# ----------------------------------------------------------------------
class TestMetricsRegistry:
    def test_counter_gauge_histogram(self):
        registry = MetricsRegistry()
        registry.counter("repro_ops_total", op="eval").inc(3)
        registry.gauge("repro_workers").set(2)
        histogram = registry.histogram("repro_op_seconds")
        histogram.observe(0.01)
        histogram.observe(3.0)
        rendered = registry.to_prometheus()
        assert 'repro_ops_total{op="eval"} 3' in rendered
        assert "repro_workers 2" in rendered
        assert "repro_op_seconds_count 2" in rendered
        assert 'le="+Inf"' in rendered

    def test_type_conflict_raises(self):
        registry = MetricsRegistry()
        registry.counter("repro_x")
        with pytest.raises(TypeError):
            registry.gauge("repro_x")

    def test_deterministic_text_exposition(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        for registry in (a, b):
            registry.counter("repro_b_total").inc(1)
            registry.counter("repro_a_total", z="1", a="2").inc(2)
        assert a.to_prometheus() == b.to_prometheus()


# ----------------------------------------------------------------------
# sessions: invariants + byte-identity
# ----------------------------------------------------------------------
class TestSessionTracing:
    def test_all_spans_close_serial(self, film_graph, film_config):
        tracer = Tracer()
        _pipeline(film_graph, film_config, tracer)
        assert tracer.spans_opened == tracer.spans_closed
        assert len(tracer.open_spans) == 0

    def test_span_tree_matches_phase_nesting(self, film_graph, film_config):
        tracer = Tracer()
        _pipeline(film_graph, film_config, tracer)
        spans = {span.id: span for span in tracer.spans}
        roots = [s for s in tracer.spans if s.parent_id is None]
        assert [s.kind for s in roots] == ["session"]
        for span in tracer.spans:
            if span.kind == "phase":
                assert spans[span.parent_id].kind == "session"
            elif span.kind in ("superstep", "master"):
                parent = spans[span.parent_id]
                assert parent.kind in ("phase", "level", "stage")
            elif span.kind == "level":
                assert spans[span.parent_id].kind == "phase"

    def test_traced_equals_untraced_serial(self, film_graph, film_config):
        plain = _pipeline(film_graph, film_config)
        traced = _pipeline(film_graph, film_config, Tracer())
        assert _fingerprint(plain[0]) == _fingerprint(traced[0])
        assert [str(g) for g in plain[1].cover] == [
            str(g) for g in traced[1].cover
        ]
        assert plain[2].total_violations == traced[2].total_violations

        def stable(metrics):
            data = dict(metrics)
            data.pop("timings")
            return data

        assert stable(plain[3]) == stable(traced[3])

    def test_untraced_session_emits_nothing(self, film_graph, film_config):
        with Session(film_graph, film_config) as session:
            session.discover()
            tracer = session.trace()
        assert tracer is NULL_TRACER
        assert list(tracer.spans) == []
        assert list(tracer.events) == []

    def test_abandoned_discover_iter_closes_its_span(
        self, film_graph, film_config
    ):
        tracer = Tracer()
        with Session(film_graph, film_config, tracer=tracer) as session:
            for _ in session.discover_iter(max_rules=1):
                break
        assert tracer.spans_opened == tracer.spans_closed
        assert any(s.name == "discover_iter" for s in tracer.spans)

    @needs_mp
    def test_traced_equals_untraced_multiprocess(
        self, film_graph, film_config
    ):
        plain = _pipeline(
            film_graph, film_config, backend="multiprocess", workers=2
        )
        tracer = Tracer()
        traced = _pipeline(
            film_graph,
            film_config,
            tracer,
            backend="multiprocess",
            workers=2,
        )
        assert _fingerprint(plain[0]) == _fingerprint(traced[0])
        assert [str(g) for g in plain[1].cover] == [
            str(g) for g in traced[1].cover
        ]
        assert plain[2].total_violations == traced[2].total_violations
        assert tracer.spans_opened == tracer.spans_closed
        # real worker compute rides back on the fused responses
        assert tracer.workers()  # at least one worker lane
        assert any(s.kind == "op" and s.worker is not None
                   for s in tracer.spans)

    @needs_mp
    def test_all_spans_close_under_chaos(
        self, film_graph, film_config, monkeypatch
    ):
        """Injected worker kills: retries/respawns traced, spans balanced."""
        monkeypatch.delenv("REPRO_FAULT_PLAN", raising=False)
        fault = FaultConfig(
            fault_plan=json.dumps(
                {"kill_on": {"op": "eval", "nth": 1}, "workers": [0]}
            )
        )
        config = replace(film_config, fault=fault)
        tracer = Tracer()
        plain = _pipeline(
            film_graph, film_config, backend="multiprocess", workers=2
        )
        chaos = _pipeline(
            film_graph, config, tracer, backend="multiprocess", workers=2
        )
        assert _fingerprint(plain[0]) == _fingerprint(chaos[0])
        assert tracer.spans_opened == tracer.spans_closed
        assert len(tracer.open_spans) == 0
        etypes = {e["type"] for e in tracer.events}
        assert "respawn" in etypes
        assert "fault_plan_armed" in etypes


# ----------------------------------------------------------------------
# exports
# ----------------------------------------------------------------------
class TestExports:
    @pytest.fixture()
    def traced(self, film_graph, film_config):
        tracer = Tracer()
        _, _, _, metrics = _pipeline(film_graph, film_config, tracer)
        return tracer, metrics

    def test_chrome_trace_document(self, traced):
        tracer, _ = traced
        document = chrome_trace_document(tracer)
        events = document["traceEvents"]
        metadata = [e for e in events if e["ph"] == "M"]
        complete = [e for e in events if e["ph"] == "X"]
        instants = [e for e in events if e["ph"] == "i"]
        assert metadata and complete
        assert len(complete) == len(tracer.spans)
        assert len(instants) == len(tracer.events)
        for event in complete:
            assert event["dur"] >= 0
            assert event["ts"] >= 0
        meta = document["otherData"]
        assert meta["schema_version"] >= 1
        assert meta["repro_version"]

    def test_chrome_trace_has_superstep_and_worker_lanes(self, traced):
        tracer, _ = traced
        document = chrome_trace_document(tracer)
        complete = [
            e for e in document["traceEvents"] if e["ph"] == "X"
        ]
        supersteps = [e for e in complete if e["cat"] == "superstep"]
        assert len(supersteps) == sum(
            1 for s in tracer.spans if s.kind == "superstep"
        )
        # worker-op spans render on per-worker lanes (tid = worker + 1)
        worker_tids = {e["tid"] for e in complete if e["cat"] == "op"}
        assert worker_tids and 0 not in worker_tids

    def test_write_chrome_trace_round_trips(self, traced, tmp_path):
        tracer, _ = traced
        path = tmp_path / "trace.json"
        write_chrome_trace(tracer, path)
        document = json.loads(path.read_text())
        assert document["traceEvents"]

    def test_event_log_jsonl(self, traced, tmp_path):
        tracer, _ = traced
        path = tmp_path / "events.jsonl"
        write_event_log(tracer, path)
        records = [
            json.loads(line)
            for line in path.read_text().splitlines()
            if line
        ]
        assert records[0]["record"] == "header"
        assert records[0]["schema_version"] >= 1
        assert len(records) == 1 + len(tracer.events)
        assert all("type" in r for r in records[1:])

    def test_prometheus_export(self, traced, tmp_path):
        _, metrics = traced
        from repro.obs import registry_from_metrics

        registry = registry_from_metrics(metrics)
        path = tmp_path / "metrics.prom"
        write_prometheus(registry, path)
        text = path.read_text()
        assert "repro_build_info" in text
        assert "repro_phase_runs_total" in text
        assert 'repro_work_rows_installed_total{worker="0"}' in text

    def test_metrics_schema(self, traced):
        _, metrics = traced
        assert metrics["schema_version"] == 8
        assert metrics["repro_version"]
        # every wall-clock float is quarantined under "timings"
        def no_floats(value):
            if isinstance(value, dict):
                return all(no_floats(v) for v in value.values())
            return not isinstance(value, float)

        assert no_floats(
            {k: v for k, v in metrics.items() if k != "timings"}
        )
        assert "recovery_seconds" in metrics["timings"]
        # v3: one backend per session, so no per-phase backend or planner
        assert "phase_backends" not in metrics
        assert "planner" not in metrics["timings"]
        # v4: one rebalance route, so no worker-to-worker staged rows
        assert set(metrics["transfers"]) == {
            "rows_to_workers", "rows_to_master", "sigma_rules"
        }
        # v5: engines drop their own worker keys, so no backend-wide reset
        assert set(metrics["lifecycle"]) == {
            "pools_started", "index_attaches", "index_refreshes",
            "delta_refreshes", "shutdowns",
        }
        # v6: covers balance by the static LPT weights, so no cost model
        assert "cover_cost_observations" not in metrics
        # v7: one recovery ledger, the backend's
        assert "cluster_recovery_seconds" not in metrics["timings"]
        # v8: no modeled clock; exact per-worker work instead
        assert set(metrics["timings"]) == {"recovery_seconds"}
        assert metrics["cluster"]["supersteps"] > 0
        assert set(metrics["work"]) == {
            "ops", "rows_installed", "rows_joined", "implication_units",
            "enforce_rows",
        }
        assert all(
            len(counts) == metrics["num_workers"]
            for counts in metrics["work"].values()
        )
