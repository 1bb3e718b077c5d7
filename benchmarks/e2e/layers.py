"""Per-layer probes for the traced pass.

Each probe re-runs one layer of ``src/repro/`` in isolation through its
public functions, on the workload's own graph and on the distinct patterns
and literals of the Σ the workload enforces, and records what it did under
a benchmark-owned span.  The probes are time-boxed by sample size, not by
a clock, so the work (and every exact count) repeats for a given seed.
"""

from __future__ import annotations

import asyncio
import random
import statistics
import time
from pathlib import Path
from typing import Any, Dict, List, Sequence, Tuple

import numpy as np

from repro import EnforcementConfig, EnforcementEngine, Session
from repro.core import MatchTable, sequential_cover
from repro.datasets import KB_ATTRIBUTES
from repro.enforce import compile_plan
from repro.gfd import find_violations, implies
from repro.graph import GraphIndex
from repro.pattern import canonical_key, find_matches, is_embedded
from repro.serve import (
    EnforcementService, GroupCommitWriter, MutationOp, ServeConfig,
    SnapshotChain,
)

from spans import SpanRecorder
from workloads import BACKEND, NUM_WORKERS, MutationStream

__all__ = ["Metrics", "probe_layers", "program_trace_metrics", "stack_bytes"]

#: ``{metric name: (value, unit)}``
Metrics = Dict[str, Tuple[float, str]]

#: Caps on what the probes sample from Σ (seeded).
MAX_PATTERNS = 200
MAX_COVER_RULES = 40
IMPLIES_SAMPLES = 50
ORACLE_RULES = 10
REFRESH_BATCHES = 5
PIN_LOOPS = 20000

def stack_bytes(table: Any, stack: np.ndarray) -> Dict[str, Any]:
    """Span counter for ``MatchTable.stack_supports``: bytes it reduces."""
    return {"bytes": int(stack.nbytes)}


def _median_ms(samples: Sequence[float]) -> float:
    return statistics.median(samples) * 1e3


def probe_pattern_and_core(graph: Any, sigma: Sequence[Any], rng: random.Random,
                           spans: SpanRecorder) -> Metrics:
    index = graph.index()
    groups = compile_plan(sigma).groups
    groups = rng.sample(groups, min(MAX_PATTERNS, len(groups)))
    rows = 0
    tables = []
    with spans.span("pattern.find_matches") as matching:
        arrays = []
        for group in groups:
            found = list(find_matches(graph, group.pattern, index=index))
            arrays.append(np.asarray(found, dtype=np.int64).reshape(
                -1, group.pattern.num_nodes))
            rows += len(found)
    with spans.span("core.table_build") as building:
        for group, array in zip(groups, arrays):
            tables.append(MatchTable.from_index(
                index, group.pattern, array, KB_ATTRIBUTES))
    with spans.span("core.literal_mask") as masking:
        for group, table in zip(groups, tables):
            for rule in group.rules:
                for literal in rule.lhs + ((rule.rhs,) if rule.rhs else ()):
                    table.literal_mask(literal)
    patterns = [group.pattern for group in groups]
    with spans.span("pattern.canonical_key") as keying:
        for pattern in patterns:
            canonical_key(pattern)
    pairs = [(rng.choice(patterns), rng.choice(patterns)) for _ in patterns]
    with spans.span("pattern.is_embedded") as embedding:
        for inner, outer in pairs:
            is_embedded(inner, outer)
    rules = rng.sample(list(sigma), min(MAX_COVER_RULES, len(sigma)))
    with spans.span("core.sequential_cover") as covering:
        sequential_cover(rules)
    return {
        "pattern.find_matches_s": (matching.duration, "s"),
        "pattern.match_rows": (rows, "count"),
        "pattern.rows_per_s": (rows / matching.duration, "1/s"),
        "pattern.canonical_key_us": (keying.duration / len(patterns) * 1e6, "us"),
        "pattern.is_embedded_us": (embedding.duration / len(pairs) * 1e6, "us"),
        "core.table_build_s": (building.duration, "s"),
        "core.literal_mask_s": (masking.duration, "s"),
        "core.sequential_cover_s": (covering.duration, "s"),
    }


def probe_gfd_and_enforce(graph: Any, sigma: Sequence[Any], cover: Sequence[Any],
                          rng: random.Random, spans: SpanRecorder) -> Metrics:
    sigma = list(sigma)
    samples = []
    with spans.span("gfd.implies"):
        for gfd in rng.choices(sigma, k=IMPLIES_SAMPLES):
            started = time.perf_counter()
            implies(cover, gfd)
            samples.append(time.perf_counter() - started)
    oracle_rules = rng.sample(sigma, min(ORACLE_RULES, len(sigma)))
    with spans.span("gfd.find_violations") as oracle:
        for gfd in oracle_rules:
            find_violations(graph, gfd)
    config = EnforcementConfig(backend=BACKEND, num_workers=NUM_WORKERS)
    with EnforcementEngine(graph.copy(), oracle_rules, config) as engine:
        with spans.span("enforce.validate_sampled") as sampled:
            engine.validate()
    with spans.span("enforce.compile_plan") as compiling:
        plan = compile_plan(sigma)
    stream = MutationStream(graph.copy(), rng)
    with spans.span("enforce.engine_open") as opening:
        engine = EnforcementEngine(stream.graph, sigma, config)
    refreshes = []
    with engine:
        with spans.span("enforce.validate") as validating:
            report = engine.validate()
        for _ in range(REFRESH_BATCHES):
            stream.apply_batch(8)
            with spans.span("enforce.refresh") as refreshing:
                engine.refresh()
            refreshes.append(refreshing.duration)
    return {
        "gfd.implies_ms": (_median_ms(samples), "ms"),
        "gfd.find_violations_s": (oracle.duration, "s"),
        "enforce.compile_plan_ms": (compiling.duration * 1e3, "ms"),
        "enforce.plan_groups": (len(plan.groups), "count"),
        "enforce.engine_open_s": (opening.duration, "s"),
        "enforce.validate_s": (validating.duration, "s"),
        "enforce.refresh_p50_ms": (_median_ms(refreshes), "ms"),
        "enforce.refresh_over_full": (
            statistics.median(refreshes) / validating.duration, "ratio"),
        "enforce.violations": (report.total_violations, "count"),
        "enforce.rules_violated": (
            sum(1 for rule in report.rules if rule.violation_count), "count"),
        "enforce.engine_over_oracle": (
            sampled.duration / oracle.duration, "ratio"),
    }


def probe_graph(graph: Any, work_dir: Path, spans: SpanRecorder) -> Metrics:
    with spans.span("graph.copy") as copying:
        copy = graph.copy()
    with spans.span("graph.index_build") as building:
        index = GraphIndex.build(copy)
    path = work_dir / "probe.rgix"
    with spans.span("graph.index_save") as saving:
        index.save(path)
    with spans.span("graph.attach_mmap") as attaching:
        attached = GraphIndex.load(path, graph=copy, mmap=True)
    del attached
    with spans.span("graph.load_eager") as loading:
        GraphIndex.load(path, graph=copy, mmap=False)
    copy.index()
    copy.set_attr(0, "name", "probe")
    with spans.span("graph.reindex") as reindexing:
        copy.index()
    return {
        "graph.copy_s": (copying.duration, "s"),
        "graph.index_build_s": (building.duration, "s"),
        "graph.index_save_s": (saving.duration, "s"),
        "graph.index_file_mb": (path.stat().st_size / 2**20, "MiB"),
        "graph.attach_mmap_ms": (attaching.duration * 1e3, "ms"),
        "graph.load_eager_s": (loading.duration, "s"),
        "graph.reindex_ms": (reindexing.duration * 1e3, "ms"),
    }


def _set_attr_ops(rng: random.Random, num_nodes: int, count: int) -> List[MutationOp]:
    return [
        MutationOp("set_attr", {"node": rng.randrange(num_nodes), "attr": "name",
                                "value": f"probe-{rng.randrange(10**6)}"})
        for _ in range(count)
    ]


def probe_serve(graph: Any, sigma: Sequence[Any], config: Any,
                rng: random.Random, spans: SpanRecorder) -> Metrics:
    async def start_and_close() -> float:
        service = EnforcementService(
            graph.copy(), sigma=list(sigma), config=config,
            serve=ServeConfig(commit_linger_s=0.01), backend=BACKEND,
            num_workers=NUM_WORKERS)
        with spans.span("serve.start") as starting:
            await service.start()
        await service.close()
        return starting.duration

    start_s = asyncio.run(start_and_close())
    chain = SnapshotChain()
    commits = {1: [], 8: []}
    with Session(graph.copy(), config, backend=BACKEND,
                 num_workers=NUM_WORKERS) as session:
        session.set_sigma(list(sigma))
        writer = GroupCommitWriter(session, chain)
        writer.bootstrap()
        with spans.span("serve.pin_release") as pinning:
            for _ in range(PIN_LOOPS):
                chain.pin().release()
        for size in (1, 8, 1, 8, 1, 8):
            ops = _set_attr_ops(rng, session.graph.num_nodes, size)
            with spans.span(f"serve.commit{size}") as committing:
                writer.commit(ops)
            commits[size].append(committing.duration)
        chain.close()
    return {
        "serve.start_s": (start_s, "s"),
        "serve.pin_release_us": (pinning.duration / PIN_LOOPS * 1e6, "us"),
        "serve.commit1_ms": (_median_ms(commits[1]), "ms"),
        "serve.commit8_ms": (_median_ms(commits[8]), "ms"),
    }


def probe_layers(state: Dict[str, Any], work_dir: Path,
                 spans: SpanRecorder) -> Metrics:
    """Every isolation probe on the workload's own graph and Σ."""
    rng = random.Random(state["seed"])
    graph, sigma = state["graph"], state["sigma"]
    metrics: Metrics = {}
    metrics.update(probe_pattern_and_core(graph, sigma, rng, spans))
    metrics.update(probe_gfd_and_enforce(graph, sigma, state["cover"], rng, spans))
    metrics.update(probe_graph(graph, work_dir, spans))
    metrics.update(probe_serve(graph, sigma, state["config"], rng, spans))
    return metrics


#: Worker-op names of the program's own tracer that the report keeps.
TRACED_OPS = ("eval", "install", "join", "scan", "tally", "probe",
              "implication_batch", "enforce_install", "enforce_update")


def program_trace_metrics(tracers: Sequence[Any]) -> Metrics:
    """Aggregate the spans the program's public ``repro.Tracer`` emitted."""
    by_op = dict.fromkeys(TRACED_OPS, 0.0)
    master = 0.0
    count = 0
    for tracer in tracers:
        count += len(tracer.spans)
        for span in tracer.spans:
            if span.kind == "op" and span.name in by_op:
                by_op[span.name] += span.duration
            elif span.kind == "master":
                master += span.duration
    metrics: Metrics = {
        f"parallel.op.{name}_s": (seconds, "s") for name, seconds in by_op.items()
    }
    metrics["parallel.master_s"] = (master, "s")
    metrics["obs.spans"] = (count, "count")
    return metrics
