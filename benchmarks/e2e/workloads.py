"""The four benchmark workloads.

Every workload has the same shape: ``setup(seed)`` builds the inputs from
the seed (the program only ever sees what set-up generated), ``prepare``
makes the untimed per-repeat copy, and ``unit`` is the timed unit of work.
The README says why each exists and how it was sized.

The dataset factories are called with a fixed factory seed: the graph's
size and shape *are* the workload (run-to-run comparability needs the same
amount of work), and across factory seeds the mined Σ — and with it the
work — moves by ±10 %, more than the effects the bounds gate.  ``--seed``
instead feeds a seeded isomorphic relabelling of that graph (node ids and
insertion order change, Σ and the work do not), plus everything that is
random by nature: noise, the mutation stream, the load generator and every
sample the checks and probes draw.
"""

from __future__ import annotations

import asyncio
import math
import random
import statistics
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Sequence

from repro import DiscoveryConfig, Graph, Session
from repro.datasets import KB_ATTRIBUTES, dbpedia_like, imdb_like, yago2_like
from repro.datasets.noise import inject_noise
from repro.parallel.janitor import live_mappings, live_segments
from repro.serve import EnforcementService, ServeConfig, TrafficMix, run_load

import checks
from spans import SpanRecorder

__all__ = ["WORKLOADS", "Pipeline", "Unit", "run_pipeline", "shuffled_copy",
           "percentile"]

#: Factory seed of every dataset (see the module docstring).
FACTORY_SEED = 1

BACKEND = "serial"
NUM_WORKERS = 2

WORK_DIR = Path(__file__).resolve().parent / ".work"


def percentile(samples: Sequence[float], q: float) -> float:
    ordered = sorted(samples)
    position = q * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def shuffled_copy(base: Graph, rng: random.Random) -> Graph:
    """An isomorphic copy with seeded node ids and edge insertion order."""
    order = list(base.nodes())
    rng.shuffle(order)
    new_id = {old: new for new, old in enumerate(order)}
    graph = Graph()
    for old in order:
        graph.add_node(base.node_label(old), dict(base.node_attrs(old)))
    edges = list(base.edges())
    rng.shuffle(edges)
    for src, dst, label in edges:
        graph.add_edge(new_id[src], new_id[dst], label)
    return graph


def mining_config(k: int, sigma: int) -> DiscoveryConfig:
    return DiscoveryConfig(
        k=k, sigma=sigma, max_lhs_size=1,
        active_attributes=list(KB_ATTRIBUTES),
    )


@dataclass
class Pipeline:
    """What one discover → cover → enforce session produced."""

    sigma: List[Any]
    supports: Dict[Any, int]
    cover: List[Any]
    report: Any
    metrics: Dict[str, Any]


def run_pipeline(graph: Graph, config: DiscoveryConfig, spans: SpanRecorder,
                 tracer: Any = None, enforce: bool = True) -> Pipeline:
    """Fresh ``Session`` → discover → cover → (enforce) → close, spanned."""
    with spans.span("session.open"):
        session = Session(graph, config, backend=BACKEND,
                          num_workers=NUM_WORKERS, tracer=tracer)
    try:
        with spans.span("session.discover"):
            result = session.discover()
        with spans.span("session.cover"):
            cover = session.cover()
        report = None
        if enforce:
            with spans.span("session.enforce"):
                report = session.enforce()
        metrics = session.metrics().as_dict()
    finally:
        with spans.span("session.close"):
            session.close()
    return Pipeline(list(result.gfds), dict(result.supports),
                    list(cover.cover), report, metrics)


@dataclass
class Unit:
    """What one timed unit of work reports back."""

    #: Seconds of each full ``enforce()`` pass / each ``refresh()``.
    validate_s: List[float] = field(default_factory=list)
    refresh_s: List[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    #: Output digest (checked identical across repeats where it must be).
    digest: str = ""
    #: Exact counts, for the per-layer report.
    counts: Dict[str, float] = field(default_factory=dict)
    #: Workload-specific outputs the correctness check needs.
    outputs: Dict[str, Any] = field(default_factory=dict)


@dataclass
class Sizes:
    scale: float
    k: int
    sigma: int


class Workload:
    """What ``run.py`` needs to know to schedule a workload."""

    name: str
    #: Nominal seconds of one timed unit; ``--seconds`` / this = the repeats.
    unit_s: float
    min_repeats = 3
    #: Set-up runs this many times and the median is reported.
    setup_repeats = 3
    #: Whether the warm-up is a whole unit, so that its digest must match too.
    full_warmup = False

    def repeats(self, seconds: float) -> int:
        return max(self.min_repeats, math.ceil(seconds / self.unit_s))


class MineWorkload(Workload):
    """Fresh ``Session`` → ``discover()`` → ``cover()`` → ``enforce()`` → close."""

    full_warmup = True

    def __init__(self, name: str, factory: Callable[..., Graph], full: Sizes,
                 smoke: Sizes, unit_s: float) -> None:
        self.name = name
        self.factory = factory
        self.sizes = {False: full, True: smoke}
        self.unit_s = unit_s

    def setup(self, seed: int, smoke: bool, spans: SpanRecorder,
              tracer: Any = None) -> Dict[str, Any]:
        sizes = self.sizes[smoke]
        base = self.factory(scale=sizes.scale, seed=FACTORY_SEED)
        graph = shuffled_copy(base, random.Random(seed))
        return {"graph": graph, "seed": seed,
                "config": mining_config(sizes.k, sizes.sigma)}

    def prepare(self, state: Dict[str, Any], warmup: bool = False) -> Graph:
        return state["graph"].copy()

    def unit(self, state: Dict[str, Any], graph: Graph, spans: SpanRecorder,
             tracer: Any = None) -> Unit:
        pipeline = run_pipeline(graph, state["config"], spans, tracer)
        enforce_s = spans.named("session.enforce")[-1].duration
        return Unit(
            validate_s=[enforce_s], attempted=1,
            digest=checks.pipeline_digest(pipeline),
            counts=pipeline_counts(pipeline),
            outputs={"pipeline": pipeline},
        )

    def extras(self, units: Sequence[Unit]) -> Dict[str, Any]:
        return {"full_validate_s": (
            statistics.median(s for unit in units for s in unit.validate_s), "s")}

    def check(self, state: Dict[str, Any], units: Sequence[Unit]) -> List[str]:
        return checks.check_mined(
            state["graph"], state["config"], units[-1].outputs["pipeline"],
            random.Random(state["seed"]),
        )


def pipeline_counts(pipeline: Pipeline) -> Dict[str, float]:
    metrics = pipeline.metrics
    return {
        "session.sigma_size": len(pipeline.sigma),
        "session.cover_size": len(pipeline.cover),
        "parallel.supersteps": metrics["cluster"]["supersteps"],
        "parallel.rows_to_workers": metrics["transfers"]["rows_to_workers"],
        "parallel.rows_to_master": metrics["transfers"]["rows_to_master"],
    }


class MutationStream:
    """Seeded small writes: 60 % ``set_attr``, 20 % ``add_edge``, 10 %
    ``remove_edge``, 10 % ``add_node`` plus one edge from it."""

    def __init__(self, graph: Graph, rng: random.Random) -> None:
        self.graph = graph
        self.rng = rng
        self.edges = list(graph.edges())
        self.edge_labels = sorted(graph.edge_label_counts())
        self.node_labels = sorted(graph.node_labels())
        self.values = {
            attr: sorted({
                graph.get_attr(node, attr)
                for node in graph.nodes() if graph.has_attr(node, attr)
            }, key=str)
            for attr in KB_ATTRIBUTES
        }

    def apply_batch(self, size: int) -> None:
        graph, rng = self.graph, self.rng
        for _ in range(size):
            kind = rng.random()
            node = rng.randrange(graph.num_nodes)
            if kind < 0.6:
                attr = rng.choice(KB_ATTRIBUTES)
                graph.set_attr(node, attr, rng.choice(self.values[attr]))
            elif kind < 0.8:
                other = rng.randrange(graph.num_nodes)
                label = rng.choice(self.edge_labels)
                if graph.add_edge(node, other, label):
                    self.edges.append((node, other, label))
            elif kind < 0.9:
                position = rng.randrange(len(self.edges))
                self.edges[position], self.edges[-1] = (
                    self.edges[-1], self.edges[position])
                graph.remove_edge(*self.edges.pop())
            else:
                label = rng.choice(self.node_labels)
                fresh = graph.add_node(label, {"type": label})
                edge_label = rng.choice(self.edge_labels)
                graph.add_edge(fresh, node, edge_label)
                self.edges.append((fresh, node, edge_label))


class ChurnWorkload(Workload):
    """Attach a persisted index → full ``enforce()`` → batches of small
    writes, each followed by ``refresh()``: writes beside reads."""

    name = "enforce_churn"
    unit_s = 10.0
    setup_repeats = 1  # it mines Σ on 12k nodes: 12 s
    batch_size = 8
    alpha, beta = 0.05, 0.5

    sizes = {False: Sizes(8.0, 3, 1000), True: Sizes(0.5, 2, 60)}
    batches = {False: 6, True: 3}
    warmup_batches = 2

    def setup(self, seed: int, smoke: bool, spans: SpanRecorder,
              tracer: Any = None) -> Dict[str, Any]:
        sizes = self.sizes[smoke]
        base = dbpedia_like(scale=sizes.scale, seed=FACTORY_SEED)
        clean = shuffled_copy(base, random.Random(seed))
        config = mining_config(sizes.k, sizes.sigma)
        pipeline = run_pipeline(clean.copy(), config, spans, tracer,
                                enforce=False)
        dirty, _ = inject_noise(clean, alpha=self.alpha, beta=self.beta,
                                attributes=list(KB_ATTRIBUTES), seed=seed)
        # Every ``dirty.copy()`` has the same version, so the index saved
        # from one copy attaches to all of them without a rebuild.
        WORK_DIR.mkdir(exist_ok=True)
        index_path = WORK_DIR / f"churn_{seed}.rgix"
        with spans.span("graph.index_build"):
            index = dirty.copy().index()
        with spans.span("graph.index_save"):
            index.save(index_path)
        return {"graph": dirty, "seed": seed, "config": config,
                "pipeline": pipeline, "sigma": pipeline.cover,
                "index_path": index_path, "batches": self.batches[smoke]}

    def prepare(self, state: Dict[str, Any], warmup: bool = False) -> Any:
        stream = MutationStream(state["graph"].copy(),
                                random.Random(state["seed"]))
        return stream, self.warmup_batches if warmup else state["batches"]

    def unit(self, state: Dict[str, Any], unit_input: Any,
             spans: SpanRecorder, tracer: Any = None) -> Unit:
        unit = Unit()
        stream, batches = unit_input
        graph = stream.graph
        with spans.span("session.open"):
            session = Session(graph, state["config"], backend=BACKEND,
                              num_workers=NUM_WORKERS, tracer=tracer,
                              index_path=state["index_path"],
                              index_autosave=False)
        try:
            session.set_sigma(state["sigma"])
            with spans.span("session.enforce") as span:
                report = session.enforce()
            unit.validate_s.append(span.duration)
            unit.outputs["full_violations"] = report.total_violations
            for _ in range(batches):
                stream.apply_batch(self.batch_size)
                with spans.span("session.refresh") as span:
                    report = session.refresh()
                unit.refresh_s.append(span.duration)
                unit.failed += report.mode != "incremental"
            unit.counts = {
                "index_attaches":
                    session.metrics().as_dict()["lifecycle"]["index_attaches"],
            }
        finally:
            with spans.span("session.close"):
                session.close()
        unit.attempted = 1 + batches
        unit.digest = checks.report_digest(report)
        unit.outputs.update(graph=graph, report=report)
        return unit

    def extras(self, units: Sequence[Unit]) -> Dict[str, Any]:
        refreshes = [s for unit in units for s in unit.refresh_s]
        return {
            "full_validate_s": (
                statistics.median(s for unit in units for s in unit.validate_s), "s"),
            "refresh_p50_ms": (percentile(refreshes, 0.5) * 1e3, "ms"),
            "refresh_p80_ms": (percentile(refreshes, 0.8) * 1e3, "ms"),
        }

    def check(self, state: Dict[str, Any], units: Sequence[Unit]) -> List[str]:
        return checks.check_churn(state["sigma"], units)


class ServeWorkload(Workload):
    """In-process ``EnforcementService`` under a closed loop of 2 clients."""

    name = "serve_mixed"
    unit_s = 10.0
    min_repeats = 1
    clients = 2
    mix = TrafficMix(validate=0.80, discover=0.05, cover=0.05, mutate=0.10)

    sizes = {False: Sizes(1.0, 2, 60), True: Sizes(0.4, 2, 30)}
    requests_per_client = {False: 1000, True: 50}

    def setup(self, seed: int, smoke: bool, spans: SpanRecorder,
              tracer: Any = None) -> Dict[str, Any]:
        sizes = self.sizes[smoke]
        base = imdb_like(scale=sizes.scale, seed=FACTORY_SEED)
        graph = shuffled_copy(base, random.Random(seed))
        config = mining_config(sizes.k, sizes.sigma)
        pipeline = run_pipeline(graph.copy(), config, spans, tracer)
        return {"graph": graph, "seed": seed, "config": config,
                "pipeline": pipeline, "sigma": pipeline.sigma,
                "requests_per_client": self.requests_per_client[smoke]}

    def prepare(self, state: Dict[str, Any], warmup: bool = False) -> Any:
        requests = state["requests_per_client"]
        return state["graph"].copy(), requests // 10 if warmup else requests

    def unit(self, state: Dict[str, Any], unit_input: Any, spans: SpanRecorder,
             tracer: Any = None) -> Unit:
        return asyncio.run(self._drive(state, *unit_input, spans, tracer))

    async def _drive(self, state: Dict[str, Any], graph: Graph, requests: int,
                     spans: SpanRecorder, tracer: Any) -> Unit:
        service = EnforcementService(
            graph, sigma=state["sigma"], config=state["config"],
            serve=ServeConfig(commit_linger_s=0.01), backend=BACKEND,
            num_workers=NUM_WORKERS,
            tracer=tracer,
        )
        with spans.span("serve.start"):
            await service.start()
        try:
            with spans.span("serve.load"):
                load = await run_load(
                    service, clients=self.clients,
                    requests_per_client=requests,
                    mix=self.mix, seed=state["seed"],
                    mutation_attrs=["name", "country"], discover_budget=10,
                )
            commit_log = [list(batch) for batch in service.writer.commit_log]
            commits, mutations = service.writer.commits, service.writer.mutations
        finally:
            with spans.span("serve.close"):
                await service.close()
        rejected = load.rejected_overload + load.rejected_deadline
        return Unit(
            attempted=load.requests + load.errors + rejected,
            failed=load.errors + rejected,
            # what each client asks for is seeded, how two clients interleave
            # is not: only the per-kind request counts repeat
            digest=checks.counts_digest(load.completed),
            counts={
                "serve.commits": commits,
                "serve.mutations": mutations,
                "serve.rejected": rejected,
                **{f"serve.requests_{kind}": count
                   for kind, count in sorted(load.completed.items())},
            },
            outputs={
                "load": load, "commit_log": commit_log,
                "leaked_leases": service.leaked_leases,
                "leaked_segments": len(live_segments()),
                "leaked_mappings": len(live_mappings()),
            },
        )

    def extras(self, units: Sequence[Unit]) -> Dict[str, Any]:
        loads = [unit.outputs["load"] for unit in units]

        def pooled(kind: str) -> List[float]:
            return [s for load in loads for s in load.latencies.get(kind, [])]

        mutates = loads[-1].latencies.get("mutate", [])
        quarter = max(1, len(mutates) // 4)
        commits = sum(unit.counts["serve.commits"] for unit in units)
        mutations = sum(unit.counts["serve.mutations"] for unit in units)
        return {
            "throughput_rps": (
                statistics.median(load.throughput for load in loads), "1/s"),
            "validate_p50_ms": (percentile(pooled("validate"), 0.5) * 1e3, "ms"),
            "validate_p99_ms": (percentile(pooled("validate"), 0.99) * 1e3, "ms"),
            "mutate_p50_ms": (percentile(pooled("mutate"), 0.5) * 1e3, "ms"),
            "mutate_p95_ms": (percentile(pooled("mutate"), 0.95) * 1e3, "ms"),
            "serve.discover_p50_ms": (percentile(pooled("discover"), 0.5) * 1e3, "ms"),
            "serve.cover_p50_ms": (percentile(pooled("cover"), 0.5) * 1e3, "ms"),
            "serve.mutations_per_commit": (mutations / max(1, commits), "ratio"),
            # run order, not sorted: does a mutate cost more as versions pile up?
            "serve.mutate_drift": (
                statistics.median(mutates[-quarter:])
                / statistics.median(mutates[:quarter]), "ratio"),
        }

    def check(self, state: Dict[str, Any], units: Sequence[Unit]) -> List[str]:
        return checks.check_served(
            state["graph"], state["sigma"], units,
            random.Random(state["seed"]),
        )


WORKLOADS = {
    workload.name: workload
    for workload in (
        MineWorkload("mine_deep", yago2_like, Sizes(1.6, 3, 90),
                     Sizes(0.4, 2, 25), unit_s=3.5),
        MineWorkload("mine_broad", dbpedia_like, Sizes(2.0, 3, 250),
                     Sizes(0.4, 2, 50), unit_s=5.5),
        ChurnWorkload(),
        ServeWorkload(),
    )
}
