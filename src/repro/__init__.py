"""repro — a reproduction of *Discovering Graph Functional Dependencies*
(Fan, Hu, Liu, Lu — SIGMOD 2018).

The package implements the paper end to end:

* :mod:`repro.graph` — the property-graph substrate (storage, IO, the
  frozen CSR index, statistics);
* :mod:`repro.pattern` — graph patterns with wildcards and pivots,
  canonical forms, subgraph-isomorphism matching, embeddings;
* :mod:`repro.gfd` — GFDs, their semantics, closure/chase, the FPT
  satisfiability and implication analyses (Theorem 1), a textual syntax;
* :mod:`repro.core` — the discovery problem (Section 4), ``discover``
  (``ParDis`` at ``n = 1``, i.e. ``SeqDis``), the dict-adjacency
  ``SequentialDiscovery`` oracle and ``SeqCover`` (Section 5);
* :mod:`repro.parallel` — the parallel-scalable ``ParDis``/``ParCover``
  (Section 6) on in-process or multiprocess workers, with exact per-worker
  work counts;
* :mod:`repro.baselines` — ParAMIE, DisGCFD/ParCGFD, ParArab, and the
  ablations ParGFDn / ParGFDnb / ParCovern (Section 7);
* :mod:`repro.datasets` — the Figure-1 examples, the paper's synthetic
  generator, and DBpedia/YAGO2/IMDB scale models with planted rules;
* :mod:`repro.quality` — violation detection and Exp-5 accuracy metrics;
* :mod:`repro.enforce` — the rule enforcement engine: compiled multi-GFD
  validation with incremental delta maintenance;
* :mod:`repro.session` — the resource-owning :class:`~repro.session.
  Session` facade: one backend and index snapshot shared across the whole
  discover → cover → enforce → refresh pipeline;
* :mod:`repro.obs` — unified telemetry: hierarchical span tracing with
  per-worker lanes, a metrics registry, and Chrome-trace / JSONL /
  Prometheus exports;
* :mod:`repro.serve` — enforcement-as-a-service: the asyncio serving
  layer over MVCC index snapshots with group-commit writes (readers pin
  a consistent version per request, writes batch through the delta log).

Quickstart::

    from repro import Graph, DiscoveryConfig, Session

    graph = ...  # build or load a property graph
    with Session(graph, DiscoveryConfig(k=3, sigma=100)) as session:
        result = session.discover()
        session.cover()
        report = session.enforce()   # serve Σ against the live graph
"""

from .core import (
    CoverResult,
    DiscoveryConfig,
    DiscoveryResult,
    EnforcementConfig,
    FaultConfig,
    MiningStats,
    SequentialDiscovery,
    discover,
    gfd_support,
    pattern_support,
    sequential_cover,
)
from .core.config import CandidateBudgetExceeded
from .enforce import EnforcementEngine, EnforcementReport, RuleSketchMonitor
from .gfd import (
    FALSE,
    GFD,
    ConstantLiteral,
    VariableLiteral,
    Violation,
    find_violations,
    format_gfd,
    graph_satisfies,
    implies,
    is_satisfiable,
    parse_gfd,
    validate_set,
)
from .graph import Graph, GraphBuilder
from .obs import (
    MetricsRegistry,
    NullTracer,
    Tracer,
    write_chrome_trace,
    write_event_log,
    write_prometheus,
)
from .parallel import (
    ParallelDiscovery,
    parallel_cover,
)
from .pattern import WILDCARD, Pattern, find_matches, pivot_image
from .serve import EnforcementService, ServeConfig
from .session import Session, SessionMetrics

#: The single source of the package version — ``setup.py`` reads it from
#: this file, and every telemetry/bench artifact stamps it.
__version__ = "1.3.0"

__all__ = [
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
    # serving
    "EnforcementService",
    "ServeConfig",
    # observability
    "Tracer",
    "NullTracer",
    "MetricsRegistry",
    "write_chrome_trace",
    "write_event_log",
    "write_prometheus",
]
