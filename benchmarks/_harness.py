"""Shared infrastructure for the per-figure benchmark suite.

Every benchmark regenerates one table or figure of the paper's Section 7 at
reproduction scale: it runs the same algorithms over the scale-model
datasets, prints the series the paper plots, and appends them to
``benchmarks/results/`` so docs and reviews cite measured numbers rather
than remembered ones.

Scale notes: the paper's graphs have 10⁶–10⁷ nodes and run on 20 EC2
instances for minutes to hours; the reproduction uses ~10³-node scale models
so the whole suite finishes in minutes.  Shapes (who wins, monotonicity,
crossovers) are the reproduction target, not absolute times: a one-host
run of the same work units meters per-worker compute exactly (see
``repro.parallel.cluster``), but not the paper's hardware or network.
"""

from __future__ import annotations

import functools
import json
import os
import platform
from pathlib import Path
from typing import Any, Callable, Dict, List, Mapping, Sequence, Tuple

from repro import __version__
from repro.core import DiscoveryConfig
from repro.datasets import KB_ATTRIBUTES, dbpedia_like, imdb_like, yago2_like

#: Version of the ``BENCH_*.json`` envelope written by :func:`write_bench`.
BENCH_SCHEMA_VERSION = 1

#: Worker counts of Figures 5(a)-(c) and 5(i)-(k).
WORKER_COUNTS = [4, 8, 12, 16, 20]

#: Worker counts of the *real* (multiprocess backend) wall-clock sweeps.
REAL_WORKER_COUNTS = [1, 2, 4]

RESULTS_DIR = Path(__file__).parent / "results"


#: Per-dataset scale factors and support thresholds for the worker sweeps.
#: DBpedia needs a larger scale: its breadth (many node types ⇒ many small
#: match tables) under-utilizes workers at tiny sizes.
DATASET_SHAPE = {
    "dbpedia": (2.0, 250),
    "yago2": (1.6, 90),
    "imdb": (1.6, 90),
}

_FACTORIES = {
    "dbpedia": dbpedia_like,
    "yago2": yago2_like,
    "imdb": imdb_like,
}


@functools.lru_cache(maxsize=None)
def dataset(name: str, scale: float = None):
    """The benchmark graphs (cached across benches within one session)."""
    if scale is None:
        scale = DATASET_SHAPE[name][0]
    return _FACTORIES[name](scale=scale, seed=1)


def discovery_config(name: str, **overrides) -> DiscoveryConfig:
    """Per-dataset discovery parameters (σ tuned to dataset size)."""
    defaults = dict(
        k=3,
        sigma=DATASET_SHAPE[name][1],
        max_lhs_size=1,
        active_attributes=list(KB_ATTRIBUTES),
    )
    defaults.update(overrides)
    return DiscoveryConfig(**defaults)


def record(name: str, lines: Sequence[str]) -> None:
    """Print a series and persist it under ``benchmarks/results/``."""
    RESULTS_DIR.mkdir(exist_ok=True)
    text = "\n".join(lines)
    print(f"\n=== {name} ===\n{text}")
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")


def host_info() -> Dict[str, Any]:
    """The host facts stamped into every ``BENCH_*.json`` artifact."""
    try:
        cores = len(os.sched_getaffinity(0))
    except AttributeError:  # non-Linux
        cores = os.cpu_count() or 1
    return {
        "cores": cores,
        "platform": platform.system().lower(),
        "python": platform.python_version(),
    }


def write_bench(name: str, metrics: Mapping[str, Any]) -> Path:
    """Write ``benchmarks/results/BENCH_<name>.json`` in the standard shape.

    Every benchmark artifact gets the same envelope — ``schema_version``,
    ``repro_version``, ``bench``, ``host`` (usable cores, platform, python
    version) and the benchmark's own ``metrics`` — serialized with sorted
    keys so artifacts from different benches and runs diff cleanly.
    """
    RESULTS_DIR.mkdir(exist_ok=True)
    payload = {
        "schema_version": BENCH_SCHEMA_VERSION,
        "repro_version": __version__,
        "bench": name,
        "host": host_info(),
        "metrics": dict(metrics),
    }
    path = RESULTS_DIR / f"BENCH_{name}.json"
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path


def series_table(header: str, rows: Dict) -> List[str]:
    """Format a {x: y or (y1, y2, ...)} mapping as aligned text rows."""
    lines = [header]
    for key in rows:
        value = rows[key]
        if isinstance(value, tuple):
            rendered = "\t".join(
                f"{v:.4f}" if isinstance(v, float) else str(v) for v in value
            )
        elif isinstance(value, float):
            rendered = f"{value:.4f}"
        else:
            rendered = str(value)
        lines.append(f"{key}\t{rendered}")
    return lines


def run_once(benchmark, func: Callable):
    """Run ``func`` exactly once under pytest-benchmark's timer."""
    return benchmark.pedantic(func, rounds=1, iterations=1, warmup_rounds=0)


def real_backend_sweep(
    name: str, worker_counts: Sequence[int] = tuple(REAL_WORKER_COUNTS)
) -> Dict[int, Tuple[float, float]]:
    """Real wall-clock of the multiprocess ``ParDis`` backend per worker count.

    Unlike the modeled sweeps, these numbers include every real cost —
    process startup, shared-memory attach, task pickling — so they answer
    the question the simulation cannot: does adding actual worker processes
    make the same discovery finish sooner?  Returns
    ``{workers: (seconds, speedup vs the first count)}``.
    """
    from repro.parallel import discover_parallel

    graph = dataset(name)
    config = discovery_config(name)
    index = graph.index()
    stats = index.statistics()
    rows: Dict[int, Tuple[float, float]] = {}
    base = None
    for workers in worker_counts:
        result, _ = discover_parallel(
            graph,
            config,
            num_workers=workers,
            backend="multiprocess",
            stats=stats,
            index=index,
        )
        elapsed = result.stats.elapsed_seconds
        if base is None:
            base = elapsed
        rows[workers] = (elapsed, base / elapsed)
    return rows


def assert_real_speedup(
    rows: Dict[int, Tuple[float, float]],
    target: float = 1.8,
    min_baseline_seconds: float = 8.0,
):
    """Gate the real-speedup shape to what the host and workload can show.

    Real process parallelism has a floor: below ``min_baseline_seconds`` of
    single-worker work, startup + IPC dominate and no speedup is expected —
    the sweep is then record-only (the series still lands in ``results/``).
    Above it: when the host has enough *usable* cores (CPU affinity, which
    respects container/cgroup limits, not the raw core count) to run every
    worker plus the master concurrently, demand the paper-shaped ``target``
    speedup at the largest count; on smaller hosts (CI runners, laptops)
    real speedup cannot be promised under contention, so only guard against
    a catastrophic multi-worker regression (every configuration far slower
    than one worker would mean the IPC path broke).
    """
    counts = sorted(rows)
    if rows[counts[0]][0] < min_baseline_seconds:
        return  # workload too small for real parallelism to pay
    try:
        cores = len(os.sched_getaffinity(0))
    except AttributeError:  # non-Linux
        cores = os.cpu_count() or 1
    if cores < 2:
        return  # a single core cannot overlap real worker processes
    if cores > counts[-1]:
        assert rows[counts[-1]][1] >= target, (
            f"expected >= {target}x real speedup at {counts[-1]} workers, "
            f"got {rows[counts[-1]][1]:.2f}x"
        )
        return
    best = max(rows[workers][1] for workers in counts[1:])
    assert best > 0.5, (
        "every multi-worker configuration ran far slower than one worker "
        f"(best {best:.2f}x) — the multiprocess IPC path likely regressed"
    )
