"""Figure 5(a): DisGFD vs ParGFDnb over workers n ∈ {4..20} — DBpedia.

Paper (full scale): DisGFD is parallel scalable (3.6× faster from n=4 to
n=20 on DBpedia) and beats the no-balancing ParGFDnb.  The reproduction
reports the metered cluster's modeled parallel time; shape targets: time at
n=20 below time at n=4, DisGFD ≤ ParGFDnb at n=20.
"""

from __future__ import annotations

from _harness import (
    WORKER_COUNTS,
    assert_real_speedup,
    dataset,
    discovery_config,
    real_backend_sweep,
    record,
    run_once,
    series_table,
)

from repro.baselines import run_pargfd_nb
from repro.parallel import ParallelDiscovery

DATASET = "dbpedia"


def _sweep():
    graph = dataset(DATASET)
    config = discovery_config(DATASET)
    rows = {}
    for workers in WORKER_COUNTS:
        runner = ParallelDiscovery(graph, config, num_workers=workers)
        runner.run()
        balanced = runner.cluster
        _, unbalanced = run_pargfd_nb(graph, config, num_workers=workers)
        rows[workers] = (
            balanced.metrics.elapsed_parallel,
            unbalanced.metrics.elapsed_parallel,
        )
    return rows


def test_fig5a_workers_dbpedia(benchmark):
    rows = run_once(benchmark, _sweep)
    record(
        "fig5a_workers_dbpedia",
        series_table("n\tDisGFD_seconds\tParGFDnb_seconds", rows),
    )
    first = rows[WORKER_COUNTS[0]]
    best_high_n = min(rows[workers][0] for workers in WORKER_COUNTS[1:])
    assert best_high_n < first[0], "more workers should beat n=4"
    last = rows[WORKER_COUNTS[-1]]
    assert last[0] <= last[1] * 1.10, "balancing should not hurt at n=20"


def test_fig5a_real_multiprocess_speedup(benchmark):
    """Real wall-clock scaling of the multiprocess backend (not modeled)."""
    rows = run_once(benchmark, lambda: real_backend_sweep(DATASET))
    record(
        "fig5a_real_speedup_dbpedia",
        series_table("n\treal_seconds\tspeedup_vs_n1", rows),
    )
    assert_real_speedup(rows)
