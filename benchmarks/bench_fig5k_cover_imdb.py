"""Figure 5(k): ParCover vs ParCovern over workers n ∈ {4..20} — IMDB.

Paper: ParCover improves 1.75× from n=4 to n=20 on average and outperforms
the no-grouping ParCovern by ~10×.  Shape targets: ParCover ≤ ParCovern at
every n, with a large grouping speedup.
"""

from __future__ import annotations

from _harness import (
    WORKER_COUNTS,
    cover_pair,
    dataset,
    discovery_config,
    record,
    run_once,
    series_table,
)

from repro.core import discover

DATASET = "imdb"


def _sweep():
    graph = dataset(DATASET)
    config = discovery_config(DATASET)
    sigma_set = discover(graph, config).gfds
    rows = {}
    for workers in WORKER_COUNTS:
        grouped, ungrouped = cover_pair(sigma_set, workers)
        rows[workers] = (
            grouped.metrics.elapsed_parallel,
            ungrouped.metrics.elapsed_parallel,
        )
    return rows


def test_fig5k_cover_imdb(benchmark):
    rows = run_once(benchmark, _sweep)
    record(
        "fig5k_cover_imdb",
        series_table("n\tParCover_seconds\tParCovern_seconds", rows),
    )
    for workers, (grouped, ungrouped) in rows.items():
        assert grouped <= ungrouped, f"grouping must win at n={workers}"
