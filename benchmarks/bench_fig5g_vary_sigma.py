"""Figure 5(g): impact of the support threshold σ (DBpedia, n = 8).

Paper sweeps σ = 500..2500: "both algorithms take less time with larger σ,
as higher σ prunes more GFD candidates."  The reproduction reports real
wall seconds of one run on this host; shape target: less time at the top
σ than at the bottom.
"""

from __future__ import annotations

from _harness import dataset, discovery_config, record, run_once, series_table

from repro.parallel import ParallelDiscovery

WORKERS = 8
SIGMAS = [60, 120, 180, 240, 300]


def _sweep():
    graph = dataset("dbpedia", scale=1.0)
    rows = {}
    for sigma in SIGMAS:
        config = discovery_config("dbpedia", sigma=sigma)
        result = ParallelDiscovery(graph, config, num_workers=WORKERS).run()
        rows[sigma] = result.stats.elapsed_seconds
    return rows


def test_fig5g_vary_sigma(benchmark):
    rows = run_once(benchmark, _sweep)
    record("fig5g_vary_sigma", series_table("sigma\tDisGFD_seconds", rows))
    assert rows[SIGMAS[-1]] < rows[SIGMAS[0]], "higher σ should prune more"
