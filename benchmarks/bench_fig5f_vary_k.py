"""Figure 5(f): impact of the pattern bound k (DBpedia, n = 8).

Paper sweeps k = 2..6: time grows with k ("pay-as-you-go"), and 5-bounded
GFDs remain feasible.  The reproduction sweeps k = 2..4 (Python-scale)
and reports real wall seconds of one run on this host; shape target:
growth in k.
"""

from __future__ import annotations

from _harness import dataset, discovery_config, record, run_once, series_table

from repro.parallel import ParallelDiscovery

WORKERS = 8
K_VALUES = [2, 3, 4]


def _sweep():
    graph = dataset("dbpedia", scale=1.0)
    rows = {}
    for k in K_VALUES:
        config = discovery_config("dbpedia", k=k, sigma=120)
        result = ParallelDiscovery(graph, config, num_workers=WORKERS).run()
        rows[k] = result.stats.elapsed_seconds
    return rows


def test_fig5f_vary_k(benchmark):
    rows = run_once(benchmark, _sweep)
    record("fig5f_vary_k", series_table("k\tDisGFD_seconds", rows))
    assert rows[K_VALUES[-1]] > rows[K_VALUES[0]], "time should grow with k"
