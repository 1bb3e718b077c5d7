"""Figure 5(h): impact of the active attributes |Γ| (DBpedia, n = 8).

Paper sweeps |Γ| = 50..250: "both algorithms take longer with larger |Γ|,
as more GFD candidates are generated."  The reproduction sweeps the number
of active attributes 2..5 (the scale models carry 5) and reports real
wall seconds of one run on this host; shape target: growth in |Γ|.
"""

from __future__ import annotations

from _harness import dataset, discovery_config, record, run_once, series_table

from repro.datasets import KB_ATTRIBUTES
from repro.parallel import ParallelDiscovery

WORKERS = 8
GAMMA_SIZES = [2, 3, 4, 5]


def _sweep():
    graph = dataset("dbpedia", scale=1.0)
    rows = {}
    for size in GAMMA_SIZES:
        config = discovery_config(
            "dbpedia", sigma=120, active_attributes=list(KB_ATTRIBUTES[:size])
        )
        result = ParallelDiscovery(graph, config, num_workers=WORKERS).run()
        rows[size] = result.stats.elapsed_seconds
    return rows


def test_fig5h_vary_gamma(benchmark):
    rows = run_once(benchmark, _sweep)
    record("fig5h_vary_gamma", series_table("|Gamma|\tDisGFD_seconds", rows))
    assert rows[GAMMA_SIZES[-1]] > rows[GAMMA_SIZES[0]], "more attributes, more time"
