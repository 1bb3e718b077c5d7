"""Figure 5(e): DisGFD over synthetic graph size |G| = (|V|, |E|), n = 20.

Paper sweeps (10M, 20M) → (30M, 60M) and observes near-linear growth with
|G| while staying feasible (< 30 minutes at the top size).  The
reproduction sweeps the same 1:2 node:edge ratio at 1/1000 scale and
reports real wall seconds of one run on this host; the shape target is
growth in |G|.
"""

from __future__ import annotations

from _harness import record, run_once, series_table

from repro.core import DiscoveryConfig
from repro.datasets import SYNTHETIC_ATTRIBUTES, synthetic_graph
from repro.parallel import ParallelDiscovery

SIZES = [(10_000, 20_000), (15_000, 30_000), (20_000, 40_000),
         (25_000, 50_000), (30_000, 60_000)]
WORKERS = 20


def _sweep():
    rows = {}
    for nodes, edges in SIZES:
        graph = synthetic_graph(nodes, edges, seed=1)
        # σ is held fixed across the sweep, matching the paper's protocol
        # ("Fixing k = 4, σ = 500 and n = 20 ... varying |G|").
        config = DiscoveryConfig(
            k=2,
            sigma=100,
            max_lhs_size=1,
            active_attributes=list(SYNTHETIC_ATTRIBUTES[:3]),
            variable_literals=False,
            max_negatives_per_pattern=5,
        )
        result = ParallelDiscovery(graph, config, num_workers=WORKERS).run()
        rows[f"({nodes},{edges})"] = result.stats.elapsed_seconds
    return rows


def test_fig5e_vary_graph_size(benchmark):
    rows = run_once(benchmark, _sweep)
    record("fig5e_vary_graph_size", series_table("|G|\tDisGFD_seconds", rows))
    times = list(rows.values())
    assert times[-1] > times[0], "bigger graphs should take longer"
