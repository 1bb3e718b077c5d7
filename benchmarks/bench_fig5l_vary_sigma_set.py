"""Figure 5(l): ParCover vs ParCovern over |Σ| (synthetic Σ, n = 4).

Paper sweeps |Σ| = 2000..10000: both grow with |Σ|, but ParCover "is less
sensitive to |Σ| than ParCovern, since its grouping and load balancing
mitigate the impact".  The reproduction sweeps 100..500 generated GFDs;
shape targets: growth in |Σ| and ParCover ahead of ParCovern at the top
size.  Times are real wall seconds of one run on this host.
"""

from __future__ import annotations

from _harness import cover_pair, dataset, record, run_once, series_table

from repro.datasets import generate_gfds

SIZES = [100, 200, 300, 400, 500]
WORKERS = 4


def _sweep():
    graph = dataset("yago2")
    rows = {}
    for size in SIZES:
        sigma_set = generate_gfds(graph, size, k=3, redundancy=0.5, seed=11)
        (grouped, _), (ungrouped, _) = cover_pair(sigma_set, WORKERS)
        rows[size] = (grouped.elapsed_seconds, ungrouped.elapsed_seconds)
    return rows


def test_fig5l_vary_sigma_set(benchmark):
    rows = run_once(benchmark, _sweep)
    record(
        "fig5l_vary_sigma_set",
        series_table("|Sigma|\tParCover_seconds\tParCovern_seconds", rows),
    )
    assert rows[SIZES[-1]][0] > rows[SIZES[0]][0], "cost grows with |Σ|"
    assert rows[SIZES[-1]][0] < rows[SIZES[-1]][1], "grouping wins at scale"
