"""Figure 5(d): DisGFD vs DisGCFD vs ParAMIE on YAGO2 (k = 3).

Paper: "DisGFD is comparable to ParCGFD, although it finds more GFDs with
general patterns.  Although GFDs are more expressive, DisGFD outperforms
ParAMIE by 3.4 times on average, due to its pruning strategies."  Shape
targets here: DisGFD within a small factor of DisGCFD while finding a rule
superset, and all three complete.  Times are real wall seconds of one
run on this host.  The ParAMIE row is :func:`mine_amie`: AMIE's head
relations are independent units, so splitting them over workers changes
no rule.
"""

from __future__ import annotations

from _harness import dataset, discovery_config, record, run_once, series_table

from repro.baselines import discover_gcfd_parallel, mine_amie
from repro.parallel import ParallelDiscovery

WORKERS = 8


def _compare():
    graph = dataset("yago2")
    config = discovery_config("yago2")
    rows = {}
    gfd_result = ParallelDiscovery(graph, config, num_workers=WORKERS).run()
    rows["DisGFD"] = (gfd_result.stats.elapsed_seconds, len(gfd_result.gfds))
    gcfd_result = discover_gcfd_parallel(graph, config, num_workers=WORKERS)
    rows["DisGCFD"] = (gcfd_result.stats.elapsed_seconds, len(gcfd_result.gfds))
    amie_result = mine_amie(graph, min_support=config.sigma)
    rows["ParAMIE"] = (amie_result.elapsed_seconds, len(amie_result.rules))
    return rows


def test_fig5d_gcfd_gfd_amie(benchmark):
    rows = run_once(benchmark, _compare)
    record(
        "fig5d_gcfd_gfd_amie",
        series_table("system\tseconds\trules", rows),
    )
    assert rows["DisGFD"][1] >= rows["DisGCFD"][1], "GFDs subsume GCFDs"
    assert all(seconds > 0 for seconds, _ in rows.values())
