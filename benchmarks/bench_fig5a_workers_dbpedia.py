"""Figure 5(a): DisGFD vs ParGFDnb over workers n ∈ {4..20} — DBpedia.

Paper (full scale): DisGFD is parallel scalable (3.6× faster from n=4 to
n=20 on DBpedia) and beats the no-balancing ParGFDnb.  The reproduction
reads scalability from exact counts: per n, the largest number of match
rows (installed plus joined) any one worker handles, for DisGFD and
ParGFDnb, and DisGFD's total.  Shape targets: the largest share falls at
every added n while the total stays put, and at n=20 DisGFD's is within
1.1× of ParGFDnb's.  The real multiprocess wall clock is a separate sweep.
"""

from __future__ import annotations

from _harness import (
    assert_real_speedup,
    assert_worker_scaling,
    real_backend_sweep,
    record,
    run_once,
    series_table,
    worker_sweep,
)

DATASET = "dbpedia"


def test_fig5a_workers_dbpedia(benchmark):
    rows = run_once(benchmark, lambda: worker_sweep(DATASET))
    record(
        "fig5a_workers_dbpedia",
        series_table(
            "n\tDisGFD_max_rows\tParGFDnb_max_rows\ttotal_rows", rows
        ),
    )
    assert_worker_scaling(rows)


def test_fig5a_real_multiprocess_speedup(benchmark):
    """Real wall-clock scaling of the multiprocess backend."""
    rows = run_once(benchmark, lambda: real_backend_sweep(DATASET))
    record(
        "fig5a_real_speedup_dbpedia",
        series_table("n\treal_seconds\tspeedup_vs_n1", rows),
    )
    assert_real_speedup(rows)
