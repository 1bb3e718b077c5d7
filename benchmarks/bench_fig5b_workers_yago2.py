"""Figure 5(b): DisGFD over workers n ∈ {4..20} — YAGO2.

Paper (full scale): DisGFD is parallel scalable (4.0× faster from n=4 to
n=20 on YAGO2).  The reproduction reads scalability from exact counts:
per n, the largest number of match rows (installed plus joined) any one
worker handles, and the total.  Shape targets: the largest share falls at
every added n while the total stays put.  The paper's ParGFDnb column (no
load balancing) is absent: DisGFD does not re-deal skewed joins, so the two
are one run (``docs/CLAIMS.md``).  The real multiprocess wall clock is a
separate sweep.
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

DATASET = "yago2"


def test_fig5b_workers_yago2(benchmark):
    rows = run_once(benchmark, lambda: worker_sweep(DATASET))
    record(
        "fig5b_workers_yago2",
        series_table(
            "n\tDisGFD_max_rows\ttotal_rows", rows
        ),
    )
    assert_worker_scaling(rows)


def test_fig5b_real_multiprocess_speedup(benchmark):
    """Real wall-clock scaling of the multiprocess backend."""
    rows = run_once(benchmark, lambda: real_backend_sweep(DATASET))
    record(
        "fig5b_real_speedup_yago2",
        series_table("n\treal_seconds\tspeedup_vs_n1", rows),
    )
    assert_real_speedup(rows)
