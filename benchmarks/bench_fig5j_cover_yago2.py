"""Figure 5(j): ParCover vs ParCovern over workers n ∈ {4..20} — YAGO2.

Paper: ParCover improves 1.75× from n=4 to n=20 on average and outperforms
the no-grouping ParCovern by ~10×.  The reproduction reads both from exact
counts: per n, the largest per-worker implication units (tested rule ×
premise rule pairs, the LPT weight) of ParCover and ParCovern over the Σ
DisGFD finds, and both totals.  Shape targets: ParCover needs fewer
units in all (Lemma 6), neither's largest share grows with n, and
ParCover's largest share is at most ParCovern's at every n.
"""

from __future__ import annotations

from _harness import (
    assert_cover_scaling,
    cover_sweep,
    record,
    run_once,
    series_table,
)

DATASET = "yago2"


def test_fig5j_cover_yago2(benchmark):
    rows = run_once(benchmark, lambda: cover_sweep(DATASET))
    record(
        "fig5j_cover_yago2",
        series_table(
            "n\tParCover_max_units\tParCovern_max_units"
            "\tParCover_total_units\tParCovern_total_units",
            rows,
        ),
    )
    assert_cover_scaling(rows)
