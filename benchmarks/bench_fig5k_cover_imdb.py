"""Figure 5(k): ParCover vs ParCovern over workers n ∈ {4..20} — IMDB.

Paper: ParCover improves 1.75× from n=4 to n=20 on average and outperforms
the no-grouping ParCovern by ~10×.  The reproduction reads both from exact
counts: per n, the largest per-worker implication units (tested rule ×
premise rule pairs, the LPT weight) of ParCover and ParCovern over the Σ
DisGFD finds, and both totals.  Shape targets: ParCover needs fewer
units in all (Lemma 6), neither's largest share grows with n, and
ParCover's largest share is at most ParCovern's at every n.  The last
fails here: ParCover's largest share is bounded below by its largest
group's unit, and one isomorphism group carries 53 105 of ParCover's
66 677 units, so ParCovern's largest share drops below it from n = 8.
That claim is a strict xfail, so it reports when grouping starts to win.
"""

from __future__ import annotations

import pytest
from _harness import (
    assert_cover_scaling,
    assert_cover_shape,
    cover_sweep,
    record,
    run_once,
    series_table,
)

DATASET = "imdb"


def test_fig5k_cover_imdb(benchmark):
    rows = run_once(benchmark, lambda: cover_sweep(DATASET))
    record(
        "fig5k_cover_imdb",
        series_table(
            "n\tParCover_max_units\tParCovern_max_units"
            "\tParCover_total_units\tParCovern_total_units",
            rows,
        ),
    )
    assert_cover_shape(rows)


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="one isomorphism group is an indivisible LPT unit larger than "
    "ParCovern's largest share at n >= 8 (CHANGES.md FOUND on "
    "parallel_cover)",
)
def test_fig5k_grouping_wins_at_every_n():
    assert_cover_scaling(cover_sweep(DATASET))
