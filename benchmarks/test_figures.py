"""Every checked-in figure table against its own gate — no sweep runs.

``benchmarks/figures.py`` writes ``benchmarks/results/<file>.txt`` per
entry; here each checked-in table is parsed and must carry its entry's
header and pass its entry's gate, so a result that contradicts the
paper's shape cannot sit in the tree.  Record-only entries (real
multiprocess wall clock, the store tiers) are parsed but not gated; the
store tiers' one bound (bytes per edge at 10⁴) is measured here instead.
"""

from __future__ import annotations

import pytest

from figures import FIGURES, RESULTS, cover_scaling, graph_bytes_per_edge, parse

BY_FILE = {figure.file: figure for figure in FIGURES.values()}
TABLES = sorted(path.stem for path in RESULTS.glob("*.txt"))


def table(file: str):
    return parse((RESULTS / f"{file}.txt").read_text())


def test_every_table_has_an_entry():
    assert set(TABLES) <= set(BY_FILE), "a results table no entry writes"


@pytest.mark.parametrize("file", [f for f in TABLES if f in BY_FILE])
def test_table_passes_its_gate(file):
    figure = BY_FILE[file]
    header, rows = table(file)
    assert header == figure.header
    assert rows and all(
        len(cells) == header.count("\t") for cells in rows.values()
    ), "every row fills every column"
    if figure.gate is not None:
        figure.gate(rows)


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="docs/CLAIMS.md finding 2: one isomorphism group is an "
    "indivisible LPT unit larger than ParCovern's largest share at n >= 8",
)
def test_fig5k_grouping_wins_at_every_n():
    cover_scaling(table(FIGURES["fig5k"].file)[1])


def test_dict_graph_bytes_per_edge():
    """The 10⁴ store tier's dict graph holds at most 500 bytes per edge
    (the ``scale`` entry's last column, measured here, not read back): a
    node pair's labels are one interned frozenset shared by both
    directions, so an edge costs its two adjacency dict slots."""
    assert graph_bytes_per_edge("10k") <= 500
