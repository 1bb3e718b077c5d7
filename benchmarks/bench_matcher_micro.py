"""Micro benchmark isolating the matching hot path (oracle vs CSR index).

Measures, on one synthetic graph, the operations the frozen
:class:`~repro.graph.index.GraphIndex` vectorizes, each against its
dict-graph oracle from :mod:`repro.oracle`:

* ``find_matches``          — full enumeration of a 3-variable pattern
  (``reference_matches`` backtracking vs the plan trie),
* ``extend_matches``        — one-edge incremental join over a match batch,
* ``extension_statistics``  — the ``VSpawn`` tally scan (dict pivot sets vs
  indexed ``extension_counts``, compared as counts),
* ``closing_tally``         — the same with ``can_add_node=False``: only the
  closing half, the semi-join over the columns' distinct nodes,
* ``match_table``           — a table and the column work ``HSpawn`` runs
  on it: construction, the constant and variable alphabet, and the
  alphabet's row sets (``ReferenceTable`` builds its columns up front and
  packs one bool mask per literal; ``MatchTable`` gathers each column when
  an op reads it, and ``--check`` asserts that it holds no per-row array
  besides its matches),
* ``constant_alphabet``     — the top-5 constants per column of one table:
  the ``Counter`` oracle (``constant_value_counts`` +
  ``constant_literals_from_counts``) vs the integer path
  (``alphabet_counts`` + ``constant_literals_from_code_counts``).

Run as a script for a throughput table (``--check`` adds an equivalence
assertion per operation and a wall-clock budget — the CI perf smoke gate),
or under pytest-benchmark alongside the figure benches.

Usage::

    PYTHONPATH=src python benchmarks/bench_matcher_micro.py
    PYTHONPATH=src python benchmarks/bench_matcher_micro.py --check --budget 120
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.core.match_table import (  # noqa: E402
    MatchTable,
    constant_literals_from_code_counts,
    literal_alphabet,
)
from repro.core.spawning import extension_counts  # noqa: E402
from repro.datasets.synthetic import SYNTHETIC_ATTRIBUTES, synthetic_graph  # noqa: E402
from repro.graph.index import GraphIndex  # noqa: E402
from repro.oracle import (  # noqa: E402
    ReferenceTable,
    constant_literals_from_counts,
    counts_from_statistics,
    extension_statistics,
    reference_extend_matches,
    reference_matches,
)
from repro.pattern.incremental import Extension, extend_matches  # noqa: E402
from repro.pattern.matcher import find_matches  # noqa: E402
from repro.pattern.pattern import Pattern  # noqa: E402

#: Micro-benchmark graph shape: dense enough that per-candidate work
#: dominates (mean degree ~25), small enough for the CI smoke budget.
NUM_NODES = 3000
NUM_EDGES = 38000
NUM_LABELS = 6

#: The benchmark pattern: a 3-variable chain (the common VSpawn shape).
PATTERN = Pattern(["L0", "L1", "L2"], [(0, 1, "e0"), (1, 2, "e1")])
BASE_PATTERN = Pattern(["L0", "L1"], [(0, 1, "e0")])
EXTENSION = Extension(src=1, dst=2, edge_label="e1", new_node_label="L2")


def _timed(function, repeats: int = 3):
    """Best-of-N wall clock and the last result."""
    best = float("inf")
    result = None
    for _ in range(repeats):
        started = time.perf_counter()
        result = function()
        best = min(best, time.perf_counter() - started)
    return best, result


def constants_of(table, max_constants=5):
    """The product table's constant alphabet (the integer path)."""
    return constant_literals_from_code_counts(
        [table.alphabet_counts()[0]],
        MatchTable.column_keys(table.pattern, table.attributes),
        table.index.value_of_code,
        max_constants,
    )


def table_ops(table):
    """The column work ``HSpawn`` runs on one product table: the alphabet
    from one pass of column statistics, then its packed row bitsets."""
    values, agreements = table.alphabet_counts(same_attr_only=True)
    literals = literal_alphabet(
        table.index, table.pattern, table.attributes, [values], agreements, 5
    )
    return table, literals, table.literal_bits(literals)


def reference_table_ops(table):
    """The same work on the oracle's table: alphabet, then one bool mask
    per literal, packed like ``literal_bits``."""
    literals = table.candidate_constant_literals(5)
    literals += table.candidate_variable_literals()
    masks = np.zeros((len(literals), table.num_rows), dtype=bool)
    for row, literal in enumerate(literals):
        masks[row] = table.literal_mask(literal)
    return table, literals, np.packbits(masks, axis=1, bitorder="little")


def held_row_arrays(table):
    """Names of per-row arrays a table holds besides its match array."""
    held = []
    for name, value in vars(table).items():
        for array in value.values() if isinstance(value, dict) else [value]:
            if (
                isinstance(array, np.ndarray)
                and array.shape[:1] == (table.num_rows,)
                and not np.shares_memory(array, table.match_array)
            ):
                held.append(name)
    return held


def run(check: bool = False):
    """Run all six measurements; return the report lines."""
    graph = synthetic_graph(NUM_NODES, NUM_EDGES, num_labels=NUM_LABELS, seed=7)
    build_seconds, index = _timed(lambda: GraphIndex.build(graph))
    lines = [
        f"graph\tnodes={graph.num_nodes}\tedges={graph.num_edges}",
        f"index_build_s\t{build_seconds:.4f}",
        "operation\tdict_s\tindex_s\tspeedup",
    ]

    def compare(name, dict_fn, index_fn, same):
        dict_s, dict_result = _timed(dict_fn)
        index_s, index_result = _timed(index_fn)
        lines.append(f"{name}\t{dict_s:.4f}\t{index_s:.4f}\t{dict_s / index_s:.2f}x")
        if check:
            assert same(dict_result, index_result), f"{name}: path results differ"
        return dict_result

    compare(
        "find_matches",
        lambda: list(reference_matches(graph, PATTERN)),
        lambda: list(find_matches(graph, PATTERN, index=index)),
        lambda a, b: set(a) == {tuple(int(v) for v in m) for m in b},
    )
    base = list(reference_matches(graph, BASE_PATTERN))
    compare(
        "extend_matches",
        lambda: reference_extend_matches(graph, base, EXTENSION),
        # the index path returns the array the discovery engine consumes
        lambda: extend_matches(index, base, EXTENSION),
        lambda a, b: set(a) == {tuple(row) for row in b.tolist()},
    )
    matches = list(reference_matches(graph, PATTERN))

    def counts_key(counts):
        return (
            counts.new_node,
            counts.closing,
            counts.prefix_pivots,
            counts.prefix_labels,
        )

    compare(
        "extension_statistics",
        lambda: extension_statistics(graph, PATTERN, matches, True),
        lambda: extension_counts(index, PATTERN, matches, True),
        lambda a, b: counts_key(counts_from_statistics(a)) == counts_key(b),
    )
    compare(
        "closing_tally",
        lambda: extension_statistics(graph, PATTERN, matches, False),
        lambda: extension_counts(index, PATTERN, matches, False),
        lambda a, b: counts_key(counts_from_statistics(a)) == counts_key(b),
    )
    attributes = list(SYNTHETIC_ATTRIBUTES[:3])
    compare(
        "match_table",
        lambda: reference_table_ops(ReferenceTable(graph, PATTERN, matches, attributes)),
        lambda: table_ops(MatchTable.from_index(index, PATTERN, matches, attributes)),
        lambda a, b: a[1] == b[1] and np.array_equal(a[2], b[2])
        and not held_row_arrays(b[0]),
    )
    table = MatchTable.from_index(index, PATTERN, matches, attributes)
    reference = ReferenceTable(graph, PATTERN, matches, attributes)
    compare(
        "constant_alphabet",
        lambda: constant_literals_from_counts(reference.constant_value_counts(), 5),
        lambda: constants_of(table),
        lambda a, b: a == b,
    )
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--check",
        action="store_true",
        help="assert oracle/index equivalence and enforce the wall-clock budget",
    )
    parser.add_argument(
        "--budget",
        type=float,
        default=120.0,
        help="wall-clock budget in seconds for --check (CI smoke gate)",
    )
    args = parser.parse_args(argv)
    started = time.perf_counter()
    lines = run(check=args.check)
    elapsed = time.perf_counter() - started
    print("\n".join(lines))
    print(f"total_s\t{elapsed:.2f}")
    if args.check:
        if elapsed > args.budget:
            print(
                f"PERF GATE FAILED: {elapsed:.1f}s > budget {args.budget:.1f}s",
                file=sys.stderr,
            )
            return 1
        print(f"perf gate ok ({elapsed:.1f}s <= {args.budget:.1f}s)")
    return 0


def test_matcher_micro(benchmark):
    """pytest-benchmark entry: one checked run under the timer."""
    lines = benchmark.pedantic(
        lambda: run(check=True), rounds=1, iterations=1, warmup_rounds=0
    )
    try:
        from _harness import record

        record("matcher_micro", lines)
    except ImportError:  # standalone invocation outside the bench suite
        pass


if __name__ == "__main__":
    sys.exit(main())
