"""Enforcement-engine throughput: grouped/vectorized vs per-rule reference.

PR 3's differential+performance gate.  On the knowledge-base dataset
(dbpedia scale model) with noise injected per the Exp-5 protocol, measures:

* **reference** — the pre-PR 3 enforcement path: one
  ``find_violations(graph, gfd)`` per rule, per-match dict probes;
* **engine (full)** — ``EnforcementEngine.validate()`` on the serial
  backend: canonical pattern grouping (each distinct pattern matched once),
  columnar violation masks over the CSR index;
* **engine (multiprocess)** — the same plan over real worker processes
  (record-only: IPC wins depend on host cores);
* **incremental** — ``refresh()`` after a small delta vs a full
  revalidation of the same state, once per delta kind: an attribute-only
  batch (``set_attr``: stored rows re-judged in place, no re-matching) and
  a structural batch (edges removed and added: the rows at the touched
  nodes dropped and re-derived by the anchored join trie).

``--check`` asserts the PR 3 acceptance criteria: identical violation sets,
≥ 3× full-Σ speedup over the reference path, and incremental refresh
beating full revalidation — plus exact counts: a full pass runs no more
joins than the shared plan trie has nodes and fewer than the per-pattern
plans hold; both small deltas refresh incrementally; the attribute-only
batch runs 0 joins and ships 0 match rows to the workers; the structural
batch runs more than 0 joins — the CI perf-smoke gate next to
``bench_matcher_micro.py --check``.
Machine-readable numbers land in ``benchmarks/results/BENCH_enforce.json``
so future PRs can track the enforcement hot path.

Usage::

    PYTHONPATH=src python benchmarks/bench_enforce.py
    PYTHONPATH=src python benchmarks/bench_enforce.py --check --max-rules 300
"""

from __future__ import annotations

import argparse
import random
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

from _harness import (  # noqa: E402
    dataset,
    discovery_config,
    record,
    write_bench,
)

from repro.core import discover  # noqa: E402
from repro.core.config import EnforcementConfig  # noqa: E402
from repro.datasets import KB_ATTRIBUTES  # noqa: E402
from repro.datasets.noise import inject_noise  # noqa: E402
from repro.enforce import EnforcementEngine  # noqa: E402
from repro.oracle import find_violations  # noqa: E402

#: Exp-5 noise parameters (α fraction of nodes dirtied, β of their slots).
ALPHA, BETA = 0.05, 0.5

#: Nodes touched by the attribute-only delta (≈ 0.2 % of the graph), and
#: edges removed (and as many added) by the structural one.
DELTA_NODES = 6
DELTA_EDGES = 3


def _timed(function):
    started = time.perf_counter()
    result = function()
    return time.perf_counter() - started, result


def run(check: bool = False, max_rules: int = None, workers: int = 2):
    """One measured pass; returns the report lines and the metrics dict."""
    clean = dataset("dbpedia")
    result = discover(clean, discovery_config("dbpedia"))
    sigma = result.sorted_by_support()
    if max_rules is not None:
        sigma = sigma[:max_rules]
    dirty, _ = inject_noise(
        clean, alpha=ALPHA, beta=BETA, attributes=list(KB_ATTRIBUTES), seed=7
    )

    reference_s, reference = _timed(
        lambda: [
            frozenset(v.match for v in find_violations(dirty, gfd))
            for gfd in sigma
        ]
    )

    config = EnforcementConfig(backend="serial", max_violation_samples=None)
    engine = EnforcementEngine(dirty, sigma, config)
    full_s, report = _timed(engine.validate)
    full_pass, plan_steps = dict(engine.last_pass), engine.plan.full_trie.steps
    if check:
        got = [frozenset(rule.sample) for rule in report.rules]
        assert got == reference, "engine violation sets diverge from reference"

    mp_s = None
    mp_config = EnforcementConfig(
        backend="multiprocess", num_workers=workers, max_violation_samples=None
    )
    try:
        with EnforcementEngine(dirty, sigma, mp_config) as mp_engine:
            mp_s, mp_report = _timed(mp_engine.validate)
            if check:
                got = [frozenset(rule.sample) for rule in mp_report.rules]
                assert got == reference, "multiprocess sets diverge"
    except (RuntimeError, OSError):  # no shared memory / constrained host
        pass

    def refreshed(mutate):
        """Time one delta's refresh and the full pass it must equal."""
        mutate()
        ledger = engine._backend.transfers
        shipped = ledger.rows_to_workers
        refresh_s, refreshed_report = _timed(engine.refresh)
        counts = dict(engine.last_pass)
        counts["rows_to_workers"] = ledger.rows_to_workers - shipped
        full_s, full_report = _timed(engine.validate)
        if check:
            got = [frozenset(rule.sample) for rule in refreshed_report.rules]
            want = [frozenset(rule.sample) for rule in full_report.rules]
            assert got == want, "incremental refresh diverges from full"
        return refresh_s, full_s, refreshed_report, counts

    rng = random.Random(5)

    def attribute_delta():
        for node in rng.sample(range(dirty.num_nodes), DELTA_NODES):
            dirty.set_attr(node, "type", "__bench_delta__")

    def structural_delta():
        edges = rng.sample(sorted(dirty.edges()), DELTA_EDGES)
        for src, dst, label in edges:
            dirty.remove_edge(src, dst, label)
        for _, _, label in edges:
            dirty.add_edge(rng.randrange(dirty.num_nodes),
                           rng.randrange(dirty.num_nodes), label)

    incremental_s, full_after_s, inc_report, refresh_pass = refreshed(
        attribute_delta
    )
    structural_s, structural_full_s, structural_report, structural_pass = (
        refreshed(structural_delta)
    )
    engine.close()

    metrics = {
        "dataset": "dbpedia",
        "graph_nodes": dirty.num_nodes,
        "graph_edges": dirty.num_edges,
        "num_rules": len(sigma),
        "distinct_patterns": report.patterns_matched,
        "total_violations": report.total_violations,
        "reference_s": round(reference_s, 4),
        "engine_full_s": round(full_s, 4),
        "speedup_vs_reference": round(reference_s / full_s, 2),
        "rules_per_sec_reference": round(len(sigma) / reference_s, 1),
        "rules_per_sec_engine": round(len(sigma) / full_s, 1),
        "multiprocess_s": round(mp_s, 4) if mp_s is not None else None,
        "multiprocess_workers": workers if mp_s is not None else None,
        "delta_nodes": DELTA_NODES,
        "incremental_s": round(incremental_s, 4),
        "full_after_delta_s": round(full_after_s, 4),
        "incremental_speedup": round(full_after_s / incremental_s, 2),
        "groups_revalidated": inc_report.groups_revalidated,
        # exact matching work (EnforcementEngine.last_pass): host noise
        # cannot move these
        "plan_steps": plan_steps,
        "full_trie_nodes": full_pass["trie_nodes"],
        "full_joins": full_pass["joins"],
        "refresh_plans": refresh_pass["plans"],
        "refresh_trie_nodes": refresh_pass["trie_nodes"],
        "refresh_joins": refresh_pass["joins"],
        "refresh_rows_rejudged": refresh_pass["rows_rejudged"],
        "refresh_rows_to_workers": refresh_pass["rows_to_workers"],
        "structural_delta_edges": DELTA_EDGES,
        "structural_refresh_s": round(structural_s, 4),
        "structural_full_after_s": round(structural_full_s, 4),
        "structural_groups_revalidated": structural_report.groups_revalidated,
        "structural_refresh_joins": structural_pass["joins"],
        "structural_rows_dropped": structural_pass["rows_dropped"],
        "structural_rows_added": structural_pass["rows_added"],
        "structural_rows_to_workers": structural_pass["rows_to_workers"],
        "non_incremental_refreshes": sum(
            report.mode != "incremental"
            for report in (inc_report, structural_report)
        ),
    }
    lines = [
        f"graph\tnodes={dirty.num_nodes}\tedges={dirty.num_edges}",
        f"rules\t{len(sigma)}\tpatterns\t{report.patterns_matched}"
        f"\tviolations\t{report.total_violations}",
        "path\tseconds\trules_per_sec",
        f"reference_per_rule\t{reference_s:.4f}"
        f"\t{len(sigma) / reference_s:.1f}",
        f"engine_full_serial\t{full_s:.4f}\t{len(sigma) / full_s:.1f}"
        f"\t({reference_s / full_s:.2f}x vs reference)",
    ]
    if mp_s is not None:
        lines.append(
            f"engine_full_mp{workers}\t{mp_s:.4f}\t{len(sigma) / mp_s:.1f}"
        )
    lines += [
        f"incremental_refresh\t{incremental_s:.4f}"
        f"\t({full_after_s / incremental_s:.2f}x vs full,"
        f" {inc_report.groups_revalidated}/{report.patterns_matched}"
        f" groups revalidated, {DELTA_NODES} nodes touched)",
        f"full_after_delta\t{full_after_s:.4f}",
        f"structural_refresh\t{structural_s:.4f}"
        f"\t({structural_full_s / structural_s:.2f}x vs full,"
        f" {structural_report.groups_revalidated}/{report.patterns_matched}"
        f" groups revalidated, {DELTA_EDGES} edges removed and added)",
        f"structural_full_after\t{structural_full_s:.4f}",
        f"joins\tfull {full_pass['joins']} of {plan_steps} plan steps"
        f" ({full_pass['trie_nodes']} trie nodes)\tattribute refresh"
        f" {refresh_pass['joins']}\tstructural refresh"
        f" {structural_pass['joins']} ({structural_pass['plans']} anchored"
        f" plans, {structural_pass['trie_nodes']} trie nodes)",
        f"rows\tattribute refresh: {refresh_pass['rows_rejudged']} re-judged,"
        f" {refresh_pass['rows_to_workers']} shipped\tstructural refresh:"
        f" {structural_pass['rows_dropped']} dropped,"
        f" {structural_pass['rows_added']} added,"
        f" {structural_pass['rows_to_workers']} shipped",
    ]
    write_bench("enforce", metrics)
    return lines, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--check",
        action="store_true",
        help="assert engine/reference equivalence, the >= 3x full-pass "
             "speedup, the incremental-beats-full criterion and the exact "
             "join and row counts of both delta kinds",
    )
    parser.add_argument(
        "--max-rules", type=int, default=None,
        help="cap Σ at the top-support rules (bounds the CI wall clock)",
    )
    parser.add_argument(
        "--budget", type=float, default=300.0,
        help="wall-clock budget in seconds for --check",
    )
    args = parser.parse_args(argv)
    started = time.perf_counter()
    lines, metrics = run(check=args.check, max_rules=args.max_rules)
    elapsed = time.perf_counter() - started
    record("bench_enforce", lines)
    print(f"total_s\t{elapsed:.2f}")
    if args.check:
        failures = []
        if metrics["speedup_vs_reference"] < 3.0:
            failures.append(
                f"full-pass speedup {metrics['speedup_vs_reference']}x < 3x"
            )
        for refresh_s, full_s in (
            ("incremental_s", "full_after_delta_s"),
            ("structural_refresh_s", "structural_full_after_s"),
        ):
            if metrics[refresh_s] >= metrics[full_s]:
                failures.append(
                    "incremental refresh did not beat full revalidation "
                    f"({refresh_s} {metrics[refresh_s]}s vs "
                    f"{metrics[full_s]}s)"
                )
        if metrics["refresh_joins"] or metrics["refresh_rows_to_workers"]:
            failures.append(
                f"the attribute-only refresh ran {metrics['refresh_joins']} "
                f"joins and shipped {metrics['refresh_rows_to_workers']} "
                "match rows (want 0 and 0)"
            )
        if not metrics["structural_refresh_joins"]:
            failures.append("the structural refresh ran no join")
        if not (
            metrics["full_joins"] <= metrics["full_trie_nodes"]
            and metrics["full_joins"] < metrics["plan_steps"]
        ):
            failures.append(
                f"a full pass ran {metrics['full_joins']} joins: not under "
                f"the {metrics['full_trie_nodes']} trie nodes and the "
                f"{metrics['plan_steps']} per-pattern plan steps"
            )
        if metrics["non_incremental_refreshes"]:
            failures.append("a small-delta refresh fell back to a full pass")
        if elapsed > args.budget:
            failures.append(f"{elapsed:.1f}s > budget {args.budget:.1f}s")
        if failures:
            print("PERF GATE FAILED: " + "; ".join(failures), file=sys.stderr)
            return 1
        print(f"perf gate ok ({elapsed:.1f}s <= {args.budget:.1f}s)")
    return 0


def test_bench_enforce(benchmark):
    """pytest-benchmark entry: one checked run under the timer."""
    lines, _ = benchmark.pedantic(
        lambda: run(check=True), rounds=1, iterations=1, warmup_rounds=0
    )
    record("bench_enforce", lines)


if __name__ == "__main__":
    sys.exit(main())
