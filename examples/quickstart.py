"""Quickstart: the paper's Example 1, then the full pipeline in one Session.

Builds the three Figure-1 graphs with their real-world errors, states the
GFDs φ1–φ3 and detects every inconsistency.  Then runs the whole workflow —
discover → cover → enforce → refresh — on a single resource-owning
:class:`repro.Session`: worker pools start once, the frozen graph index is
attached once, and the unified ``session.metrics()`` ledger (written to
``benchmarks/results/session_metrics.json``) proves it.

Run:  python examples/quickstart.py
"""

from __future__ import annotations

import json
from pathlib import Path

from repro import DiscoveryConfig, Session, find_violations, format_gfd
from repro.datasets import KB_ATTRIBUTES, load_figure1, yago2_like

RESULTS = Path(__file__).resolve().parent.parent / "benchmarks" / "results"


def main() -> None:
    figure1 = load_figure1()

    print("== Validation: catching the errors of Figure 1 ==")
    cases = [
        ("G1 (wrong producer credit)", figure1.g1, figure1.phi1),
        ("G2 (city located twice)", figure1.g2, figure1.phi2),
        ("G3 (mutual parents)", figure1.g3, figure1.phi3),
    ]
    for name, graph, gfd in cases:
        violations = find_violations(graph, gfd)
        print(f"\n{name}")
        print(f"  rule     : {format_gfd(gfd)}")
        print(f"  violations: {len(violations)}")
        for violation in violations:
            nodes = ", ".join(
                f"{node}:{graph.node_label(node)}" for node in violation.match
            )
            print(f"    match [{nodes}]")

    print("\n== One session: discover → cover → enforce → refresh ==")
    graph = yago2_like(scale=0.5, seed=42)
    print(f"graph: {graph.num_nodes} nodes, {graph.num_edges} edges")
    config = DiscoveryConfig(
        k=2,
        sigma=30,
        max_lhs_size=1,
        active_attributes=list(KB_ATTRIBUTES),
    )
    with Session(graph, config) as session:
        result = session.discover()
        print(
            f"discovered {len(result.gfds)} GFDs "
            f"({len(result.positives)} positive, "
            f"{len(result.negatives)} negative) "
            f"in {result.stats.elapsed_seconds:.2f}s"
        )
        print("\ntop rules by support:")
        for gfd in result.sorted_by_support()[:8]:
            print(f"  supp={result.supports[gfd]:>4}  {format_gfd(gfd)}")

        phi1_like = [
            gfd
            for gfd in result.positives
            if "film" in str(gfd) and "producer" in str(gfd)
        ]
        print(f"\nφ1-equivalent rules rediscovered: {len(phi1_like)}")
        for gfd in phi1_like[:2]:
            print(f"  {format_gfd(gfd)}")

        cover = session.cover()
        print(
            f"\ncover keeps {len(cover.cover)} of "
            f"{len(cover.cover) + len(cover.removed)} "
            f"({cover.reduction_ratio:.0%} redundant)"
        )

        report = session.enforce()
        print(f"source graph satisfies its own rules: {report.is_clean}")

        # mutate the live graph; the refresh re-matches only the delta ball
        node = graph.add_node("person", {"type": "producer"})
        graph.add_edge(node, node + 1 if node + 1 < graph.num_nodes else 0,
                       "knows")
        report = session.refresh()
        print(
            f"after mutation: mode={report.mode}, "
            f"groups revalidated {report.groups_revalidated} of "
            f"{report.patterns_matched}"
        )

        metrics = session.metrics()
        print(
            f"\nresources: backend started {metrics.backend_starts}x, "
            f"index attached {metrics.lifecycle.index_attaches}x "
            f"(+{metrics.lifecycle.index_refreshes} refresh), "
            f"{metrics.work.supersteps} supersteps, "
            f"rows installed per worker {metrics.work.rows_installed}"
        )
        assert metrics.backend_starts == 1
        assert metrics.lifecycle.index_attaches == 1
        RESULTS.mkdir(parents=True, exist_ok=True)
        out = RESULTS / "session_metrics.json"
        # the same documented schema v8 (sorted keys) bench_session.py
        # writes to session_metrics_bench.json — the two artifacts diff
        # cleanly, modulo the "timings" key
        out.write_text(
            json.dumps(metrics.as_dict(), indent=2, sort_keys=True) + "\n"
        )
        print(f"session metrics written to {out}")


if __name__ == "__main__":
    main()
