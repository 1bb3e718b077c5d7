"""Parallel scalability: one Session per worker count (Theorem 5 in action).

Runs the discover → cover pipeline on a :class:`repro.Session` for
n ∈ {1, 2, 4, 8}, prints the largest per-worker share of the exact work —
match rows installed and joined by ParDis, implication units of ParCover —
and verifies that the totals and the result set never change: parallelism
splits the work, it does not change the rules.  Each session starts its
worker pools exactly once and shares them between the discovery and cover
phases (asserted from ``session.metrics()``).

Run:  python examples/parallel_scaling.py
"""

from __future__ import annotations

from repro import DiscoveryConfig, Session
from repro.core import gfd_identity
from repro.datasets import KB_ATTRIBUTES, yago2_like


def main() -> None:
    graph = yago2_like(scale=1.2, seed=3)
    print(f"graph: {graph.num_nodes} nodes, {graph.num_edges} edges")
    config = DiscoveryConfig(
        k=3,
        sigma=70,
        max_lhs_size=1,
        active_attributes=list(KB_ATTRIBUTES),
    )

    reference = None
    cover_size = None
    totals = None
    print("\nSession pipeline (largest per-worker share of the work):")
    print("  n   installed   joined   implication   rows_vs_n=1")
    for workers in (1, 2, 4, 8):
        with Session(graph, config, num_workers=workers) as session:
            result = session.discover()
            cover = session.cover()
            metrics = session.metrics()
            identities = {gfd_identity(gfd) for gfd in result.gfds}
            if reference is None:
                reference = identities
                cover_size = len(cover.cover)
            assert identities == reference, "result set drifted with n"
            assert len(cover.cover) == cover_size, "cover drifted with n"
            assert metrics.backend_starts == 1, "pools must start once"
            work = metrics.work
            counts = (
                work.rows_installed, work.rows_joined, work.implication_units
            )
            if totals is None:
                totals = [sum(per_worker) for per_worker in counts]
            assert [sum(c) for c in counts] == totals, "work drifted with n"
            installed, joined, implication = (max(c) for c in counts)
            print(
                f"  {workers:>2}   {installed:>9}   {joined:>6}   "
                f"{implication:>11}   {totals[0] / installed:>8.2f}x"
            )
    print(f"\ncover: {cover_size} rules at every n — scalability is free of")
    print("semantic drift (the property the paper's Theorem 5 relies on),")
    print("and each session ran discovery and cover on ONE pool set.")


if __name__ == "__main__":
    main()
