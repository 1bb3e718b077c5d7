"""The million-node persistence gate: attach must be ~free, and identical.

The on-disk index store (:mod:`repro.graph.store`) exists so the freeze
cost of a big graph is paid once: any later process attaches the persisted
snapshot through ``mmap`` instead of rebuilding.  This bench proves that
claim at scale, per tier of the seeded :func:`repro.datasets.scale_graph`
sweep (10⁴ → 10⁶ nodes):

1. **Attach ≤ 1% of rebuild** — at the gate tier (default ``1m``), the
   mmap attach of the persisted index must cost at most 1% of the
   full ``GraphIndex.build`` wall-clock the store saves.

2. **Byte identity** — every export buffer of the mmap-attached *and* the
   eager-loaded index is byte-identical (same dtype, same bytes) to the
   freshly built in-memory index, at every tier measured.

3. **Loaded ≡ built, both backends** — discover → cover → enforce on a
   session attached via ``index_path`` produces byte-identical rules,
   cover and violation report to a session that froze the graph itself,
   on the serial and multiprocess backends (the multiprocess session's
   workers map the store file: its ``index_transport`` must be
   ``"mmap"``).

4. **Bytes per edge** — the dict ``Graph`` of the gate tier holds at most
   :data:`GRAPH_BYTES_PER_EDGE_LIMIT` bytes per edge: every byte
   ``scale_tier_graph`` leaves allocated, counted by ``tracemalloc``, over
   the edge count.  An exact count, so host noise cannot flip it; the
   other tiers record it without a gate.

``--check`` asserts all four; the numbers land in
``benchmarks/results/BENCH_scale.json`` (the ``write_bench`` envelope)
plus a text series in ``benchmarks/results/bench_scale.txt``.  Usage::

    PYTHONPATH=src python benchmarks/bench_scale.py --check
    PYTHONPATH=src python benchmarks/bench_scale.py --check \\
        --tiers 10k,100k --gate-tier 100k     # the CI-sized run
"""

from __future__ import annotations

import argparse
import gc
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import numpy as np

from _harness import record, write_bench
from repro import DiscoveryConfig, Session, format_gfd
from repro.datasets import SCALE_TIERS, scale_tier_graph
from repro.graph import GraphIndex, load_index

#: The attach-to-rebuild wall-clock ceiling of gate (1).
ATTACH_RATIO_LIMIT = 0.01

#: Discovery shape of the differential-identity gate (3): small enough to
#: run on the 10k tier in seconds, big enough to produce a real Σ.
DIFF_CONFIG = dict(k=2, sigma=30, max_lhs_size=1)

#: The dict-graph ceiling of gate (4), in bytes per edge at the gate tier.
#: A node pair's labels are one interned frozenset shared by both
#: directions, so an edge costs its two adjacency dict slots: the 10⁵ tier
#: holds ≈ 390 bytes per edge (≈ 820 with a mutable set per direction).
GRAPH_BYTES_PER_EDGE_LIMIT = 500


def _buffers_identical(built: GraphIndex, loaded: GraphIndex) -> bool:
    """Whether every export buffer matches bytewise (dtype included)."""
    meta_b, arrays_b = built.export_buffers()
    meta_l, arrays_l = loaded.export_buffers()
    if meta_b != meta_l or set(arrays_b) != set(arrays_l):
        return False
    return all(
        arrays_b[name].dtype == arrays_l[name].dtype
        and np.array_equal(arrays_b[name], arrays_l[name])
        for name in arrays_b
    )


def graph_bytes_per_edge(tier: str, seed: int = 1) -> float:
    """Bytes the generated dict graph of ``tier`` holds, per edge."""
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        graph = scale_tier_graph(tier, seed=seed)
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    return held / graph.num_edges


def measure_tier(tier: str, store_dir: Path, seed: int = 1) -> dict:
    """Generate one tier, persist its index, and time every leg."""
    # counted on its own generation: tracemalloc slows the timed one down
    bytes_per_edge = graph_bytes_per_edge(tier, seed=seed)
    started = time.perf_counter()
    graph = scale_tier_graph(tier, seed=seed)
    generate_s = time.perf_counter() - started

    started = time.perf_counter()
    index = GraphIndex.build(graph)
    build_s = time.perf_counter() - started

    path = store_dir / f"scale_{tier}.rgix"
    started = time.perf_counter()
    index.save(path)
    save_s = time.perf_counter() - started

    started = time.perf_counter()
    attached = load_index(path, mmap=True)
    attach_s = time.perf_counter() - started

    started = time.perf_counter()
    eager = load_index(path, mmap=False)
    eager_s = time.perf_counter() - started

    identical = _buffers_identical(index, attached) and _buffers_identical(
        index, eager
    )
    if attached.store_mapping is not None:
        attached.store_mapping.close()
    return {
        "nodes": graph.num_nodes,
        "edges": graph.num_edges,
        "generate_s": round(generate_s, 4),
        "graph_bytes_per_edge": round(bytes_per_edge, 1),
        "build_s": round(build_s, 4),
        "save_s": round(save_s, 4),
        "attach_mmap_s": round(attach_s, 6),
        "load_eager_s": round(eager_s, 4),
        "attach_ratio": round(attach_s / build_s, 6),
        "file_bytes": path.stat().st_size,
        "byte_identity": identical,
    }


def differential_identity(store_dir: Path, seed: int = 1) -> dict:
    """Gate (3): loaded-index pipelines ≡ built-index pipelines, per backend."""
    results = {}
    for backend in ("serial", "multiprocess"):
        graph_a = scale_tier_graph("10k", seed=seed)
        with Session(
            graph_a, DiscoveryConfig(**DIFF_CONFIG),
            num_workers=2, backend=backend,
        ) as session:
            built = _pipeline_signature(session)
            built_transport = session.backend().index_transport

        path = store_dir / f"diff_{backend}.rgix"
        graph_b = scale_tier_graph("10k", seed=seed)
        GraphIndex.build(graph_b).save(path)
        with Session(
            graph_b, DiscoveryConfig(**DIFF_CONFIG),
            num_workers=2, backend=backend, index_path=path,
        ) as session:
            loaded = _pipeline_signature(session)
            loaded_transport = session.backend().index_transport

        results[backend] = {
            "identical": built == loaded,
            "rules": built[0],
            "built_transport": built_transport,
            "loaded_transport": loaded_transport,
        }
    return results


def _pipeline_signature(session: Session):
    """A comparable rendering of one discover → cover → enforce run."""
    result = session.discover()
    cover = session.cover()
    report = session.enforce()
    rules = sorted(
        (format_gfd(gfd), result.supports.get(gfd, 0)) for gfd in result.gfds
    )
    cover_rules = sorted(format_gfd(gfd) for gfd in cover.cover)
    violations = sorted(
        (format_gfd(rule.gfd), rule.violation_count, rule.distinct_pivots)
        for rule in report.rules
    )
    return (len(rules), rules, cover_rules, violations)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--check", action="store_true",
        help="assert the attach-ratio, byte-identity, differential and "
             "bytes-per-edge gates",
    )
    parser.add_argument(
        "--tiers", default="10k,100k,1m",
        help="comma-separated scale tiers to measure "
             f"(of {sorted(SCALE_TIERS)}; default: all)",
    )
    parser.add_argument(
        "--gate-tier", default="1m",
        help="tier the attach-ratio gate is asserted on; tiers above it "
             "are still measured record-only (default: 1m)",
    )
    parser.add_argument(
        "--keep", metavar="DIR", default=None,
        help="persist the store files under DIR instead of a temp dir",
    )
    args = parser.parse_args(argv)

    tiers = [tier.strip() for tier in args.tiers.split(",") if tier.strip()]
    for tier in tiers + [args.gate_tier]:
        if tier not in SCALE_TIERS:
            parser.error(f"unknown tier {tier!r}")
    if args.gate_tier not in tiers:
        parser.error("--gate-tier must be one of --tiers")

    with tempfile.TemporaryDirectory() as temp:
        store_dir = Path(args.keep) if args.keep else Path(temp)
        store_dir.mkdir(parents=True, exist_ok=True)

        per_tier = {}
        for tier in tiers:
            per_tier[tier] = measure_tier(tier, store_dir)
            print(
                f"tier {tier}: build {per_tier[tier]['build_s']}s, "
                f"attach {per_tier[tier]['attach_mmap_s']}s "
                f"(ratio {per_tier[tier]['attach_ratio']}), "
                f"identity {per_tier[tier]['byte_identity']}, "
                f"graph {per_tier[tier]['graph_bytes_per_edge']} B/edge",
                flush=True,
            )
        diff = differential_identity(store_dir)

    metrics = {
        "attach_ratio_limit": ATTACH_RATIO_LIMIT,
        "graph_bytes_per_edge_limit": GRAPH_BYTES_PER_EDGE_LIMIT,
        "gate_tier": args.gate_tier,
        "tiers": per_tier,
        "differential": diff,
    }
    write_bench("scale", metrics)

    lines = [
        "tier\tnodes\tbuild_s\tattach_s\tratio\tfile_bytes\tidentity"
        "\tgraph_bytes_per_edge"
    ]
    for tier in tiers:
        row = per_tier[tier]
        lines.append(
            f"{tier}\t{row['nodes']}\t{row['build_s']}\t"
            f"{row['attach_mmap_s']}\t{row['attach_ratio']}\t"
            f"{row['file_bytes']}\t{row['byte_identity']}\t"
            f"{row['graph_bytes_per_edge']}"
        )
    for backend, row in diff.items():
        lines.append(
            f"diff:{backend}\tidentical={row['identical']}\t"
            f"rules={row['rules']}\ttransport={row['loaded_transport']}"
        )
    record("bench_scale", lines)

    if args.check:
        for tier in tiers:
            assert per_tier[tier]["byte_identity"], (
                f"tier {tier}: loaded buffers differ from the built index"
            )
        gate = per_tier[args.gate_tier]
        assert gate["attach_ratio"] <= ATTACH_RATIO_LIMIT, (
            f"tier {args.gate_tier}: mmap attach took "
            f"{gate['attach_ratio']:.4f} of the rebuild wall-clock "
            f"(limit {ATTACH_RATIO_LIMIT})"
        )
        assert gate["graph_bytes_per_edge"] <= GRAPH_BYTES_PER_EDGE_LIMIT, (
            f"tier {args.gate_tier}: the dict graph holds "
            f"{gate['graph_bytes_per_edge']} bytes per edge "
            f"(limit {GRAPH_BYTES_PER_EDGE_LIMIT})"
        )
        for backend, row in diff.items():
            assert row["identical"], (
                f"{backend}: loaded-index pipeline diverged from the "
                "built-index pipeline"
            )
            assert row["rules"] > 0, (
                f"{backend}: the differential gate found no rules — "
                "identity would be vacuous; retune DIFF_CONFIG"
            )
        assert diff["multiprocess"]["loaded_transport"] == "mmap", (
            "multiprocess workers did not take the mmap attach route "
            f"(got {diff['multiprocess']['loaded_transport']!r})"
        )
        print("bench_scale --check: all gates passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
