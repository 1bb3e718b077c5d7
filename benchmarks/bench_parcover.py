"""Sharded ``ParCover`` + worker-resident enforcement: the PR 4 gate.

Two claims of the worker-resident-state PR are measured and asserted:

1. **ParCover shards over real processes with identical output** — the
   cover of a discovered Σ is computed by ``SeqCover``, ``ParCover`` on the
   serial backend, and ``ParCover`` on the multiprocess backend at several
   worker counts; the parallel covers must be *byte-identical* (same GFDs,
   same order) across backends, and the backend's transfer ledger must show
   Σ broadcast once per worker and **zero match rows** crossing the master
   boundary.

2. **Incremental enforcement ships only deltas** — an
   :class:`~repro.enforce.engine.EnforcementEngine` validates a noisy
   graph once (the one-time shard install into the workers), then (a) a
   *clean* refresh must transfer **zero** match rows in either direction,
   and (b) a small-delta refresh must ship only the re-derived rows —
   fewer than the resident row count a re-install would ship.

``--check`` asserts both; machine-readable numbers land in
``benchmarks/results/BENCH_parcover.json`` so future PRs can track the
trajectory.  Usage::

    PYTHONPATH=src python benchmarks/bench_parcover.py
    PYTHONPATH=src python benchmarks/bench_parcover.py --check
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
from repro.oracle import sequential_cover  # noqa: E402
from repro.parallel import parallel_cover  # noqa: E402
from repro.parallel.backend import make_backend, shared_memory_available  # noqa: E402

#: Worker counts of the multiprocess cover sweep.
COVER_WORKERS = [2, 4]

#: Exp-5 noise parameters for the enforcement graph.
ALPHA, BETA = 0.05, 0.5

#: Nodes touched by the incremental-refresh delta.
DELTA_NODES = 6


def _timed(function):
    started = time.perf_counter()
    result = function()
    return time.perf_counter() - started, result


def run(check: bool = False, max_rules: int = None):
    """One measured pass; returns the report lines and the metrics dict."""
    clean = dataset("dbpedia")
    sigma = discover(clean, discovery_config("dbpedia")).sorted_by_support()
    if max_rules is not None:
        sigma = sigma[:max_rules]
    metrics = {"num_rules": len(sigma)}
    lines = [f"|Sigma| = {len(sigma)}"]

    # -- 1: the cover phase, sequential vs sharded ---------------------
    seq_s, seq_result = _timed(lambda: sequential_cover(sigma))
    serial = make_backend("serial", 4, None, None)
    serial_s, serial_result = _timed(lambda: parallel_cover(sigma, serial))
    serial.shutdown()
    metrics["seqcover_seconds"] = seq_s
    metrics["parcover_serial_seconds"] = serial_s
    metrics["cover_size"] = len(serial_result.cover)
    lines.append(f"SeqCover: {seq_s:.3f}s, cover {len(seq_result.cover)}")
    lines.append(f"ParCover(serial, n=4): {serial_s:.3f}s")
    if check:
        assert {str(g) for g in serial_result.cover} == {
            str(g) for g in seq_result.cover
        }, "ParCover(serial) cover diverges from SeqCover"

    metrics["parcover_multiprocess"] = {}
    if shared_memory_available():
        for workers in COVER_WORKERS:
            backend = make_backend("multiprocess", workers, None, None)
            try:
                mp_s, mp_result = _timed(
                    lambda: parallel_cover(sigma, backend)
                )
                ledger = backend.transfers
                metrics["parcover_multiprocess"][str(workers)] = {
                    "seconds": mp_s,
                    "sigma_rules_broadcast": ledger.sigma_rules,
                    "match_rows_to_workers": ledger.rows_to_workers,
                    "match_rows_to_master": ledger.rows_to_master,
                }
                lines.append(
                    f"ParCover(multiprocess, n={workers}): {mp_s:.3f}s, "
                    f"broadcast {ledger.sigma_rules} rules, "
                    f"{ledger.rows_to_workers + ledger.rows_to_master} "
                    f"match rows through the master"
                )
                if check:
                    assert mp_result.cover == serial_result.cover, (
                        f"ParCover(multiprocess, {workers}w) cover is not "
                        "byte-identical to serial"
                    )
                    assert mp_result.removed == serial_result.removed
                    assert ledger.rows_to_workers == 0
                    assert ledger.rows_to_master == 0
            finally:
                backend.shutdown()

    # -- 2: worker-resident enforcement tables --------------------------
    dirty, _ = inject_noise(
        clean, alpha=ALPHA, beta=BETA, attributes=list(KB_ATTRIBUTES), seed=7
    )
    config = EnforcementConfig(
        backend="serial", num_workers=2, max_violation_samples=None
    )
    with EnforcementEngine(dirty, sigma, config) as engine:
        full_s, report = _timed(engine.validate)
        ledger = engine._backend.transfers
        installed = ledger.rows_to_workers
        resident_rows = sum(
            rows.shape[0] for rows in engine.stored_matches()
        )

        before = ledger.snapshot()
        clean_s, clean_report = _timed(engine.refresh)
        clean_rows_out = ledger.rows_to_workers - before.rows_to_workers
        clean_rows_in = ledger.rows_to_master - before.rows_to_master

        rng = random.Random(5)
        for node in rng.sample(range(dirty.num_nodes), DELTA_NODES):
            dirty.set_attr(node, "type", "__bench_delta__")
        before = ledger.snapshot()
        delta_s, delta_report = _timed(engine.refresh)
        delta_rows_out = ledger.rows_to_workers - before.rows_to_workers
        assert delta_report.mode == "incremental"

    metrics["enforce"] = {
        "graph_nodes": dirty.num_nodes,
        "resident_match_rows": resident_rows,
        "install_rows_shipped": installed,
        "full_validate_seconds": full_s,
        "clean_refresh_seconds": clean_s,
        "clean_refresh_rows_to_workers": clean_rows_out,
        "clean_refresh_rows_to_master": clean_rows_in,
        "delta_nodes": DELTA_NODES,
        "delta_refresh_seconds": delta_s,
        "delta_refresh_rows_shipped": delta_rows_out,
        "total_violations": report.total_violations,
    }
    lines.append(
        f"enforce: {resident_rows} resident rows, install shipped "
        f"{installed}; clean refresh shipped "
        f"{clean_rows_out}+{clean_rows_in} rows in {clean_s:.4f}s"
    )
    lines.append(
        f"enforce delta ({DELTA_NODES} nodes): shipped {delta_rows_out} "
        f"rows of {resident_rows} resident"
    )
    if check:
        assert clean_rows_out == 0 and clean_rows_in == 0, (
            "a clean incremental refresh must transfer zero match rows "
            "through the master"
        )
        assert delta_rows_out < resident_rows, (
            "a delta refresh must ship fewer rows than re-installing the "
            "resident tables"
        )

    write_bench("parcover", metrics)
    return lines, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--check",
        action="store_true",
        help="assert the PR 4 acceptance criteria (CI gate)",
    )
    parser.add_argument(
        "--max-rules", type=int, default=None,
        help="cap |Sigma| to bound the cover wall clock",
    )
    parser.add_argument(
        "--budget", type=float, default=300.0,
        help="wall-clock budget in seconds for --check",
    )
    args = parser.parse_args(argv)
    started = time.perf_counter()
    lines, _ = run(check=args.check, max_rules=args.max_rules)
    elapsed = time.perf_counter() - started
    record("bench_parcover", lines)
    if args.check:
        if elapsed > args.budget:
            print(f"FAIL: {elapsed:.1f}s > budget {args.budget:.1f}s")
            return 1
        print(f"perf gate ok ({elapsed:.1f}s <= {args.budget:.1f}s)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
