"""The fault-tolerance gate: supervision overhead + recovery latency.

Asserts the robustness PR's acceptance properties on a real dataset:

1. **Fault-free overhead** — running the multiprocess backend *under
   supervision* (per-op deadlines, journaling, retry scaffolding) with no
   injected faults costs ≤ 5% wall-clock vs the same run unsupervised
   (one transport either way; min-of-3 each, with a small absolute floor
   so tiny baselines don't flake the relative gate).

2. **Recovery** — a deterministic chaos plan SIGKILLs one worker
   mid-discovery; the run must finish with results identical to the
   fault-free sequential reference, at least one respawn must be
   recorded, and the per-respawn recovery latency is reported.

3. **No leaks** — after every session exits, zero janitor-registered
   shared-memory segments remain.

Numbers land in ``benchmarks/results/BENCH_faults.json``.  Usage::

    PYTHONPATH=src python benchmarks/bench_faults.py
    PYTHONPATH=src python benchmarks/bench_faults.py --check
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import replace
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

from _harness import (  # noqa: E402
    dataset,
    discovery_config,
    record,
    write_bench,
)

from repro import FaultConfig, Session  # noqa: E402
from repro.core import discover, gfd_identity  # noqa: E402
from repro.parallel import janitor, shared_memory_available  # noqa: E402

#: Worker count for every measured run.
WORKERS = 2

#: Timed repetitions per variant (min-of-N defeats scheduler noise).
REPEATS = 3

#: Relative overhead budget for fault-free supervision.
OVERHEAD_PCT = 5.0

#: Absolute slack (seconds) under which the relative gate is waived —
#: sub-second baselines make a 5% window smaller than timer noise.
OVERHEAD_FLOOR_S = 0.25

#: The chaos plan: kill worker 0 right before its first install op.
CHAOS_PLAN = json.dumps({"kill_on": {"op": "install", "nth": 1}, "workers": [0]})


def _discover_once(graph, config, fault):
    """One timed multiprocess discovery; returns (seconds, result, view)."""
    run_config = replace(config, fault=fault)
    started = time.perf_counter()
    with Session(
        graph, run_config, backend="multiprocess", num_workers=WORKERS
    ) as session:
        result = session.discover()
        view = session.metrics()
    return time.perf_counter() - started, result, view


def _identity(result):
    return {gfd_identity(g) for g in result.gfds}


def run(check: bool = False, max_rules: int = None):
    """One measured pass; returns the report lines and the metrics dict."""
    if not shared_memory_available():  # pragma: no cover - platform gate
        return ["bench_faults: shared memory unavailable, skipped"], {}
    config = discovery_config("yago2")
    graph = dataset("yago2")
    reference = _identity(discover(graph, config))

    baseline_s = min(
        _discover_once(graph, config, None)[0] for _ in range(REPEATS)
    )
    supervised_times = []
    supervised_result = None
    for _ in range(REPEATS):
        seconds, supervised_result, view = _discover_once(
            graph, config, FaultConfig(fault_plan=None)
        )
        supervised_times.append(seconds)
        assert view.lifecycle.respawns == 0  # no faults were injected
    supervised_s = min(supervised_times)
    overhead_pct = (supervised_s - baseline_s) / baseline_s * 100.0

    chaos_s, chaos_result, chaos_view = _discover_once(
        graph, config, FaultConfig(fault_plan=CHAOS_PLAN)
    )
    respawns = chaos_view.lifecycle.respawns
    recovery_s = chaos_view.recovery_seconds
    per_respawn = recovery_s / respawns if respawns else 0.0

    lines = [
        f"|Sigma| = {len(reference)} ({WORKERS} workers, min of {REPEATS})",
        f"unsupervised {baseline_s:.3f}s, supervised {supervised_s:.3f}s "
        f"({overhead_pct:+.1f}% overhead)",
        f"chaos (kill worker 0 @ first install): {chaos_s:.3f}s, "
        f"{respawns} respawn(s), recovery {recovery_s * 1000:.1f}ms "
        f"({per_respawn * 1000:.1f}ms/respawn), identical "
        f"{_identity(chaos_result) == reference}",
        f"leaked segments after runs: {janitor.live_segments()}",
    ]
    metrics = {
        "workers": WORKERS,
        "repeats": REPEATS,
        "num_rules": len(reference),
        "unsupervised_s": round(baseline_s, 4),
        "supervised_s": round(supervised_s, 4),
        "overhead_pct": round(overhead_pct, 2),
        "chaos_elapsed_s": round(chaos_s, 4),
        "chaos_respawns": respawns,
        "recovery_seconds": round(recovery_s, 4),
        "recovery_s_per_respawn": round(per_respawn, 4),
    }

    if check:
        assert _identity(supervised_result) == reference, (
            "supervised discovery diverged from the sequential reference"
        )
        assert _identity(chaos_result) == reference, (
            "discovery under injected worker kills diverged"
        )
        assert respawns >= 1, "the chaos plan must actually kill a worker"
        assert recovery_s > 0.0
        assert (
            supervised_s - baseline_s <= OVERHEAD_FLOOR_S
            or overhead_pct <= OVERHEAD_PCT
        ), (
            f"fault-free supervision overhead {overhead_pct:.1f}% exceeds "
            f"{OVERHEAD_PCT:.0f}% (baseline {baseline_s:.3f}s, supervised "
            f"{supervised_s:.3f}s)"
        )
        assert janitor.live_segments() == [], "leaked shared-memory segments"

    write_bench("faults", metrics)
    return lines, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--check",
        action="store_true",
        help="assert the overhead, recovery and leak gates",
    )
    parser.add_argument(
        "--max-rules",
        type=int,
        default=None,
        help="accepted for CI-arg parity with the sibling gates (unused)",
    )
    parser.add_argument(
        "--budget",
        type=float,
        default=None,
        help="wall-clock budget in seconds for --check",
    )
    args = parser.parse_args(argv)
    started = time.perf_counter()
    lines, _ = run(check=args.check, max_rules=args.max_rules)
    for line in lines:
        print(line)
    record("bench_faults", lines)
    if args.check and args.budget is not None:
        elapsed = time.perf_counter() - started
        assert elapsed <= args.budget, (
            f"bench_faults took {elapsed:.1f}s > budget {args.budget:.0f}s"
        )
    print("bench_faults: OK")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
