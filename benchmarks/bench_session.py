"""The Session facade gate: one backend lifecycle per pipeline.

Asserts the API-redesign acceptance property on a real dataset, per
backend:

1. **One lifecycle** — a discover → cover → enforce → refresh pipeline
   under one :class:`repro.Session` starts its worker pools exactly once
   and attaches the graph index exactly once (`session.metrics()` reads
   the backend's `LifecycleCounters`); the post-mutation snapshot goes
   through `refresh_index`, never a pool rebuild.

2. **Oracle identity** — the Session's discovered Σ equals `discover`'s,
   its cover keeps the same rules as the `sequential_cover` oracle
   (compared as identity sets), and its enforcement report is
   byte-identical to a standalone `EnforcementEngine`'s.

3. **Repeatable covers** — a second cover in the same session produces
   the byte-identical cover.

4. **Multiprocess never loses** — the per-level superstep protocol is
   the reason multiprocess stops losing to serial at this scale, so the
   gate is hard: ``multiprocess elapsed ≤ 1.05 × serial elapsed``, and
   the serial pipeline's superstep count stays under an absolute ceiling
   (supersteps are bounded per level, not per pattern).

5. **Tracing is free when off, cheap when on** — the same pipeline run
   with a live :class:`repro.Tracer` must produce byte-identical results,
   cost ≤ 5% wall-clock over the untraced run (plus a small absolute
   slack), and the *disabled* path — the no-op hooks every untraced run
   executes — must account for ≤ 2% of the untraced elapsed (measured as
   the enabled run's span+event count times the micro-benchmarked cost of
   one null hook).

``--check`` asserts all five; numbers land in
``benchmarks/results/BENCH_session.json``, the full metrics view in
``benchmarks/results/session_metrics_bench.json``, and a Chrome-trace
timeline of the traced pipeline in
``benchmarks/results/session_trace.json`` (rewritten by every run, not
checked in).  Usage::

    PYTHONPATH=src python benchmarks/bench_session.py
    PYTHONPATH=src python benchmarks/bench_session.py --check
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

from _harness import (  # noqa: E402
    RESULTS_DIR,
    dataset,
    discovery_config,
    record,
    write_bench,
)

from repro import Session, Tracer, write_chrome_trace  # noqa: E402
from repro.core import discover, gfd_identity  # noqa: E402
from repro.core.config import EnforcementConfig  # noqa: E402
from repro.enforce import EnforcementEngine  # noqa: E402
from repro.obs.tracer import NULL_TRACER  # noqa: E402
from repro.oracle import sequential_cover  # noqa: E402
from repro.parallel import shared_memory_available  # noqa: E402

#: Session worker count for both backends.
WORKERS = 2

#: Multiprocess may cost at most this factor over serial (the bugfix
#: gate) — on hosts with enough usable cores to overlap every worker plus
#: the master.
MP_MAX_RATIO = 1.05

#: On smaller hosts (a 1-core CI container cannot overlap 2 worker
#: processes at all) wall-clock parity is physically impossible and the
#: measurement is contention-noise; only guard the *protocol* health —
#: a ratio past this means the IPC path itself regressed.
MP_DEGRADED_RATIO = 3.0

#: Ceiling on the serial yago2 pipeline's superstep count (the value
#: measured today): rounds are per level, so more patterns must not
#: mean more supersteps.
MAX_SERIAL_SUPERSTEPS = 24

#: Live tracing may cost at most this factor over the untraced pipeline.
TRACE_MAX_RATIO = 1.05

#: Absolute slack (seconds) added to the live-tracing gate — sub-second
#: pipelines make a 5% window smaller than timer noise.
TRACE_ABS_SLACK_S = 0.25

#: The disabled (null-tracer) path may account for at most this percent
#: of the untraced pipeline's wall clock.
NULL_OVERHEAD_PCT = 2.0


def _null_hook_cost_s(iterations: int = 50_000) -> float:
    """Micro-benchmark one disabled-path hook: guard + null span."""
    started = time.perf_counter()
    for _ in range(iterations):
        if NULL_TRACER.enabled:
            NULL_TRACER.event("bench")
        with NULL_TRACER.span("bench", "op"):
            pass
    return (time.perf_counter() - started) / iterations


def _identity_view(outcome):
    """The result bytes of a pipeline run, for traced-vs-untraced diffs."""
    return (
        [gfd_identity(g) for g in outcome["result"].gfds],
        [str(g) for g in outcome["cover1"].cover],
        [str(g) for g in outcome["cover2"].cover],
        [
            (r.violation_count, sorted(r.nodes), r.sample)
            for r in outcome["report"].rules
        ],
        outcome["refreshed"].mode,
    )


def _pipeline(graph, config, backend, tracer=None):
    """One full pipeline on a fresh session; returns everything measured."""
    started = time.perf_counter()
    with Session(
        graph, config, backend=backend, num_workers=WORKERS, tracer=tracer
    ) as session:
        result = session.discover()
        cover1 = session.cover(result.gfds)
        cover2 = session.cover(result.gfds)
        report = session.enforce()
        touched = graph.add_node("person", {"type": "person"})
        refreshed = session.refresh()
        graph.remove_attr(touched, "type")
        refreshed = session.refresh()
        metrics = session.metrics()
    return {
        "elapsed_s": time.perf_counter() - started,
        "result": result,
        "cover1": cover1,
        "cover2": cover2,
        "report": report,
        "refreshed": refreshed,
        "metrics": metrics,
    }


def run(check: bool = False, max_rules: int = None):
    """One measured pass; returns the report lines and the metrics dict."""
    config = discovery_config("yago2")
    backends = ["serial"]
    if shared_memory_available():
        backends.append("multiprocess")

    # the reference path (fresh resources per phase, pristine graph)
    reference = discover(dataset("yago2").copy(), config)

    lines = [f"|Sigma| = {len(reference.gfds)}"]
    metrics = {"num_rules": len(reference.gfds), "workers": WORKERS}

    for backend in backends:
        graph = dataset("yago2").copy()  # the pipeline mutates its graph
        outcome = _pipeline(graph, config, backend)
        # the oracles over the *same* Σ and an equal pristine graph
        oracle_cover = {
            gfd_identity(g)
            for g in sequential_cover(outcome["result"].gfds).cover
        }
        with EnforcementEngine(
            dataset("yago2").copy(),
            outcome["cover2"].cover,
            EnforcementConfig(backend="serial", num_workers=WORKERS),
        ) as engine:
            engine_report = engine.validate()
        view = outcome["metrics"]
        lines.append(
            f"{backend}: pipeline {outcome['elapsed_s']:.2f}s — backend "
            f"started {view.backend_starts}x, pools {view.lifecycle.pools_started}, "
            f"index attached {view.lifecycle.index_attaches}x "
            f"(+{view.lifecycle.index_refreshes} refresh), "
            f"{view.work.supersteps} supersteps"
        )
        metrics[backend] = {
            "elapsed_s": round(outcome["elapsed_s"], 3),
            "backend_starts": view.backend_starts,
            "pools_started": view.lifecycle.pools_started,
            "index_attaches": view.lifecycle.index_attaches,
            "index_refreshes": view.lifecycle.index_refreshes,
            "supersteps": view.work.supersteps,
        }

        same_sigma = {gfd_identity(g) for g in outcome["result"].gfds} == {
            gfd_identity(g) for g in reference.gfds
        }
        same_cover = {
            gfd_identity(g) for g in outcome["cover1"].cover
        } == oracle_cover
        same_cover_again = [str(g) for g in outcome["cover2"].cover] == [
            str(g) for g in outcome["cover1"].cover
        ]
        same_report = [
            (r.violation_count, sorted(r.nodes), r.sample)
            for r in outcome["report"].rules
        ] == [
            (r.violation_count, sorted(r.nodes), r.sample)
            for r in engine_report.rules
        ]
        lines.append(
            f"{backend}: sigma identical {same_sigma}, cover identical "
            f"{same_cover}/{same_cover_again}, report identical {same_report}"
        )

        if check:
            assert view.backend_starts == 1, "pools must start exactly once"
            assert view.lifecycle.pools_started == WORKERS
            assert view.lifecycle.index_attaches == 1, (
                "the index must be attached exactly once; snapshots "
                "re-point via refresh_index"
            )
            assert view.lifecycle.index_refreshes >= 1
            assert same_sigma, "Session discovery must equal discover()"
            assert same_cover, "Session cover must keep SeqCover's rules"
            assert same_cover_again, "a repeated cover must be identical"
            assert same_report, "Session enforcement must equal the engine"
            assert outcome["refreshed"].mode == "incremental"

        # the same documented schema v8 the CLI's --metrics writes
        full_view = RESULTS_DIR / "session_metrics_bench.json"
        RESULTS_DIR.mkdir(exist_ok=True)
        full_view.write_text(
            json.dumps(view.as_dict(), indent=2, sort_keys=True) + "\n"
        )

    serial_steps = metrics["serial"]["supersteps"]
    lines.append(
        f"supersteps: {serial_steps} serial (ceiling {MAX_SERIAL_SUPERSTEPS})"
    )
    if check:
        assert serial_steps <= MAX_SERIAL_SUPERSTEPS, (
            f"the serial pipeline took {serial_steps} supersteps "
            f"(ceiling {MAX_SERIAL_SUPERSTEPS}): rounds must stay "
            "per-level, not per-pattern"
        )

    # -- 5: tracing overhead + byte-identity ---------------------------
    # run-to-run drift on a warm host dwarfs any real tracing cost, so
    # compare min-of-2 with a symmetric order (t,u,u,t) — each variant
    # gets one early and one late slot
    traced_runs, plain_runs = [], []
    tracer = None
    for variant in ("traced", "untraced", "untraced", "traced"):
        if variant == "traced":
            tracer = Tracer()
            traced_runs.append(
                _pipeline(dataset("yago2").copy(), config, "serial", tracer)
            )
        else:
            plain_runs.append(
                _pipeline(dataset("yago2").copy(), config, "serial")
            )
    untraced = min(plain_runs, key=lambda o: o["elapsed_s"])
    traced = min(traced_runs, key=lambda o: o["elapsed_s"])
    identical = all(
        _identity_view(t) == _identity_view(untraced)
        for t in traced_runs
    )
    # gate on the best *paired* ratio: a real tracing cost shows up in
    # every pair, while a host-contention spike only poisons one
    trace_ratio = min(
        t["elapsed_s"] / u["elapsed_s"]
        for t, u in zip(traced_runs, plain_runs)
    )
    hook_cost = _null_hook_cost_s()
    hooks = tracer.spans_opened + len(tracer.events)
    null_overhead_pct = (
        hooks * hook_cost / untraced["elapsed_s"] * 100.0
    )
    metrics["tracing"] = {
        "untraced_s": round(untraced["elapsed_s"], 3),
        "traced_s": round(traced["elapsed_s"], 3),
        "traced_vs_untraced_ratio": round(trace_ratio, 3),
        "spans": tracer.spans_opened,
        "events": len(tracer.events),
        "null_hook_ns": round(hook_cost * 1e9, 1),
        "null_overhead_pct": round(null_overhead_pct, 4),
        "results_identical": identical,
    }
    lines.append(
        f"tracing: {tracer.spans_opened} spans + {len(tracer.events)} "
        f"events, traced {traced['elapsed_s']:.2f}s vs untraced "
        f"{untraced['elapsed_s']:.2f}s ({trace_ratio:.2f}x), null hook "
        f"{hook_cost * 1e9:.0f}ns -> disabled path {null_overhead_pct:.3f}% "
        f"of untraced, identical {identical}"
    )
    RESULTS_DIR.mkdir(exist_ok=True)
    write_chrome_trace(tracer, RESULTS_DIR / "session_trace.json")
    if check:
        assert identical, "traced results diverged from untraced"
        assert tracer.spans_opened == tracer.spans_closed, (
            "the traced pipeline left spans open"
        )
        assert null_overhead_pct <= NULL_OVERHEAD_PCT, (
            f"disabled-tracer hooks cost {null_overhead_pct:.3f}% of the "
            f"untraced pipeline (gate {NULL_OVERHEAD_PCT}%)"
        )
        assert (
            traced["elapsed_s"] - untraced["elapsed_s"] <= TRACE_ABS_SLACK_S
            or trace_ratio <= TRACE_MAX_RATIO
        ), (
            f"live tracing cost {trace_ratio:.2f}x over untraced "
            f"(gate {TRACE_MAX_RATIO}x + {TRACE_ABS_SLACK_S}s slack)"
        )

    if "multiprocess" in metrics:
        ratio = (
            metrics["multiprocess"]["elapsed_s"]
            / metrics["serial"]["elapsed_s"]
        )
        try:
            cores = len(os.sched_getaffinity(0))
        except AttributeError:  # non-Linux
            cores = os.cpu_count() or 1
        # WORKERS worker processes + the master need WORKERS+1 cores to
        # actually overlap; below that the wall-clock comparison measures
        # contention, not the protocol (same policy as _harness.
        # assert_real_speedup)
        overlap = cores > WORKERS
        gate = MP_MAX_RATIO if overlap else MP_DEGRADED_RATIO
        metrics["mp_vs_serial_ratio"] = round(ratio, 3)
        metrics["usable_cores"] = cores
        lines.append(
            f"multiprocess / serial elapsed ratio: {ratio:.2f} "
            f"(gate <= {gate} on {cores} usable cores)"
        )
        if check:
            assert ratio <= gate, (
                f"multiprocess lost to serial: {ratio:.2f}x elapsed "
                f"(gate {gate}x on {cores} cores) — "
                f"{metrics['multiprocess']['elapsed_s']:.2f}s vs "
                f"{metrics['serial']['elapsed_s']:.2f}s"
            )

    write_bench("session", metrics)
    return lines, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--check",
        action="store_true",
        help="assert the one-lifecycle, oracle-identity and tracing-"
             "overhead gates",
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
    record("bench_session", lines)
    if args.check and args.budget is not None:
        elapsed = time.perf_counter() - started
        assert elapsed <= args.budget, (
            f"bench_session took {elapsed:.1f}s > budget {args.budget:.0f}s"
        )
    print("bench_session: OK")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
