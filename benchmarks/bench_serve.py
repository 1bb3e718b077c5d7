"""The serving-layer gate: MVCC reads, group-commit writes, zero leaks.

Drives the PR 10 :class:`repro.serve.EnforcementService` with the
mixed-traffic closed-loop load generator (80% validate / 5% discover /
5% cover / 10% mutate by default) and asserts the acceptance properties
of the serving subsystem:

1. **Replay identity** — every ``validate`` response served at pinned
   version ``V`` is *byte-identical* (canonical JSON) to a single-client
   :class:`repro.Session` given the base graph with the first ``V``
   committed batches of the writer's ``commit_log`` replayed onto it.
   MVCC concurrency must be observationally equivalent to serial
   execution, for every version the load run happened to read.

2. **Sustained throughput with bounded tail** — the mixed run must clear
   a conservative floor (validate is an O(1) read off the pinned
   snapshot's stored report, so the mix throughput is dominated by the
   commit/analytics lane) and the validate p99 must stay under the
   bound even while group commits publish new versions.

3. **Zero leaks** — after ``service.close()``: no leaked snapshot
   leases, no live shared-memory segments, no live index mmaps.

4. **Group commit batches** — under 8 concurrent clients the writer must
   commit fewer batches than mutations (writes that arrive while a commit
   or a discover/cover holds the lane share the next commit), and every
   committed version must be covered by the log.

5. **One answer per state** (exact counts, no timing) — one enforcement
   engine build per run (the ``engine_build`` tracer events: read-only
   covers keep the engine), one cover computation per served Σ, memo
   hits + misses equal to the requests of each kind, ``enforce_install``
   worker ops equal to workers × plan groups × full passes (a discovery
   drops only its own worker keys, so resident groups survive it and a
   refresh never re-installs them), ``VSpawn`` rounds equal to the
   levels recorded per structure version (the session's structural
   frontier verifies a level once per structure, and every write here
   is an attribute write: one round per level reached, however many
   discover misses), and every
   ``discover`` / ``cover`` answer identical to a fresh single-client
   ``Session`` at the replayed version (the unbudgeted ``discover_iter``
   filtered to the clamped ``max_levels`` and cut to ``max_rules`` — an
   oracle independent of the engine's budgeted mining; the cover of Σ).

6. **Exact monitor gauges** — after the run, every rule's
   distinct-pivots-ever gauge is an ``int`` equal to the size of the union
   of its ``find_violations`` pivots over every published state (each
   prefix of the writer's ``commit_log``, the empty one included).

``--check`` asserts all six; numbers land in
``benchmarks/results/BENCH_serve.json`` (p50/p99 latency per request
kind, throughput, commit/batching counters, per-backend).  Usage::

    PYTHONPATH=src python benchmarks/bench_serve.py
    PYTHONPATH=src python benchmarks/bench_serve.py --check
    PYTHONPATH=src python benchmarks/bench_serve.py --backend multiprocess
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys
from pathlib import Path
from typing import Any, Dict, List

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

from _harness import record, write_bench  # noqa: E402

from repro import DiscoveryConfig, Session, Tracer, format_gfd  # noqa: E402
from repro.datasets import KB_ATTRIBUTES, imdb_like  # noqa: E402
from repro.oracle import find_violations  # noqa: E402
from repro.parallel import shared_memory_available  # noqa: E402
from repro.parallel.janitor import live_mappings, live_segments  # noqa: E402
from repro.serve import (  # noqa: E402
    EnforcementService,
    ServeConfig,
    report_payload,
    run_load,
)
from repro.serve.writer import apply_ops  # noqa: E402

#: Closed-loop clients and per-client request count of the load run.
CLIENTS = 8
REQUESTS_PER_CLIENT = 30

#: Conservative mixed-traffic floor, requests/second (CI-safe: the same
#: run sustains hundreds of rps on an idle laptop).
THROUGHPUT_FLOOR_RPS = 20.0

#: Validate must stay an O(1) snapshot read even while commits publish.
VALIDATE_P99_BOUND_S = 1.0


def build_workload():
    """The bench graph + a discovered Σ (shared by every backend run)."""
    base = imdb_like(scale=1.0, seed=1)
    config = DiscoveryConfig(
        k=2, sigma=60, max_lhs_size=1,
        active_attributes=list(KB_ATTRIBUTES),
    )
    with Session(base.copy(), config) as session:
        sigma = session.discover().gfds
    return base, config, sigma


def replayed_graph(base, commit_log, version: int):
    graph = base.copy()
    for batch in commit_log[:version]:
        apply_ops(graph, batch)
    return graph


def replay_payload(base, sigma, commit_log, version: int) -> Dict[str, Any]:
    """The single-client ground truth for pinned version ``version``."""
    with Session(replayed_graph(base, commit_log, version)) as session:
        session.set_sigma(sigma)
        report = session.enforce()
        return report_payload(report, include_nodes=True, include_samples=True)


def check_answer_replay(
    base, config, sigma, commit_log, discover_responses, cover_responses
) -> Dict[str, Any]:
    """Compare every discover / cover answer to a fresh single-client
    ``Session`` (discover at the replayed version; cover of Σ).

    The discover oracle is the *unbudgeted* stream at the replayed
    version, filtered to patterns with at most ``max_levels`` edges and
    cut to ``max_rules`` — independent of the engine's budgeted mining,
    which the served answer runs through."""
    streams: Dict[int, List[Any]] = {}
    truth: Dict[Any, List[str]] = {}
    mismatches = 0
    for response in discover_responses:
        version, max_rules, max_levels = key = (
            response["version"], response["max_rules"], response["max_levels"]
        )
        if version not in streams:
            graph = replayed_graph(base, commit_log, version)
            with Session(graph, config) as session:
                streams[version] = list(
                    session.discover_iter(update_sigma=False)
                )
        if key not in truth:
            truth[key] = [
                format_gfd(gfd)
                for gfd in streams[version]
                if max_levels is None or gfd.pattern.num_edges <= max_levels
            ][:max_rules]
        mismatches += response["rules"] != truth[key]
    with Session(base.copy(), config) as session:
        cover = [format_gfd(gfd) for gfd in session.cover(sigma).cover]
    for response in cover_responses:
        mismatches += (
            response["rules"] != cover or response["input_size"] != len(sigma)
        )
    return {
        "discover_checked": len(discover_responses),
        "discover_states_replayed": len(truth),
        "cover_checked": len(cover_responses),
        "mismatches": mismatches,
    }


def check_monitor_gauges(base, sigma, commit_log, gauges) -> Dict[str, Any]:
    """Compare the monitor's distinct-pivots-ever gauges to the exact union
    of every rule's violating pivots over every published state (each
    prefix of ``commit_log``, the empty one included), by
    ``find_violations``."""
    ever: Dict[str, set] = {format_gfd(rule): set() for rule in sigma}
    for version in range(len(commit_log) + 1):
        graph = replayed_graph(base, commit_log, version)
        for rule in sigma:
            ever[format_gfd(rule)].update(
                violation.match[rule.pattern.pivot]
                for violation in find_violations(graph, rule)
            )
    mismatches = sum(
        not isinstance(gauges.get(text, 0), int)
        or gauges.get(text, 0) != len(pivots)
        for text, pivots in ever.items()
    )
    return {
        "rules_checked": len(ever),
        "states_replayed": len(commit_log) + 1,
        "distinct_pivots_ever": sum(len(pivots) for pivots in ever.values()),
        "mismatches": mismatches,
    }


def check_replay_identity(
    base, sigma, commit_log, validate_responses
) -> Dict[str, Any]:
    """Compare every served validate response to its replayed version."""
    ground_truth: Dict[int, str] = {}
    mismatches = 0
    for response in validate_responses:
        version = response["version"]
        if version not in ground_truth:
            ground_truth[version] = json.dumps(
                replay_payload(base, sigma, commit_log, version),
                sort_keys=True,
            )
        served = {
            k: v for k, v in response.items()
            if k not in ("kind", "version", "graph_version")
        }
        if json.dumps(served, sort_keys=True) != ground_truth[version]:
            mismatches += 1
    return {
        "responses_checked": len(validate_responses),
        "versions_replayed": len(ground_truth),
        "mismatches": mismatches,
    }


async def drive(base, config, sigma, backend: str) -> Dict[str, Any]:
    """One full load run against one backend; returns the run facts."""
    tracer = Tracer()
    service = EnforcementService(
        base.copy(),
        sigma=sigma,
        config=config,
        serve=ServeConfig(commit_linger_s=0.01),
        backend=backend,
        num_workers=2 if backend == "multiprocess" else None,
        tracer=tracer,
    )
    await service.start()
    try:
        load = await run_load(
            service,
            clients=CLIENTS,
            requests_per_client=REQUESTS_PER_CLIENT,
            seed=11,
            mutation_attrs=["name", "country"],
            discover_budget=10,
        )
        commit_log = [list(batch) for batch in service.writer.commit_log]
        commits = service.writer.commits
        mutations = service.writer.mutations
        final_version = service.chain.current_version
        chain = service.chain.stats()
        answer_memo = service.stats()["answer_memo"]
        cover_computations = service.session.metrics().phases.get("cover", 0)
        gauges = service.monitor.estimates()
    finally:
        await service.close()
    full_passes = [
        event for event in tracer.events
        if event["type"] == "enforce_pass" and event["mode"] == "full"
    ]
    vspawn_levels = [
        span.args["level"] for span in tracer.spans
        if span.kind == "level" and span.name.startswith("vspawn")
    ]
    replay = check_replay_identity(
        base, sigma, commit_log, load.validate_responses
    )
    answer_replay = check_answer_replay(
        base, config, sigma, commit_log,
        load.discover_responses, load.cover_responses,
    )
    monitor = check_monitor_gauges(base, sigma, commit_log, gauges)
    return {
        "backend": backend,
        "load": load.as_dict(),
        "commits": commits,
        "mutations": mutations,
        "final_version": final_version,
        "chain": chain,
        "replay": replay,
        "answer_replay": answer_replay,
        "monitor": monitor,
        "answer_memo": answer_memo,
        "engine_builds": sum(
            event["type"] == "engine_build" for event in tracer.events
        ),
        "workers": service.session.num_workers,
        # a full pass revalidates every group of the one engine's plan
        "plan_groups": (
            full_passes[0]["groups_revalidated"] if full_passes else 0
        ),
        "full_passes": len(full_passes),
        "enforce_installs": sum(
            span.kind == "op" and span.name == "enforce_install"
            for span in tracer.spans
        ),
        "cover_computations": cover_computations,
        "vspawn_rounds": len(vspawn_levels),
        "levels_recorded": len(set(vspawn_levels)),
        "structure_versions": 1 + sum(
            event["type"] == "frontier_drop" and event["reason"] == "structure"
            for event in tracer.events
        ),
        "frontier_replays": sum(
            event["type"] == "frontier_replay" for event in tracer.events
        ),
        "leaked_leases": service.leaked_leases,
        "leaked_segments": len(live_segments()),
        "leaked_mappings": len(live_mappings()),
    }


def run_bench(backends: List[str]) -> Dict[str, Any]:
    base, config, sigma = build_workload()
    runs = {}
    for backend in backends:
        runs[backend] = asyncio.run(drive(base, config, sigma, backend))
    return {
        "sigma_size": len(sigma),
        "clients": CLIENTS,
        "requests_per_client": REQUESTS_PER_CLIENT,
        "throughput_floor_rps": THROUGHPUT_FLOOR_RPS,
        "validate_p99_bound_s": VALIDATE_P99_BOUND_S,
        "runs": runs,
    }


def check(metrics: Dict[str, Any]) -> List[str]:
    """The gate: returns a list of failures (empty = pass)."""
    failures = []
    for backend, run in metrics["runs"].items():
        tag = f"[{backend}]"
        load = run["load"]
        if load["errors"]:
            failures.append(f"{tag} {load['errors']} request errors")
        replay = run["replay"]
        if replay["mismatches"]:
            failures.append(
                f"{tag} {replay['mismatches']} of "
                f"{replay['responses_checked']} validate responses diverge "
                f"from single-client replay"
            )
        if not replay["responses_checked"]:
            failures.append(f"{tag} load run produced no validate responses")
        if load["throughput_rps"] < THROUGHPUT_FLOOR_RPS:
            failures.append(
                f"{tag} throughput {load['throughput_rps']:.1f} rps "
                f"< floor {THROUGHPUT_FLOOR_RPS}"
            )
        validate_p99 = load["latency"].get("validate", {}).get("p99", 0.0)
        if validate_p99 > VALIDATE_P99_BOUND_S:
            failures.append(
                f"{tag} validate p99 {validate_p99:.3f}s "
                f"> bound {VALIDATE_P99_BOUND_S}s"
            )
        if run["leaked_leases"]:
            failures.append(f"{tag} {run['leaked_leases']} leaked leases")
        if run["leaked_segments"]:
            failures.append(f"{tag} {run['leaked_segments']} leaked segments")
        if run["leaked_mappings"]:
            failures.append(f"{tag} {run['leaked_mappings']} leaked mappings")
        if run["mutations"] and run["commits"] >= run["mutations"]:
            failures.append(
                f"{tag} no batching: {run['commits']} commits for "
                f"{run['mutations']} mutations"
            )
        if run["final_version"] != run["commits"]:
            failures.append(
                f"{tag} commit log covers {run['commits']} versions but "
                f"chain is at {run['final_version']}"
            )
        if run["engine_builds"] != 1:
            failures.append(
                f"{tag} {run['engine_builds']} enforcement engine builds "
                f"(expected 1: Σ never changes while serving)"
            )
        installs = run["workers"] * run["plan_groups"] * run["full_passes"]
        if run["enforce_installs"] != installs:
            failures.append(
                f"{tag} {run['enforce_installs']} enforce_install ops, "
                f"expected {installs} = {run['workers']} workers x "
                f"{run['plan_groups']} plan groups x {run['full_passes']} "
                f"full passes (resident groups must survive discoveries)"
            )
        rounds = run["levels_recorded"] * run["structure_versions"]
        if run["vspawn_rounds"] != rounds:
            failures.append(
                f"{tag} {run['vspawn_rounds']} VSpawn rounds, expected "
                f"{rounds} = {run['levels_recorded']} levels recorded x "
                f"{run['structure_versions']} structure versions (a "
                f"budgeted discover replays the structural frontier)"
            )
        covers = load["completed"].get("cover", 0)
        if run["cover_computations"] != min(1, covers):
            failures.append(
                f"{tag} {run['cover_computations']} cover computations for "
                f"one served Σ ({covers} cover requests)"
            )
        for kind, outcomes in run["answer_memo"].items():
            answered = load["completed"].get(kind, 0)
            if sum(outcomes.values()) != answered:
                failures.append(
                    f"{tag} {kind} memo hits + misses {outcomes} != "
                    f"{answered} requests"
                )
        answers = run["answer_replay"]
        if answers["mismatches"]:
            failures.append(
                f"{tag} {answers['mismatches']} discover/cover answers diverge "
                f"from single-client replay"
            )
        monitor = run["monitor"]
        if monitor["mismatches"]:
            failures.append(
                f"{tag} {monitor['mismatches']} of {monitor['rules_checked']} "
                f"monitor gauges differ from the exact union of violating "
                f"pivots over {monitor['states_replayed']} published states"
            )
    return failures


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--check", action="store_true",
                        help="assert the gate properties")
    parser.add_argument("--backend",
                        choices=["serial", "multiprocess", "both"],
                        default="serial",
                        help="backend(s) to drive (default: serial)")
    args = parser.parse_args()

    backends = ["serial"]
    if args.backend == "multiprocess":
        backends = ["multiprocess"]
    elif args.backend == "both":
        if shared_memory_available():
            backends.append("multiprocess")
        else:
            print("# shared memory unavailable; skipping multiprocess run",
                  file=sys.stderr)

    metrics = run_bench(backends)
    lines = []
    for backend, run in metrics["runs"].items():
        load = run["load"]
        summary = load["latency"]
        validate = summary.get("validate", {})
        mutate = summary.get("mutate", {})
        lines.append(
            f"{backend}: {load['requests']} requests "
            f"@ {load['throughput_rps']:.1f} rps | validate "
            f"p50 {validate.get('p50', 0) * 1e3:.2f}ms "
            f"p99 {validate.get('p99', 0) * 1e3:.2f}ms | mutate "
            f"p50 {mutate.get('p50', 0) * 1e3:.2f}ms "
            f"p99 {mutate.get('p99', 0) * 1e3:.2f}ms | "
            f"{run['commits']} commits / {run['mutations']} mutations | "
            f"{run['replay']['responses_checked']} replay-checked over "
            f"{run['replay']['versions_replayed']} versions | "
            f"engine builds {run['engine_builds']}, "
            f"cover computations {run['cover_computations']}, "
            f"enforce_install ops {run['enforce_installs']} = "
            f"{run['workers']} workers x {run['plan_groups']} groups x "
            f"{run['full_passes']} full passes, "
            f"VSpawn rounds {run['vspawn_rounds']} = "
            f"{run['levels_recorded']} levels x "
            f"{run['structure_versions']} structure versions "
            f"({run['frontier_replays']} level replays), "
            f"monitor {run['monitor']['distinct_pivots_ever']} distinct "
            f"pivots ever over {run['monitor']['states_replayed']} states, "
            f"memo hits "
            + ", ".join(
                f"{kind} {outcomes['hit']}/{sum(outcomes.values())}"
                for kind, outcomes in sorted(run["answer_memo"].items())
            )
        )
    record("serve_load", lines)
    path = write_bench("serve", metrics)
    print(f"# wrote {path}")

    if args.check:
        failures = check(metrics)
        if failures:
            for failure in failures:
                print(f"FAIL: {failure}", file=sys.stderr)
            return 1
        print("# serve gate: all checks passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
