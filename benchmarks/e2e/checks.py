"""The correctness half of "one command".

Each ``check_*`` returns a list of failure messages (empty = correct).
Reference oracles are the slow paths the test suite already trusts:
``find_violations`` / ``gfd_support`` (per-rule dict matching), ``implies``
(the chase), a standalone ``EnforcementEngine.validate()``, and the
single-client replay of the serving layer's commit log.
"""

from __future__ import annotations

import hashlib
import json
import random
import time
from typing import Any, Dict, List, Sequence

from repro import DiscoveryConfig, EnforcementConfig, EnforcementEngine, Session
from repro.core import gfd_support, gfd_support_any
from repro.gfd import find_violations, format_gfd, implies
from repro.serve import apply_ops, report_payload

__all__ = [
    "pipeline_digest", "report_digest", "counts_digest",
    "check_mined", "check_churn", "check_served",
]

#: Rules re-verified with the reference oracles per run, and the wall-clock
#: cap on doing so (dict matching of a 200k-match pattern takes seconds).
ORACLE_RULES = 25
ORACLE_BUDGET_S = 2.0

#: Served versions replayed through a single-client ``Session`` per run.
REPLAY_VERSIONS = 20


def _report_lines(report: Any) -> List[str]:
    return [
        f"{format_gfd(rule.gfd)}\t{rule.violation_count}\t{sorted(rule.nodes)}"
        for rule in report.rules
    ]


def _sha256(lines: Sequence[str]) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def report_digest(report: Any) -> str:
    """Digest of per-rule ``(violation_count, sorted nodes)``."""
    return _sha256(_report_lines(report))


def counts_digest(counts: Dict[str, int]) -> str:
    """Digest of exact per-kind counts."""
    return _sha256([json.dumps(counts, sort_keys=True)])


def pipeline_digest(pipeline: Any) -> str:
    """Digest of Σ with supports, the cover, and the enforcement report."""
    lines = sorted(
        f"{format_gfd(gfd)}\t{pipeline.supports.get(gfd)}"
        for gfd in pipeline.sigma
    )
    lines += sorted(format_gfd(gfd) for gfd in pipeline.cover)
    if pipeline.report is not None:
        lines += _report_lines(pipeline.report)
    return _sha256(lines)


def check_mined(graph: Any, config: DiscoveryConfig, pipeline: Any,
                rng: random.Random) -> List[str]:
    """Sampled Σ against the oracles: it holds, is frequent, and cover ⊨ it."""
    failures: List[str] = []
    if not pipeline.sigma:
        return ["discovery returned no rules"]
    if pipeline.report is not None and pipeline.report.total_violations:
        failures.append(
            f"{pipeline.report.total_violations} violations of the mined Σ "
            "on the graph it was mined from")
    sample = rng.sample(pipeline.sigma, min(ORACLE_RULES, len(pipeline.sigma)))
    deadline = time.perf_counter() + ORACLE_BUDGET_S
    for position, gfd in enumerate(sample):
        if position and time.perf_counter() > deadline:
            break
        text = format_gfd(gfd)
        if not implies(pipeline.cover, gfd):
            failures.append(f"cover does not imply {text}")
        if find_violations(graph, gfd, max_violations=1):
            failures.append(f"oracle finds a violation of {text}")
        if gfd.is_negative:
            if gfd_support_any(graph, gfd) < config.sigma:
                failures.append(f"negative base support below σ: {text}")
        elif gfd_support(graph, gfd) != pipeline.supports.get(gfd):
            failures.append(f"oracle support differs from the mined one: {text}")
    return failures


def check_churn(sigma: Sequence[Any], units: Sequence[Any]) -> List[str]:
    """Last refresh ≡ a fresh standalone full validation of the same graph."""
    failures: List[str] = []
    for unit in units:
        if unit.failed:
            failures.append(f"{unit.failed} refreshes were not incremental")
        if not unit.outputs["full_violations"]:
            failures.append("full pass over the dirtied graph found no violation")
        if unit.counts["index_attaches"] != 1:
            failures.append("the persisted index did not attach exactly once")
    last = units[-1].outputs
    config = EnforcementConfig(backend="serial", max_violation_samples=None)
    with EnforcementEngine(last["graph"], sigma, config) as engine:
        expected = engine.validate()
    if _report_lines(expected) != _report_lines(last["report"]):
        failures.append("incremental report differs from a fresh full validation")
    return failures


def _replay_payload(base: Any, sigma: Sequence[Any], commit_log: Sequence[Any],
                    version: int) -> str:
    graph = base.copy()
    for batch in commit_log[:version]:
        apply_ops(graph, batch)
    with Session(graph) as session:
        session.set_sigma(list(sigma))
        payload = report_payload(session.enforce(), include_nodes=True,
                                 include_samples=True)
    return json.dumps(payload, sort_keys=True)


def check_served(base: Any, sigma: Sequence[Any], units: Sequence[Any],
                 rng: random.Random) -> List[str]:
    """Replay identity on sampled versions, no leaks, commits are grouped."""
    failures: List[str] = []
    for unit in units:
        out = unit.outputs
        if unit.failed:
            failures.append(f"{unit.failed} requests failed or were rejected")
        for leak in ("leaked_leases", "leaked_segments", "leaked_mappings"):
            if out[leak]:
                failures.append(f"{out[leak]} {leak.replace('_', ' ')}")
        commits, mutations = unit.counts["serve.commits"], unit.counts["serve.mutations"]
        if mutations and commits >= mutations:
            failures.append(f"no batching: {commits} commits for {mutations} mutations")
    out = units[-1].outputs
    responses: Dict[int, List[Dict[str, Any]]] = {}
    for response in out["load"].validate_responses:
        responses.setdefault(response["version"], []).append(response)
    if not responses:
        return failures + ["the load run produced no validate response"]
    versions = rng.sample(sorted(responses), min(REPLAY_VERSIONS, len(responses)))
    for version in versions:
        truth = _replay_payload(base, sigma, out["commit_log"], version)
        for response in responses[version]:
            served = {key: value for key, value in response.items()
                      if key not in ("kind", "version", "graph_version")}
            if json.dumps(served, sort_keys=True) != truth:
                failures.append(f"validate at version {version} differs from replay")
                break
    return failures
