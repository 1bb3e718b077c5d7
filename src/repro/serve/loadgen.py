"""A mixed-traffic load generator for :class:`EnforcementService`.

Closed-loop clients (each waits for its response before issuing the next
request — the classic serving-benchmark model, so offered load adapts to
service capacity instead of open-loop overload) issue a seeded random mix
of validate / discover / cover / mutate requests directly against the
in-process service.  Latencies are recorded per request kind, and the
full run (every response's pinned version, every admission rejection) is
kept for replay-identity verification.
"""

from __future__ import annotations

import asyncio
import random
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from .service import (
    DeadlineExceeded,
    EnforcementService,
    ServiceOverloaded,
)
from .writer import MutationOp

__all__ = ["TrafficMix", "LoadResult", "run_load"]


@dataclass(frozen=True)
class TrafficMix:
    """Relative request-kind weights (need not sum to 1)."""

    validate: float = 0.80
    discover: float = 0.05
    cover: float = 0.05
    mutate: float = 0.10

    def choose(self, rng: random.Random) -> str:
        kinds = ("validate", "discover", "cover", "mutate")
        weights = (self.validate, self.discover, self.cover, self.mutate)
        return rng.choices(kinds, weights=weights, k=1)[0]


@dataclass
class LoadResult:
    """Everything a gate needs from one load run."""

    requests: int = 0
    errors: int = 0
    rejected_overload: int = 0
    rejected_deadline: int = 0
    elapsed_seconds: float = 0.0
    #: Per-kind latency samples, seconds.
    latencies: Dict[str, List[float]] = field(default_factory=dict)
    #: Per-kind completed-request counts.
    completed: Dict[str, int] = field(default_factory=dict)
    #: Every validate / discover / cover response (for replay-identity
    #: verification; kept out of ``repr``).
    validate_responses: List[Dict[str, Any]] = field(default_factory=list)
    discover_responses: List[Dict[str, Any]] = field(default_factory=list)
    cover_responses: List[Dict[str, Any]] = field(default_factory=list)
    #: Every mutate response's published version.
    mutate_versions: List[int] = field(default_factory=list)

    def __repr__(self) -> str:
        # bounded: ``asyncio.run`` can repr its main task's result on exit
        # (through ``signal.getsignal``), and a full repr of every response
        # costs seconds and tens of MiB on a long run
        return (
            f"LoadResult(requests={self.requests}, errors={self.errors}, "
            f"rejected_overload={self.rejected_overload}, "
            f"rejected_deadline={self.rejected_deadline}, "
            f"elapsed_seconds={self.elapsed_seconds:.3f}, "
            f"completed={dict(sorted(self.completed.items()))})"
        )

    @property
    def throughput(self) -> float:
        if self.elapsed_seconds <= 0:
            return 0.0
        return self.requests / self.elapsed_seconds


def _random_mutation(
    rng: random.Random, num_nodes: int, attrs: List[str]
) -> MutationOp:
    """A benign random mutation (attribute churn on existing nodes)."""
    node = rng.randrange(num_nodes)
    attr = rng.choice(attrs) if attrs else "name"
    return MutationOp(
        op="set_attr",
        args={"node": node, "attr": attr, "value": f"load-{rng.randrange(1_000_000)}"},
    )


async def run_load(
    service: EnforcementService,
    clients: int = 8,
    requests_per_client: int = 25,
    mix: Optional[TrafficMix] = None,
    seed: int = 7,
    mutation_attrs: Optional[List[str]] = None,
    discover_budget: int = 10,
    deadline_s: Optional[float] = None,
) -> LoadResult:
    """Drive ``clients`` concurrent closed-loop clients; gather stats.

    Deterministic per seed in *what* is issued (each client derives its
    own ``random.Random(seed + client)``) though not in interleaving —
    which is the point: the replay-identity check must hold for every
    interleaving the scheduler produces.
    """
    mix = mix if mix is not None else TrafficMix()
    attrs = mutation_attrs if mutation_attrs is not None else ["name"]
    num_nodes = service.graph.num_nodes
    result = LoadResult()
    lock = asyncio.Lock()

    async def record(kind: str, seconds: float, payload: Any) -> None:
        async with lock:
            result.requests += 1
            result.completed[kind] = result.completed.get(kind, 0) + 1
            result.latencies.setdefault(kind, []).append(seconds)
            if kind == "validate":
                result.validate_responses.append(payload)
            elif kind == "discover":
                result.discover_responses.append(payload)
            elif kind == "cover":
                result.cover_responses.append(payload)
            else:
                result.mutate_versions.append(payload["version"])

    async def client(client_id: int) -> None:
        rng = random.Random(seed + client_id)
        for _ in range(requests_per_client):
            kind = mix.choose(rng)
            started = time.perf_counter()
            try:
                if kind == "validate":
                    payload = await service.validate(
                        include_nodes=True, include_samples=True
                    )
                elif kind == "discover":
                    payload = await service.discover(
                        max_rules=discover_budget, deadline_s=deadline_s
                    )
                elif kind == "cover":
                    payload = await service.cover(deadline_s=deadline_s)
                else:
                    payload = await service.mutate(
                        [_random_mutation(rng, num_nodes, attrs)],
                        deadline_s=deadline_s,
                    )
            except ServiceOverloaded:
                async with lock:
                    result.rejected_overload += 1
                continue
            except DeadlineExceeded:
                async with lock:
                    result.rejected_deadline += 1
                continue
            except Exception:
                async with lock:
                    result.errors += 1
                continue
            await record(kind, time.perf_counter() - started, payload)

    started = time.perf_counter()
    await asyncio.gather(*(client(i) for i in range(clients)))
    result.elapsed_seconds = time.perf_counter() - started
    return result
