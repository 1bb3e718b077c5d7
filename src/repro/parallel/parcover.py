"""``ParCover`` — parallel cover computation (Section 6.3, Figure 4).

``Σ`` is partitioned into *groups* of GFDs with isomorphic patterns.  By the
independence property (Lemma 6), whether ``Σ \\ {φ} ⊨ φ`` only depends on
``Σ̄_Q`` — the GFDs whose patterns are *embedded* in ``φ``'s pattern — so
each group can be checked in isolation against its embedded set, in parallel
across groups.  Work units (group, embedded set) are distributed over the
workers with the LPT factor-2 balancing the paper cites ([4]).

Grouping is by pattern isomorphism *ignoring pivots*: implication is
pivot-blind, so two GFDs equal up to re-pivoting imply each other and must
be resolved greedily inside one unit (keeping one), never independently
(dropping both).

``ParCovern`` — the paper's no-grouping baseline — checks every GFD against
the full remainder, which re-enumerates embeddings of all of ``Σ`` for every
test; the grouping speedup of Exp-4 comes precisely from skipping that.

Execution runs on the same :class:`~repro.parallel.backend.ShardWorker` op
layer as ``ParDis`` and enforcement: the master broadcasts ``Σ`` once
(``op_sigma``), ships work units as index lists, and receives removed
indices / implication verdicts — scalars.  Both variants borrow a started
:class:`~repro.parallel.backend.ExecutionBackend` — a session's, so the
cover phase shards over the same worker pools as discovery, or a
graph-free one (implication needs no graph) — and take the worker count
from it; the caller keeps ownership.  Covers are identical across backends
and worker counts by construction (unit checks are deterministic and
independent); the differential harness asserts it.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..core.cover import CoverResult, _scan_order
from ..gfd.gfd import GFD
from ..gfd.implication import ImplicationChecker
from ..pattern.canonical import canonical_key
from ..pattern.embedding import DistinctPatterns, is_embedded
from ..pattern.pattern import Pattern
from .backend import ExecutionBackend, next_node_key
from .balancer import assign_units_lpt
from .cluster import SimulatedCluster

__all__ = ["parallel_cover", "parallel_cover_ungrouped"]


def _pattern_group_key(pattern: Pattern) -> Tuple:
    """Isomorphism key ignoring the pivot (min over pivot placements)."""
    return min(
        canonical_key(pattern.with_pivot(variable))
        for variable in pattern.variables()
    )


def _group_sigma(sigma: Sequence[GFD]) -> Dict[Tuple, List[int]]:
    """Partition GFD indices by pattern-isomorphism class."""
    groups: Dict[Tuple, List[int]] = {}
    for index, gfd in enumerate(sigma):
        groups.setdefault(_pattern_group_key(gfd.pattern), []).append(index)
    return groups


def _embedded_indices(
    patterns: DistinctPatterns, representative: Pattern, group: List[int]
) -> List[int]:
    """Indices of GFDs whose pattern embeds into ``representative``.

    This is ``Σ̄_Q`` of Lemma 6 — the only GFDs that can participate in a
    derivation over ``representative``'s pattern.  Embedding is decided per
    distinct pattern of ``Σ`` and expanded to the rules carrying it.
    """
    embedded = set(group)
    for slot in patterns.may_embed_into(representative):
        if is_embedded(
            patterns.patterns[slot], representative, pivot_preserving=False
        ):
            embedded.update(patterns.members[slot])
    return sorted(embedded)


class _CoverSession:
    """One cover run's ``Σ`` slot on a borrowed backend.

    The caller keeps ownership of ``backend``; on exit only this run's
    ``Σ`` slot is dropped.  ``cluster`` (default: a fresh one sized to the
    backend) meters the run and must match the backend's worker count.
    """

    def __init__(
        self, backend: ExecutionBackend, cluster: Optional[SimulatedCluster]
    ) -> None:
        if cluster is not None and cluster.num_workers != backend.num_workers:
            raise ValueError(
                f"backend has {backend.num_workers} workers but the cluster "
                f"has {cluster.num_workers}"
            )
        self.backend = backend
        self.cluster = cluster or SimulatedCluster(backend.num_workers)
        self.key = next_node_key()

    @property
    def num_workers(self) -> int:
        return self.cluster.num_workers

    def run_with_sigma(self, sigma: Sequence[GFD], requests: List) -> List:
        """Ship ``Σ`` and run the cover work units in one superstep.

        The Σ broadcast (the only bulk transfer) rides the same BSP round —
        and, per worker, the same submission — as the work ops.  Op order
        per worker is preserved, so Σ lands before the unit batch.
        """
        sigma_requests = [
            (worker, "sigma", self.key, {"sigma": list(sigma)})
            for worker in range(self.num_workers)
        ]
        with self.cluster.superstep() as step:
            step.broadcast(len(sigma))
            results = self.backend.run_superstep(
                step, sigma_requests + requests
            )
        return results[len(sigma_requests):]

    def __enter__(self) -> "_CoverSession":
        return self

    def __exit__(self, *exc_info) -> None:
        self.backend.run_unmetered(
            [
                (worker, "drop_sigma", self.key, {})
                for worker in range(self.num_workers)
            ],
            wait=False,
        )


def parallel_cover(
    sigma: Sequence[GFD],
    backend: ExecutionBackend,
    cluster: Optional[SimulatedCluster] = None,
) -> Tuple[CoverResult, SimulatedCluster]:
    """Compute a cover of ``Σ`` with grouping + LPT balancing (``ParCover``).

    Args:
        sigma: the rule set to reduce.
        backend: a started :class:`~repro.parallel.backend.ExecutionBackend`
            (the caller keeps ownership); its worker count is ``n``.
        cluster: optionally supply a pre-built metered cluster.

    Work units are balanced by LPT over the paper's static weights
    ``|group| × max(1, |embedded|)``.  Returns ``(cover result, metered
    cluster)``; the cover is identical across backends and worker counts.
    """
    started = time.perf_counter()
    sigma = list(sigma)
    with _CoverSession(backend, cluster) as session:
        cluster = session.cluster
        with cluster.master():
            groups = _group_sigma(sigma)
            patterns = DistinctPatterns(gfd.pattern for gfd in sigma)
            units: List[Tuple[List[int], List[int]]] = []
            for group_key in sorted(groups):
                group = groups[group_key]
                representative = sigma[group[0]].pattern
                embedded = _embedded_indices(patterns, representative, group)
                units.append((group, embedded))
            weights = [
                len(group) * max(1, len(embedded)) for group, embedded in units
            ]
            assignment = assign_units_lpt(weights, cluster.num_workers)
        removed_indices: Set[int] = set()
        if sigma:
            requests = [
                (
                    worker,
                    "implication_batch",
                    session.key,
                    {"units": [units[unit_id] for unit_id in unit_ids]},
                )
                for worker, unit_ids in enumerate(assignment)
            ]
            for removed_part in session.run_with_sigma(sigma, requests):
                removed_indices.update(removed_part)
            cluster.ship_to_master(len(removed_indices))

    cover = [gfd for index, gfd in enumerate(sigma) if index not in removed_indices]
    removed = [sigma[index] for index in sorted(removed_indices)]
    result = CoverResult(
        cover=cover,
        removed=removed,
        implication_tests=len(sigma),
        elapsed_seconds=time.perf_counter() - started,
    )
    return result, cluster


def parallel_cover_ungrouped(
    sigma: Sequence[GFD],
    backend: ExecutionBackend,
    cluster: Optional[SimulatedCluster] = None,
) -> Tuple[CoverResult, SimulatedCluster]:
    """``ParCovern``: leave-one-out checks against the *full* set, no groups.

    Mutual-implication pairs are resolved by a deterministic tie-break: a
    GFD is only removed when it is implied by the remainder *after* removing
    every GFD that precedes it in the scan order and was itself removed —
    matching the sequential semantics, but paying full-``Σ`` embedding
    enumeration per test, distributed round-robin over the workers
    (``op_cover_probe``).  ``backend`` and ``cluster`` are borrowed as in
    :func:`parallel_cover`.
    """
    started = time.perf_counter()
    sigma = list(sigma)
    with _CoverSession(backend, cluster) as session:
        cluster = session.cluster
        with cluster.master():
            order = _scan_order(sigma)
        # Distribute tests in scan-order round-robin.  Each worker evaluates
        # its share against the full Σ minus the candidate (the expensive
        # part); the master then reconciles mutual implications sequentially
        # (cheap — implication verdicts are reused, only chains re-check).
        verdicts: Dict[int, bool] = {}
        if sigma:
            assignments: List[List[int]] = [
                [] for _ in range(cluster.num_workers)
            ]
            for position, index in enumerate(order):
                assignments[position % cluster.num_workers].append(index)
            requests = [
                (worker, "cover_probe", session.key, {"indices": indices})
                for worker, indices in enumerate(assignments)
            ]
            for part in session.run_with_sigma(sigma, requests):
                for index, verdict in part:
                    verdicts[index] = verdict
            cluster.ship_to_master(len(sigma))

        removed_indices: Set[int] = set()
        with cluster.master():
            for index in order:
                if not verdicts[index]:
                    continue
                remainder = [
                    gfd
                    for position, gfd in enumerate(sigma)
                    if position != index and position not in removed_indices
                ]
                if ImplicationChecker(remainder).implies(sigma[index]):
                    removed_indices.add(index)

    cover = [gfd for index, gfd in enumerate(sigma) if index not in removed_indices]
    removed = [sigma[index] for index in sorted(removed_indices)]
    result = CoverResult(
        cover=cover,
        removed=removed,
        implication_tests=len(sigma),
        elapsed_seconds=time.perf_counter() - started,
    )
    return result, cluster
