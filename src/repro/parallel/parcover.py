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
from typing import Dict, List, Sequence, Set, Tuple

from ..core.cover import CoverResult, _scan_order
from ..gfd.gfd import GFD
from ..gfd.implication import ImplicationChecker
from ..pattern.canonical import pivot_blind_key
from ..pattern.embedding import DistinctPatterns, embedding_batch
from .backend import ExecutionBackend, next_node_key
from .balancer import assign_units_lpt

__all__ = ["parallel_cover", "parallel_cover_ungrouped"]


def _group_sigma(sigma: Sequence[GFD]) -> Dict[Tuple, List[int]]:
    """Partition GFD indices by pattern isomorphism ignoring the pivot."""
    groups: Dict[Tuple, List[int]] = {}
    for index, gfd in enumerate(sigma):
        groups.setdefault(pivot_blind_key(gfd.pattern), []).append(index)
    return groups


def _embedded_indices(
    sigma: Sequence[GFD], groups: Sequence[List[int]]
) -> List[List[int]]:
    """Per group, the indices of GFDs whose pattern embeds into the
    pattern ``Q`` of its first member (its representative).

    This is ``Σ̄_Q`` of Lemma 6 — the only GFDs that can participate in a
    derivation over ``Q``.  Embedding is decided per distinct pattern of
    ``Σ``, for every group in one kernel call, and expanded to the rules
    carrying it.
    """
    patterns = DistinctPatterns(gfd.pattern for gfd in sigma)
    representatives = [sigma[group[0]].pattern for group in groups]
    candidates = patterns.may_embed_into(representatives)
    found = iter(embedding_batch(
        (
            (patterns.patterns[slot], representative, False)
            for representative, slots in zip(representatives, candidates)
            for slot in slots
        ),
        max_results=1,
    ))
    embedded_sets: List[List[int]] = []
    for group, slots in zip(groups, candidates):
        embedded = set(group)
        for slot in slots:
            if next(found):
                embedded.update(patterns.members[slot])
        embedded_sets.append(sorted(embedded))
    return embedded_sets


class _CoverSession:
    """One cover run's ``Σ`` slot on a borrowed backend.

    The caller keeps ownership of ``backend``; on exit only this run's
    ``Σ`` slot is dropped.
    """

    def __init__(self, backend: ExecutionBackend) -> None:
        self.backend = backend
        self.num_workers = backend.num_workers
        self.key = next_node_key()

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
        results = self.backend.run_superstep(sigma_requests + requests)
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
    sigma: Sequence[GFD], backend: ExecutionBackend
) -> CoverResult:
    """Compute a cover of ``Σ`` with grouping + LPT balancing (``ParCover``).

    Args:
        sigma: the rule set to reduce.
        backend: a started :class:`~repro.parallel.backend.ExecutionBackend`
            (the caller keeps ownership); its worker count is ``n``.

    Work units are balanced by LPT over the paper's static weights
    ``|group| × |embedded|`` (a group always embeds itself) — what the
    backend's :class:`~repro.parallel.backend.WorkLedger` counts as
    ``implication_units``.  The cover is identical across backends and
    worker counts.
    """
    started = time.perf_counter()
    sigma = list(sigma)
    with _CoverSession(backend) as session:
        with backend.tracer.span("master", "master"):
            groups = _group_sigma(sigma)
            ordered = [groups[group_key] for group_key in sorted(groups)]
            units: List[Tuple[List[int], List[int]]] = list(
                zip(ordered, _embedded_indices(sigma, ordered))
            )
            weights = [len(group) * len(embedded) for group, embedded in units]
            assignment = assign_units_lpt(weights, session.num_workers)
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

    cover = [gfd for index, gfd in enumerate(sigma) if index not in removed_indices]
    removed = [sigma[index] for index in sorted(removed_indices)]
    return CoverResult(
        cover=cover,
        removed=removed,
        implication_tests=len(sigma),
        elapsed_seconds=time.perf_counter() - started,
    )


def parallel_cover_ungrouped(
    sigma: Sequence[GFD], backend: ExecutionBackend
) -> CoverResult:
    """``ParCovern``: leave-one-out checks against the *full* set, no groups.

    Mutual-implication pairs are resolved by a deterministic tie-break: a
    GFD is only removed when it is implied by the remainder *after* removing
    every GFD that precedes it in the scan order and was itself removed —
    matching the sequential semantics, but paying full-``Σ`` embedding
    enumeration per test, distributed round-robin over the workers
    (``op_cover_probe``).  ``backend`` is borrowed as in
    :func:`parallel_cover`.
    """
    started = time.perf_counter()
    sigma = list(sigma)
    with _CoverSession(backend) as session:
        with backend.tracer.span("master", "master"):
            order = _scan_order(sigma)
        # Distribute tests in scan-order round-robin.  Each worker evaluates
        # its share against the full Σ minus the candidate (the expensive
        # part); the master then reconciles mutual implications sequentially
        # (cheap — implication verdicts are reused, only chains re-check).
        verdicts: Dict[int, bool] = {}
        if sigma:
            assignments: List[List[int]] = [
                [] for _ in range(session.num_workers)
            ]
            for position, index in enumerate(order):
                assignments[position % session.num_workers].append(index)
            requests = [
                (worker, "cover_probe", session.key, {"indices": indices})
                for worker, indices in enumerate(assignments)
            ]
            for part in session.run_with_sigma(sigma, requests):
                for index, verdict in part:
                    verdicts[index] = verdict

        removed_indices: Set[int] = set()
        with backend.tracer.span("master", "master"):
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
    return CoverResult(
        cover=cover,
        removed=removed,
        implication_tests=len(sigma),
        elapsed_seconds=time.perf_counter() - started,
    )
