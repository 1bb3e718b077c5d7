"""Load balancing strategies (Sections 6.2 and 6.3).

Two balancing problems arise:

* **match skew** in ``ParDis``: after an incremental join, one fragment may
  hold far more matches of ``Q'`` than the others ("if Q'(Fs) is skewed, we
  re-distribute Q'(Fs) evenly across workers").
  :func:`rebalance_pivot_group_arrays` moves whole pivot groups from
  overloaded shards to underloaded ones, returning the move counts so the
  cluster can charge communication.
* **unit assignment** in ``ParCover``: distribute weighted, indivisible work
  units over workers.  :func:`assign_units_lpt` implements the classic
  longest-processing-time greedy — the factor-2 approximation the paper
  cites ([4]).
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

import numpy as np

__all__ = [
    "is_skewed",
    "rebalance_pivot_group_arrays",
    "assign_units_lpt",
]


def is_skewed(sizes: Sequence[int], factor: float = 2.0) -> bool:
    """Whether the largest shard exceeds ``factor`` times the mean."""
    if not sizes:
        return False
    total = sum(sizes)
    if total == 0:
        return False
    mean = total / len(sizes)
    return max(sizes) > factor * mean


def rebalance_pivot_group_arrays(
    shards: List[np.ndarray], pivot_col: int
) -> Tuple[List[np.ndarray], Dict[int, int]]:
    """Re-distribute ``(N, vars)`` int64 match shards at *pivot granularity*.

    All matches sharing a pivot node move together, preserving the
    pivot-disjointness invariant that lets ``ParDis`` aggregate supports as
    integer sums (``supp(φ,G) = Σ_s supp(φ,F_s)``, Section 6.2).  Whole
    pivot groups (contiguous after a stable sort by the pivot column)
    migrate from overloaded shards to the least-loaded ones, largest group
    first.

    Returns the new shards and ``moved[worker] = rows received``.
    """
    num_shards = len(shards)
    loads = [int(shard.shape[0]) for shard in shards]
    total = sum(loads)
    target = total / num_shards if num_shards else 0.0

    surplus: List[np.ndarray] = []
    new_shards: List[np.ndarray] = []
    for index, shard in enumerate(shards):
        if loads[index] <= target or loads[index] == 0:
            new_shards.append(shard)
            continue
        pivots = shard[:, pivot_col]
        order = np.argsort(pivots, kind="stable")
        ordered = shard[order]
        ordered_pivots = ordered[:, pivot_col]
        boundaries = np.flatnonzero(
            np.concatenate(([True], ordered_pivots[1:] != ordered_pivots[:-1]))
        )
        ends = np.concatenate((boundaries[1:], [ordered.shape[0]]))
        kept_parts: List[np.ndarray] = []
        kept = 0
        for start, end in zip(boundaries.tolist(), ends.tolist()):
            group = ordered[start:end]
            if kept + group.shape[0] <= target or not kept_parts:
                kept_parts.append(group)
                kept += group.shape[0]
            else:
                surplus.append(group)
        new_shards.append(
            np.concatenate(kept_parts) if kept_parts else shard[:0]
        )
    moved: Dict[int, int] = {}
    surplus.sort(key=lambda group: group.shape[0], reverse=True)
    for group in surplus:
        worker = min(
            range(num_shards), key=lambda w: (new_shards[w].shape[0], w)
        )
        new_shards[worker] = np.concatenate((new_shards[worker], group))
        moved[worker] = moved.get(worker, 0) + int(group.shape[0])
    return new_shards, moved


def assign_units_lpt(
    weights: Sequence[float], num_workers: int
) -> List[List[int]]:
    """Longest-processing-time assignment of weighted units to workers.

    Returns ``assignment[worker] = [unit indices]``; greedy LPT guarantees a
    makespan within 4/3 − 1/(3n) of optimal (≤ 2, the bound the paper cites).
    Ties are broken deterministically by unit index.
    """
    order = sorted(range(len(weights)), key=lambda index: (-weights[index], index))
    loads = [0.0] * num_workers
    assignment: List[List[int]] = [[] for _ in range(num_workers)]
    for unit in order:
        worker = min(range(num_workers), key=lambda w: (loads[w], w))
        assignment[worker].append(unit)
        loads[worker] += weights[unit]
    return assignment
