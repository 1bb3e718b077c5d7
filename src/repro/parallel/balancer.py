"""Load balancing strategies (Sections 6.2 and 6.3).

Two balancing problems arise:

* **match skew** in ``ParDis``: after an incremental join, one fragment may
  hold far more matches of ``Q'`` than the others ("if Q'(Fs) is skewed, we
  re-distribute Q'(Fs) evenly across workers").  :func:`rebalance_shards`
  moves items from overloaded shards to underloaded ones, returning the move
  counts so the cluster can charge communication.
* **unit assignment** in ``ParCover``: distribute weighted, indivisible work
  units over workers.  :func:`assign_units_lpt` implements the classic
  longest-processing-time greedy — the factor-2 approximation the paper
  cites ([4]).
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple, TypeVar

import numpy as np

__all__ = [
    "is_skewed",
    "rebalance_shards",
    "rebalance_pivot_groups",
    "rebalance_pivot_group_arrays",
    "assign_units_lpt",
]

T = TypeVar("T")


def is_skewed(sizes: Sequence[int], factor: float = 2.0) -> bool:
    """Whether the largest shard exceeds ``factor`` times the mean."""
    if not sizes:
        return False
    total = sum(sizes)
    if total == 0:
        return False
    mean = total / len(sizes)
    return max(sizes) > factor * mean


def rebalance_shards(shards: List[List[T]]) -> Tuple[List[List[T]], Dict[int, int]]:
    """Evenly re-distribute items across shards.

    Items move from the largest shards to the smallest until every shard
    holds ``⌈total/n⌉`` or ``⌊total/n⌋`` items.  Order within shards is
    preserved for determinism.

    Returns the new shards and ``moved[worker] = items received`` (for
    communication charging; senders are not charged — vertex-cut shipping
    costs land on receivers in our model, matching :class:`SimulatedCluster`).
    """
    num_shards = len(shards)
    total = sum(len(shard) for shard in shards)
    base, remainder = divmod(total, num_shards)
    targets = [base + (1 if index < remainder else 0) for index in range(num_shards)]

    surplus: List[T] = []
    new_shards: List[List[T]] = []
    for index, shard in enumerate(shards):
        if len(shard) > targets[index]:
            new_shards.append(shard[: targets[index]])
            surplus.extend(shard[targets[index]:])
        else:
            new_shards.append(list(shard))
    moved: Dict[int, int] = {}
    cursor = 0
    for index in range(num_shards):
        deficit = targets[index] - len(new_shards[index])
        if deficit > 0:
            new_shards[index].extend(surplus[cursor: cursor + deficit])
            moved[index] = deficit
            cursor += deficit
    return new_shards, moved


def rebalance_pivot_groups(
    shards: List[List[T]], pivot_var: int
) -> Tuple[List[List[T]], Dict[int, int]]:
    """Re-distribute matches across shards at *pivot granularity*.

    All matches sharing a pivot node move together, preserving the
    pivot-disjointness invariant that lets ``ParDis`` aggregate supports as
    integer sums (``supp(φ,G) = Σ_s supp(φ,F_s)``, Section 6.2).  Groups
    from overloaded shards migrate greedily to the least-loaded shards.

    Returns the new shards and ``moved[worker] = items received``.
    """
    num_shards = len(shards)
    loads = [len(shard) for shard in shards]
    total = sum(loads)
    target = total / num_shards if num_shards else 0.0

    # split each overloaded shard into pivot groups, peel off surplus groups
    surplus: List[List[T]] = []
    new_shards: List[List[T]] = []
    for index, shard in enumerate(shards):
        if loads[index] <= target or not shard:
            new_shards.append(list(shard))
            continue
        groups: Dict[object, List[T]] = {}
        for match in shard:
            groups.setdefault(match[pivot_var], []).append(match)
        kept: List[T] = []
        ordered_groups = sorted(groups.items(), key=lambda kv: str(kv[0]))
        for _, group in ordered_groups:
            if len(kept) + len(group) <= target or not kept:
                kept.extend(group)
            else:
                surplus.append(group)
        new_shards.append(kept)
    moved: Dict[int, int] = {}
    # hand surplus groups to the least-loaded shards
    surplus.sort(key=len, reverse=True)
    for group in surplus:
        worker = min(range(num_shards), key=lambda w: (len(new_shards[w]), w))
        new_shards[worker].extend(group)
        moved[worker] = moved.get(worker, 0) + len(group)
    return new_shards, moved


def rebalance_pivot_group_arrays(
    shards: List[np.ndarray], pivot_col: int
) -> Tuple[List[np.ndarray], Dict[int, int]]:
    """Array twin of :func:`rebalance_pivot_groups` for ``(N, vars)`` shards.

    Match shards on the vectorized (index) path are int64 arrays; moving
    rows through Python lists would dominate the rebalance.  Whole pivot
    groups (contiguous after a stable sort by the pivot column) migrate
    from overloaded shards to the least-loaded ones, preserving the
    pivot-disjointness invariant.

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
