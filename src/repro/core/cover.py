"""``SeqCover`` — sequential cover computation (Section 5.2).

A *cover* ``Σ_c ⊆ Σ`` satisfies: ``G ⊨ Σ_c``, ``Σ_c ≡ Σ``, all GFDs minimum,
and ``Σ_c`` minimal (no member implied by the others).  Following the
classical relational procedure (and the paper's SeqCover): repeatedly test
``Σ \\ {φ} ⊨ φ`` via the closure characterization and drop redundant GFDs
until a fixpoint.  The scan order is deterministic (larger GFDs first, so
the cover prefers small general rules over large specific ones).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import List, Sequence, Set

from ..gfd.gfd import GFD
from ..gfd.implication import ImplicationChecker

__all__ = ["CoverResult", "sequential_cover"]


@dataclass
class CoverResult:
    """Outcome of a cover computation."""

    cover: List[GFD]
    removed: List[GFD] = field(default_factory=list)
    implication_tests: int = 0
    elapsed_seconds: float = 0.0

    @property
    def reduction_ratio(self) -> float:
        """Fraction of the input eliminated as redundant."""
        total = len(self.cover) + len(self.removed)
        return len(self.removed) / total if total else 0.0


def _scan_order(sigma: Sequence[GFD]) -> List[int]:
    """Indices ordered so the most specific GFDs are tested (dropped) first."""
    return sorted(
        range(len(sigma)),
        key=lambda index: (
            -sigma[index].pattern.num_edges,
            -len(sigma[index].lhs),
            str(sigma[index]),
        ),
    )


def sequential_cover(sigma: Sequence[GFD]) -> CoverResult:
    """Compute a cover of ``Σ`` by leave-one-out implication testing.

    The procedure is sound for any order because implication is monotone in
    ``Σ``: once ``Σ' ⊨ φ`` with ``Σ' ⊆ Σ \\ {φ}``, removing other redundant
    GFDs later keeps a derivation as long as removal is always justified
    against the *current* remainder — which is what the loop tests.
    """
    started = time.perf_counter()
    sigma = list(sigma)
    # one checker over Σ serves every leave-one-out test: the dead rules and
    # the tested one are excluded per call, the rest chase in Σ order
    checker = ImplicationChecker(sigma)
    checker.instantiate(gfd.pattern for gfd in sigma)
    dead: Set[int] = set()
    removed: List[GFD] = []
    for index in _scan_order(sigma):
        if checker.implies(sigma[index], exclude=dead | {index}):
            dead.add(index)
            removed.append(sigma[index])
    cover = [gfd for index, gfd in enumerate(sigma) if index not in dead]
    return CoverResult(
        cover=cover,
        removed=removed,
        implication_tests=len(sigma),
        elapsed_seconds=time.perf_counter() - started,
    )
