"""Cover results and the cover's scan order (Section 5.2).

A *cover* ``Σ_c ⊆ Σ`` satisfies: ``G ⊨ Σ_c``, ``Σ_c ≡ Σ``, all GFDs minimum,
and ``Σ_c`` minimal (no member implied by the others).  ``ParCover``
(:mod:`repro.parallel.parcover`) computes it; ``SeqCover``
(:func:`repro.oracle.sequential_cover`) is its oracle.  Both test
``Σ \\ {φ} ⊨ φ`` in :func:`scan_order`: larger GFDs first, so the cover
prefers small general rules over large specific ones.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Sequence

from ..gfd.gfd import GFD

__all__ = ["CoverResult", "scan_order"]


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


def scan_order(sigma: Sequence[GFD]) -> List[int]:
    """Indices ordered so the most specific GFDs are tested (dropped) first."""
    return sorted(
        range(len(sigma)),
        key=lambda index: (
            -sigma[index].pattern.num_edges,
            -len(sigma[index].lhs),
            str(sigma[index]),
        ),
    )
