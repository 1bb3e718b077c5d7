"""Result containers for discovery runs."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..gfd.gfd import GFD
from .generation_tree import GenerationTree

__all__ = ["MiningStats", "DiscoveryResult"]


@dataclass
class MiningStats:
    """Counters describing a discovery run (used by benches and ablations)."""

    patterns_spawned: int = 0
    patterns_frequent: int = 0
    patterns_zero_support: int = 0
    candidates_checked: int = 0
    positives_found: int = 0
    negatives_found: int = 0
    truncated_patterns: int = 0
    elapsed_seconds: float = 0.0
    matching_seconds: float = 0.0
    validation_seconds: float = 0.0


@dataclass
class DiscoveryResult:
    """The output of (sequential or parallel) GFD discovery.

    Attributes:
        gfds: the minimum σ-frequent GFDs found (positive and negative).
        supports: ``supp(φ, G)`` per discovered GFD (negatives report their
            base support, Section 4.2).
        stats: run counters.
        tree: the generation tree (kept for ``ParCover`` grouping and for
            inspection; ``None`` when the caller dropped it).  Only the
            sequential engine's nodes carry match tables — a ``ParDis``
            tree has patterns, supports and parent links, no rows.
    """

    gfds: List[GFD] = field(default_factory=list)
    supports: Dict[GFD, int] = field(default_factory=dict)
    stats: MiningStats = field(default_factory=MiningStats)
    tree: Optional[GenerationTree] = None

    @property
    def positives(self) -> List[GFD]:
        """The positive GFDs."""
        return [gfd for gfd in self.gfds if gfd.is_positive]

    @property
    def negatives(self) -> List[GFD]:
        """The negative GFDs."""
        return [gfd for gfd in self.gfds if gfd.is_negative]

    def average_support(self) -> float:
        """Mean support over all discovered GFDs (Figure 6's "avg. support")."""
        if not self.gfds:
            return 0.0
        return sum(self.supports.get(gfd, 0) for gfd in self.gfds) / len(self.gfds)

    def sorted_by_support(self) -> List[GFD]:
        """GFDs ordered by decreasing support (stable by textual form)."""
        return sorted(
            self.gfds,
            key=lambda gfd: (-self.supports.get(gfd, 0), str(gfd)),
        )
