"""Baselines and ablations from the paper's evaluation (Section 7)."""

from .amie import (
    AmieMiner,
    AmieResult,
    AmieRule,
    Atom,
    mine_amie,
)
from .gcfd import discover_gcfd, discover_gcfd_parallel, is_path_pattern
from .pararab import ParArabResult, run_pararab
from .variants import (
    UnprunedRun,
    parallel_cover_ungrouped,
    run_pargfd_n,
)

__all__ = [
    "AmieMiner",
    "AmieResult",
    "AmieRule",
    "Atom",
    "mine_amie",
    "discover_gcfd",
    "discover_gcfd_parallel",
    "is_path_pattern",
    "ParArabResult",
    "run_pararab",
    "UnprunedRun",
    "run_pargfd_n",
    "parallel_cover_ungrouped",
]
