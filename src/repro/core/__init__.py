"""The paper's primary contribution: GFD discovery and cover computation."""

from .config import DiscoveryConfig, EnforcementConfig, FaultConfig
from .cover import CoverResult
from .discovery import discover
from .generation_tree import GenerationTree, TreeNode
from .match_table import MatchTable
from .reduction import gfd_identity
from .results import DiscoveryResult, MiningStats

#: Names of :mod:`repro.oracle` this package re-exports.
_ORACLE_EXPORTS = {
    "SequentialDiscovery",
    "sequential_cover",
    "pattern_support",
    "support_set",
    "gfd_support",
    "gfd_support_any",
    "negative_base_support",
    "gfd_reduces",
    "normalize_gfd",
    "minimal_cover_by_reduction",
}

__all__ = [
    "DiscoveryConfig",
    "EnforcementConfig",
    "FaultConfig",
    "DiscoveryResult",
    "MiningStats",
    "CoverResult",
    "SequentialDiscovery",
    "GenerationTree",
    "TreeNode",
    "MatchTable",
    "discover",
    "sequential_cover",
    "gfd_reduces",
    "gfd_identity",
    "normalize_gfd",
    "minimal_cover_by_reduction",
    "pattern_support",
    "support_set",
    "gfd_support",
    "gfd_support_any",
    "negative_base_support",
]


def __getattr__(name: str):
    """The oracle's public names, re-exported from :mod:`repro.oracle` on
    first use (the oracle is built on this package's modules)."""
    if name in _ORACLE_EXPORTS:
        from .. import oracle

        return getattr(oracle, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
