"""The paper's primary contribution: GFD discovery and cover computation."""

from .config import DiscoveryConfig, EnforcementConfig, FaultConfig
from .cover import CoverResult, sequential_cover
from .discovery import SequentialDiscovery, discover
from .generation_tree import GenerationTree, TreeNode
from .match_table import MatchTable
from .reduction import (
    gfd_identity,
    gfd_reduces,
    minimal_cover_by_reduction,
    normalize_gfd,
)
from .results import DiscoveryResult, MiningStats
from .support import (
    correlation,
    gfd_support,
    gfd_support_any,
    negative_base_support,
    pattern_support,
    support_set,
)

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
    "correlation",
    "negative_base_support",
]
