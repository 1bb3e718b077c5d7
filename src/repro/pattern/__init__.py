"""Graph patterns, canonical forms, matching and embeddings."""

from .canonical import (
    are_isomorphic,
    canonical_key,
    canonical_ordering,
    canonicalize,
    pivot_blind_key,
)
from .embedding import embedding_batch, is_embedded
from .incremental import Extension, apply_extension, extend_matches
from .matcher import Match, find_matches, match_array
from .pattern import WILDCARD, Pattern, PatternEdge, label_matches, variable_name

#: Names of :mod:`repro.oracle` this package re-exports.
_ORACLE_EXPORTS = {
    "pivot_image",
    "match_exists_at_pivot",
    "extend_match",
    "embeddings",
    "embeds_strictly",
}

__all__ = [
    "WILDCARD",
    "Pattern",
    "PatternEdge",
    "Match",
    "Extension",
    "label_matches",
    "variable_name",
    "find_matches",
    "match_array",
    "pivot_image",
    "match_exists_at_pivot",
    "canonical_key",
    "canonical_ordering",
    "canonicalize",
    "pivot_blind_key",
    "are_isomorphic",
    "embeddings",
    "embedding_batch",
    "is_embedded",
    "embeds_strictly",
    "apply_extension",
    "extend_match",
    "extend_matches",
]


def __getattr__(name: str):
    """The oracle's public names, re-exported from :mod:`repro.oracle` on
    first use (the oracle is built on this package's modules)."""
    if name in _ORACLE_EXPORTS:
        from .. import oracle

        return getattr(oracle, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
