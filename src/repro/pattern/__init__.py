"""Graph patterns, canonical forms, matching and embeddings."""

from .canonical import (
    are_isomorphic,
    canonical_key,
    canonical_ordering,
    canonicalize,
    pivot_blind_key,
)
from .embedding import embedding_batch, embeddings, embeds_strictly, is_embedded
from .incremental import Extension, apply_extension, extend_match, extend_matches
from .matcher import (
    Match,
    count_matches,
    find_matches,
    has_match,
    match_array,
    match_exists_at_pivot,
    pivot_image,
)
from .pattern import WILDCARD, Pattern, PatternEdge, label_matches, variable_name

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
    "count_matches",
    "pivot_image",
    "has_match",
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
