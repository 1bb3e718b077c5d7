"""The identity of a GFD up to a pivot-preserving renaming of its variables.

Two emissions of one rule over different numberings of the same pattern
are one rule: :func:`gfd_identity` keys them alike, which is how the
discovery engine deduplicates its emissions.  The ``≪`` ordering of
Section 4.1 and the pairwise minimality filter over a completed set live
in the oracle (:mod:`repro.oracle.reduction`): the engine emits only
reduced GFDs, so no product path needs them.
"""

from __future__ import annotations

from typing import Tuple

from ..gfd.gfd import GFD
from ..gfd.literals import rename_literal
from ..pattern.canonical import canonical_key, canonical_ordering

__all__ = ["gfd_identity"]


def gfd_identity(gfd: GFD) -> Tuple:
    """A hashable identity key: equal iff the normalized GFDs are equal.

    It is the oracle's :func:`~repro.oracle.reduction.normalize_gfd` as a
    key — the pattern's canonical key and the literals renamed onto the
    canonical ordering — read from the canonical form kept on the pattern,
    without building the normalized pattern.
    """
    ordering = canonical_ordering(gfd.pattern)
    position = [0] * len(ordering)
    for new, old in enumerate(ordering):
        position[old] = new
    return (
        canonical_key(gfd.pattern),
        frozenset(rename_literal(l, position) for l in gfd.lhs),
        rename_literal(gfd.rhs, position),
    )
