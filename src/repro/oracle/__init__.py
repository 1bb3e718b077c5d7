"""Reference oracles: the slow, plain statement of every fast path.

Each product layer has one fast path over the frozen CSR index; each has
one oracle here, over the mutable dict :class:`~repro.graph.graph.Graph`,
that tests and the paper-figure sweeps compare it against:

* matching — :func:`reference_matches` (backtracking),
  :func:`extend_match` / :func:`reference_extend_matches`,
  :func:`pivot_image`, for ``repro.pattern.find_matches`` /
  ``extend_matches``;
* embeddings — :func:`embeddings`, for ``embedding_batch``;
* match tables — :class:`ReferenceTable` and the ``Counter`` alphabet, for
  ``repro.core.MatchTable``;
* the ``VSpawn`` tally — :func:`extension_statistics` /
  :func:`counts_from_statistics`, for ``extension_counts``;
* discovery — :class:`SequentialDiscovery` / :func:`reference_discover`,
  for ``ParDis``;
* reduction — :func:`embeds_strictly`, :func:`gfd_reduces` and
  :func:`minimal_cover_by_reduction` (the pairwise ``≪``-filter
  ``SequentialDiscovery`` ends with), for the reduced-at-emission
  ``ParDis``;
* validation — :func:`find_violations` and the ``satisfies_*`` family, for
  the enforcement engine;
* support — :func:`pattern_support`, :func:`gfd_support`, … by re-matching;
* cover — :func:`sequential_cover` (``SeqCover``), for ``ParCover``.

Product modules never import this package; the package ``__init__``s
re-export the public names that were always part of the API
(``repro.gfd.find_violations``, ``repro.core.sequential_cover``, …).
"""

from .cover import sequential_cover
from .discovery import SequentialDiscovery, reference_discover
from .embedding import embeddings
from .matching import (
    extend_match,
    match_exists_at_pivot,
    pivot_image,
    reference_extend_matches,
    reference_matches,
)
from .reduction import (
    embeds_strictly,
    gfd_reduces,
    minimal_cover_by_reduction,
    normalize_gfd,
)
from .satisfaction import (
    find_violations,
    graph_satisfies,
    satisfies_all,
    satisfies_gfd,
    satisfies_literal,
    validate_set,
)
from .spawning import ExtensionStatistics, counts_from_statistics, extension_statistics
from .support import (
    gfd_support,
    gfd_support_any,
    negative_base_support,
    pattern_support,
    support_set,
)
from .table import ReferenceTable, constant_literals_from_counts

__all__ = [
    "reference_matches",
    "reference_extend_matches",
    "extend_match",
    "pivot_image",
    "match_exists_at_pivot",
    "embeddings",
    "ReferenceTable",
    "constant_literals_from_counts",
    "ExtensionStatistics",
    "extension_statistics",
    "counts_from_statistics",
    "SequentialDiscovery",
    "reference_discover",
    "satisfies_literal",
    "satisfies_all",
    "satisfies_gfd",
    "find_violations",
    "graph_satisfies",
    "validate_set",
    "pattern_support",
    "support_set",
    "gfd_support",
    "gfd_support_any",
    "negative_base_support",
    "sequential_cover",
    "embeds_strictly",
    "gfd_reduces",
    "normalize_gfd",
    "minimal_cover_by_reduction",
]
