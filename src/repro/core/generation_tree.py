"""The GFD generation tree (Section 5.1, Figure 2).

The tree controls candidate generation: level ``i`` holds one node per
(isomorphism class of) pattern with ``i`` edges; a node stores the pattern,
its verified matches (as a :class:`~repro.core.match_table.MatchTable`), its
support ``|Q(G, z)|``, the parent set ``P(Q)`` (Section 5.1's bookkeeping
used later by ``ParCover`` grouping), and the literal-mining state:

* ``valid_pairs`` — the ``(X, l)`` dependencies verified to hold at this
  pattern (used by Lemma 4(b) and pattern-reduction pruning), and
* ``covered`` — pairs already valid at an ancestor pattern, which must not
  be re-emitted here (they would not be *pattern-reduced*).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from ..gfd.literals import Literal
from ..pattern.canonical import CanonicalKey, canonical_key
from ..pattern.pattern import Pattern
from .match_table import MatchTable

__all__ = ["TreeNode", "GenerationTree", "DependencyPair"]

#: A dependency at a pattern: (LHS literal set, RHS literal).
DependencyPair = Tuple[FrozenSet[Literal], Literal]


@dataclass
class TreeNode:
    """One pattern in the generation tree.

    ``table`` holds the verified matches under the dict-adjacency oracle
    only; ``ParDis`` keeps the rows in the workers' shards and leaves it
    ``None`` on every node, on every backend.
    """

    pattern: Pattern
    key: CanonicalKey
    level: int
    table: Optional[MatchTable] = None
    support: int = 0
    parents: List["TreeNode"] = field(default_factory=list)
    valid_pairs: Set[DependencyPair] = field(default_factory=set)
    covered: Set[DependencyPair] = field(default_factory=set)
    exhausted: bool = False

    @property
    def frequent(self) -> bool:
        """Whether the pattern itself clears zero support (has matches)."""
        return self.support > 0


class GenerationTree:
    """Levelwise container of :class:`TreeNode`, deduplicated by canonical key.

    Levels are indexed by pattern size (number of edges).
    """

    def __init__(self) -> None:
        self._levels: List[List[TreeNode]] = []
        self._by_key: Dict[CanonicalKey, TreeNode] = {}

    # ------------------------------------------------------------------
    def level(self, index: int) -> List[TreeNode]:
        """The nodes at level ``index`` (empty list when absent)."""
        if index < len(self._levels):
            return self._levels[index]
        return []

    def all_nodes(self) -> List[TreeNode]:
        """Every node, level by level."""
        return [node for level in self._levels for node in level]

    def find(self, pattern: Pattern) -> Optional[TreeNode]:
        """The node for ``pattern``'s isomorphism class, if spawned."""
        return self._by_key.get(canonical_key(pattern))

    # ------------------------------------------------------------------
    def add(
        self,
        pattern: Pattern,
        level: int,
        parent: Optional[TreeNode] = None,
    ) -> Tuple[TreeNode, bool]:
        """Insert ``pattern`` at ``level`` or merge into its iso class.

        Returns ``(node, created)``.  When an isomorphic node already exists
        (``iso(Q)`` of Section 5.1), the parent link is merged into ``P(Q)``
        and no new node is created.
        """
        key = canonical_key(pattern)
        node = self._by_key.get(key)
        if node is not None:
            if parent is not None and parent not in node.parents:
                node.parents.append(parent)
            return node, False
        node = TreeNode(pattern=pattern, key=key, level=level)
        if parent is not None:
            node.parents.append(parent)
            # inherit pattern-reduction knowledge along the primary parent;
            # literal indices carry over because extensions preserve the
            # parent's variable numbering.
            node.covered = set(parent.covered) | set(parent.valid_pairs)
        while len(self._levels) <= level:
            self._levels.append([])
        self._levels[level].append(node)
        self._by_key[key] = node
        return node, True

    def __len__(self) -> int:
        return len(self._by_key)
