"""The GFD generation tree (Section 5.1, Figure 2).

The tree controls candidate generation: level ``i`` holds one node per
(isomorphism class of) pattern with ``i`` edges; a node stores the pattern,
its verified matches (as a :class:`~repro.core.match_table.MatchTable`), its
support ``|Q(G, z)|``, the parent set ``P(Q)`` (Section 5.1's bookkeeping
used later by ``ParCover`` grouping), and the literal-mining state:

* ``valid_pairs`` — the ``(X, l)`` dependencies verified to hold here
  (Lemma 4(b)), and under ``ParDis`` the negatives ``(Y, false)`` emitted
  here;
* ``covered`` — the pairs held along the primary parent chain, whose
  numbering the pattern extends: neither re-evaluated nor re-emitted;
* ``inherited`` — the pairs held at any parent, mapped through every
  pivot-preserving embedding (:meth:`GenerationTree.inherit`): ``ParDis``
  does not emit a rule whose LHS holds one for the same RHS, as the
  parent's rule is ``≪``-smaller.

Inheritance runs once per level, after the parents are mined.  A frequent
pattern without wildcards has all its one-edge-smaller sub-patterns as
parents, so inherited sets are complete the way TANE's ``C⁺`` sets are
(Huhtala et al., Comput. J. 1999): every held pair of every ancestor
reaches the pattern.  A wildcard pattern also reads its
:meth:`~GenerationTree.sub_patterns` and same-level
:meth:`~GenerationTree.generalizations`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from ..gfd.literals import Literal, rename_literal
from ..pattern.canonical import CanonicalKey, canonical_key
from ..pattern.embedding import Embedding, embedding_batch
from ..pattern.pattern import WILDCARD, Pattern
from .match_table import MatchTable

__all__ = ["TreeNode", "GenerationTree", "DependencyPair", "generality"]

#: A dependency at a pattern: (LHS literal set, RHS literal).
DependencyPair = Tuple[FrozenSet[Literal], Literal]


@dataclass(eq=False)
class TreeNode:
    """One pattern in the generation tree (nodes compare by identity).

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
    inherited: Set[DependencyPair] = field(default_factory=set)

    def absorb(self, source: "TreeNode", mappings: Sequence[Embedding]) -> None:
        """Add to ``inherited`` every pair ``source`` holds (its own
        ``inherited`` and ``valid_pairs``), mapped through each embedding of
        ``source``'s pattern into this one."""
        held = source.inherited | source.valid_pairs
        identity = tuple(range(source.pattern.num_nodes))
        for mapping in mappings:
            if mapping == identity:
                self.inherited |= held
                continue
            self.inherited.update(
                (
                    frozenset(rename_literal(l, mapping) for l in lhs),
                    rename_literal(rhs, mapping),
                )
                for lhs, rhs in held
            )


def _wildcards(pattern: Pattern) -> int:
    """How many node and edge labels of ``pattern`` are wildcards."""
    return pattern.labels.count(WILDCARD) + sum(
        edge.label == WILDCARD for edge in pattern.edges
    )


def generality(nodes: Sequence[TreeNode]) -> List[TreeNode]:
    """``nodes`` with more wildcard labels first, otherwise in order."""
    return sorted(nodes, key=lambda node: -_wildcards(node.pattern))


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
            # the primary parent's numbering carries over: an extension
            # keeps the parent's variables
            node.covered = parent.covered | parent.valid_pairs
        while len(self._levels) <= level:
            self._levels.append([])
        self._levels[level].append(node)
        self._by_key[key] = node
        return node, True

    def inherit(self, nodes: Sequence[TreeNode]) -> None:
        """Set ``inherited`` on patterns whose parents are mined.

        Every pair a parent holds is mapped through every pivot-preserving
        embedding of the parent into the child (:meth:`TreeNode.absorb`);
        the embeddings of all ``(parent, child)`` pairs come from one
        embedding-kernel call.  A child extends its primary parent's
        variable numbering, so the identity embedding reuses the parent's
        pairs as they are.  A wildcard node is spawned only where its
        prefix is label-diverse, so a pattern with a wildcard inherits from
        all its :meth:`sub_patterns`, parents or not.
        """
        links = []
        for node in nodes:
            sources = list(node.parents)
            if _wildcards(node.pattern):
                sources += [
                    sub for sub in self.sub_patterns(node) if sub not in sources
                ]
            links += [(node, s) for s in sources if s.inherited or s.valid_pairs]
        found = embedding_batch(
            (source.pattern, node.pattern, True) for node, source in links
        )
        for (node, source), mappings in zip(links, found):
            node.absorb(source, mappings)

    @staticmethod
    def generalizations(
        nodes: Sequence[TreeNode],
    ) -> Dict[TreeNode, List[Tuple[TreeNode, Tuple[Embedding, ...]]]]:
        """Per pattern of a level, the level's patterns of its shape with a
        wildcard where it has a label — ``≪``-smaller at the same size —
        with their pivot-preserving embeddings into it, from one
        embedding-kernel call.  Empty when no pattern has a wildcard.  A
        generalization has more wildcards, so deciding a level's patterns
        in :func:`generality` order decides it first.
        """
        general = [node for node in nodes if _wildcards(node.pattern)]
        pairs = [
            (wider, node)
            for node in nodes
            for wider in general
            if _wildcards(wider.pattern) > _wildcards(node.pattern)
            and wider.pattern.num_nodes == node.pattern.num_nodes
            and wider.pattern.num_edges == node.pattern.num_edges
        ]
        found = embedding_batch(
            (wider.pattern, node.pattern, True) for wider, node in pairs
        )
        links: Dict[TreeNode, List[Tuple[TreeNode, Tuple[Embedding, ...]]]] = {}
        for (wider, node), mappings in zip(pairs, found):
            if mappings:
                links.setdefault(node, []).append((wider, mappings))
        return links

    def sub_patterns(self, node: TreeNode) -> List[TreeNode]:
        """The tree's nodes for ``node``'s connected, pivot-keeping
        one-edge-smaller sub-patterns."""
        found: List[TreeNode] = []
        for index in range(node.pattern.num_edges):
            smaller = node.pattern.without_edge(index)
            sub = self.find(smaller) if smaller.is_connected() else None
            if sub is not None and sub not in found:
                found.append(sub)
        return found
