"""Graph patterns ``Q[x̄]`` with wildcards and a pivot (Section 2.1).

A pattern is a small directed graph whose nodes are the *variables* ``x̄``
(represented as dense integers ``0..n-1``); node and edge labels may be the
wildcard ``'_'``, which matches any label.  One variable is designated the
**pivot** ``z`` (Section 4.1): support is counted as the number of distinct
graph nodes the pivot maps to, and matching exploits the locality of the
pivot's ``d_Q``-neighborhood.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

__all__ = [
    "WILDCARD",
    "Match",
    "PatternEdge",
    "Pattern",
    "label_matches",
    "variable_name",
]

#: The wildcard label ``'_'``: matches any label in the alphabet.
WILDCARD = "_"

#: A match: graph node per pattern variable, indexed by variable.
Match = Tuple[int, ...]

#: Human-readable variable names for display, in pattern-variable order.
_VARIABLE_NAMES = "xyzuvwabcdefghijklmnopqrst"


def variable_name(index: int) -> str:
    """Display name for pattern variable ``index``: x, y, z, u, ..., x1, y1, ..."""
    base = len(_VARIABLE_NAMES)
    if index < base:
        return _VARIABLE_NAMES[index]
    return f"{_VARIABLE_NAMES[index % base]}{index // base}"


def label_matches(graph_label: str, pattern_label: str) -> bool:
    """The paper's ``⪯`` test: graph label matches pattern label or wildcard."""
    return pattern_label == WILDCARD or graph_label == pattern_label


@dataclass(frozen=True)
class PatternEdge:
    """A directed pattern edge ``src -[label]-> dst`` (label may be wildcard)."""

    src: int
    dst: int
    label: str

    def as_tuple(self) -> Tuple[int, int, str]:
        """The edge as a plain tuple."""
        return (self.src, self.dst, self.label)


class Pattern:
    """An immutable graph pattern with labeled nodes/edges and a pivot.

    Args:
        labels: node labels in variable order (``'_'`` for wildcard).
        edges: the pattern edges; duplicates are rejected.
        pivot: the designated pivot variable (defaults to variable 0).

    Patterns compare equal structurally (same labels, same edge set, same
    pivot) — use :mod:`repro.pattern.canonical` for equality up to
    isomorphism.

    Facts about one pattern are computed on first use and kept in slots of
    the instance, so they live exactly as long as the pattern: the
    adjacency, the hash and edge set here, the canonical form and the
    pivot-blind key (:mod:`repro.pattern.canonical`) and the label profile
    (:mod:`repro.pattern.embedding`).  Facts about a *pair* of patterns are
    never stored on either one.
    """

    __slots__ = (
        "labels",
        "edges",
        "pivot",
        "_adjacency",
        "_hash",
        "_edge_set",
        "_canonical",
        "_pivot_blind_key",
        "_profile",
    )

    def __init__(
        self,
        labels: Sequence[str],
        edges: Iterable[Tuple[int, int, str]] = (),
        pivot: int = 0,
    ) -> None:
        labels = tuple(labels)
        if not labels:
            raise ValueError("a pattern needs at least one node")
        if not 0 <= pivot < len(labels):
            raise ValueError(f"pivot {pivot} out of range for {len(labels)} nodes")
        edge_objects = []
        seen = set()
        for src, dst, label in edges:
            if not (0 <= src < len(labels) and 0 <= dst < len(labels)):
                raise ValueError(f"edge ({src},{dst}) references missing node")
            key = (src, dst, label)
            if key in seen:
                raise ValueError(f"duplicate pattern edge {key}")
            seen.add(key)
            edge_objects.append(PatternEdge(src, dst, label))
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "edges", tuple(edge_objects))
        object.__setattr__(self, "pivot", pivot)
        object.__setattr__(self, "_adjacency", None)
        object.__setattr__(self, "_hash", None)
        object.__setattr__(self, "_edge_set", None)
        object.__setattr__(self, "_canonical", None)
        object.__setattr__(self, "_pivot_blind_key", None)
        object.__setattr__(self, "_profile", None)

    # -- the frozen dance: slots + immutability ------------------------------
    def __setattr__(self, name: str, value) -> None:
        raise AttributeError("Pattern is immutable")

    def __reduce__(self):
        """Pickle as constructor arguments (the blocked ``__setattr__``
        breaks the default slot-state protocol); caches rebuild lazily."""
        return (
            Pattern,
            (self.labels, [edge.as_tuple() for edge in self.edges], self.pivot),
        )

    # ------------------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        """Number of pattern variables ``|x̄|``."""
        return len(self.labels)

    @property
    def num_edges(self) -> int:
        """Number of pattern edges (the *size*/level of the pattern)."""
        return len(self.edges)

    def variables(self) -> range:
        """All variable indices."""
        return range(len(self.labels))

    def edge_set(self) -> FrozenSet[Tuple[int, int, str]]:
        """The pattern edges as a frozen set of tuples (cached)."""
        cached = object.__getattribute__(self, "_edge_set")
        if cached is None:
            cached = frozenset(edge.as_tuple() for edge in self.edges)
            object.__setattr__(self, "_edge_set", cached)
        return cached

    def adjacency(self) -> Dict[int, List[Tuple[int, int, str, bool]]]:
        """Per variable: incident edges as ``(other, edge_index, label, is_out)``.

        Cached; used by the matcher to build search plans.
        """
        cached = object.__getattribute__(self, "_adjacency")
        if cached is not None:
            return cached
        adjacency: Dict[int, List[Tuple[int, int, str, bool]]] = {
            v: [] for v in self.variables()
        }
        for index, edge in enumerate(self.edges):
            adjacency[edge.src].append((edge.dst, index, edge.label, True))
            adjacency[edge.dst].append((edge.src, index, edge.label, False))
        object.__setattr__(self, "_adjacency", adjacency)
        return adjacency

    def is_connected(self) -> bool:
        """Whether every pair of variables is connected by an undirected path."""
        if self.num_nodes == 1:
            return True
        adjacency = self.adjacency()
        seen = {0}
        frontier = [0]
        while frontier:
            node = frontier.pop()
            for other, _, _, _ in adjacency[node]:
                if other not in seen:
                    seen.add(other)
                    frontier.append(other)
        return len(seen) == self.num_nodes

    # ------------------------------------------------------------------
    # derivation (used by spawning and the ``≪`` ordering)
    # ------------------------------------------------------------------
    def with_edge(self, src: int, dst: int, label: str) -> "Pattern":
        """A new pattern with one extra edge between existing variables."""
        return Pattern(
            self.labels,
            [edge.as_tuple() for edge in self.edges] + [(src, dst, label)],
            self.pivot,
        )

    def with_new_node(
        self, label: str, src: Optional[int], dst_is_new: bool, edge_label: str
    ) -> "Pattern":
        """A new pattern extended with a fresh node and one connecting edge.

        If ``dst_is_new`` the edge runs ``src -> new`` else ``new -> src``.
        """
        if src is None or not 0 <= src < self.num_nodes:
            raise ValueError("src must be an existing variable")
        new_index = self.num_nodes
        edge = (src, new_index, edge_label) if dst_is_new else (new_index, src, edge_label)
        return Pattern(
            self.labels + (label,),
            [e.as_tuple() for e in self.edges] + [edge],
            self.pivot,
        )

    def with_pivot(self, pivot: int) -> "Pattern":
        """The same pattern re-pivoted at ``pivot``."""
        return Pattern(self.labels, (e.as_tuple() for e in self.edges), pivot)

    def without_edge(self, index: int) -> "Pattern":
        """Remove edge ``index``, dropping any variable left isolated.

        Used to enumerate the ``≪``-smaller patterns and the *bases* of
        negative GFDs (Section 4.2).  Returns the reduced pattern and is only
        valid when the result stays connected and keeps the pivot; callers
        check :meth:`is_connected`.  Variables are re-indexed densely; the
        mapping old->new is returned alongside.
        """
        kept_edges = [
            edge.as_tuple() for position, edge in enumerate(self.edges)
            if position != index
        ]
        used: Set[int] = {self.pivot}
        for src, dst, _ in kept_edges:
            used.add(src)
            used.add(dst)
        ordered = sorted(used)
        remap = {old: new for new, old in enumerate(ordered)}
        pattern = Pattern(
            [self.labels[old] for old in ordered],
            [(remap[s], remap[d], l) for s, d, l in kept_edges],
            remap[self.pivot],
        )
        return pattern

    # ------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Pattern):
            return NotImplemented
        return (
            self.labels == other.labels
            and self.pivot == other.pivot
            and self.edge_set() == other.edge_set()
        )

    def __hash__(self) -> int:
        cached = object.__getattribute__(self, "_hash")
        if cached is None:
            cached = hash((self.labels, self.pivot, self.edge_set()))
            object.__setattr__(self, "_hash", cached)
        return cached

    def __repr__(self) -> str:
        nodes = ",".join(
            f"{variable_name(v)}:{label}" for v, label in enumerate(self.labels)
        )
        edges = ", ".join(
            f"{variable_name(e.src)}-[{e.label}]->{variable_name(e.dst)}"
            for e in self.edges
        )
        return f"Pattern[{nodes} | {edges} | pivot={variable_name(self.pivot)}]"
