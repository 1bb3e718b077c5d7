"""In-memory directed property graph.

This is the substrate the paper's algorithms run on: a directed graph
``G = (V, E, L, F_A)`` where every node and edge carries a label drawn from an
alphabet ``Theta`` and every node carries a tuple of attribute/value pairs
(Section 2.1 of the paper).  Real-life graphs in the paper (DBpedia, YAGO2,
IMDB) are schemaless knowledge graphs; nodes of the same label may carry
different attribute sets.

The structure is optimized for the access paths GFD discovery needs:

* candidate seeding by node label  -> ``nodes_with_label``,
* edge extension during matching   -> ``out_neighbors`` / ``in_neighbors``,
* O(1) edge-existence tests        -> ``has_edge``,
* frequent-triple statistics       -> ``edges`` iteration and label indexes.

``networkx`` was measured to be far too slow for the inner matching loops at
the scales the benchmarks use, so adjacency is stored directly as one dict per
node and direction, mapping a neighbour to the immutable ``frozenset`` of edge
labels between the two.  ``_out[src][dst]`` and ``_in[dst][src]`` are the same
object, and a pair with one label (nearly every pair in a knowledge graph)
points at the graph's interned singleton for that label, so an edge costs two
dict slots and no set of its own.  The mutators replace a pair's set and never
edit it, so the accessors can hand the shared sets out without copying.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import (
    Any, Dict, FrozenSet, Iterator, List, Mapping, Optional, Set,
    Tuple,
)

__all__ = ["Graph", "Edge"]

#: An edge as exposed by iteration APIs: (source, destination, label).
Edge = Tuple[int, int, str]

#: :meth:`Graph.index` patches the cached snapshot while at most one node in
#: this many is stale, and rebuilds it in one full scan beyond that.
_PATCH_CUTOVER = 8

#: The label set of a node pair without edges.
_NO_LABELS: FrozenSet[str] = frozenset()


class Graph:
    """A directed, node- and edge-labeled property graph.

    Nodes are dense integer ids assigned by :meth:`add_node` (0, 1, 2, ...).
    At most one edge exists per ``(src, dst, label)`` triple; distinct labels
    between the same endpoints are distinct edges, matching the paper's model
    where ``E ⊆ V × V`` with a label per edge (we additionally allow parallel
    edges with different labels, which knowledge graphs need).

    Node attributes are stored per node as a plain ``dict`` mapping attribute
    name to a constant value; graphs are schemaless, so any node may carry any
    attributes (Section 2.1).

    The table of interned single-label sets holds one entry per edge label in
    use: it gains the label with its first edge and drops it with its last,
    so label churn cannot grow it.
    """

    __slots__ = (
        "_labels",
        "_attrs",
        "_out",
        "_in",
        "_label_index",
        "_edge_label_count",
        "_singletons",
        "_num_edges",
        "_version",
        "_structure_version",
        "_index_cache",
        "_stale_nodes",
        "_delta_logs",
    )

    def __init__(self) -> None:
        self._labels: List[str] = []
        self._attrs: List[Dict[str, Any]] = []
        # adjacency: per node, dst -> frozenset of edge labels (and the
        # reverse); _out[s][d] is _in[d][s]
        self._out: List[Dict[int, FrozenSet[str]]] = []
        self._in: List[Dict[int, FrozenSet[str]]] = []
        self._label_index: Dict[str, List[int]] = {}
        self._edge_label_count: Dict[str, int] = {}
        # edge label -> its interned singleton; keys = _edge_label_count's
        self._singletons: Dict[str, FrozenSet[str]] = {}
        self._num_edges = 0
        self._version = 0
        self._structure_version = 0
        self._index_cache = None
        # nodes touched since ``_index_cache`` was frozen (empty without one)
        self._stale_nodes: Set[int] = set()
        self._delta_logs: Tuple = ()

    # ------------------------------------------------------------------
    # mutation tracking (frozen-index maintenance)
    # ------------------------------------------------------------------
    @property
    def version(self) -> int:
        """Monotone mutation counter; any structural/attribute change bumps it."""
        return self._version

    @property
    def structure_version(self) -> int:
        """Monotone counter of structural mutations only.

        A node or edge insert/delete or a relabel bumps it; ``set_attr`` and
        ``remove_attr`` do not.  State that depends only on labels and
        edges — a discovery's verified patterns and their matches — stays
        valid while it holds still.
        """
        return self._structure_version

    def _touch(self, *nodes: int, structural: bool = True) -> None:
        """Record a mutation touching ``nodes`` (both ends of an edge).

        Bumps the version (and, for a ``structural`` mutation — a node or
        edge insert/delete or a relabel, not an attribute write — the
        :attr:`structure_version`), marks the nodes stale against the cached
        index — :meth:`index` re-reads exactly those — and reports them to
        the attached delta logs with the mutation's kind.
        Without a cached index nothing is marked, so bulk construction pays
        nothing.
        """
        self._version += 1
        if structural:
            self._structure_version += 1
        if self._index_cache is not None:
            self._stale_nodes.update(nodes)
        for log in self._delta_logs:
            log.record(nodes, structural)

    def attach_delta_log(self, log) -> None:
        """Subscribe a :class:`~repro.enforce.delta.DeltaLog`-like observer.

        Every mutation reports its touched node ids and its kind via
        ``log.record(nodes, structural)`` — the hook incremental enforcement
        uses to localize revalidation.
        Observers are held strongly; pair with :meth:`detach_delta_log`.
        """
        if log not in self._delta_logs:
            self._delta_logs = self._delta_logs + (log,)

    def detach_delta_log(self, log) -> None:
        """Unsubscribe a previously attached delta observer (idempotent)."""
        self._delta_logs = tuple(l for l in self._delta_logs if l is not log)

    def index(self):
        """The frozen :class:`~repro.graph.index.GraphIndex` of this graph.

        Cached per mutation version.  The first call after a mutation
        returns a *new* snapshot (holders of the old one keep it intact):
        the cached one patched at the nodes touched since
        (:meth:`GraphIndex.patched`) while those are few against the
        graph, a full :meth:`GraphIndex.build` otherwise.  Hot paths
        (matching, spawning, match tables) consume this index; the mutable
        dict structure stays authoritative for construction and editing.
        """
        cached = self._index_cache
        if cached is not None and cached.version == self._version:
            return cached
        from .index import GraphIndex

        stale = self._stale_nodes
        if cached is not None and len(stale) * _PATCH_CUTOVER <= self.num_nodes:
            cached = cached.patched(self, stale)
        else:
            cached = GraphIndex.build(self)
        self._index_cache = cached
        self._stale_nodes = set()
        return cached

    def _adopt_index(self, index) -> None:
        """Make a snapshot attached from disk this graph's cached index."""
        self._index_cache = index
        self._stale_nodes = set()

    def _forget_index(self, index) -> None:
        """Stop handing ``index`` out (its store mapping was released)."""
        if self._index_cache is index:
            self._index_cache = None
            self._stale_nodes = set()

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_node(self, label: str, attrs: Optional[Dict[str, Any]] = None) -> int:
        """Add a node with the given label and attribute dict; return its id."""
        node = len(self._labels)
        self._touch(node)
        self._labels.append(label)
        self._attrs.append(dict(attrs) if attrs else {})
        self._out.append({})
        self._in.append({})
        self._label_index.setdefault(label, []).append(node)
        return node

    def add_edge(self, src: int, dst: int, label: str) -> bool:
        """Add edge ``src -[label]-> dst``; return False if it already exists."""
        self._check_node(src)
        self._check_node(dst)
        labels = self._out[src].get(dst)
        if labels is not None and label in labels:
            return False
        self._touch(src, dst)
        count = self._edge_label_count.get(label, 0)
        if not count:
            self._singletons[label] = frozenset((label,))
        self._edge_label_count[label] = count + 1
        single = self._singletons[label]
        self._out[src][dst] = self._in[dst][src] = (
            single if labels is None else labels | single
        )
        self._num_edges += 1
        return True

    def remove_edge(self, src: int, dst: int, label: str) -> bool:
        """Remove edge ``src -[label]-> dst``; return False if absent."""
        labels = self._out[src].get(dst)
        if labels is None or label not in labels:
            return False
        self._touch(src, dst)
        count = self._edge_label_count[label] - 1
        if count:
            self._edge_label_count[label] = count
        else:
            del self._edge_label_count[label]
            del self._singletons[label]
        if len(labels) == 1:
            del self._out[src][dst]
            del self._in[dst][src]
        else:
            rest = labels.difference((label,))
            if len(rest) == 1:
                (other,) = rest
                rest = self._singletons[other]
            self._out[src][dst] = self._in[dst][src] = rest
        self._num_edges -= 1
        return True

    def set_attr(self, node: int, attr: str, value: Any) -> None:
        """Set attribute ``attr`` of ``node`` to ``value``."""
        self._check_node(node)
        self._touch(node, structural=False)
        self._attrs[node][attr] = value

    def remove_attr(self, node: int, attr: str) -> None:
        """Delete attribute ``attr`` from ``node`` if present."""
        if attr in self._attrs[node]:
            self._touch(node, structural=False)
            del self._attrs[node][attr]

    def relabel_node(self, node: int, label: str) -> None:
        """Change the label of ``node`` (updates the label index)."""
        self._check_node(node)
        old = self._labels[node]
        if old == label:
            return
        self._touch(node)
        bucket = self._label_index[old]
        bucket.remove(node)
        if not bucket:
            del self._label_index[old]
        self._labels[node] = label
        self._label_index.setdefault(label, []).append(node)

    def relabel_edge(self, src: int, dst: int, old: str, new: str) -> bool:
        """Replace the label of an existing edge; return False if absent."""
        if not self.remove_edge(src, dst, old):
            return False
        self.add_edge(src, dst, new)
        return True

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        """Number of nodes in the graph."""
        return len(self._labels)

    @property
    def num_edges(self) -> int:
        """Number of (src, dst, label) edges in the graph."""
        return self._num_edges

    def nodes(self) -> range:
        """All node ids."""
        return range(len(self._labels))

    def node_label(self, node: int) -> str:
        """The label of ``node``."""
        return self._labels[node]

    def node_attrs(self, node: int) -> Dict[str, Any]:
        """The attribute dict of ``node`` (live reference; treat as read-only)."""
        return self._attrs[node]

    def get_attr(self, node: int, attr: str, default: Any = None) -> Any:
        """The value of ``attr`` at ``node`` or ``default`` if absent."""
        return self._attrs[node].get(attr, default)

    def has_attr(self, node: int, attr: str) -> bool:
        """Whether ``node`` carries attribute ``attr``."""
        return attr in self._attrs[node]

    def edges(self) -> Iterator[Edge]:
        """Iterate all edges as ``(src, dst, label)`` triples."""
        for src, adjacency in enumerate(self._out):
            for dst, labels in adjacency.items():
                for label in labels:
                    yield (src, dst, label)

    def has_edge(self, src: int, dst: int, label: Optional[str] = None) -> bool:
        """Whether edge ``src -> dst`` exists (with ``label`` if given)."""
        labels = self._out[src].get(dst)
        if labels is None:
            return False
        return True if label is None else label in labels

    def edge_labels(self, src: int, dst: int) -> FrozenSet[str]:
        """Labels of edges from ``src`` to ``dst`` (empty if none); shared."""
        return self._out[src].get(dst, _NO_LABELS)

    def out_neighbors(self, node: int) -> Mapping[int, FrozenSet[str]]:
        """Outgoing adjacency of ``node``: a read-only view, dst -> labels."""
        return MappingProxyType(self._out[node])

    def in_neighbors(self, node: int) -> Mapping[int, FrozenSet[str]]:
        """Incoming adjacency of ``node``: a read-only view, src -> labels."""
        return MappingProxyType(self._in[node])

    def out_degree(self, node: int) -> int:
        """Number of outgoing edges of ``node`` (counting parallel labels)."""
        return sum(len(labels) for labels in self._out[node].values())

    def in_degree(self, node: int) -> int:
        """Number of incoming edges of ``node`` (counting parallel labels)."""
        return sum(len(labels) for labels in self._in[node].values())

    def degree(self, node: int) -> int:
        """Total degree of ``node``."""
        return self.out_degree(node) + self.in_degree(node)

    # ------------------------------------------------------------------
    # indexes
    # ------------------------------------------------------------------
    def nodes_with_label(self, label: str) -> List[int]:
        """All nodes carrying exactly ``label`` (no wildcard semantics here)."""
        return self._label_index.get(label, [])

    def node_labels(self) -> Set[str]:
        """The set of node labels used in the graph."""
        return set(self._label_index)

    def edge_label_counts(self) -> Dict[str, int]:
        """Edge label -> number of edges with that label."""
        return dict(self._edge_label_count)

    def copy(self) -> "Graph":
        """A deep, independent copy of the graph.

        The containers are copied, not the mutations replayed, yet the copy
        is the one a replay (every ``add_node``, then every ``add_edge`` in
        :meth:`edges` order) would build: versions ``n + m``, the label
        index in node order, ``_in`` and the edge-label counts in edge
        order, and a multi-label pair's set grown label by label.  Label
        sets are immutable, so the copy shares them.
        """
        clone = Graph()
        clone._labels = list(self._labels)
        clone._attrs = [dict(attrs) for attrs in self._attrs]
        for node, label in enumerate(self._labels):
            clone._label_index.setdefault(label, []).append(node)
        singletons = self._singletons
        order: Dict[str, None] = {}  # edge labels by first appearance
        seen: Set[FrozenSet[str]] = set()
        clone._out = out = [dict(adjacency) for adjacency in self._out]
        clone._in = incoming = [{} for _ in self._in]
        for src, adjacency in enumerate(out):
            for dst, labels in adjacency.items():
                if labels not in seen:
                    seen.add(labels)
                    order.update(dict.fromkeys(labels))
                if len(labels) > 1:  # the set add_edge would have grown
                    grown = None
                    for label in labels:
                        single = singletons[label]
                        grown = single if grown is None else grown | single
                    adjacency[dst] = labels = grown
                incoming[dst][src] = labels
        clone._singletons = {label: singletons[label] for label in order}
        clone._edge_label_count = {
            label: self._edge_label_count[label] for label in order
        }
        clone._num_edges = self._num_edges
        clone._version = clone._structure_version = (
            len(self._labels) + self._num_edges
        )
        return clone

    # ------------------------------------------------------------------
    def _check_node(self, node: int) -> None:
        if not 0 <= node < len(self._labels):
            raise KeyError(f"node {node} does not exist")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Graph(nodes={self.num_nodes}, edges={self.num_edges})"
