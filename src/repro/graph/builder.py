"""Convenience builder for property graphs keyed by external names.

Real datasets identify entities by strings (URIs, names); the discovery
algorithms want dense integer ids.  :class:`GraphBuilder` bridges the two:
nodes are created on first reference by key, and the final :class:`Graph`
plus the key <-> id mapping are returned by :meth:`build`.
"""

from __future__ import annotations

from typing import Any, Dict, Hashable, Optional, Tuple

from .graph import Graph

__all__ = ["GraphBuilder"]


class GraphBuilder:
    """Incrementally assemble a :class:`~repro.graph.graph.Graph`.

    Example::

        builder = GraphBuilder()
        builder.node("john", "person", name="John Winter")
        builder.node("film1", "product", title="Selling Out")
        builder.edge("john", "film1", "create")
        graph, ids = builder.build()
    """

    def __init__(self) -> None:
        self._graph = Graph()
        self._ids: Dict[Hashable, int] = {}

    def node(self, key: Hashable, label: Optional[str] = None, **attrs: Any) -> int:
        """Ensure a node for ``key`` exists; set/extend its label and attributes.

        The first call for a key must provide a label.  Later calls may add
        attributes; passing a different label raises ``ValueError`` to catch
        accidental key collisions early.
        """
        node = self._ids.get(key)
        if node is None:
            if label is None:
                raise ValueError(f"first reference to {key!r} must provide a label")
            node = self._graph.add_node(label, attrs)
            self._ids[key] = node
            return node
        if label is not None and self._graph.node_label(node) != label:
            raise ValueError(
                f"node {key!r} already has label {self._graph.node_label(node)!r}, "
                f"got {label!r}"
            )
        for attr, value in attrs.items():
            self._graph.set_attr(node, attr, value)
        return node

    def edge(self, src_key: Hashable, dst_key: Hashable, label: str) -> None:
        """Add an edge between two existing (or auto-created) keyed nodes."""
        if src_key not in self._ids:
            raise KeyError(f"unknown source node {src_key!r}")
        if dst_key not in self._ids:
            raise KeyError(f"unknown destination node {dst_key!r}")
        self._graph.add_edge(self._ids[src_key], self._ids[dst_key], label)

    def node_id(self, key: Hashable) -> int:
        """The integer id assigned to ``key`` (KeyError if absent)."""
        return self._ids[key]

    def build(self) -> Tuple[Graph, Dict[Hashable, int]]:
        """Return the built graph and the key -> node-id mapping."""
        return self._graph, dict(self._ids)
