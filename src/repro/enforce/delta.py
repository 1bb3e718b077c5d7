"""Delta maintenance: mutation capture for incremental enforcement.

Validating ``Σ`` from scratch after every edit wastes the structure of the
problem.  Incremental enforcement rests on two facts.  Every mutator reports
each node it changes (both ends of an edge insert/delete, the node of an
attribute or label change), and a literal reads only the match's own nodes.
So a stored match of a pattern ``Q`` is gained, lost or re-judged only if it
*contains* a touched node.  And a match depends only on labels and edges:
attributes decide literal outcomes, never whether a match exists.

A :class:`DeltaLog` attached to the mutable :class:`~repro.graph.graph.
Graph` therefore records touched nodes by *kind*.  A node is *structural*
if some ``add_node``, ``add_edge``, ``remove_edge``, ``relabel_edge`` or
``relabel_node`` touched it since the last drain, and *attribute-only* if
only ``set_attr`` / ``remove_attr`` did.  On refresh the engine drops the
stored matches that contain a structural node and re-derives the matches
that map some variable to one (one anchored join per pattern variable); a
stored match whose touched nodes are all attribute-only keeps its place and
only has its verdicts re-judged.
"""

from __future__ import annotations

from typing import Iterable, Set, Tuple

__all__ = ["DeltaLog"]


class DeltaLog:
    """Accumulates the node ids touched by graph mutations, by kind.

    Attach with :meth:`Graph.attach_delta_log`; the graph calls
    :meth:`record` from every mutator, flagging whether the mutation was
    structural.  :meth:`drain` hands a pass every touched node;
    :meth:`drain_kinds` hands it the structural and the attribute-only
    nodes apart.
    """

    __slots__ = ("_structural", "_attribute", "num_ops")

    def __init__(self) -> None:
        self._structural: Set[int] = set()
        # nodes an attribute write touched (structural ones included)
        self._attribute: Set[int] = set()
        #: Number of mutations recorded since the last :meth:`clear`.
        self.num_ops = 0

    def record(self, nodes: Iterable[int], structural: bool = True) -> None:
        """Record one mutation touching ``nodes`` (called by the graph)."""
        (self._structural if structural else self._attribute).update(nodes)
        self.num_ops += 1

    def touched_nodes(self) -> Set[int]:
        """A copy of the touched node-id set (every kind)."""
        return self._structural | self._attribute

    def clear(self) -> None:
        """Reset the log (a validation consumed the delta)."""
        self._structural.clear()
        self._attribute.clear()
        self.num_ops = 0

    def drain_kinds(self) -> Tuple[Set[int], Set[int]]:
        """Take ``(structural nodes, attribute-only nodes)`` and reset.

        Validation passes call this (or :meth:`drain`) *at pass start*: the
        returned sets are exactly what the pass consumes, and any mutation
        recorded while the pass runs lands in the emptied log — to be
        consumed by the *next* pass — instead of being wiped by a
        clear-at-the-end.  This is what makes refresh safe when a writer
        publishes a new graph version while a pass is in flight.
        """
        structural = self._structural
        attribute = self._attribute - structural
        self._structural, self._attribute = set(), set()
        self.num_ops = 0
        return structural, attribute

    def drain(self) -> Set[int]:
        """Take every touched node (both kinds) and reset, in one step."""
        structural, attribute = self.drain_kinds()
        return structural | attribute

    def __len__(self) -> int:
        return len(self._structural | self._attribute)

    def __bool__(self) -> bool:
        return bool(self._structural or self._attribute)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"DeltaLog(structural={len(self._structural)}, "
            f"attribute={len(self._attribute)}, ops={self.num_ops})"
        )
