"""Delta maintenance: mutation capture for incremental enforcement.

Validating ``Σ`` from scratch after every edit wastes the structure of the
problem.  The invariant incremental enforcement rests on: every mutator
reports each node it changes (both ends of an edge insert/delete, the node
of an attribute or label change), and a literal reads only the match's own
nodes — so a match of a pattern ``Q`` is gained, lost or re-judged only if
it *contains* a touched node.  A :class:`DeltaLog` attached to the mutable
:class:`~repro.graph.graph.Graph` records those node ids; on refresh the
engine drops exactly the stored matches with a touched node in some column
and re-derives exactly the matches that map some variable to a touched
node (one anchored join per pattern variable).
"""

from __future__ import annotations

from typing import Iterable, Set

__all__ = ["DeltaLog"]


class DeltaLog:
    """Accumulates the node ids touched by graph mutations.

    Attach with :meth:`Graph.attach_delta_log`; the graph calls
    :meth:`record` from every mutator.  The log is deliberately coarse — a
    set of node ids plus an op counter — because localization only needs
    *where* the graph changed, not *what* changed: re-matching at the
    touched nodes re-derives the exact effect.
    """

    __slots__ = ("_touched", "num_ops")

    def __init__(self) -> None:
        self._touched: Set[int] = set()
        #: Number of mutations recorded since the last :meth:`clear`.
        self.num_ops = 0

    def record(self, nodes: Iterable[int]) -> None:
        """Record one mutation touching ``nodes`` (called by the graph)."""
        self._touched.update(nodes)
        self.num_ops += 1

    def touched_nodes(self) -> Set[int]:
        """A copy of the touched node-id set."""
        return set(self._touched)

    def clear(self) -> None:
        """Reset the log (a validation consumed the delta)."""
        self._touched.clear()
        self.num_ops = 0

    def drain(self) -> Set[int]:
        """Take the touched set and reset the log in one step.

        Validation passes call this *at pass start*: the returned set is
        exactly what the pass consumes, and any mutation recorded while the
        pass runs lands in the emptied log — to be consumed by the *next*
        pass — instead of being wiped by a clear-at-the-end.  This is what
        makes refresh safe when a writer publishes a new graph version
        while a pass is in flight.
        """
        taken = set(self._touched)
        self._touched.clear()
        self.num_ops = 0
        return taken

    def __len__(self) -> int:
        return len(self._touched)

    def __bool__(self) -> bool:
        return bool(self._touched)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"DeltaLog(touched={len(self._touched)}, ops={self.num_ops})"
