"""Group-commit writes: batch mutations, refresh once, publish once.

Applying each client mutation as its own enforcement pass would pay an
index patch, a re-match and a publish per edit.  The :class:`GroupCommitWriter`
instead accumulates a batch of :class:`MutationOp`\\ s and commits them
together:

1. apply every op through the graph's mutators — each one feeds the
   session's :class:`~repro.enforce.delta.DeltaLog` and bumps
   ``graph.version`` exactly as an interactive edit would;
2. run one delta-aware :meth:`Session.refresh` — the session patches the
   index snapshot at the touched nodes and re-points the live backend via
   the existing ``refresh_index`` (worker pools survive), and the engine
   re-derives only the matches containing a node the batch touched;
3. publish the resulting report + index as the next
   :class:`~repro.serve.snapshots.Snapshot` on the chain.

The whole batch lands in ONE published version: every batched mutation's
future resolves with that version, which is the version whose report
first reflects the write (read-your-writes by pinning it).  Batch
boundaries are policy of the service layer (a size trigger, and a linger
that waits only while lane work could still add a mutation);
the writer is the synchronous commit protocol, run on the service's
single execution lane — the same lane enforcement passes run on, which is
what serializes commits against engine-touching reads.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Tuple

from ..graph.graph import Graph
from ..session import Session
from .snapshots import Snapshot, SnapshotChain

__all__ = ["MutationOp", "GroupCommitWriter", "apply_ops"]

#: Op name -> required JSON argument names, the wire/replay format.
OP_SIGNATURES: Dict[str, Tuple[str, ...]] = {
    "add_node": ("label",),  # + optional "attrs" dict
    "add_edge": ("src", "dst", "label"),
    "remove_edge": ("src", "dst", "label"),
    "set_attr": ("node", "attr", "value"),
    "remove_attr": ("node", "attr"),
    "relabel_node": ("node", "label"),
}


@dataclass(frozen=True)
class MutationOp:
    """One graph mutation in wire form (JSON-safe, replayable)."""

    op: str
    args: Dict[str, Any]

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "MutationOp":
        """Validate and build from a request payload."""
        op = payload.get("op")
        if op not in OP_SIGNATURES:
            raise ValueError(
                f"unknown mutation op {op!r} "
                f"(expected one of {sorted(OP_SIGNATURES)})"
            )
        args = {k: v for k, v in payload.items() if k != "op"}
        missing = [name for name in OP_SIGNATURES[op] if name not in args]
        if missing:
            raise ValueError(f"mutation {op!r} missing {missing}")
        return cls(op=op, args=args)

    def as_dict(self) -> Dict[str, Any]:
        return {"op": self.op, **self.args}

    def apply(self, graph: Graph) -> Any:
        """Execute against ``graph`` (returns the mutator's result)."""
        args = self.args
        if self.op == "add_node":
            return graph.add_node(args["label"], args.get("attrs"))
        if self.op == "add_edge":
            return graph.add_edge(args["src"], args["dst"], args["label"])
        if self.op == "remove_edge":
            return graph.remove_edge(args["src"], args["dst"], args["label"])
        if self.op == "set_attr":
            return graph.set_attr(args["node"], args["attr"], args["value"])
        if self.op == "remove_attr":
            return graph.remove_attr(args["node"], args["attr"])
        if self.op == "relabel_node":
            return graph.relabel_node(args["node"], args["label"])
        raise ValueError(f"unknown mutation op {self.op!r}")  # unreachable


def apply_ops(graph: Graph, ops: List[MutationOp]) -> List[Any]:
    """Apply a recorded batch to ``graph`` (the replay-side helper)."""
    return [op.apply(graph) for op in ops]


class GroupCommitWriter:
    """The single-writer commit protocol over one session + chain."""

    def __init__(self, session: Session, chain: SnapshotChain) -> None:
        self.session = session
        self.chain = chain
        #: Group commits executed.
        self.commits = 0
        #: Mutations applied across all commits.
        self.mutations = 0
        #: Every committed batch in version order (``commit_log[v-1]`` is
        #: the batch that published version ``v``) — the replay record the
        #: identity harness and bench gate verify against.
        self.commit_log: List[List[MutationOp]] = []
        #: Ops applied to the graph but not yet in a published version —
        #: the prefix a failed batch left behind.
        self._unpublished: List[MutationOp] = []

    def bootstrap(self) -> Snapshot:
        """Publish version 0: one full validation of the startup state."""
        report = self.session.enforce()
        snapshot = Snapshot(
            version=0,
            graph_version=self.session.graph.version,
            index=self.session.index,
            report=report,
            ops=[],
        )
        self.chain.publish(snapshot)
        return snapshot

    def commit(self, ops: List[MutationOp]) -> Snapshot:
        """Apply one batch, refresh once, publish the next version.

        Must run on the service's execution lane.  A mutator raising
        (e.g. ``set_attr`` on an unknown node) aborts the commit with the
        already-applied prefix still in the graph *and in the delta log* —
        the next successful commit's refresh absorbs it, so the chain
        never publishes a version whose report is out of sync with the
        graph.  The failed batch is not recorded in the commit log; its
        applied prefix is, at the head of the next successful commit's
        ``Snapshot.ops`` and log entry, so replaying the log reproduces
        every published version.  The service layer maps the error to
        every waiter in the failed batch.
        """
        graph = self.session.graph
        for op in ops:
            op.apply(graph)
            self._unpublished.append(op)
            self.mutations += 1
        report = self.session.refresh()
        batch, self._unpublished = self._unpublished, []
        snapshot = Snapshot(
            version=self.chain.current_version + 1,
            graph_version=graph.version,
            index=self.session.index,
            report=report,
            ops=batch,
        )
        self.commit_log.append(list(batch))
        self.commits += 1
        self.chain.publish(snapshot)
        return snapshot
