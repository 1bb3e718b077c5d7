"""Hierarchical span tracing for repro runs.

One :class:`Tracer` lives on the master for the duration of a session and
records two kinds of telemetry:

* **Spans** — timed intervals arranged in a tree::

      session > phase (discover/cover/enforce/refresh)
              > level / stage
              > superstep
              > op (one per work unit, placed on its worker's lane)

  Master-side spans are opened and closed around the instrumented code via
  :meth:`Tracer.span`.  Worker-side op spans are *synthesized* from the
  per-op compute seconds the workers already ship back on the fused
  response transport (see ``parallel/backend.py``), so tracing adds no
  extra round trips: inside a superstep each worker's ops are stacked
  end-to-end from the superstep's start on that worker's lane, mirroring
  how :class:`~repro.parallel.cluster.SimulatedCluster` models makespan.

* **Events** — instantaneous typed records (enforcement passes, index
  loads and refreshes, timeouts, retries, respawns, degradations, janitor
  sweeps, fault-plan arming) appended via :meth:`Tracer.event`.

All timestamps are seconds relative to the tracer's construction
(``time.perf_counter`` based, monotonic); ``origin_wall`` keeps the
corresponding wall-clock epoch for export headers.

The disabled path is :data:`NULL_TRACER` — a shared singleton whose
``span`` returns one preallocated no-op context manager and whose other
hooks are constant-time no-ops, so instrumentation left in place costs a
few attribute lookups per call site and nothing else.  Hot loops
additionally guard on ``tracer.enabled`` before composing arguments.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional, Tuple

__all__ = [
    "Span",
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "TRACE_SCHEMA_VERSION",
]

#: Version of the span/event record layout (stamped into every export).
TRACE_SCHEMA_VERSION = 1


class Span:
    """One timed interval in the trace tree.

    ``worker`` is ``None`` for master-side spans and a worker index for
    synthesized worker-lane op spans.  ``t1`` stays ``None`` while the
    span is open.
    """

    __slots__ = ("id", "parent_id", "name", "kind", "t0", "t1", "worker", "args")

    def __init__(
        self,
        id: int,
        parent_id: Optional[int],
        name: str,
        kind: str,
        t0: float,
        worker: Optional[int] = None,
        args: Optional[Dict[str, Any]] = None,
    ) -> None:
        self.id = id
        self.parent_id = parent_id
        self.name = name
        self.kind = kind
        self.t0 = t0
        self.t1: Optional[float] = None
        self.worker = worker
        self.args = args

    @property
    def duration(self) -> float:
        """Seconds between open and close (0.0 while still open)."""
        if self.t1 is None:
            return 0.0
        return self.t1 - self.t0

    def as_dict(self) -> Dict[str, Any]:
        record: Dict[str, Any] = {
            "id": self.id,
            "parent_id": self.parent_id,
            "name": self.name,
            "kind": self.kind,
            "t0": self.t0,
            "t1": self.t1,
        }
        if self.worker is not None:
            record["worker"] = self.worker
        if self.args:
            record["args"] = dict(self.args)
        return record

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Span({self.name!r}, kind={self.kind!r}, id={self.id}, "
            f"parent={self.parent_id}, worker={self.worker})"
        )


class Tracer:
    """Master-side span/event recorder (single-threaded, append-only)."""

    #: Instrumented call sites test this before composing span arguments.
    enabled = True

    def __init__(self) -> None:
        #: Wall-clock epoch matching relative time 0.0 (export headers).
        self.origin_wall = time.time()
        self._origin = time.perf_counter()
        #: Closed spans, in close order.
        self.spans: List[Span] = []
        #: Typed instant events, in emit order.
        self.events: List[Dict[str, Any]] = []
        self.spans_opened = 0
        self.spans_closed = 0
        self._stack: List[Span] = []
        self._next_id = 1
        # Worker-lane layout state for the superstep currently open (if
        # any): ops stack end-to-end per worker from the superstep start.
        self._lane_origin: Optional[float] = None
        self._lane_cursors: Dict[int, float] = {}

    # -- clock -----------------------------------------------------------

    def now(self) -> float:
        """Seconds since tracer construction (monotonic)."""
        return time.perf_counter() - self._origin

    # -- master-side spans ----------------------------------------------

    def begin(self, name: str, kind: str = "span", **args: Any) -> Span:
        """Open a span as a child of the innermost open span."""
        parent_id = self._stack[-1].id if self._stack else None
        span = Span(
            self._next_id, parent_id, name, kind, self.now(), args=args or None
        )
        self._next_id += 1
        self.spans_opened += 1
        self._stack.append(span)
        if kind == "superstep":
            self._lane_origin = span.t0
            self._lane_cursors = {}
        return span

    def end(self, span: Optional[Span]) -> None:
        """Close ``span`` (and, defensively, anything opened under it).

        Closing out of order — e.g. when an exception unwinds past inner
        ``begin`` calls — closes the abandoned inner spans at the same
        instant, preserving the every-opened-span-closes invariant.
        """
        if span is None:
            return
        t1 = self.now()
        while self._stack:
            top = self._stack.pop()
            top.t1 = t1
            self.spans.append(top)
            self.spans_closed += 1
            if top is span:
                break
        if span.kind == "superstep":
            self._lane_origin = None
            self._lane_cursors = {}

    @contextmanager
    def span(self, name: str, kind: str = "span", **args: Any) -> Iterator[Span]:
        """Context-manager form of :meth:`begin`/:meth:`end`."""
        span = self.begin(name, kind, **args)
        try:
            yield span
        finally:
            self.end(span)

    # -- worker-lane op spans -------------------------------------------

    def worker_op(
        self, worker: int, op: str, seconds: float, **args: Any
    ) -> None:
        """Record one worker-side op from its piggybacked compute seconds.

        Inside a superstep span the op is placed end-to-end on ``worker``'s
        lane starting at the superstep's start; outside one (unmetered
        paths) it is anchored so it *ends* now.  The span is born closed —
        worker ops never nest.
        """
        seconds = max(0.0, float(seconds))
        if self._lane_origin is not None:
            start = self._lane_cursors.get(worker, self._lane_origin)
            self._lane_cursors[worker] = start + seconds
        else:
            start = max(0.0, self.now() - seconds)
        parent_id = self._stack[-1].id if self._stack else None
        span = Span(
            self._next_id,
            parent_id,
            op,
            "op",
            start,
            worker=worker,
            args=args or None,
        )
        span.t1 = start + seconds
        self._next_id += 1
        self.spans_opened += 1
        self.spans_closed += 1
        self.spans.append(span)

    # -- typed events ----------------------------------------------------

    def event(self, etype: str, **fields: Any) -> None:
        """Append one typed instant event (fields must be JSON-friendly)."""
        record: Dict[str, Any] = {"type": etype, "ts": self.now()}
        record.update(fields)
        self.events.append(record)

    # -- summaries -------------------------------------------------------

    @property
    def open_spans(self) -> Tuple[Span, ...]:
        """Spans begun but not yet ended (root session span, mid-phase)."""
        return tuple(self._stack)

    def workers(self) -> List[int]:
        """Sorted worker indices that appear on any op span."""
        return sorted(
            {span.worker for span in self.spans if span.worker is not None}
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Tracer(spans={len(self.spans)}, events={len(self.events)}, "
            f"open={len(self._stack)})"
        )


class _NullSpan:
    """Shared no-op context manager returned by :meth:`NullTracer.span`."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc_info: Any) -> bool:
        return False


_NULL_SPAN = _NullSpan()


class NullTracer:
    """Disabled tracer: every hook is a constant-time no-op.

    Records nothing and allocates nothing per call (the ``span`` context
    manager is one shared instance), so instrumentation can stay threaded
    through the hot paths unconditionally.
    """

    enabled = False
    spans: Tuple[Span, ...] = ()
    events: Tuple[Dict[str, Any], ...] = ()
    spans_opened = 0
    spans_closed = 0
    origin_wall = 0.0
    open_spans: Tuple[Span, ...] = ()

    def now(self) -> float:
        return 0.0

    def begin(self, name: str, kind: str = "span", **args: Any) -> None:
        return None

    def end(self, span: Any) -> None:
        return None

    def span(self, name: str, kind: str = "span", **args: Any) -> _NullSpan:
        return _NULL_SPAN

    def worker_op(
        self, worker: int, op: str, seconds: float, **args: Any
    ) -> None:
        return None

    def event(self, etype: str, **fields: Any) -> None:
        return None

    def workers(self) -> List[int]:
        return []

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "NullTracer()"


#: The process-wide disabled tracer (default everywhere a tracer is optional).
NULL_TRACER = NullTracer()
