"""In-memory span recorder owned by the benchmark.

The benchmark wraps its calls into each layer's public functions in spans
(``name, t0, t1, parent``); nothing under ``src/`` is touched.  Spans stay
in memory and are written once, when the workload ends, as a Chrome
trace-event file.  A span's *self time* is its duration minus the part of
that interval its child spans cover, so time no layer span accounts for
stays visible on the parent (see :meth:`SpanRecorder.coverage`).
"""

from __future__ import annotations

import json
import os
import threading
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional

__all__ = ["Span", "SpanRecorder"]


class Span:
    """One timed interval; ``parent`` is the id of the span that caused it."""

    __slots__ = ("id", "parent", "name", "t0", "t1", "args")

    def __init__(self, id: int, parent: Optional[int], name: str, t0: float,
                 args: Dict[str, Any]) -> None:
        self.id = id
        self.parent = parent
        self.name = name
        self.t0 = t0
        self.t1 = t0
        self.args = args

    @property
    def duration(self) -> float:
        return self.t1 - self.t0


class SpanRecorder:
    """Span stack of the thread that created it; every span carries the
    shared ``run_id``."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self._thread = threading.get_ident()
        self.spans: List[Span] = []
        self._stack: List[Span] = []
        self._origin = time.perf_counter()

    @contextmanager
    def span(self, name: str, **args: Any) -> Iterator[Span]:
        parent = self._stack[-1].id if self._stack else None
        span = Span(len(self.spans), parent, name, time.perf_counter(), args)
        self.spans.append(span)
        self._stack.append(span)
        try:
            yield span
        finally:
            span.t1 = time.perf_counter()
            self._stack.pop()

    @contextmanager
    def wrap(self, owner: Any, attr: str, name: str,
             count: Optional[Callable[..., Dict[str, Any]]] = None) -> Iterator[None]:
        """Span every call of ``owner.attr`` while the context is open.

        ``count(*args)`` may return counters recorded on the span, so that
        work is counted at the boundary where it happens.  Calls from other
        threads (the serving layer's execution lane) pass through unspanned:
        the stack belongs to one thread.  The original attribute is restored
        on exit.
        """
        original = getattr(owner, attr)

        def spanned(*args: Any, **kwargs: Any) -> Any:
            if threading.get_ident() != self._thread:
                return original(*args, **kwargs)
            with self.span(name, **(count(*args) if count else {})):
                return original(*args, **kwargs)

        setattr(owner, attr, spanned)
        try:
            yield
        finally:
            setattr(owner, attr, original)

    # -- aggregation -------------------------------------------------------
    def named(self, name: str) -> List[Span]:
        """Every recorded span called ``name``, in open order."""
        return [span for span in self.spans if span.name == name]

    def self_times(self) -> Dict[int, float]:
        """Self time per span id: duration minus what its children cover."""
        covered: Dict[int, float] = {}
        for span in self.spans:
            if span.parent is not None:
                covered[span.parent] = covered.get(span.parent, 0.0) + span.duration
        return {
            span.id: max(0.0, span.duration - covered.get(span.id, 0.0))
            for span in self.spans
        }

    def coverage(self, root: Span) -> float:
        """Share of ``root``'s wall that its descendants' self times cover."""
        if root.duration <= 0:
            return 0.0
        return 1.0 - self.self_times()[root.id] / root.duration

    # -- export ------------------------------------------------------------
    def write_chrome_trace(self, path: Path) -> None:
        """Write every span as one complete (``ph: X``) trace event."""
        self_times = self.self_times()
        events = [
            {
                "name": span.name,
                "ph": "X",
                "pid": os.getpid(),
                "tid": 0,
                "ts": (span.t0 - self._origin) * 1e6,
                "dur": span.duration * 1e6,
                "args": {
                    "id": span.id,
                    "parent": span.parent,
                    "run_id": self.run_id,
                    "self_s": self_times[span.id],
                    **span.args,
                },
            }
            for span in self.spans
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"traceEvents": events, "displayTimeUnit": "ms"}))
