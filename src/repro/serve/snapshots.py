"""The MVCC snapshot chain: refcounted versions of the served graph state.

The serving layer multiplexes many logical clients over one
:class:`~repro.session.Session`, whose engine state always tracks the
*newest* graph version.  Reads must nevertheless be consistent: a client
that was answered "version 7" may stream that answer out (or cross-check
it) while the group-commit writer publishes versions 8 and 9.  The
:class:`SnapshotChain` makes that safe without copying the graph:

* every published version is a :class:`Snapshot` — the commit id, the
  graph version it reflects, the frozen :class:`~repro.graph.index.
  GraphIndex` of that state, and the full
  :class:`~repro.enforce.engine.EnforcementReport` computed by the
  commit's delta-aware refresh.  The report *is* the read surface:
  ``validate`` requests at a pinned version are served from it without
  touching the engine, which is what lets reads proceed while a commit
  runs.  The whole-Σ payload is rendered once per version and render
  flags (:meth:`Snapshot.payload`); every later read is a shallow copy;
* readers :meth:`~SnapshotChain.pin` the version for the life of their
  request and get a :class:`SnapshotLease`; the chain refcounts leases
  per version;
* publishing version ``N+1`` retires every *older, unpinned* version:
  its index reference and rendered payloads drop, and an index attached
  through the on-disk store releases its ``mmap`` handle through
  :func:`~repro.graph.store.release_index` (which unregisters from the
  janitor).  A version still pinned survives until its last lease goes —
  then the release runs from :meth:`~SnapshotChain.release`.

Zero-leak accounting is explicit: :meth:`~SnapshotChain.stats` exposes
live/retired/pinned counts, and :meth:`~SnapshotChain.close` returns the
number of leases still outstanding (the bench gate asserts 0).

Thread-safety: all chain state is guarded by one lock — publishes come
from the writer's execution lane while pins/releases come from the event
loop.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..enforce.engine import EnforcementReport
from ..graph.index import GraphIndex
from ..graph.store import release_index

__all__ = ["Snapshot", "SnapshotLease", "SnapshotChain"]


@dataclass
class Snapshot:
    """One published, immutable version of the served state."""

    #: The serving-level commit id (0 for the startup snapshot, then one
    #: per group commit) — the version clients pin and replay against.
    version: int
    #: ``graph.version`` at the moment this snapshot was published (the
    #: engine stamps the same value into ``report.graph_version``).
    graph_version: int
    #: The frozen index of this state (``None`` on index-less sessions).
    index: Optional[GraphIndex]
    #: The full enforcement report for this state — the read surface.
    report: EnforcementReport
    #: Mutation ops this commit applied (what a replay needs); empty for
    #: the startup snapshot.
    ops: List[Any] = field(default_factory=list)
    #: Rendered whole-Σ ``validate`` payloads, keyed by the render flags
    #: (``(include_nodes, include_samples)``); shared read-only by every
    #: response at this version and dropped when the version retires.
    payloads: Dict[Tuple[bool, bool], Dict[str, Any]] = field(
        default_factory=dict
    )

    def payload(
        self, key: Tuple[bool, bool], render: Callable[[], Dict[str, Any]]
    ) -> Tuple[Dict[str, Any], bool]:
        """The payload rendered under ``key``, rendering it on first use.

        Returns ``(payload, hit)``.  The returned dict is shared: callers
        copy it before adding per-response keys and never mutate it.
        """
        payloads = self.payloads  # retirement swaps in a fresh dict
        cached = payloads.get(key)
        if cached is not None:
            return cached, True
        cached = payloads[key] = render()
        return cached, False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Snapshot(version={self.version}, "
            f"graph_version={self.graph_version})"
        )


class SnapshotLease:
    """A reader's pin on one snapshot version (release exactly once).

    Usable as a context manager; double-release is tolerated (idempotent)
    so error paths can release defensively.
    """

    __slots__ = ("chain", "snapshot", "_released")

    def __init__(self, chain: "SnapshotChain", snapshot: Snapshot) -> None:
        self.chain = chain
        self.snapshot = snapshot
        self._released = False

    @property
    def version(self) -> int:
        return self.snapshot.version

    @property
    def report(self) -> EnforcementReport:
        return self.snapshot.report

    def release(self) -> None:
        if self._released:
            return
        self._released = True
        self.chain.release(self.snapshot.version)

    def __enter__(self) -> "SnapshotLease":
        return self

    def __exit__(self, *exc_info) -> None:
        self.release()


class SnapshotChain:
    """The refcounted version chain (publish / pin / release / retire)."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._snapshots: Dict[int, Snapshot] = {}
        self._refcounts: Dict[int, int] = {}
        self._current: Optional[Snapshot] = None
        #: Lifetime counters (monotone; exported as serving metrics).
        self.published = 0
        self.retired = 0
        self.pins = 0
        #: Store mappings closed through the release seam.
        self.mappings_released = 0

    # ------------------------------------------------------------------
    # writer side
    # ------------------------------------------------------------------
    def publish(self, snapshot: Snapshot) -> None:
        """Install ``snapshot`` as the current version; retire old ones.

        Versions must be published in strictly increasing order.  Every
        older version with no outstanding lease is retired immediately;
        pinned versions stay until their last :meth:`release`.
        """
        with self._lock:
            if self._current is not None and (
                snapshot.version <= self._current.version
            ):
                raise ValueError(
                    f"version {snapshot.version} not after current "
                    f"{self._current.version}"
                )
            self._snapshots[snapshot.version] = snapshot
            self._refcounts.setdefault(snapshot.version, 0)
            self._current = snapshot
            self.published += 1
            self._retire_unpinned_locked()

    def _retire_unpinned_locked(self) -> None:
        current = self._current.version if self._current is not None else None
        for version in sorted(self._snapshots):
            if version == current:
                continue
            if self._refcounts.get(version, 0) == 0:
                self._retire_locked(version)

    def _retire_locked(self, version: int) -> None:
        snapshot = self._snapshots.pop(version)
        self._refcounts.pop(version, None)
        self.retired += 1
        index = snapshot.index
        # release the store attachment only when no *other* live version
        # shares the same index object (the startup snapshot and version 1
        # share one index when the first commit's refresh found the index
        # cache warm — never the case today, but cheap to stay correct on)
        if index is not None and not any(
            other.index is index for other in self._snapshots.values()
        ):
            if release_index(index):
                self.mappings_released += 1
        snapshot.index = None
        snapshot.payloads = {}

    # ------------------------------------------------------------------
    # reader side
    # ------------------------------------------------------------------
    def pin(self, version: Optional[int] = None) -> SnapshotLease:
        """Pin a version (default: the current one) for a request's life."""
        with self._lock:
            if version is None:
                snapshot = self._current
                if snapshot is None:
                    raise LookupError("no version published yet")
            else:
                snapshot = self._snapshots.get(version)
                if snapshot is None:
                    raise LookupError(f"version {version} is not live")
            self._refcounts[snapshot.version] += 1
            self.pins += 1
            return SnapshotLease(self, snapshot)

    def release(self, version: int) -> None:
        """Drop one lease on ``version``; retire it if now unpinned + old."""
        with self._lock:
            if version not in self._snapshots:
                return  # already retired via close()
            count = self._refcounts.get(version, 0)
            if count <= 0:
                raise RuntimeError(f"version {version} released more than pinned")
            self._refcounts[version] = count - 1
            current = (
                self._current.version if self._current is not None else None
            )
            if self._refcounts[version] == 0 and version != current:
                self._retire_locked(version)

    # ------------------------------------------------------------------
    # introspection / shutdown
    # ------------------------------------------------------------------
    @property
    def current(self) -> Optional[Snapshot]:
        with self._lock:
            return self._current

    @property
    def current_version(self) -> int:
        with self._lock:
            if self._current is None:
                raise LookupError("no version published yet")
            return self._current.version

    def live_versions(self) -> List[int]:
        """The versions currently held (retired ones are gone), sorted."""
        with self._lock:
            return sorted(self._snapshots)

    def pinned_leases(self) -> int:
        """Total outstanding leases across all live versions."""
        with self._lock:
            return sum(self._refcounts.values())

    def stats(self) -> Dict[str, int]:
        """Counters + live state for the metrics surface (JSON-safe)."""
        with self._lock:
            return {
                "published": self.published,
                "retired": self.retired,
                "pins": self.pins,
                "live_versions": len(self._snapshots),
                "pinned_leases": sum(self._refcounts.values()),
                "mappings_released": self.mappings_released,
            }

    def close(self) -> int:
        """Retire every version (current included); returns leaked leases.

        A clean shutdown drains requests first, so the return value is 0;
        anything else means a request path failed to release its lease —
        the bench gate and the concurrency suite assert on it.
        """
        with self._lock:
            leaked = sum(self._refcounts.values())
            self._current = None
            for version in sorted(self._snapshots):
                self._retire_locked(version)
            return leaked
