"""Streaming per-rule violation monitoring with exact counts.

Between full validations, a serving process wants to answer "how many
distinct nodes has rule ``φ`` *ever* pivoted a violation on?".  The
:class:`RuleSketchMonitor` keeps, per rule, the sorted set of every pivot
id it has seen in violation, fed by the
:class:`~repro.enforce.engine.EnforcementEngine` as passes consume the
:class:`~repro.enforce.delta.DeltaLog`: every evaluated rule hands over
its distinct violating pivot ids and the monitor unions them in.  The
count is exact, like every other count the system reports, and costs
8 bytes per distinct pivot ever seen (at most ``8·|V|`` per rule).

Why this composes with incremental refresh: an incremental pass
re-evaluates only the pattern groups dirtied by the delta, so the monitor
sees only *their* pivots — but the store is a monotone union, and every
clean group's violating pivots were absorbed on the pass that last
evaluated it.  The invariant is exactly "distinct pivots ever observed in
violation", the cumulative-damage gauge a remediation pipeline wants, as
opposed to the point-in-time ``distinct_pivots`` a single
:class:`~repro.enforce.engine.RuleReport` carries.

The monitor is thread-safe (a serving process absorbs from its execution
lane while ``/metrics`` scrapes from the event loop) and serializable
(:meth:`as_state`/:meth:`from_state`) so a fresh process warm-starts with
the violation history persisted beside Σ by
:meth:`~repro.session.Session.save_sigma`.
"""

from __future__ import annotations

import threading
from typing import Any, Dict, Optional

import numpy as np

from ..gfd.gfd import GFD
from ..gfd.parser import format_gfd

__all__ = ["RuleSketchMonitor"]

#: Monitor state-dict schema version (bump on layout change).
MONITOR_STATE_VERSION = 2

_EMPTY = np.empty(0, dtype=np.int64)


class RuleSketchMonitor:
    """One sorted, unique ``int64`` pivot array per rule, keyed by rule text.

    Keying by :func:`~repro.gfd.parser.format_gfd` output (stable across
    processes and Σ re-orderings) rather than by list position is what
    makes the persisted state re-attachable to a freshly loaded Σ.
    """

    def __init__(self) -> None:
        #: Total absorb calls (pass-level feed rate, exported as a counter).
        self.absorbed = 0
        self._seen: Dict[str, np.ndarray] = {}
        self._lock = threading.Lock()

    def absorb(self, rule: GFD, pivots: np.ndarray) -> None:
        """Union one pass's violating pivot ids for ``rule`` (engine hook)."""
        pivots = np.asarray(pivots, dtype=np.int64)
        key = format_gfd(rule)
        with self._lock:
            self._seen[key] = np.union1d(self._seen.get(key, _EMPTY), pivots)
            self.absorbed += 1

    def estimates(self) -> Dict[str, int]:
        """``{rule text: distinct pivots ever in violation}``, sorted by rule."""
        with self._lock:
            return {key: int(self._seen[key].size) for key in sorted(self._seen)}

    def estimate(self, rule: GFD) -> int:
        """The distinct-pivots-ever count for one rule (0 if unseen)."""
        key = format_gfd(rule)
        with self._lock:
            return int(self._seen.get(key, _EMPTY).size)

    def __len__(self) -> int:
        with self._lock:
            return len(self._seen)

    # ------------------------------------------------------------------
    # registry export
    # ------------------------------------------------------------------
    def fill_registry(
        self,
        registry: Any,
        names: Optional[Dict[str, str]] = None,
        prefix: str = "repro_serve",
    ) -> None:
        """Publish the counts as gauges on a ``MetricsRegistry``.

        ``names`` optionally maps rule text to a short label (a serving
        layer passes Σ positions); unmapped rules fall back to the full
        text.  Label values pass through the registry's Prometheus escaping
        (rule texts contain quotes).
        """
        for text, value in self.estimates().items():
            label = names.get(text, text) if names is not None else text
            registry.gauge(
                f"{prefix}_rule_distinct_pivots_ever", rule=label
            ).set(float(value))
        registry.gauge(f"{prefix}_monitor_absorbed").set(float(self.absorbed))

    # ------------------------------------------------------------------
    # persistence
    # ------------------------------------------------------------------
    def as_state(self) -> Dict[str, Any]:
        """A JSON-safe snapshot: every rule's sorted pivot ids."""
        with self._lock:
            return {
                "version": MONITOR_STATE_VERSION,
                "absorbed": self.absorbed,
                "rules": {
                    key: self._seen[key].tolist() for key in sorted(self._seen)
                },
            }

    @classmethod
    def from_state(cls, state: Dict[str, Any]) -> "RuleSketchMonitor":
        """Rebuild a monitor from :meth:`as_state` output.

        Raises:
            ValueError: on any version but :data:`MONITOR_STATE_VERSION`
                (the message names it), or on a malformed entry — an
                ``absorbed`` that is not an int, or a rule whose pivots are
                not a list of ints.
        """
        version = state.get("version")
        if version != MONITOR_STATE_VERSION:
            raise ValueError(
                f"unsupported monitor state version {version!r} "
                f"(expected {MONITOR_STATE_VERSION})"
            )
        absorbed = state.get("absorbed", 0)
        rules = state.get("rules", {})
        if type(absorbed) is not int or not isinstance(rules, dict):
            raise ValueError("malformed monitor state")
        monitor = cls()
        monitor.absorbed = absorbed
        for key, pivots in rules.items():
            if not isinstance(pivots, list) or any(
                type(pivot) is not int for pivot in pivots
            ):
                raise ValueError(
                    f"malformed monitor state for rule {key!r}: "
                    f"expected a list of ints"
                )
            try:
                monitor._seen[key] = np.unique(np.array(pivots, dtype=np.int64))
            except OverflowError as exc:
                raise ValueError(
                    f"malformed monitor state for rule {key!r}: {exc}"
                ) from None
        return monitor

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RuleSketchMonitor(rules={len(self)}, absorbed={self.absorbed})"
