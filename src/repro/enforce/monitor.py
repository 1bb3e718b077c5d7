"""Streaming per-rule violation monitoring via cardinality sketches.

Between full validations, a serving process wants to answer "how many
distinct nodes has rule ``φ`` *ever* pivoted a violation on?" without
keeping the (unbounded) union of every pass's flagged-node sets.  The
:class:`RuleSketchMonitor` maintains one distinct-count estimator
(:mod:`repro.core.sketch`) per rule, fed continuously by
the :class:`~repro.enforce.engine.EnforcementEngine` as passes consume the
:class:`~repro.enforce.delta.DeltaLog`: every evaluated rule streams its
violating pivot-id column into its sketch.

Why this composes with incremental refresh: an incremental pass
re-evaluates only the pattern groups dirtied by the delta, so the monitor
sees only *their* pivots — but the sketch is a monotone union (duplicates
free, registers only grow), and every clean group's violating pivots were
absorbed on the pass that last evaluated it.  The invariant is exactly
"distinct pivots ever observed in violation", the cumulative-damage gauge
a remediation pipeline wants, as opposed to the point-in-time
``distinct_pivots`` a single :class:`~repro.enforce.engine.RuleReport`
carries.

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

from ..core.sketch import (
    DistinctPivotSketch,
    ExactCardinalitySketch,
    dump_sketch_state,
    load_sketch_state,
)
from ..gfd.gfd import GFD
from ..gfd.parser import format_gfd

__all__ = ["RuleSketchMonitor"]

#: Monitor state-dict schema version (bump on layout change).
MONITOR_STATE_VERSION = 1

#: The estimator behind each ``backend`` name.
_SKETCHES = {"hll": DistinctPivotSketch, "exact": ExactCardinalitySketch}


class RuleSketchMonitor:
    """One distinct-pivot sketch per rule, keyed by the rule's text form.

    Keying by :func:`~repro.gfd.parser.format_gfd` output (stable across
    processes and Σ re-orderings) rather than by list position is what
    makes the persisted state re-attachable to a freshly loaded Σ.

    Args:
        backend: the estimator — ``"exact"`` keeps the true distinct sets,
            ``"hll"`` (the default) bounds memory at ``2^precision`` bytes
            per rule.
        precision: the estimator's precision parameter.

    Raises:
        ValueError: on an unknown ``backend`` or a ``precision`` the
            estimator rejects — at construction, not on the first absorb.
    """

    def __init__(self, backend: str = "hll", precision: int = 12) -> None:
        if backend not in _SKETCHES:
            raise ValueError(
                f"unknown monitor backend {backend!r} "
                f"(expected one of {sorted(_SKETCHES)})"
            )
        self._factory = _SKETCHES[backend]
        self._factory(precision)  # the estimator validates its precision
        self.backend = backend
        self.precision = precision
        #: Total absorb calls (pass-level feed rate, exported as a counter).
        self.absorbed = 0
        self._sketches: Dict[str, Any] = {}
        self._texts: Dict[int, str] = {}  # id(gfd) -> formatted text cache
        self._lock = threading.Lock()

    def _key(self, rule: GFD) -> str:
        text = self._texts.get(id(rule))
        if text is None:
            text = format_gfd(rule)
            self._texts[id(rule)] = text
        return text

    def absorb(self, rule: GFD, pivots: np.ndarray) -> None:
        """Stream one pass's violating pivot ids for ``rule`` (engine hook)."""
        pivots = np.asarray(pivots, dtype=np.int64)
        key = self._key(rule)
        with self._lock:
            sketch = self._sketches.get(key)
            if sketch is None:
                sketch = self._factory(self.precision)
                self._sketches[key] = sketch
            sketch.add_array(pivots)
            self.absorbed += 1

    def estimates(self) -> Dict[str, float]:
        """``{rule text: distinct-pivots-ever estimate}``, sorted by rule."""
        with self._lock:
            return {
                key: float(self._sketches[key].estimate())
                for key in sorted(self._sketches)
            }

    def estimate(self, rule: GFD) -> float:
        """The distinct-pivots-ever estimate for one rule (0.0 if unseen)."""
        key = self._key(rule)
        with self._lock:
            sketch = self._sketches.get(key)
            return float(sketch.estimate()) if sketch is not None else 0.0

    def __len__(self) -> int:
        with self._lock:
            return len(self._sketches)

    # ------------------------------------------------------------------
    # registry export
    # ------------------------------------------------------------------
    def fill_registry(
        self,
        registry: Any,
        names: Optional[Dict[str, str]] = None,
        prefix: str = "repro_serve",
    ) -> None:
        """Publish the estimates as gauges on a ``MetricsRegistry``.

        ``names`` optionally maps rule text to a short label (a serving
        layer passes Σ positions); unmapped rules fall back to the full
        text.  Label values pass through the registry's Prometheus escaping
        (rule texts contain quotes).
        """
        for text, value in self.estimates().items():
            label = names.get(text, text) if names is not None else text
            registry.gauge(
                f"{prefix}_rule_distinct_pivots_ever", rule=label
            ).set(value)
        registry.gauge(f"{prefix}_monitor_absorbed").set(float(self.absorbed))

    # ------------------------------------------------------------------
    # persistence
    # ------------------------------------------------------------------
    def as_state(self) -> Dict[str, Any]:
        """A JSON-safe snapshot (skips sketches that cannot serialize)."""
        with self._lock:
            rules: Dict[str, Any] = {}
            for key in sorted(self._sketches):
                state = dump_sketch_state(self._sketches[key])
                if state is not None:
                    rules[key] = state
            return {
                "version": MONITOR_STATE_VERSION,
                "backend": self.backend,
                "precision": self.precision,
                "absorbed": self.absorbed,
                "rules": rules,
            }

    @classmethod
    def from_state(cls, state: Dict[str, Any]) -> "RuleSketchMonitor":
        """Rebuild a monitor from :meth:`as_state` output.

        An unknown backend or precision raises ``ValueError`` (see
        :class:`RuleSketchMonitor`); a structurally mismatched per-rule
        sketch state is skipped, not fatal — that rule cold-starts.
        """
        monitor = cls(
            backend=str(state.get("backend", "hll")),
            precision=int(state.get("precision", 12)),
        )
        monitor.absorbed = int(state.get("absorbed", 0))
        for key, sketch_state in state.get("rules", {}).items():
            try:
                sketch = load_sketch_state(sketch_state, monitor._factory)
            except (ValueError, KeyError):
                sketch = None
            if sketch is not None:
                monitor._sketches[key] = sketch
        return monitor

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"RuleSketchMonitor(backend={self.backend!r}, "
            f"rules={len(self)}, absorbed={self.absorbed})"
        )
