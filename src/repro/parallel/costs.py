"""Measured chase costs for ``ParCover``'s LPT balancing.

The paper balances cover work units with LPT over *static* weights
``|group| × |embedded|`` — the number of leave-out tests times the size of
the chase context.  That proxy ignores what actually dominates a unit's
cost: how many embeddings each context rule has into the group's pattern
and how long the chase fixpoint runs, which varies by orders of magnitude
on skewed Σ.

:class:`ChaseCostModel` closes the loop.  Every ``op_implication_batch``
measures its units' chase seconds worker-side and the master feeds them
back here, keyed by the unit's pattern-isomorphism class (the same key
``ParCover`` groups by).  The next cover over an evolving Σ — the repeated
case a :class:`~repro.session.Session` serves — weighs each unit by

* its class's EWMA of measured seconds, when the class has been seen, or
* the static weight scaled by the global seconds-per-static-weight rate,
  so unseen units stay comparable to measured ones.

Weights only matter relatively, and LPT is oblivious to their unit, so
mixing measured seconds with rate-scaled static weights is sound.  With no
observations yet the model degrades to exactly the paper's static weights.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Hashable, Optional

__all__ = ["ChaseCostModel"]


class ChaseCostModel:
    """EWMA per-unit chase costs, fed back from worker-measured timings.

    Args:
        alpha: EWMA smoothing factor in ``(0, 1]`` — the weight of the
            newest observation (1.0 = keep only the latest measurement).
    """

    def __init__(self, alpha: float = 0.5) -> None:
        if not 0.0 < alpha <= 1.0:
            raise ValueError("alpha must be in (0, 1]")
        self.alpha = alpha
        #: Number of unit timings absorbed (:meth:`observe` calls).
        self.observations = 0
        self._seconds: Dict[Hashable, float] = {}
        self._rate: Optional[float] = None  # EWMA of seconds / static weight

    @staticmethod
    def static_weight(group_size: int, embedded_size: int) -> float:
        """The paper's proxy weight ``|group| × max(1, |embedded|)``."""
        return float(group_size * max(1, embedded_size))

    def observe(
        self,
        key: Hashable,
        group_size: int,
        embedded_size: int,
        seconds: float,
    ) -> None:
        """Absorb one unit's measured chase seconds.

        ``key`` identifies the unit's pattern-isomorphism class; the global
        seconds-per-static-weight rate is updated alongside so classes never
        measured still get a calibrated estimate.
        """
        seconds = max(0.0, float(seconds))
        previous = self._seconds.get(key)
        if previous is None:
            self._seconds[key] = seconds
        else:
            self._seconds[key] = (
                self.alpha * seconds + (1.0 - self.alpha) * previous
            )
        weight = self.static_weight(group_size, embedded_size)
        if weight > 0.0:
            # an empty leave-out group has no static weight; its timing
            # still updates the per-class EWMA above, but cannot calibrate
            # the seconds-per-static-weight rate
            rate = seconds / weight
            if self._rate is None:
                self._rate = rate
            else:
                self._rate = (
                    self.alpha * rate + (1.0 - self.alpha) * self._rate
                )
        self.observations += 1

    def weight(
        self, key: Hashable, group_size: int, embedded_size: int
    ) -> float:
        """The LPT weight for one unit: measured, calibrated, or static."""
        measured = self._seconds.get(key)
        if measured is not None:
            return measured
        static = self.static_weight(group_size, embedded_size)
        if self._rate is not None:
            return static * self._rate
        return static

    def __len__(self) -> int:
        return len(self._seconds)

    # ------------------------------------------------------------------
    # persistence — warm-starting a fresh process's cover balancing
    # ------------------------------------------------------------------
    def as_state(self) -> Dict[str, Any]:
        """A JSON-safe snapshot of the model (see :meth:`from_state`).

        The isomorphism-class keys are nested tuples of strings and ints
        (:func:`~repro.pattern.canonical.canonical_key` output); they are
        stored as JSON-encoded strings so the mapping survives a round trip
        through a JSON document and restores to the *same* hashable keys.
        """
        return {
            "alpha": self.alpha,
            "observations": self.observations,
            "rate": self._rate,
            "seconds": {
                json.dumps(key): value
                for key, value in sorted(
                    self._seconds.items(), key=lambda item: repr(item[0])
                )
            },
        }

    @classmethod
    def from_state(cls, state: Dict[str, Any]) -> "ChaseCostModel":
        """Rebuild a model from :meth:`as_state` output."""

        def _tuplify(value: Any) -> Any:
            if isinstance(value, list):
                return tuple(_tuplify(item) for item in value)
            return value

        model = cls(alpha=float(state.get("alpha", 0.5)))
        model.observations = int(state.get("observations", 0))
        rate = state.get("rate")
        model._rate = None if rate is None else float(rate)
        for encoded, value in state.get("seconds", {}).items():
            model._seconds[_tuplify(json.loads(encoded))] = float(value)
        return model

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ChaseCostModel(classes={len(self._seconds)}, "
            f"observations={self.observations})"
        )
