"""The distinct-count estimators behind the streaming violation monitor.

Every distinct count the system *reports* — supports, a rule report's
``distinct_pivots`` — is exact.  The one estimate is the serving monitor's
"distinct pivots ever in violation" gauge (:mod:`repro.enforce.monitor`),
which keeps one of two estimators per rule:

* :class:`DistinctPivotSketch` — a vectorized HyperLogLog, ``2^p``
  one-byte registers per rule (the monitor's ``"hll"`` default);
* :class:`ExactCardinalitySketch` — keeps the distinct set: no error,
  O(distinct) memory (``"exact"``; the reference the HLL tests compare
  against).

Both absorb int64 id arrays with ``add_array`` (duplicates free) and answer
``estimate``; :func:`dump_sketch_state` / :func:`load_sketch_state` persist
them beside Σ.
"""

from __future__ import annotations

import base64
import math
from typing import Any, Callable, Optional

import numpy as np

__all__ = [
    "DistinctPivotSketch",
    "ExactCardinalitySketch",
    "dump_sketch_state",
    "load_sketch_state",
]


class DistinctPivotSketch:
    """HLL-style sketch of a distinct-pivot count ``|Q(G, ·, z)|``.

    A vectorized HyperLogLog over int64 pivot ids: ``2^p`` one-byte
    registers, a splitmix64-style avalanche hash, and the standard raw /
    linear-counting estimators.  :meth:`upper_bound` inflates the estimate
    by ``z`` standard errors (``σ ≈ 1.04/√m``), a *probable* upper bound.

    Sketches over disjoint (or overlapping) pivot populations merge by
    register-wise max into the sketch of their union.
    """

    __slots__ = ("precision", "registers")

    def __init__(self, precision: int = 12) -> None:
        if not 4 <= precision <= 18:
            raise ValueError("precision must be in [4, 18]")
        self.precision = precision
        self.registers = np.zeros(1 << precision, dtype=np.uint8)

    @staticmethod
    def _hash(values: np.ndarray) -> np.ndarray:
        """Splitmix64 finalizer: avalanche int64 ids into uniform uint64."""
        h = values.astype(np.uint64, copy=True)
        h += np.uint64(0x9E3779B97F4A7C15)
        h ^= h >> np.uint64(30)
        h *= np.uint64(0xBF58476D1CE4E5B9)
        h ^= h >> np.uint64(27)
        h *= np.uint64(0x94D049BB133111EB)
        h ^= h >> np.uint64(31)
        return h

    def add_array(self, values: np.ndarray) -> "DistinctPivotSketch":
        """Absorb an array of pivot ids (duplicates are free)."""
        if values.size == 0:
            return self
        p = self.precision
        tail_bits = 64 - p
        h = self._hash(np.asarray(values, dtype=np.int64))
        buckets = (h >> np.uint64(tail_bits)).astype(np.int64)
        tail = h & np.uint64((1 << tail_bits) - 1)
        # rank = leading zeros of the tail within tail_bits, plus one;
        # tail < 2^52 for p >= 12 is exactly representable, and frexp's
        # exponent gives floor(log2)+1 directly (0 for a zero tail)
        exponent = np.frexp(tail.astype(np.float64))[1]
        rank = (tail_bits + 1 - exponent).astype(np.uint8)
        np.maximum.at(self.registers, buckets, rank)
        return self

    def merge(self, other: "DistinctPivotSketch") -> "DistinctPivotSketch":
        """Union with another sketch (register-wise max)."""
        if other.precision != self.precision:
            raise ValueError("cannot merge sketches of different precision")
        np.maximum(self.registers, other.registers, out=self.registers)
        return self

    def estimate(self) -> float:
        """The HLL cardinality estimate with linear-counting correction."""
        m = self.registers.size
        alpha = 0.7213 / (1.0 + 1.079 / m)
        harmonic = float(np.sum(np.ldexp(1.0, -self.registers.astype(np.int64))))
        raw = alpha * m * m / harmonic
        zeros = int(np.count_nonzero(self.registers == 0))
        if raw <= 2.5 * m and zeros:
            return m * math.log(m / zeros)
        return raw

    def upper_bound(self, z: float = 3.0) -> int:
        """Estimate inflated by ``z`` standard errors (probable upper bound)."""
        m = self.registers.size
        return int(math.ceil(self.estimate() * (1.0 + z * 1.04 / math.sqrt(m))))


class ExactCardinalitySketch:
    """The trivial exact "sketch": keeps the distinct set.

    Zero error and O(distinct) memory — the reference point the HLL sketch
    is tested against, and a sensible choice for small populations where
    sketch memory buys nothing.  ``precision`` is accepted for interface
    parity and ignored.
    """

    __slots__ = ("precision", "_values")

    def __init__(self, precision: int = 12) -> None:
        self.precision = precision
        self._values: set = set()

    def add_array(self, values: np.ndarray) -> "ExactCardinalitySketch":
        if np.asarray(values).size:
            self._values.update(np.unique(np.asarray(values)).tolist())
        return self

    def estimate(self) -> float:
        return float(len(self._values))


# ----------------------------------------------------------------------
# state (de)serialization — so sketches can persist beside Σ
# ----------------------------------------------------------------------
def dump_sketch_state(sketch: Any) -> Optional[dict]:
    """A JSON-safe state dict for a sketch, or ``None`` if not supported.

    Register sketches (the HLL) serialize their registers base64-encoded;
    exact sketches serialize the sorted value list.
    """
    registers = getattr(sketch, "registers", None)
    if isinstance(registers, np.ndarray):
        return {
            "kind": "registers",
            "precision": int(sketch.precision),
            "registers": base64.b64encode(
                np.ascontiguousarray(registers, dtype=np.uint8).tobytes()
            ).decode("ascii"),
        }
    values = getattr(sketch, "_values", None)
    if isinstance(values, set):
        return {
            "kind": "exact",
            "precision": int(sketch.precision),
            "values": sorted(int(v) for v in values),
        }
    return None


def load_sketch_state(
    state: dict, factory: Callable[[int], Any]
) -> Optional[Any]:
    """Rebuild a sketch from :func:`dump_sketch_state` output.

    ``factory`` is the estimator class to instantiate; the state must
    structurally match it (register blob for register sketches, value list
    for exact ones) or the load is refused (``None``) rather than producing
    an estimator with silently-wrong state.
    """
    kind = state.get("kind")
    precision = int(state.get("precision", 12))
    sketch = factory(precision)
    if kind == "registers":
        registers = getattr(sketch, "registers", None)
        if not isinstance(registers, np.ndarray):
            return None
        blob = np.frombuffer(
            base64.b64decode(state["registers"]), dtype=np.uint8
        )
        if blob.size != registers.size:
            return None
        sketch.registers = blob.copy()
        return sketch
    if kind == "exact":
        values = getattr(sketch, "_values", None)
        if not isinstance(values, set):
            return None
        values.update(int(v) for v in state.get("values", ()))
        return sketch
    return None
