"""A small metrics registry: named counters, gauges, and histograms.

The registry unifies the accounting that previously lived in four
unrelated structures — ``TransferLedger``, ``LifecycleCounters``,
``ClusterMetrics``, and the fault counters — behind one name +
label model with a Prometheus-style text exposition
(:meth:`MetricsRegistry.to_prometheus`) for the future serving layer.

:func:`registry_from_metrics` bridges a
:meth:`repro.session.SessionMetrics.as_dict` payload into a registry, so
``Session.metrics().registry()`` needs no bespoke export code per source
structure.
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "registry_from_metrics",
]

LabelKey = Tuple[Tuple[str, str], ...]


def _label_key(labels: Mapping[str, Any]) -> LabelKey:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def _escape_label_value(value: str) -> str:
    # Prometheus text format: backslash, double quote, and newline must be
    # escaped inside label values (rule-text labels contain quotes)
    return (
        value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def _format_labels(labels: LabelKey) -> str:
    if not labels:
        return ""
    body = ",".join(
        f'{name}="{_escape_label_value(value)}"' for name, value in labels
    )
    return "{" + body + "}"


class Counter:
    """A monotonically increasing value."""

    __slots__ = ("value",)
    TYPE = "counter"

    def __init__(self) -> None:
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        self.value += amount

    def samples(self) -> Iterator[Tuple[str, float]]:
        yield "", self.value


class Gauge:
    """A value that can go up or down (set to the latest reading)."""

    __slots__ = ("value",)
    TYPE = "gauge"

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.value -= amount

    def samples(self) -> Iterator[Tuple[str, float]]:
        yield "", self.value


class Histogram:
    """Fixed-bucket histogram (cumulative ``le`` buckets, Prometheus style)."""

    __slots__ = ("buckets", "counts", "count", "sum")
    TYPE = "histogram"

    #: Default bucket upper bounds, in seconds — spans op/phase durations
    #: from sub-millisecond chase steps to multi-minute discovery runs.
    DEFAULT_BUCKETS: Tuple[float, ...] = (
        0.001, 0.005, 0.025, 0.1, 0.5, 2.5, 10.0, 60.0,
    )

    def __init__(self, buckets: Optional[Sequence[float]] = None) -> None:
        bounds = tuple(buckets) if buckets is not None else self.DEFAULT_BUCKETS
        if list(bounds) != sorted(bounds):
            raise ValueError("histogram buckets must be sorted ascending")
        self.buckets = bounds
        self.counts = [0] * len(bounds)
        self.count = 0
        self.sum = 0.0

    def observe(self, value: float) -> None:
        value = float(value)
        self.count += 1
        self.sum += value
        for index, bound in enumerate(self.buckets):
            if value <= bound:
                self.counts[index] += 1

    def quantile(self, q: float) -> float:
        """Estimate the ``q``-quantile from the cumulative buckets.

        Prometheus-style linear interpolation within the bucket that
        crosses rank ``q·count``; observations above the last finite bound
        clamp to that bound (the +Inf bucket has no width to interpolate
        over).  Returns 0.0 with no observations.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError("quantile must be in [0, 1]")
        if self.count == 0:
            return 0.0
        rank = q * self.count
        previous_bound = 0.0
        previous_count = 0
        for bound, cumulative in zip(self.buckets, self.counts):
            if cumulative >= rank:
                in_bucket = cumulative - previous_count
                if in_bucket <= 0:
                    return bound
                fraction = (rank - previous_count) / in_bucket
                return previous_bound + (bound - previous_bound) * fraction
            previous_bound = bound
            previous_count = cumulative
        return self.buckets[-1] if self.buckets else 0.0

    def samples(self) -> Iterator[Tuple[str, float]]:
        for bound, count in zip(self.buckets, self.counts):
            yield f'_bucket{{le="{bound}"}}', float(count)
        yield '_bucket{le="+Inf"}', float(self.count)
        yield "_sum", self.sum
        yield "_count", float(self.count)


class MetricsRegistry:
    """Get-or-create registry of metrics keyed by ``(name, labels)``."""

    def __init__(self) -> None:
        self._metrics: Dict[Tuple[str, LabelKey], Any] = {}
        self._types: Dict[str, type] = {}

    def _get(self, cls: type, name: str, labels: Mapping[str, Any], **kwargs: Any):
        existing_type = self._types.get(name)
        if existing_type is not None and existing_type is not cls:
            raise TypeError(
                f"metric {name!r} already registered as "
                f"{existing_type.__name__}, not {cls.__name__}"
            )
        key = (name, _label_key(labels))
        metric = self._metrics.get(key)
        if metric is None:
            metric = cls(**kwargs)
            self._metrics[key] = metric
            self._types[name] = cls
        return metric

    def counter(self, name: str, **labels: Any) -> Counter:
        return self._get(Counter, name, labels)

    def gauge(self, name: str, **labels: Any) -> Gauge:
        return self._get(Gauge, name, labels)

    def histogram(
        self,
        name: str,
        buckets: Optional[Sequence[float]] = None,
        **labels: Any,
    ) -> Histogram:
        return self._get(Histogram, name, labels, buckets=buckets)

    def __len__(self) -> int:
        return len(self._metrics)

    def __iter__(self) -> Iterator[Tuple[str, LabelKey, Any]]:
        for (name, labels), metric in sorted(
            self._metrics.items(), key=lambda item: item[0]
        ):
            yield name, labels, metric

    def as_dict(self) -> Dict[str, Dict[str, float]]:
        """Flat ``{name: {suffix+labels: value}}`` view (sorted, JSON-safe).

        Histograms surface their ``_sum``/``_count``/bucket samples as
        suffixed inner keys, mirroring the text exposition.
        """
        report: Dict[str, Dict[str, float]] = {}
        for name, labels, metric in self:
            label_string = _format_labels(labels)
            for suffix, value in metric.samples():
                report.setdefault(name, {})[suffix + label_string] = value
        return report

    def to_prometheus(self) -> str:
        """Prometheus text exposition format (version 0.0.4), sorted.

        Deterministic: metrics sort by name then label set, so two runs
        with identical counts produce identical text.
        """
        lines: List[str] = []
        last_name: Optional[str] = None
        for name, labels, metric in self:
            if name != last_name:
                lines.append(f"# TYPE {name} {metric.TYPE}")
                last_name = name
            for suffix, value in metric.samples():
                if suffix.startswith("_bucket"):
                    # merge histogram le label with the metric labels
                    le = suffix[len("_bucket") :]
                    base = _format_labels(labels)
                    if base:
                        merged = base[:-1] + "," + le[1:]
                    else:
                        merged = le
                    lines.append(f"{name}_bucket{merged} {_render(value)}")
                elif suffix:
                    lines.append(
                        f"{name}{suffix}{_format_labels(labels)} {_render(value)}"
                    )
                else:
                    lines.append(
                        f"{name}{_format_labels(labels)} {_render(value)}"
                    )
        return "\n".join(lines) + ("\n" if lines else "")


def _render(value: float) -> str:
    if value == int(value):
        return str(int(value))
    return repr(value)


def registry_from_metrics(payload: Mapping[str, Any]) -> MetricsRegistry:
    """Bridge a ``SessionMetrics.as_dict()`` payload into a registry.

    Counts become ``repro_*_total`` counters and wall-clock figures become
    gauges under their ``timings`` names.
    """
    registry = MetricsRegistry()
    registry.gauge("repro_num_workers").set(payload.get("num_workers", 0))
    for phase, count in (payload.get("phases") or {}).items():
        registry.counter("repro_phase_runs_total", phase=phase).inc(count)
    registry.counter("repro_backend_starts_total").inc(
        payload.get("backend_starts", 0)
    )
    for name, count in (payload.get("lifecycle") or {}).items():
        registry.counter(f"repro_lifecycle_{name}_total").inc(count)
    for name, count in (payload.get("faults") or {}).items():
        registry.counter(f"repro_fault_{name}_total").inc(count)
    for name, count in (payload.get("transfers") or {}).items():
        registry.counter(f"repro_transfer_{name}_total").inc(count)
    for name, count in (payload.get("cluster") or {}).items():
        registry.counter(f"repro_cluster_{name}_total").inc(count)
    registry.gauge("repro_sigma_size").set(payload.get("sigma_size", 0))
    timings = payload.get("timings") or {}
    for name, value in timings.items():
        registry.gauge(f"repro_{name}").set(value)
    return registry
