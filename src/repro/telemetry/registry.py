"""Metrics registry: Counter / Gauge / Histogram primitives with labels.

Until this subsystem, the library's operational accounting lived in three
disconnected silos -- :class:`repro.profiling.ServingMetrics` per queue, the
engine's :class:`repro.engine.cache.CacheStats`, and the backends' counters --
none of which shared a naming scheme or a machine-readable export.  The
:class:`MetricsRegistry` is the one place they all publish to:

* **primitives** -- :class:`Counter` (monotone totals), :class:`Gauge`
  (instantaneous values) and :class:`Histogram` (bucketed distributions),
  each optionally carrying *labels* (``requests_total{replica="0"}``) so one
  metric family covers several bound objects;
* **pull-model collectors** -- existing accounting objects are *bound* to
  the registry (:mod:`repro.telemetry.instrument`) through callbacks that
  run at collection time, so the hot paths those silos already instrument
  gain **zero** new work per request: nothing happens until something
  scrapes;
* **deterministic snapshots** -- :meth:`MetricsRegistry.deterministic_snapshot`
  drops every wall-clock family (suffix ``_seconds`` / ``_rps`` by the
  naming convention below), leaving exactly the counters, sizes and ratios
  that two identical request streams must reproduce identically -- the
  property the metamorphic metrics suite pins.

Naming conventions (enforced only by review, rendered by
:func:`repro.telemetry.prometheus.render_prometheus`):

* every family is prefixed ``repro_``;
* units are suffixes: ``_seconds``, ``_bytes``, ``_total`` (monotone
  counts), ``_ratio``;
* wall-clock measurements -- and only those -- end in ``_seconds`` or
  ``_rps``, so deterministic filtering is a pure function of the name.
"""

from __future__ import annotations

import re
import threading
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from ..exceptions import TelemetryError

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_LATENCY_BUCKETS",
]

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")

#: Seconds-scale buckets covering sub-millisecond cache hits through
#: multi-second cold flushes -- the serving latency range this system spans.
DEFAULT_LATENCY_BUCKETS = (
    0.0005,
    0.001,
    0.0025,
    0.005,
    0.01,
    0.025,
    0.05,
    0.1,
    0.25,
    0.5,
    1.0,
    2.5,
    5.0,
)


def _validate_name(name: str) -> str:
    if not _NAME_RE.match(name):
        raise TelemetryError(f"invalid metric name {name!r}")
    return name


def _validate_labelnames(labelnames: Sequence[str]) -> Tuple[str, ...]:
    out = tuple(labelnames)
    for label in out:
        if not _LABEL_RE.match(label) or label.startswith("__"):
            raise TelemetryError(f"invalid label name {label!r}")
    if len(set(out)) != len(out):
        raise TelemetryError(f"duplicate label names in {out}")
    return out


class _Metric:
    """Shared machinery of one metric family: label handling + series map."""

    metric_type = "untyped"

    def __init__(self, name: str, help: str, labelnames: Sequence[str] = ()) -> None:
        self.name = _validate_name(name)
        self.help = str(help)
        self.labelnames = _validate_labelnames(labelnames)
        self._lock = threading.Lock()
        self._series: "Dict[Tuple[str, ...], object]" = {}

    # ------------------------------------------------------------------
    def _key(self, labels: Dict[str, str] | None) -> Tuple[str, ...]:
        labels = labels or {}
        if set(labels) != set(self.labelnames):
            raise TelemetryError(
                f"metric {self.name!r} expects labels {self.labelnames}, "
                f"got {tuple(sorted(labels))}"
            )
        return tuple(str(labels[k]) for k in self.labelnames)

    def labels(self, **labels: str) -> "_Bound":
        """A bound handle for one label combination."""
        return _Bound(self, self._key(labels))

    def series(self) -> List[Tuple[Tuple[str, ...], object]]:
        """(label values, payload) pairs sorted by label values."""
        with self._lock:
            return sorted(self._series.items())

    def label_dicts(self) -> List[Dict[str, str]]:
        """The recorded label combinations as dictionaries."""
        return [dict(zip(self.labelnames, key)) for key, _ in self.series()]


class _Bound:
    """One (metric, label values) pair; forwards the write API."""

    __slots__ = ("_metric", "_key")

    def __init__(self, metric: _Metric, key: Tuple[str, ...]) -> None:
        self._metric = metric
        self._key = key

    def inc(self, amount: float = 1.0) -> None:
        self._metric._inc(self._key, amount)

    def dec(self, amount: float = 1.0) -> None:
        self._metric._inc(self._key, -amount)

    def set(self, value: float) -> None:
        self._metric._set(self._key, value)

    def set_total(self, value: float) -> None:
        self._metric._set(self._key, value)

    def observe(self, value: float) -> None:
        self._metric._observe(self._key, value)

    def replace(self, values: Iterable[float]) -> None:
        self._metric._replace(self._key, values)

    @property
    def value(self) -> float:
        return self._metric._get(self._key)


class Counter(_Metric):
    """A monotone total.  ``inc`` adds; ``set_total`` is for collectors that
    mirror an externally accumulated count (the pull-model bindings)."""

    metric_type = "counter"

    def _inc(self, key: Tuple[str, ...], amount: float) -> None:
        if amount < 0:
            raise TelemetryError(
                f"counter {self.name!r} cannot decrease (inc by {amount})"
            )
        with self._lock:
            self._series[key] = float(self._series.get(key, 0.0)) + amount

    def _set(self, key: Tuple[str, ...], value: float) -> None:
        if value < 0:
            raise TelemetryError(f"counter {self.name!r} cannot be negative")
        with self._lock:
            self._series[key] = float(value)

    def _get(self, key: Tuple[str, ...]) -> float:
        with self._lock:
            return float(self._series.get(key, 0.0))

    def _observe(self, key, value):  # pragma: no cover - API symmetry
        raise TelemetryError(f"counter {self.name!r} does not support observe()")

    def _replace(self, key, values):  # pragma: no cover - API symmetry
        raise TelemetryError(f"counter {self.name!r} does not support replace()")

    def inc(self, amount: float = 1.0) -> None:
        self._inc(self._key(None), amount)

    def set_total(self, value: float) -> None:
        self._set(self._key(None), value)

    @property
    def value(self) -> float:
        return self._get(self._key(None))


class Gauge(_Metric):
    """An instantaneous value that can move both ways."""

    metric_type = "gauge"

    def _inc(self, key: Tuple[str, ...], amount: float) -> None:
        with self._lock:
            self._series[key] = float(self._series.get(key, 0.0)) + amount

    def _set(self, key: Tuple[str, ...], value: float) -> None:
        with self._lock:
            self._series[key] = float(value)

    def _get(self, key: Tuple[str, ...]) -> float:
        with self._lock:
            return float(self._series.get(key, 0.0))

    def _observe(self, key, value):  # pragma: no cover - API symmetry
        raise TelemetryError(f"gauge {self.name!r} does not support observe()")

    def _replace(self, key, values):  # pragma: no cover - API symmetry
        raise TelemetryError(f"gauge {self.name!r} does not support replace()")

    def set(self, value: float) -> None:
        self._set(self._key(None), value)

    def inc(self, amount: float = 1.0) -> None:
        self._inc(self._key(None), amount)

    def dec(self, amount: float = 1.0) -> None:
        self._inc(self._key(None), -amount)

    @property
    def value(self) -> float:
        return self._get(self._key(None))


class _HistogramData:
    """Bucket counts + sum for one histogram series."""

    __slots__ = ("bucket_counts", "total", "count")

    def __init__(self, num_buckets: int) -> None:
        self.bucket_counts = [0] * num_buckets
        self.total = 0.0
        self.count = 0

    def observe(self, upper_bounds: Tuple[float, ...], value: float) -> None:
        value = float(value)
        for i, bound in enumerate(upper_bounds):
            if value <= bound:
                self.bucket_counts[i] += 1
                break
        self.total += value
        self.count += 1


class Histogram(_Metric):
    """A bucketed distribution with Prometheus cumulative-bucket semantics.

    ``buckets`` are the *upper bounds* of the non-cumulative bins; an
    implicit ``+Inf`` bucket catches the tail.  ``replace`` rebuilds a series
    from a full sample list -- the pull-model bindings use it to mirror
    sample silos (e.g. a queue's recorded latencies) at collection time.
    """

    metric_type = "histogram"

    def __init__(
        self,
        name: str,
        help: str,
        labelnames: Sequence[str] = (),
        buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS,
    ) -> None:
        super().__init__(name, help, labelnames)
        bounds = tuple(float(b) for b in buckets)
        if not bounds:
            raise TelemetryError(f"histogram {name!r} needs at least one bucket")
        if any(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])):
            raise TelemetryError(
                f"histogram {name!r} buckets must be strictly increasing"
            )
        # The +Inf catch-all is implicit; storage has one extra slot for it.
        self.upper_bounds = bounds

    def _data(self, key: Tuple[str, ...]) -> _HistogramData:
        data = self._series.get(key)
        if data is None:
            data = _HistogramData(len(self.upper_bounds) + 1)
            self._series[key] = data
        assert isinstance(data, _HistogramData)
        return data

    def _observe(self, key: Tuple[str, ...], value: float) -> None:
        with self._lock:
            self._data(key).observe(self.upper_bounds + (float("inf"),), value)

    def _replace(self, key: Tuple[str, ...], values: Iterable[float]) -> None:
        data = _HistogramData(len(self.upper_bounds) + 1)
        bounds = self.upper_bounds + (float("inf"),)
        for value in values:
            data.observe(bounds, value)
        with self._lock:
            self._series[key] = data

    def _inc(self, key, amount):  # pragma: no cover - API symmetry
        raise TelemetryError(f"histogram {self.name!r} does not support inc()")

    def _set(self, key, value):  # pragma: no cover - API symmetry
        raise TelemetryError(f"histogram {self.name!r} does not support set()")

    def _get(self, key):  # pragma: no cover - API symmetry
        raise TelemetryError(f"histogram {self.name!r} has no scalar value")

    def observe(self, value: float) -> None:
        self._observe(self._key(None), value)

    def replace(self, values: Iterable[float]) -> None:
        self._replace(self._key(None), values)

    def series_dict(self, data: _HistogramData) -> Dict:
        """JSON form of one series: cumulative buckets + sum + count."""
        cumulative = 0
        buckets: Dict[str, int] = {}
        for bound, count in zip(self.upper_bounds, data.bucket_counts):
            cumulative += count
            buckets[format_bound(bound)] = cumulative
        buckets["+Inf"] = data.count
        return {"buckets": buckets, "sum": data.total, "count": data.count}


def format_bound(bound: float) -> str:
    """Canonical text form of a bucket upper bound (``0.005``, ``+Inf``)."""
    if bound == float("inf"):
        return "+Inf"
    if bound == int(bound):
        return str(int(bound))
    return repr(float(bound))


class MetricsRegistry:
    """One process-wide catalogue of metric families plus pull collectors.

    ``counter`` / ``gauge`` / ``histogram`` create-or-return a family:
    repeated registration with the same signature hands back the existing
    object (so binding helpers are idempotent), while a type or label-set
    conflict raises :class:`~repro.exceptions.TelemetryError`.

    Collectors registered through :meth:`register_collector` run at every
    :meth:`collect` (and therefore at every scrape / snapshot): each reads
    some accounting silo and writes the current values into the registry.
    This is the pull model -- hot paths never touch the registry.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._metrics: "Dict[str, _Metric]" = {}
        self._collectors: "Dict[str, Callable[[], None]]" = {}
        self._collector_counter = 0

    # ------------------------------------------------------------------
    def _register(self, metric: _Metric) -> _Metric:
        with self._lock:
            existing = self._metrics.get(metric.name)
            if existing is not None:
                if (
                    type(existing) is not type(metric)
                    or existing.labelnames != metric.labelnames
                ):
                    raise TelemetryError(
                        f"metric {metric.name!r} already registered as "
                        f"{existing.metric_type} with labels {existing.labelnames}"
                    )
                return existing
            self._metrics[metric.name] = metric
            return metric

    def counter(
        self, name: str, help: str, labelnames: Sequence[str] = ()
    ) -> Counter:
        """Create or fetch a counter family."""
        metric = self._register(Counter(name, help, labelnames))
        assert isinstance(metric, Counter)
        return metric

    def gauge(self, name: str, help: str, labelnames: Sequence[str] = ()) -> Gauge:
        """Create or fetch a gauge family."""
        metric = self._register(Gauge(name, help, labelnames))
        assert isinstance(metric, Gauge)
        return metric

    def histogram(
        self,
        name: str,
        help: str,
        labelnames: Sequence[str] = (),
        buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS,
    ) -> Histogram:
        """Create or fetch a histogram family."""
        metric = self._register(Histogram(name, help, labelnames, buckets))
        assert isinstance(metric, Histogram)
        return metric

    def get(self, name: str) -> Optional[_Metric]:
        """The registered family called ``name``, if any."""
        with self._lock:
            return self._metrics.get(name)

    # ------------------------------------------------------------------
    def register_collector(
        self, collector: Callable[[], None], name: str | None = None
    ) -> str:
        """Attach a pull-model collector; returns its registry key.

        ``name`` deduplicates: re-registering under the same name replaces
        the previous collector instead of stacking a second read of the same
        silo (binding helpers pass a stable name per bound object).
        """
        with self._lock:
            if name is None:
                self._collector_counter += 1
                name = f"collector-{self._collector_counter}"
            self._collectors[name] = collector
            return name

    def unregister_collector(self, name: str) -> None:
        """Detach one collector (unknown names are a no-op)."""
        with self._lock:
            self._collectors.pop(name, None)

    def collect(self) -> List[_Metric]:
        """Run every collector, then return the families sorted by name."""
        with self._lock:
            collectors = list(self._collectors.values())
        for collector in collectors:
            collector()
        with self._lock:
            return [self._metrics[name] for name in sorted(self._metrics)]

    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Dict]:
        """JSON-friendly snapshot of every family (collectors included)."""
        out: Dict[str, Dict] = {}
        for metric in self.collect():
            series = []
            for key, payload in metric.series():
                entry: Dict = {"labels": dict(zip(metric.labelnames, key))}
                if isinstance(metric, Histogram):
                    assert isinstance(payload, _HistogramData)
                    entry.update(metric.series_dict(payload))
                else:
                    entry["value"] = payload
                series.append(entry)
            out[metric.name] = {
                "type": metric.metric_type,
                "help": metric.help,
                "series": series,
            }
        return out

    def deterministic_snapshot(self) -> Dict[str, Dict]:
        """The snapshot minus every wall-clock family.

        Wall-clock measurement families end in ``_seconds`` or ``_rps`` by
        the naming convention; everything else (request counts, batch sizes,
        hit ratios, launch counts, byte sizes) is a pure function of the
        request stream and must be identical across reruns -- the contract
        the metamorphic metrics suite asserts.
        """
        return {
            name: family
            for name, family in self.to_dict().items()
            if not name.endswith(("_seconds", "_rps"))
        }
