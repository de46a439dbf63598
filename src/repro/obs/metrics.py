"""A lock-cheap metrics registry: counters, gauges, log-scale histograms.

Design constraints (ISSUE 8):

- **Near-zero overhead when disabled.**  Every mutation starts with a
  single flag check on the owning registry and returns immediately when
  metrics are off; no locks are taken and no dicts are touched.
- **Lock-cheap when enabled.**  Instrumentation sites increment once per
  *scan/commit/query*, never per row, so a plain per-metric lock is
  plenty — the lock is held for a dict update only.
- **Fixed log-scale histogram buckets.**  Bucket bounds are computed
  once at registration (`log_buckets`), so `observe` is a bisect plus
  three additions.

Metrics may carry labels (e.g. ``shard="3"``).  A metric without labels
stores its value under the empty label tuple; labelled children are
created on first use.  ``render`` emits Prometheus-style text
exposition; ``snapshot`` returns plain dicts for programmatic use.

The process-wide default registry is ``REGISTRY`` — instrumented modules
grab metric handles from it at import time.  Tests can build private
``MetricsRegistry`` instances, or ``reset()`` the shared one.
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from typing import Callable, Dict, List, Optional, Sequence, Tuple

LabelKey = Tuple[str, ...]


def log_buckets(lo: float, hi: float, factor: float = 2.0) -> Tuple[float, ...]:
    """Geometric bucket upper bounds covering ``[lo, hi]``."""
    if lo <= 0 or hi <= lo or factor <= 1.0:
        raise ValueError("log_buckets requires 0 < lo < hi and factor > 1")
    bounds: List[float] = []
    bound = lo
    while bound < hi:
        bounds.append(bound)
        bound *= factor
    bounds.append(bound)
    return tuple(bounds)


#: Default bounds: 1 microsecond .. ~67 seconds, powers of two.
SECONDS_BUCKETS = log_buckets(1e-6, 64.0)
#: Default bounds: 64 bytes .. ~1 GiB, powers of four.
BYTES_BUCKETS = log_buckets(64.0, 1 << 30, factor=4.0)


class _Metric:
    """Shared machinery: label resolution and per-metric locking."""

    kind = "untyped"

    def __init__(
        self,
        registry: "MetricsRegistry",
        name: str,
        help: str,
        labelnames: Sequence[str] = (),
    ) -> None:
        self._registry = registry
        self.name = name
        self.help = help
        self.labelnames = tuple(labelnames)
        self._lock = threading.Lock()
        self._values: Dict[LabelKey, float] = {}

    def _key(self, labels: Dict[str, object]) -> LabelKey:
        # Unlabelled mutation of an unlabelled metric is the hot case
        # (one call per scan/commit/query); resolve it without building
        # comparison tuples.
        if not labels and not self.labelnames:
            return ()
        if tuple(labels) != self.labelnames:
            raise ValueError(
                f"{self.name}: expected labels {self.labelnames}, "
                f"got {tuple(labels)}"
            )
        return tuple(str(labels[name]) for name in self.labelnames)

    def _reset(self) -> None:
        with self._lock:
            self._values.clear()

    # -- introspection ------------------------------------------------------

    def value(self, **labels: object) -> float:
        """Current value (0.0 if never touched)."""
        return self._values.get(self._key(labels), 0.0)

    def samples(self) -> List[Tuple[LabelKey, float]]:
        with self._lock:
            return sorted(self._values.items())


class Counter(_Metric):
    """Monotonically increasing counter."""

    kind = "counter"

    def inc(self, n: float = 1.0, **labels: object) -> None:
        if not self._registry.enabled:
            return
        key = self._key(labels)
        with self._lock:
            self._values[key] = self._values.get(key, 0.0) + n


class Gauge(_Metric):
    """A value that can go up and down (or be sampled via callback)."""

    kind = "gauge"

    def __init__(
        self,
        registry: "MetricsRegistry",
        name: str,
        help: str,
        labelnames: Sequence[str] = (),
        callback: Optional[Callable[[], float]] = None,
    ) -> None:
        super().__init__(registry, name, help, labelnames)
        self._callback = callback

    def set(self, value: float, **labels: object) -> None:
        if not self._registry.enabled:
            return
        key = self._key(labels)
        with self._lock:
            self._values[key] = float(value)

    def inc(self, n: float = 1.0, **labels: object) -> None:
        if not self._registry.enabled:
            return
        key = self._key(labels)
        with self._lock:
            self._values[key] = self._values.get(key, 0.0) + n

    def samples(self) -> List[Tuple[LabelKey, float]]:
        if self._callback is not None:
            try:
                self.set(float(self._callback()))
            except Exception:  # noqa: BLE001 - sampling must never raise
                pass
        return super().samples()


class Histogram(_Metric):
    """Histogram over fixed log-scale buckets.

    Stores, per label set, ``[count, sum, b0, b1, ...]`` where ``bi`` is
    the count of observations ``<= bounds[i]`` (cumulative counts are
    derived at render time; storage is per-bucket).
    """

    kind = "histogram"

    def __init__(
        self,
        registry: "MetricsRegistry",
        name: str,
        help: str,
        labelnames: Sequence[str] = (),
        buckets: Sequence[float] = SECONDS_BUCKETS,
    ) -> None:
        super().__init__(registry, name, help, labelnames)
        self.bounds = tuple(sorted(buckets))
        self._series: Dict[LabelKey, List[float]] = {}

    def observe(self, value: float, **labels: object) -> None:
        if not self._registry.enabled:
            return
        key = self._key(labels)
        idx = bisect_left(self.bounds, value)
        with self._lock:
            series = self._series.get(key)
            if series is None:
                series = self._series[key] = [0.0, 0.0] + [0.0] * (
                    len(self.bounds) + 1
                )
            series[0] += 1
            series[1] += value
            series[2 + idx] += 1

    def _reset(self) -> None:
        with self._lock:
            self._series.clear()

    # -- introspection ------------------------------------------------------

    def count(self, **labels: object) -> int:
        series = self._series.get(self._key(labels))
        return int(series[0]) if series else 0

    def sum(self, **labels: object) -> float:
        series = self._series.get(self._key(labels))
        return series[1] if series else 0.0

    def quantile(self, q: float, **labels: object) -> float:
        """Approximate quantile from bucket counts (upper bound of the
        bucket holding the q-th observation)."""
        series = self._series.get(self._key(labels))
        if not series or series[0] == 0:
            return 0.0
        target = q * series[0]
        seen = 0.0
        for i, n in enumerate(series[2:]):
            seen += n
            if seen >= target:
                return self.bounds[i] if i < len(self.bounds) else float("inf")
        return float("inf")

    def series(self) -> Dict[LabelKey, List[float]]:
        with self._lock:
            return {key: list(vals) for key, vals in self._series.items()}


class MetricsRegistry:
    """Holds metrics and renders them; owns the cheap enabled flag."""

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self._lock = threading.Lock()
        self._metrics: Dict[str, _Metric] = {}

    # -- registration -------------------------------------------------------

    def _register(self, metric: _Metric) -> _Metric:
        with self._lock:
            existing = self._metrics.get(metric.name)
            if existing is not None:
                if type(existing) is not type(metric) or (
                    existing.labelnames != metric.labelnames
                ):
                    raise ValueError(
                        f"metric {metric.name!r} re-registered with a "
                        "different type or labels"
                    )
                return existing
            self._metrics[metric.name] = metric
            return metric

    def counter(
        self, name: str, help: str, labelnames: Sequence[str] = ()
    ) -> Counter:
        metric = self._register(Counter(self, name, help, labelnames))
        assert isinstance(metric, Counter)
        return metric

    def gauge(
        self,
        name: str,
        help: str,
        labelnames: Sequence[str] = (),
        callback: Optional[Callable[[], float]] = None,
    ) -> Gauge:
        metric = self._register(Gauge(self, name, help, labelnames, callback))
        assert isinstance(metric, Gauge)
        return metric

    def histogram(
        self,
        name: str,
        help: str,
        labelnames: Sequence[str] = (),
        buckets: Sequence[float] = SECONDS_BUCKETS,
    ) -> Histogram:
        metric = self._register(Histogram(self, name, help, labelnames, buckets))
        assert isinstance(metric, Histogram)
        return metric

    def get(self, name: str) -> Optional[_Metric]:
        return self._metrics.get(name)

    # -- lifecycle ----------------------------------------------------------

    def reset(self) -> None:
        """Zero every metric (registrations survive)."""
        for metric in list(self._metrics.values()):
            metric._reset()

    # -- output -------------------------------------------------------------

    @staticmethod
    def _label_str(labelnames: LabelKey, key: LabelKey) -> str:
        if not labelnames:
            return ""
        pairs = ",".join(
            f'{name}="{value}"' for name, value in zip(labelnames, key)
        )
        return "{" + pairs + "}"

    def render(self, extra_gauges: Optional[Dict[str, float]] = None) -> str:
        """Prometheus-style text exposition of every metric."""
        lines: List[str] = []
        with self._lock:
            metrics = sorted(self._metrics.values(), key=lambda m: m.name)
        for metric in metrics:
            lines.append(f"# HELP {metric.name} {metric.help}")
            lines.append(f"# TYPE {metric.name} {metric.kind}")
            if isinstance(metric, Histogram):
                for key, series in sorted(metric.series().items()):
                    base = self._label_str(metric.labelnames, key)
                    cumulative = 0.0
                    for i, bound in enumerate(metric.bounds):
                        cumulative += series[2 + i]
                        label = self._merge_le(metric.labelnames, key, bound)
                        lines.append(
                            f"{metric.name}_bucket{label} {_fmt(cumulative)}"
                        )
                    cumulative += series[2 + len(metric.bounds)]
                    label = self._merge_le(metric.labelnames, key, None)
                    lines.append(
                        f"{metric.name}_bucket{label} {_fmt(cumulative)}"
                    )
                    lines.append(f"{metric.name}_sum{base} {_fmt(series[1])}")
                    lines.append(f"{metric.name}_count{base} {_fmt(series[0])}")
            else:
                samples = metric.samples()
                if not samples and not metric.labelnames:
                    samples = [((), 0.0)]
                for key, value in samples:
                    label = self._label_str(metric.labelnames, key)
                    lines.append(f"{metric.name}{label} {_fmt(value)}")
        for name, value in sorted((extra_gauges or {}).items()):
            lines.append(f"# TYPE {name} gauge")
            lines.append(f"{name} {_fmt(value)}")
        return "\n".join(lines) + "\n"

    @staticmethod
    def _merge_le(
        labelnames: LabelKey, key: LabelKey, bound: Optional[float]
    ) -> str:
        le = "+Inf" if bound is None else _fmt(bound)
        pairs = [
            f'{name}="{value}"' for name, value in zip(labelnames, key)
        ]
        pairs.append(f'le="{le}"')
        return "{" + ",".join(pairs) + "}"

    def snapshot(self) -> Dict[str, Dict[str, object]]:
        """Plain-dict view: {name: {kind, values | series summary}}."""
        out: Dict[str, Dict[str, object]] = {}
        with self._lock:
            metrics = list(self._metrics.values())
        for metric in metrics:
            entry: Dict[str, object] = {"kind": metric.kind}
            if isinstance(metric, Histogram):
                entry["series"] = {
                    ",".join(key) or "": {
                        "count": series[0],
                        "sum": series[1],
                        "p50": metric.quantile(
                            0.50, **dict(zip(metric.labelnames, key))
                        ),
                        "p99": metric.quantile(
                            0.99, **dict(zip(metric.labelnames, key))
                        ),
                    }
                    for key, series in metric.series().items()
                }
            else:
                entry["values"] = {
                    ",".join(key) or "": value
                    for key, value in metric.samples()
                }
            out[metric.name] = entry
        return out


def _fmt(value: float) -> str:
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


def flatten_gauges(prefix: str, stats: object) -> Dict[str, float]:
    """Flatten a nested stats dict into gauge samples.

    ``{"wal": {"bytes": 10}}`` -> ``{"<prefix>_wal_bytes": 10.0}``.
    Non-numeric leaves and lists are skipped.
    """
    out: Dict[str, float] = {}
    if isinstance(stats, dict):
        for key, value in stats.items():
            name = f"{prefix}_{key}".replace(".", "_").replace("-", "_")
            out.update(flatten_gauges(name, value))
    elif isinstance(stats, bool):
        out[prefix] = float(stats)
    elif isinstance(stats, (int, float)):
        out[prefix] = float(stats)
    return out


#: Process-wide default registry.  ``SystemConfig.metrics`` drives the
#: enabled flag via :func:`set_metrics_enabled` (the last-constructed
#: system decides, as with the shared executor).
REGISTRY = MetricsRegistry(enabled=True)


def set_metrics_enabled(enabled: bool) -> None:
    REGISTRY.enabled = bool(enabled)


def metrics_enabled() -> bool:
    return REGISTRY.enabled
