"""The metrics registry: counters, gauges and histograms.

Dependency-free observability primitives for the whole system.  Every
instrumented module binds its instruments once (at construction time)
from the *current* registry via :func:`get_registry`; the default is a
:class:`NullRegistry` whose instruments are shared no-op singletons, so
instrumentation costs one no-op method call on the hot path and nothing
else — tier-1 timings and determinism are unaffected.

Enable collection by installing a real registry *before* building the
system under observation::

    from repro import obs

    with obs.collecting() as registry:
        ...build and run the simulation...
        snapshot = registry.snapshot()

Metric names are dotted families (``kompics.scheduler.events_total``,
``netsim.link.drops_total``, ``rl.sarsa.td_error``, ...); instruments are
keyed by ``(name, labels)`` so one family can carry per-link / per-proto /
per-component series.  See ``docs/observability.md`` for the naming
scheme.
"""

from __future__ import annotations

import contextlib
import math
import threading
from bisect import bisect_left
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.stats.online import OnlineStats
from repro.stats.reservoir import ReservoirSampler

LabelItems = Tuple[Tuple[str, str], ...]
MetricKey = Tuple[str, LabelItems]

#: default fixed bucket boundaries for histograms without explicit buckets
#: (byte-ish scale: powers of four from 1 to ~16M, plus +inf implicitly)
DEFAULT_BUCKETS: Tuple[float, ...] = tuple(4.0 ** i for i in range(0, 13))


def _label_items(labels: Dict[str, Any]) -> LabelItems:
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def snapshot(self) -> Dict[str, Any]:
        return {"type": "counter", "value": self.value}


class Gauge:
    """A value that can go up and down — or be computed lazily.

    :meth:`set_function` registers a callback evaluated only at snapshot
    time, which keeps sampled state (congestion windows, queue lengths)
    completely off the hot path.
    """

    __slots__ = ("_value", "_fn")

    def __init__(self) -> None:
        self._value = 0.0
        self._fn: Optional[Callable[[], float]] = None

    def set(self, value: float) -> None:
        self._value = value

    def inc(self, amount: float = 1.0) -> None:
        self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        self._value -= amount

    def set_function(self, fn: Callable[[], float]) -> None:
        self._fn = fn

    @property
    def value(self) -> float:
        if self._fn is not None:
            return float(self._fn())
        return self._value

    def snapshot(self) -> Dict[str, Any]:
        return {"type": "gauge", "value": self.value}


class Histogram:
    """Fixed-bucket histogram plus streaming moments and quantiles.

    Buckets are cumulative-style upper bounds (``value <= bound``); the
    overflow count covers everything beyond the last bound.  Streaming
    mean/stddev come from :class:`~repro.stats.online.OnlineStats` and
    approximate quantiles from a fixed-size
    :class:`~repro.stats.reservoir.ReservoirSampler` — the repo's existing
    primitives, reused rather than re-derived.
    """

    __slots__ = ("buckets", "counts", "overflow", "stats", "_reservoir")

    def __init__(
        self,
        buckets: Optional[Sequence[float]] = None,
        reservoir: int = 256,
    ) -> None:
        bounds = tuple(buckets) if buckets is not None else DEFAULT_BUCKETS
        if list(bounds) != sorted(bounds):
            raise ValueError("histogram buckets must be sorted ascending")
        self.buckets: Tuple[float, ...] = bounds
        self.counts: List[int] = [0] * len(bounds)
        self.overflow = 0
        self.stats = OnlineStats()
        self._reservoir = ReservoirSampler(reservoir)

    def observe(self, value: float) -> None:
        # A value equal to a bound belongs to that bound's bucket, so the
        # insertion point for (value, left-bias) is the bucket index.
        i = bisect_left(self.buckets, value)
        if i < len(self.buckets):
            self.counts[i] += 1
        else:
            self.overflow += 1
        self.stats.add(value)
        self._reservoir.add(value)

    @property
    def count(self) -> int:
        return self.stats.count

    @property
    def mean(self) -> float:
        return self.stats.mean

    def quantile(self, q: float) -> float:
        """Approximate ``q``-quantile from the reservoir sample."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        sample = sorted(self._reservoir.samples)
        if not sample:
            return math.nan
        idx = min(int(q * len(sample)), len(sample) - 1)
        return sample[idx]

    def snapshot(self) -> Dict[str, Any]:
        return {
            "type": "histogram",
            "count": self.stats.count,
            "sum": self.stats.mean * self.stats.count,
            "mean": self.stats.mean,
            "stddev": self.stats.stddev,
            "min": self.stats.min if self.stats.count else math.nan,
            "max": self.stats.max if self.stats.count else math.nan,
            "p50": self.quantile(0.50),
            "p90": self.quantile(0.90),
            "p99": self.quantile(0.99),
            "buckets": {
                **{str(b): c for b, c in zip(self.buckets, self.counts)},
                "+inf": self.overflow,
            },
        }


class _NullCounter(Counter):
    """Shared do-nothing counter handed out by the null registry."""

    __slots__ = ()

    def inc(self, amount: float = 1.0) -> None:
        pass


class _NullGauge(Gauge):
    __slots__ = ()

    def set(self, value: float) -> None:
        pass

    def inc(self, amount: float = 1.0) -> None:
        pass

    def dec(self, amount: float = 1.0) -> None:
        pass

    def set_function(self, fn: Callable[[], float]) -> None:
        pass


class _NullHistogram(Histogram):
    __slots__ = ()

    def observe(self, value: float) -> None:
        pass


NULL_COUNTER = _NullCounter()
NULL_GAUGE = _NullGauge()
NULL_HISTOGRAM = _NullHistogram()


class MetricsRegistry:
    """Get-or-create store of instruments keyed by name + labels."""

    enabled = True

    def __init__(self, name: str = "default") -> None:
        self.name = name
        self._metrics: Dict[MetricKey, Any] = {}
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    # instrument factories
    # ------------------------------------------------------------------
    def counter(self, name: str, **labels: Any) -> Counter:
        return self._get_or_create(name, labels, Counter)

    def gauge(self, name: str, **labels: Any) -> Gauge:
        return self._get_or_create(name, labels, Gauge)

    def histogram(
        self, name: str, buckets: Optional[Sequence[float]] = None, **labels: Any
    ) -> Histogram:
        return self._get_or_create(name, labels, lambda: Histogram(buckets))

    def _get_or_create(self, name: str, labels: Dict[str, Any], factory: Callable[[], Any]) -> Any:
        key: MetricKey = (name, _label_items(labels))
        with self._lock:
            metric = self._metrics.get(key)
            if metric is None:
                metric = factory()
                self._metrics[key] = metric
            return metric

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def get(self, name: str, **labels: Any) -> Optional[Any]:
        """The instrument registered under ``(name, labels)``, if any."""
        return self._metrics.get((name, _label_items(labels)))

    def family(self, prefix: str) -> Dict[MetricKey, Any]:
        """All instruments whose name starts with ``prefix``."""
        return {k: v for k, v in self._metrics.items() if k[0].startswith(prefix)}

    def value(self, name: str, **labels: Any) -> float:
        """Shortcut: the scalar value of a counter/gauge (0.0 if absent)."""
        metric = self.get(name, **labels)
        if metric is None:
            return 0.0
        return float(metric.value)

    def total(self, name: str) -> float:
        """Sum of a counter family's values across all label sets."""
        return sum(
            m.value for (n, _), m in self._metrics.items()
            if n == name and isinstance(m, Counter)
        )

    def __iter__(self) -> Iterator[Tuple[MetricKey, Any]]:
        return iter(sorted(self._metrics.items()))

    def pin_functions(self) -> None:
        """Replace every lazy gauge's function by its current value.

        Called when the world the functions read is torn down: later
        snapshots read what it held at that moment, and the registry no
        longer keeps it alive.
        """
        for metric in self._metrics.values():
            if isinstance(metric, Gauge) and metric._fn is not None:
                metric._value = metric.value
                metric._fn = None

    # ------------------------------------------------------------------
    # snapshots
    # ------------------------------------------------------------------
    def snapshot(self) -> Dict[str, Any]:
        """A JSON-ready snapshot: ``{name: [{labels, ...metric}, ...]}``."""
        out: Dict[str, Any] = {}
        for (name, labels), metric in sorted(self._metrics.items()):
            entry = {"labels": dict(labels)}
            entry.update(metric.snapshot())
            out.setdefault(name, []).append(entry)
        return out


class NullRegistry(MetricsRegistry):
    """The zero-overhead disabled registry: all instruments are no-ops."""

    enabled = False

    def __init__(self) -> None:
        super().__init__(name="null")

    def counter(self, name: str, **labels: Any) -> Counter:
        return NULL_COUNTER

    def gauge(self, name: str, **labels: Any) -> Gauge:
        return NULL_GAUGE

    def histogram(
        self, name: str, buckets: Optional[Sequence[float]] = None, **labels: Any
    ) -> Histogram:
        return NULL_HISTOGRAM

    def snapshot(self) -> Dict[str, Any]:
        return {}


NULL_REGISTRY = NullRegistry()

#: the process-wide current registry; NULL by default so instrumentation
#: is free unless an experiment opts in
_current: MetricsRegistry = NULL_REGISTRY


def get_registry() -> MetricsRegistry:
    """The registry new instruments bind to (Null unless enabled)."""
    return _current


def set_registry(registry: MetricsRegistry) -> MetricsRegistry:
    """Install ``registry`` as current; returns the previous one."""
    global _current
    previous = _current
    _current = registry
    return previous


def enable(registry: Optional[MetricsRegistry] = None) -> MetricsRegistry:
    """Install (and return) a real registry as the current one."""
    registry = registry if registry is not None else MetricsRegistry()
    set_registry(registry)
    return registry


def disable() -> None:
    """Restore the zero-overhead null registry."""
    set_registry(NULL_REGISTRY)


@contextlib.contextmanager
def collecting(registry: Optional[MetricsRegistry] = None) -> Iterator[MetricsRegistry]:
    """Context manager installing a fresh registry, restoring on exit.

    Instruments bind at component construction time, so the system under
    observation must be *built inside* the context (or after
    :func:`enable`).
    """
    registry = registry if registry is not None else MetricsRegistry()
    previous = set_registry(registry)
    try:
        yield registry
    finally:
        set_registry(previous)
