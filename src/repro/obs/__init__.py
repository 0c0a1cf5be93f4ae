"""repro.obs — the unified observability layer.

A dependency-free metrics registry (:class:`MetricsRegistry` with
:class:`Counter` / :class:`Gauge` / :class:`Histogram`) plus a structured
:class:`Tracer`, both wired through module-level *current* instances that
default to zero-overhead no-ops.  The Kompics scheduler, netsim links,
messaging transports and the RL core all bind instruments from the
current registry at construction time; see ``docs/observability.md``.
"""

from repro.obs.export import snapshot_document
from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    NULL_REGISTRY,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullRegistry,
    collecting,
    disable,
    enable,
    get_registry,
    set_registry,
)
from repro.obs.tracer import (
    NULL_TRACER,
    NullTracer,
    TraceEvent,
    Tracer,
    get_tracer,
    set_tracer,
    tracing,
)

__all__ = [
    "DEFAULT_BUCKETS",
    "NULL_REGISTRY",
    "NULL_TRACER",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NullRegistry",
    "NullTracer",
    "TraceEvent",
    "Tracer",
    "collecting",
    "disable",
    "enable",
    "get_registry",
    "get_tracer",
    "set_registry",
    "set_tracer",
    "snapshot_document",
    "tracing",
]
