"""Structured event tracing keyed by the system clock.

A :class:`Tracer` records :class:`TraceEvent` rows — instantaneous
events — stamped with the time read from a
:class:`~repro.util.clock.Clock` (the discrete-event simulated clock in
experiments, wall time otherwise) plus a monotonically increasing
sequence number that totally orders records even when many fall on the
same simulated instant.

Like the metrics registry, the process-wide current tracer defaults to a
no-op singleton; install a recording tracer with :func:`enable` /
:func:`set_tracer` or the :func:`tracing` context manager before building
the system under observation.
"""

from __future__ import annotations

import contextlib
import itertools
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional

from repro.util.clock import Clock, WallClock


@dataclass(frozen=True)
class TraceEvent:
    """One trace record.

    ``kind`` is ``"event"``; ``span_id`` is ``None``.  Both stay in the
    exported trace rows so a document keeps its shape.
    """

    seq: int
    time: float
    name: str
    kind: str
    span_id: Optional[int] = None
    fields: Dict[str, Any] = field(default_factory=dict)


class Tracer:
    """Appends ordered trace records stamped by ``clock``."""

    def __init__(self, clock: Optional[Clock] = None, keep: Optional[int] = None) -> None:
        self.clock = clock if clock is not None else WallClock()
        self.keep = keep
        self.records: List[TraceEvent] = []
        self._seq = itertools.count()

    @property
    def enabled(self) -> bool:
        return True

    def use_clock(self, clock: Clock) -> None:
        """Re-key subsequent records to ``clock`` (e.g. a fresh simulator's)."""
        self.clock = clock

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def event(self, name: str, **fields: Any) -> None:
        """Record an instantaneous event."""
        self.records.append(
            TraceEvent(seq=next(self._seq), time=self.clock.now(), name=name,
                       kind="event", fields=fields)
        )
        if self.keep is not None and len(self.records) > self.keep:
            del self.records[: len(self.records) - self.keep]

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def named(self, name: str) -> List[TraceEvent]:
        return [r for r in self.records if r.name == name]


class NullTracer(Tracer):
    """Do-nothing tracer installed by default."""

    def __init__(self) -> None:
        super().__init__(clock=WallClock(), keep=0)

    @property
    def enabled(self) -> bool:
        return False

    def event(self, name: str, **fields: Any) -> None:
        pass

    def use_clock(self, clock: Clock) -> None:
        pass


NULL_TRACER = NullTracer()

_current: Tracer = NULL_TRACER


def get_tracer() -> Tracer:
    return _current


def set_tracer(tracer: Tracer) -> Tracer:
    """Install ``tracer`` as current; returns the previous one."""
    global _current
    previous = _current
    _current = tracer
    return previous


@contextlib.contextmanager
def tracing(clock: Optional[Clock] = None, keep: Optional[int] = None) -> Iterator[Tracer]:
    """Context manager installing a fresh tracer, restoring on exit."""
    tracer = Tracer(clock=clock, keep=keep)
    previous = set_tracer(tracer)
    try:
        yield tracer
    finally:
        set_tracer(previous)
