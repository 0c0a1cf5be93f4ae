"""Structured event tracing keyed by the system clock.

A :class:`Tracer` records :class:`TraceEvent` rows — instantaneous events
and span start/end pairs — stamped with the time read from a
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

    ``kind`` is ``"event"`` for instantaneous marks, ``"span-start"`` /
    ``"span-end"`` for span boundaries; span pairs share ``span_id``.
    """

    seq: int
    time: float
    name: str
    kind: str
    span_id: Optional[int] = None
    fields: Dict[str, Any] = field(default_factory=dict)


class _Span:
    """Handle returned by :meth:`Tracer.span`; usable as a context manager."""

    __slots__ = ("tracer", "name", "span_id", "closed")

    def __init__(self, tracer: "Tracer", name: str, span_id: int) -> None:
        self.tracer = tracer
        self.name = name
        self.span_id = span_id
        self.closed = False

    def end(self, **fields: Any) -> None:
        if self.closed:
            return
        self.closed = True
        self.tracer._record(self.name, "span-end", self.span_id, fields)

    def __enter__(self) -> "_Span":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.end()


class Tracer:
    """Appends ordered trace records stamped by ``clock``."""

    def __init__(self, clock: Optional[Clock] = None, keep: Optional[int] = None) -> None:
        self.clock = clock if clock is not None else WallClock()
        self.keep = keep
        self.records: List[TraceEvent] = []
        self._seq = itertools.count()
        self._span_ids = itertools.count(1)

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
        self._record(name, "event", None, fields)

    def span(self, name: str, **fields: Any) -> _Span:
        """Open a span; close it with ``.end()`` or a ``with`` block."""
        span_id = next(self._span_ids)
        self._record(name, "span-start", span_id, fields)
        return _Span(self, name, span_id)

    def _record(self, name: str, kind: str, span_id: Optional[int], fields: Dict[str, Any]) -> None:
        self.records.append(
            TraceEvent(
                seq=next(self._seq),
                time=self.clock.now(),
                name=name,
                kind=kind,
                span_id=span_id,
                fields=fields,
            )
        )
        if self.keep is not None and len(self.records) > self.keep:
            del self.records[: len(self.records) - self.keep]

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def named(self, name: str) -> List[TraceEvent]:
        return [r for r in self.records if r.name == name]

    def spans(self, name: Optional[str] = None) -> List[tuple]:
        """Completed (start, end) record pairs, optionally filtered by name."""
        starts: Dict[int, TraceEvent] = {}
        pairs: List[tuple] = []
        for record in self.records:
            if record.span_id is None:
                continue
            if record.kind == "span-start":
                starts[record.span_id] = record
            elif record.kind == "span-end":
                start = starts.pop(record.span_id, None)
                if start is not None and (name is None or start.name == name):
                    pairs.append((start, record))
        return pairs

    def __len__(self) -> int:
        return len(self.records)


class NullTracer(Tracer):
    """Do-nothing tracer installed by default."""

    def __init__(self) -> None:
        super().__init__(clock=WallClock(), keep=0)

    @property
    def enabled(self) -> bool:
        return False

    def event(self, name: str, **fields: Any) -> None:
        pass

    def span(self, name: str, **fields: Any) -> _Span:
        return _NULL_SPAN

    def use_clock(self, clock: Clock) -> None:
        pass


class _FrozenNullSpan(_Span):
    __slots__ = ()

    def end(self, **fields: Any) -> None:
        pass


NULL_TRACER = NullTracer()
_NULL_SPAN = _FrozenNullSpan(NULL_TRACER, "null", 0)

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
