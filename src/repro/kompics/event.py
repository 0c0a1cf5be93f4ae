"""Kompics events: the base marker class and the component lifecycle events."""

from __future__ import annotations

from typing import Optional


class KompicsEvent:
    """Base class for everything that travels on Kompics channels.

    Events are conventionally immutable (paper §III-B: messages reflected
    locally are never copied, so mutation would leak between components).
    """

    __slots__ = ()


class Start(KompicsEvent):
    """Request a component to start; cascades to its children."""

    __slots__ = ()


class Stop(KompicsEvent):
    """Request a component to stop; cascades to its children."""

    __slots__ = ()


class Kill(KompicsEvent):
    """Request a component to stop and be destroyed."""

    __slots__ = ()


class Fault(KompicsEvent):
    """Raised out of a handler and escalated to the runtime.

    Carries the failing component, the event being handled, and the original
    exception for diagnosis.
    """

    __slots__ = ("component_name", "event", "exception")

    def __init__(self, component_name: str, event: Optional[KompicsEvent], exception: BaseException) -> None:
        self.component_name = component_name
        self.event = event
        self.exception = exception

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Fault({self.component_name!r}, {type(self.event).__name__}, {self.exception!r})"


class DeadLetter(KompicsEvent):
    """An event that reached a component past its useful life.

    ``dropped`` is True when the event was discarded outright (DESTROYED
    or FAULTY receiver); events to a STOPPED component are parked in its
    queue — recorded here for visibility, delivered if it restarts.
    """

    __slots__ = ("component_name", "state", "event", "dropped")

    def __init__(self, component_name: str, state: str, event: KompicsEvent, dropped: bool) -> None:
        self.component_name = component_name
        self.state = state
        self.event = event
        self.dropped = dropped

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        flag = "dropped" if self.dropped else "parked"
        return (
            f"DeadLetter({self.component_name!r}, {self.state}, "
            f"{type(self.event).__name__}, {flag})"
        )
