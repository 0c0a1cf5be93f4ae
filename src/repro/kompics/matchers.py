"""Pattern-matching handler subscription (a Kompics extension).

Plain Kompics matches events to handlers purely by type hierarchy; the
paper notes "there are some Kompics extensions that provide pattern
matching as well" (§II-A).  This module provides that convenience: a
predicate refines a type subscription, and :func:`match_fields` builds
predicates from attribute equality (similar to Kompics-Scala's matchers).

Example::

    self.subscribe_matching(
        self.net, DataChunkMsg, self.on_first_chunk,
        match_fields(seq=0),
    )
"""

from __future__ import annotations

from typing import Any, Callable, Type

from repro.kompics.event import KompicsEvent
from repro.kompics.port import Port

Predicate = Callable[[KompicsEvent], bool]


def match_fields(**expected: Any) -> Predicate:
    """A predicate true when every named attribute equals its value.

    Dotted names traverse nested attributes: ``match_fields(**{"header.protocol": t})``.
    Missing attributes make the predicate false (never an error), in line
    with Kompics' silently-dropping broadcast semantics.
    """

    def predicate(event: KompicsEvent) -> bool:
        for name, value in expected.items():
            obj: Any = event
            for part in name.split("."):
                obj = getattr(obj, part, _MISSING)
                if obj is _MISSING:
                    return False
            if obj != value:
                return False
        return True

    return predicate


_MISSING = object()


def subscribe_matching(
    port: Port,
    event_type: Type[KompicsEvent],
    handler: Callable[[Any], None],
    predicate: Predicate,
) -> Callable[[Any], None]:
    """Subscribe ``handler`` for events of ``event_type`` passing ``predicate``.

    Returns the wrapped handler (needed for ``port.unsubscribe``).
    """

    def wrapped(event: KompicsEvent) -> None:
        if predicate(event):
            handler(event)

    port.subscribe(event_type, wrapped)
    return wrapped
