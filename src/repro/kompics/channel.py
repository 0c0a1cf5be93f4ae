"""Channels connect a positive port instance to a negative one.

Channels carry events in both directions (requests toward the provider,
indications toward the requirer), preserve FIFO order per direction, and
deliver exactly once per receiver.  A :class:`ChannelSelector` optionally
filters which events a particular channel carries — the mechanism the
paper's ``DataNetwork`` uses to route non-data messages past the
interceptor straight to the network component (§IV-A).
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.errors import ChannelError
from repro.kompics.event import KompicsEvent
from repro.kompics.port import Port


class ChannelSelector:
    """Predicate pair deciding which events a channel carries.

    ``on_request`` filters events flowing toward the provider;
    ``on_indication`` filters events flowing toward the requirer.  ``None``
    means "carry everything" in that direction.
    """

    __slots__ = ("on_request", "on_indication")

    def __init__(
        self,
        on_request: Optional[Callable[[KompicsEvent], bool]] = None,
        on_indication: Optional[Callable[[KompicsEvent], bool]] = None,
    ) -> None:
        self.on_request = on_request
        self.on_indication = on_indication


class Channel:
    """A bidirectional FIFO link between one positive and one negative port."""

    __slots__ = ("positive", "negative", "selector", "connected")

    def __init__(self, positive: Port, negative: Port, selector: Optional[ChannelSelector] = None) -> None:
        if not positive.positive:
            raise ChannelError(f"{positive!r} is not a provided port")
        if negative.positive:
            raise ChannelError(f"{negative!r} is not a required port")
        if positive.port_type is not negative.port_type:
            raise ChannelError(
                f"port type mismatch: {positive.port_type.__name__} vs {negative.port_type.__name__}"
            )
        self.positive = positive
        self.negative = negative
        self.selector = selector
        self.connected = True
        positive.attach(self)
        negative.attach(self)

    def other(self, port: Port) -> Port:
        """The opposite end of the channel from ``port``."""
        if port is self.positive:
            return self.negative
        if port is self.negative:
            return self.positive
        raise ChannelError(f"{port!r} is not an endpoint of {self!r}")

    def disconnect(self) -> None:
        """Detach from both ports; in-queue events are still handled."""
        if self.connected:
            self.connected = False
            self.positive.detach(self)
            self.negative.detach(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Channel({self.positive!r} <-> {self.negative!r})"
