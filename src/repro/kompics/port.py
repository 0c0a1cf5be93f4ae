"""Port types and port instances.

A :class:`PortType` is the "service specification" of a port (paper §II-A):
it declares which event classes are *requests* (flowing into the provider)
and which are *indications* (flowing out of the provider).  Components hold
:class:`Port` instances — a *positive* instance on the providing side and a
*negative* instance on each requiring side; channels connect one positive to
one negative instance.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, List, Sequence, Tuple, Type

from repro.check import get_checker
from repro.errors import PortError
from repro.kompics.event import KompicsEvent

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.kompics.channel import Channel
    from repro.kompics.component import ComponentCore


class PortType:
    """Declarative port specification.

    Subclass and set the ``requests`` / ``indications`` class attributes::

        class Network(PortType):
            requests = (Msg, MessageNotify.Req)
            indications = (Msg, MessageNotify.Resp)

    Subtypes of a declared event class are allowed, mirroring the paper's
    type-hierarchy matching.
    """

    requests: Tuple[Type[KompicsEvent], ...] = ()
    indications: Tuple[Type[KompicsEvent], ...] = ()


Handler = Callable[[KompicsEvent], None]


class Port:
    """One side of a port: positive (provided) or negative (required).

    Events *triggered* on a port travel out over all connected channels;
    events *delivered* to a port are queued at the owning component and
    dispatched to matching subscribed handlers when it is scheduled.

    Dispatch is memoized: the first event of a concrete type resolves the
    subscription list once (MRO matching, in subscription order) into a
    tuple cached per type; later events of that type skip the scan.  The
    cache is invalidated on every subscribe/unsubscribe/attach/detach, so
    it can never serve a stale handler set.
    """

    __slots__ = (
        "port_type",
        "owner",
        "positive",
        "_channels",
        "_subscriptions",
        "_dispatch_cache",
        "_direction_cache",
        "_check",
    )

    def __init__(self, port_type: Type[PortType], owner: "ComponentCore", positive: bool) -> None:
        self.port_type = port_type
        self.owner = owner
        self.positive = positive
        self._channels: List["Channel"] = []
        self._subscriptions: List[Tuple[Type[KompicsEvent], Handler]] = []
        #: concrete event type -> handlers, in subscription order
        self._dispatch_cache: Dict[Type[KompicsEvent], Tuple[Handler, ...]] = {}
        #: concrete event type -> outbound direction check result (the
        #: PortType declaration is immutable, so this never invalidates)
        self._direction_cache: Dict[Type[KompicsEvent], bool] = {}
        checker = get_checker()
        self._check = checker.digest("port") if checker.enabled else None

    # ------------------------------------------------------------------
    # wiring
    # ------------------------------------------------------------------
    def attach(self, channel: "Channel") -> None:
        self._channels.append(channel)
        self._dispatch_cache.clear()

    def detach(self, channel: "Channel") -> None:
        try:
            self._channels.remove(channel)
        except ValueError:
            raise PortError(
                f"channel is not attached to {self!r} (already detached?)"
            ) from None
        self._dispatch_cache.clear()

    @property
    def channels(self) -> Tuple["Channel", ...]:
        return tuple(self._channels)

    # ------------------------------------------------------------------
    # subscriptions
    # ------------------------------------------------------------------
    def subscribe(self, event_type: Type[KompicsEvent], handler: Handler) -> None:
        """Subscribe ``handler`` for events of ``event_type`` (or subtypes).

        A positive port receives requests, a negative port receives
        indications; subscribing for the wrong direction is a programming
        error and raises :class:`PortError`.
        """
        if self.positive:
            if not (self.port_type.requests and issubclass(event_type, self.port_type.requests)):
                raise PortError(
                    f"provider of {self.port_type.__name__} can only handle requests, "
                    f"not {event_type.__name__}"
                )
        else:
            if not (self.port_type.indications and issubclass(event_type, self.port_type.indications)):
                raise PortError(
                    f"requirer of {self.port_type.__name__} can only handle indications, "
                    f"not {event_type.__name__}"
                )
        self._subscriptions.append((event_type, handler))
        self._dispatch_cache.clear()

    def unsubscribe(self, event_type: Type[KompicsEvent], handler: Handler) -> None:
        try:
            self._subscriptions.remove((event_type, handler))
        except ValueError:
            raise PortError(
                f"handler is not subscribed for {event_type.__name__} on {self!r} "
                f"(already unsubscribed?)"
            ) from None
        self._dispatch_cache.clear()

    def clear_subscriptions(self) -> None:
        """Drop every subscription (supervision restart path).

        Channels stay attached: a restarting component keeps its port
        instances so the rest of the system never re-wires, but the new
        definition's ``__init__`` must start from a clean handler table.
        """
        self._subscriptions.clear()
        self._dispatch_cache.clear()

    def matching_handlers(self, event: KompicsEvent) -> Sequence[Handler]:
        """Handlers whose subscribed type matches ``event``, in
        subscription order (the paper's type-hierarchy matching)."""
        cls = event.__class__
        handlers = self._dispatch_cache.get(cls)
        if handlers is None:
            handlers = tuple(h for (t, h) in self._subscriptions if issubclass(cls, t))
            self._dispatch_cache[cls] = handlers
        return handlers

    # ------------------------------------------------------------------
    # event flow
    # ------------------------------------------------------------------
    def trigger(self, event: KompicsEvent) -> None:
        """Publish ``event`` outward on every connected channel.

        Direction validation happens here: the provider may only trigger
        indications, the requirer only requests (paper §II-A).  The check
        depends only on the (immutable) PortType declaration and the
        event's concrete type, so its result is memoized per type.
        """
        cls = event.__class__
        if self._check is not None:
            self._check.fold(
                (self.owner.name, self.port_type.__name__, cls.__name__,
                 "+" if self.positive else "-")
            )
        allowed = self._direction_cache.get(cls)
        if allowed is None:
            if self.positive:
                declared = self.port_type.indications
            else:
                declared = self.port_type.requests
            allowed = bool(declared) and issubclass(cls, declared)
            self._direction_cache[cls] = allowed
        # Channels are walked here, not through a Channel method: this is
        # one call per event per channel on the hottest path in the system.
        if self.positive:
            if not allowed:
                raise PortError(
                    f"cannot trigger {cls.__name__} on provided "
                    f"{self.port_type.__name__}: not an indication"
                )
            for channel in self._channels:
                if not channel.connected:
                    continue
                selector = channel.selector
                if (
                    selector
                    and selector.on_indication
                    and not selector.on_indication(event)
                ):
                    continue
                dest = channel.negative
                dest.owner.enqueue(dest, event)
        else:
            if not allowed:
                raise PortError(
                    f"cannot trigger {cls.__name__} on required "
                    f"{self.port_type.__name__}: not a request"
                )
            for channel in self._channels:
                if not channel.connected:
                    continue
                selector = channel.selector
                if (
                    selector
                    and selector.on_request
                    and not selector.on_request(event)
                ):
                    continue
                dest = channel.positive
                dest.owner.enqueue(dest, event)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        side = "+" if self.positive else "-"
        return f"Port({side}{self.port_type.__name__} @ {self.owner.name})"
