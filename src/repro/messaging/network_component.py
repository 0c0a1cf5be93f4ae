"""The network component, minus how bytes leave (paper §III).

What a provider of the ``Network`` port owes its consumers is written
here once: per-message transport choice (§III-A), ``MessageNotify.Resp``
when a tracked message has left or could not, same-instance reflection
(§III-B), ``TransportStatus`` towards the adaptive selector (§IV-A) and
the ``messaging.*`` instruments.  A backend subclasses
:class:`NetworkComponent`, implements :meth:`~NetworkComponent._transmit`
and decides *when* a transport is down or up again.  The contract table
is in ``docs/component-model.md``.
"""

from __future__ import annotations

from functools import partial
from typing import Any, Callable, Dict, Iterable, NamedTuple, Optional, Set, Sized, Tuple

from repro.errors import TransportError
from repro.kompics.channel import Channel
from repro.kompics.component import ComponentDefinition
from repro.kompics.port import Port
from repro.messaging.address import Address
from repro.messaging.message import Msg
from repro.messaging.network_port import MessageNotify, Network, TransportStatus
from repro.messaging.serialization import SerializerRegistry
from repro.messaging.transport import Transport
from repro.obs import get_registry, get_tracer

Socket = Tuple[str, int]

#: largest serialized frame a send may put on the wire, bytes
BUFFER_SIZE = 65536


class Route(NamedTuple):
    """One (remote instance, transport) pair as a send sees it, resolved once."""

    remote: Socket
    transport: Transport
    #: the remote is this instance: reflect, never serialize (§III-B)
    local: bool
    enabled: bool
    #: ``(remote, transport)``: the channel key on both backends
    key: Tuple[Socket, Transport]
    #: completion callback of a send nobody tracks, bound once
    sent: Callable[[bool], None]


class NetworkComponent(ComponentDefinition):
    """Front and back half of a ``Network`` provider.

    One instance listens on ``self_address``'s port for every transport
    in ``protocols``; start more instances for more ports (§III-A).
    """

    def __init__(
        self,
        self_address: Address,
        protocols: Iterable[Transport],
        serializers: Optional[SerializerRegistry],
    ) -> None:
        super().__init__()
        self.net = self.provides(Network)
        self.self_address = self_address
        self.protocols = tuple(protocols)
        for transport in self.protocols:
            if not transport.is_wire_protocol:
                raise TransportError("DATA is a pseudo-protocol; listen on TCP/UDP/UDT")
        # Send-path constant, resolved once instead of per message.
        self._self_socket = self_address.as_socket()
        self.serializers = serializers if serializers is not None else SerializerRegistry()
        #: (remote socket, transport) pairs currently published as Down
        self._down: Set[Tuple[Socket, Transport]] = set()
        #: (remote socket, transport) -> its Route, made on first send
        self._routes: Dict[Tuple[Socket, Transport], Route] = {}
        self.counters: Dict[str, int] = {
            "sent": 0, "received": 0, "reflected": 0, "send_failures": 0,
        }

        metrics = get_registry()
        self._obs = metrics.enabled
        self.tracer = get_tracer()
        self._instance = f"{self_address.ip}:{self_address.port}"
        self._m_sent = {
            t: metrics.counter("messaging.sent_total", transport=t.value)
            for t in self.protocols
        }
        self._m_send_failures = {
            t: metrics.counter("messaging.send_failures_total", transport=t.value)
            for t in self.protocols
        }
        self._m_received = metrics.counter("messaging.received_total", instance=self._instance)
        self._m_reflected = metrics.counter("messaging.reflected_total", instance=self._instance)
        self._m_wire_bytes = metrics.histogram(
            "messaging.serialization.wire_bytes",
            buckets=(64, 256, 1024, 4096, 16384, 65536),
        )

        self.subscribe(self.net, MessageNotify.Req, self._on_notify_request)
        self.subscribe(self.net, Msg, self._send)

    def connect_consumer(self, consumer_port: Port) -> Channel:
        """Attach a consumer's required Network port (same call on a DataNetwork)."""
        return self.connect(self.net, consumer_port)

    @property
    def network_def(self) -> "NetworkComponent":
        """The wire-level component: itself (a DataNetwork answers with its child)."""
        return self

    def _watch_channels(self, channels: Sized) -> None:
        """Let ``messaging.channels.open`` read the backend's channel map."""
        if self._obs:
            get_registry().gauge(
                "messaging.channels.open", instance=self._instance
            ).set_function(lambda: len(channels))

    # ------------------------------------------------------------------
    # send path
    # ------------------------------------------------------------------
    def _on_notify_request(self, req: MessageNotify.Req) -> None:
        self._send(req.msg, req.notify_id)

    def _send(self, msg: Msg, notify_id: Optional[int] = None) -> None:
        """The one send path: ``Msg`` handler and tracked-send body alike."""
        header = msg.header
        key = (header.destination.as_socket(), header.protocol)
        route = self._routes.get(key)
        if route is None:
            route = self._routes[key] = self._route(*key)
        if route.local:
            # vnode traffic: receivers must not expect a copy
            self.counters["reflected"] += 1
            if self._obs:
                self._m_reflected.inc()
            self.net.trigger(msg)
            if notify_id is not None:
                self.net.trigger(MessageNotify.Resp(notify_id, True, self.clock.now(), 0))
        elif route.enabled:
            self._transmit(msg, route, notify_id)
        else:
            # A bad send fails the *message*, never the component: its
            # pending notify must resolve (the interceptor's flow window
            # leaks otherwise) and the network stays healthy.
            self.logger.debug("%s: dropping %s send to %s (transport not enabled)",
                              self.name, route.transport.value, route.remote)
            self._resolve(route.transport, 0, notify_id, False)

    def _route(self, remote: Socket, transport: Transport) -> Route:
        enabled = transport in self.protocols
        if not enabled and not transport.is_wire_protocol:
            # A wiring error, not a runtime condition — keep it loud.
            raise TransportError(
                f"Transport.DATA reached {self.name}: wrap the network in a "
                "DataNetwork so the interceptor can replace it (paper §IV-A)"
            )
        return Route(
            remote, transport, remote == self._self_socket, enabled,
            (remote, transport),
            partial(self._resolve, transport, 0, None),
        )

    def _transmit(self, msg: Msg, route: Route, notify_id: Optional[int]) -> None:
        """Backend hook: put ``msg`` on the wire along ``route``.

        The backend sizes the frame, passes it by :meth:`_fits`, and has
        :meth:`_resolve` called exactly once when the message has left or
        failed — ``route.sent`` for an untracked send.  It must not raise
        for anything the network can do to it.
        """
        raise NotImplementedError

    def _fits(self, transport: Transport, size: int, notify_id: Optional[int]) -> bool:
        """Frame-size guard: over :data:`BUFFER_SIZE` fails the message."""
        if size > BUFFER_SIZE:
            self.logger.debug("%s: dropping %d byte frame (buffer is %d; split it "
                              "into chunks)", self.name, size, BUFFER_SIZE)
            self._resolve(transport, size, notify_id, False)
            return False
        if self._obs:
            self._m_wire_bytes.observe(size)
        return True

    def _resolve(self, transport: Transport, size: int, notify_id: Optional[int],
                 ok: bool) -> None:
        """Account for one finished send and answer its notify, if any.

        ``ok`` comes last so a backend can bind the rest and hand the
        result to its transport as the completion callback.
        """
        if ok:
            self.counters["sent"] += 1
            if self._obs:
                self._m_sent[transport].inc()
        else:
            self.counters["send_failures"] += 1
            if self._obs and transport in self._m_send_failures:
                self._m_send_failures[transport].inc()
        if notify_id is not None:
            self.net.trigger(MessageNotify.Resp(notify_id, ok, self.clock.now(), size))

    # ------------------------------------------------------------------
    # transport health
    # ------------------------------------------------------------------
    def _mark_down(self, remote: Socket, transport: Transport, reason: str) -> None:
        """Publish ``TransportStatus.Down`` once per outage."""
        key = (remote, transport)
        if key in self._down:
            return
        self._down.add(key)
        self.net.trigger(TransportStatus.Down(remote, transport, reason))
        self.tracer.event(
            "messaging.transport_down",
            remote=f"{remote[0]}:{remote[1]}", proto=transport.value, reason=reason,
        )

    def _mark_up(self, remote: Socket, transport: Transport) -> None:
        """Lift a Down mark (no-op when the transport was not down)."""
        key = (remote, transport)
        if key not in self._down:
            return
        self._down.discard(key)
        self.net.trigger(TransportStatus.Up(remote, transport))
        self.tracer.event(
            "messaging.transport_up",
            remote=f"{remote[0]}:{remote[1]}", proto=transport.value,
        )

    # ------------------------------------------------------------------
    # receive path
    # ------------------------------------------------------------------
    def _deliver(self, msg: Any) -> None:
        self.counters["received"] += 1
        if self._obs:
            self._m_received.inc()
        self.net.trigger(msg)
