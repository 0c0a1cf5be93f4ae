"""NettyNetwork: the network component on the simulated substrate.

The port contract — transport choice, ``MessageNotify``, reflection,
``TransportStatus``, instruments — is :class:`NetworkComponent`'s.  What
is simulator-specific lives here:

* messages travel as objects; only their wire *size* is computed
  (serializer ``wire_size`` through the Snappy size model);
* a :class:`ChannelPool` over the host's ``NetworkStack``: lazy channel
  establishment, messages buffered until ready, channels kept open for
  as long as the component lives (§III-C);
* reconnect campaigns and degrade-to-TCP fallback (``messaging.reconnect.*``,
  ``messaging.fallback.enabled``), which decide when a transport is Down.
"""

from __future__ import annotations

from functools import partial
from typing import Any, Iterable, List, Optional

from repro.errors import TransportError
from repro.messaging.address import Address
from repro.messaging.channels import ChannelKey, ChannelPool
from repro.messaging.compression import snappy_size
from repro.messaging.message import Msg
from repro.messaging.network_component import NetworkComponent, Route, Socket
from repro.messaging.recovery import ReconnectPolicy, fail_sends
from repro.messaging.serialization import SerializerRegistry
from repro.messaging.transport import Transport
from repro.netsim.connection import Connection, WireMessage
from repro.netsim.host import Listener, SimHost
from repro.netsim.link import Proto
from repro.obs import get_registry

# The paper's three protocols plus the LEDBAT extension; simulated
# listeners are free, so the extension is enabled by default here (the
# asyncio backend keeps the paper's three).
DEFAULT_PROTOCOLS = (Transport.TCP, Transport.UDP, Transport.UDT, Transport.LEDBAT)


class NettyNetwork(NetworkComponent):
    """The network component (simulation backend).

    Parameters
    ----------
    self_address:
        This instance's address; its port is bound for every protocol in
        ``protocols``.
    host:
        The simulated machine whose network stack this instance uses.
    protocols:
        Wire protocols to listen on (default: TCP, UDP, UDT and LEDBAT).
    serializers:
        Message serializer registry (defaults to one with pickle fallback).
    """

    def __init__(
        self,
        self_address: Address,
        host: SimHost,
        protocols: Iterable[Transport] = DEFAULT_PROTOCOLS,
        serializers: Optional[SerializerRegistry] = None,
    ) -> None:
        # Messages travel as objects here and are only sized, never
        # decoded from foreign bytes, so pickling an unregistered class to
        # measure it is safe: the default registry opts in.
        super().__init__(
            self_address, protocols,
            serializers if serializers is not None
            else SerializerRegistry(allow_pickle_fallback=True),
        )
        self.host = host
        if self_address.ip != host.ip:
            raise TransportError(
                f"self address {self_address!r} does not match host ip {host.ip}"
            )

        # Channel recovery (§III-B/§III-C): default-off — without the
        # switch the pool behaves byte-for-byte like the bare middleware.
        recovery_policy = None
        recovery_rng = None
        if self.config.get_bool("messaging.reconnect.enabled", False):
            recovery_policy = ReconnectPolicy.from_config(self.config)
            recovery_rng = self.rng("reconnect")
        self._fallback_enabled = self.config.get_bool("messaging.fallback.enabled", False)

        self.pool = ChannelPool(
            host.stack, self._on_wire_message, self.logger,
            hello=self._self_socket,
            recovery_policy=recovery_policy, recovery_rng=recovery_rng,
        )
        self.pool.on_recovery_exhausted = self._on_recovery_exhausted
        self.pool.on_channel_up = self._on_channel_up
        self._watch_channels(self.pool)
        self._listeners: list[Listener] = []
        self._m_fallbacks = get_registry().counter("messaging.fallback.activations_total")

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def on_start(self) -> None:
        port = self.self_address.port
        for transport in self.protocols:
            proto = transport.to_proto()
            if proto is Proto.UDP:
                listener = self.host.stack.listen(port, proto, on_datagram=self._on_datagram)
            else:
                listener = self.host.stack.listen(port, proto, on_accept=self._on_accept)
            self._listeners.append(listener)
        self.logger.debug("%s listening on %s for %s", self.name, port, self.protocols)

    def on_kill(self) -> None:
        for listener in self._listeners:
            self.host.stack.unlisten(listener)
        self._listeners.clear()
        self.pool.close_all()

    def on_fault(self, fault) -> None:
        # Same cleanup as on_kill (idempotent): a faulted/restarting
        # network must not leave its host ports bound or channels open —
        # the fresh instance's on_start re-listens and re-dials.
        self.on_kill()

    # ------------------------------------------------------------------
    # send path
    # ------------------------------------------------------------------
    def _channel_key(self, remote: Socket, transport: Transport) -> Any:
        return (remote, transport.to_proto())

    def _transmit(self, msg: Msg, route: Route, notify_id: Optional[int]) -> None:
        size = snappy_size(
            self.serializers.wire_size(msg), getattr(msg, "compressibility", 1.0)
        )
        if not self._fits(route.transport, size, notify_id):
            return
        self.pool.send(route.key, WireMessage(
            msg, size,
            route.sent if notify_id is None
            else partial(self._resolve, route.transport, size, notify_id),
        ))

    # ------------------------------------------------------------------
    # recovery fallback
    # ------------------------------------------------------------------
    def _on_recovery_exhausted(self, key: ChannelKey, pending: List[WireMessage],
                               reason: str) -> None:
        """A reconnect campaign gave up: degrade to TCP or fail the queue.

        Either way the consumers (and, through the DataNetwork wiring, the
        adaptive selector) are told the transport is down so they can stop
        prescribing it (§IV-A's penalty signal for the Sarsa(λ) learner).
        """
        remote, proto = key
        self._mark_down(remote, Transport(proto.value), reason)
        can_fall_back = (
            self._fallback_enabled
            and proto is not Proto.TCP
            and Transport.TCP in self.protocols
        )
        if can_fall_back and pending:
            self._m_fallbacks.inc()
            self.tracer.event(
                "messaging.transport_fallback",
                remote=f"{remote[0]}:{remote[1]}", down=proto.value, via="tcp",
                pending=len(pending), reason=reason,
            )
            self.logger.debug(
                "%s: %s to %s down (%s); degrading %d pending message(s) to tcp",
                self.name, proto.value, remote, reason, len(pending),
            )
            for wire in pending:
                self.pool.send((remote, Proto.TCP), wire)
            return
        fail_sends(pending)

    def _on_channel_up(self, key: ChannelKey) -> None:
        """A dial over ``key``'s protocol completed: lift any Down mark.

        Deliberately keyed to *dial success on that protocol*, not to a
        delivered message — a fallback delivery over TCP says nothing
        about whether UDT is back.
        """
        remote, proto = key
        self._mark_up(remote, Transport(proto.value))

    # ------------------------------------------------------------------
    # receive path
    # ------------------------------------------------------------------
    def _on_accept(self, conn: Connection) -> None:
        # The handshake hello names the dialling middleware instance's own
        # listening socket: register the channel so replies reuse it.  (The
        # message header's *source* must NOT be used here — with multi-hop
        # RoutingHeaders it names the original sender, not the peer.)
        conn.on_message = self._on_wire_message
        if conn.peer_hello is not None:
            self.pool.register_inbound((tuple(conn.peer_hello), conn.proto), conn)

    def _on_wire_message(self, msg: Any, size: int, conn: Connection) -> None:
        # fluid path: the envelope is the message itself
        self._deliver(msg)

    def _on_datagram(self, msg: Any, size: int, src: Socket) -> None:
        self._deliver(msg)
