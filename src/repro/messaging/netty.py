"""NettyNetwork: the network component on the simulated substrate.

The port contract — transport choice, ``MessageNotify``, reflection,
``TransportStatus``, instruments — is :class:`NetworkComponent`'s.  What
is simulator-specific lives here:

* messages travel as objects; only their wire *size* is computed
  (serializer ``wire_size`` through the Snappy size model);
* one channel per (remote socket, transport) over the host's
  ``NetworkStack``: dialled lazily, messages buffered until it is ready,
  kept open for as long as the component lives (§III-C).  Accepted
  channels are keyed by the dialler's *middleware* socket (from the
  handshake hello), so replies reuse them instead of dialling back;
* reconnect campaigns and degrade-to-TCP fallback (``messaging.reconnect.*``,
  ``messaging.fallback.enabled``), which decide when a transport is Down:
  a cut outbound channel is redialled on the ``ReconnectPolicy`` schedule
  with its sends parked, until it is back or the campaign gives up.
"""

from __future__ import annotations

from collections import deque
from functools import partial
from typing import Any, Deque, Dict, Iterable, Optional, Tuple

from repro.errors import TransportError
from repro.messaging.address import Address
from repro.messaging.compression import snappy_size
from repro.messaging.message import Msg
from repro.messaging.network_component import NetworkComponent, Route, Socket
from repro.messaging.recovery import MAX_ATTEMPTS, QUEUE_LIMIT, ReconnectPolicy
from repro.messaging.serialization import SerializerRegistry
from repro.messaging.transport import Transport
from repro.netsim.connection import Connection, ConnectionState, WireMessage
from repro.netsim.host import Listener, SimHost
from repro.netsim.link import Proto
from repro.obs import get_registry

# The paper's three protocols plus the LEDBAT extension; simulated
# listeners are free, so the extension is enabled by default here (the
# asyncio backend keeps the paper's three).
DEFAULT_PROTOCOLS = (Transport.TCP, Transport.UDP, Transport.UDT, Transport.LEDBAT)

_Key = Tuple[Socket, Transport]

#: states a channel can still carry a send in
_USABLE = (ConnectionState.ACTIVE, ConnectionState.CONNECTING)


def _fail_sends(pending: Iterable[WireMessage]) -> None:
    """Resolve sends that will never reach a connection as failed."""
    for wire in pending:
        if wire.on_sent is not None:
            wire.on_sent(False)


class _Campaign:
    """One channel's reconnect campaign: attempts, parked sends, next dial."""

    __slots__ = ("attempts", "queue", "handle", "dialing")

    def __init__(self) -> None:
        self.attempts = 0
        self.queue: Deque[WireMessage] = deque()
        self.handle = None  # EventHandle of the next scheduled dial
        self.dialing = False  # a redial is currently in flight


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
        metrics = get_registry()
        # Recovery outcomes, kept with or without a metrics registry: the
        # fault campaigns' verdict reads them.
        self.counters.update(
            reconnect_attempts=0, reconnect_recovered=0, reconnect_giveups=0,
            fallback_activations=0,
        )
        #: (remote socket, transport) -> its channel, dialled or accepted
        self.channels: Dict[_Key, Connection] = {}
        #: running reconnect campaigns (§III-B/§III-C); None while
        #: reconnect is off — the bare at-most-once middleware — and
        #: after the component is killed
        self.campaigns: Optional[Dict[_Key, _Campaign]] = None
        if self.config.get_bool("messaging.reconnect.enabled", False):
            self.campaigns = {}
            self._policy = ReconnectPolicy.from_config(self.config)
            self._reconnect_rng = self.rng("reconnect")
            self._m_attempts = metrics.counter("messaging.reconnect.attempts_total")
            self._m_recovered = metrics.counter("messaging.reconnect.recovered_total")
            self._m_giveups = metrics.counter("messaging.reconnect.giveups_total")
            self._m_queue_drops = metrics.counter("messaging.reconnect.queue_drops_total")
        self._fallback_enabled = self.config.get_bool("messaging.fallback.enabled", False)
        self._m_dialed = metrics.counter("messaging.channels.dialed_total")
        self._m_inbound = metrics.counter("messaging.channels.inbound_total")
        self._watch_channels(self.channels)
        self._listeners: list[Listener] = []
        self._m_fallbacks = metrics.counter("messaging.fallback.activations_total")

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
        campaigns, self.campaigns = self.campaigns, None
        for campaign in (campaigns or {}).values():
            if campaign.handle is not None:
                campaign.handle.cancel()
            _fail_sends(campaign.queue)
        conns = list(self.channels.values())
        self.channels.clear()  # cleared first: close() must not look like a cut
        for conn in conns:
            conn.close()

    def on_fault(self, fault) -> None:
        # Same cleanup as on_kill (idempotent): a faulted/restarting
        # network must not leave its host ports bound or channels open —
        # the fresh instance's on_start re-listens and re-dials.
        self.on_kill()

    # ------------------------------------------------------------------
    # send path
    # ------------------------------------------------------------------
    def _transmit(self, msg: Msg, route: Route, notify_id: Optional[int]) -> None:
        size = snappy_size(
            self.serializers.wire_size(msg), getattr(msg, "compressibility", 1.0)
        )
        if not self._fits(route.transport, size, notify_id):
            return
        self._send_wire(route.key, WireMessage(
            msg, size,
            route.sent if notify_id is None
            else partial(self._resolve, route.transport, size, notify_id),
        ))

    def _send_wire(self, key: _Key, wire: WireMessage) -> None:
        """Send over ``key``'s channel, dialling it if there is none.

        While a reconnect campaign runs for ``key`` the send is parked in
        the campaign's bounded queue instead of being thrown into a
        connection known to be down; beyond the bound it fails at once.
        """
        campaign = self.campaigns.get(key) if self.campaigns else None
        if campaign is not None:
            if len(campaign.queue) < QUEUE_LIMIT:
                campaign.queue.append(wire)
            else:
                self._m_queue_drops.inc()
                _fail_sends([wire])
            return
        conn = self.channels.get(key)
        if conn is None or conn.state not in _USABLE:
            if conn is not None:
                self._discard_stale(conn)
            conn = self._dial(key)
            remote, transport = key
            self.tracer.event(
                "messaging.channel_dial", remote=f"{remote[0]}:{remote[1]}",
                proto=transport.value,
            )
        conn.send(wire)

    def _dial(self, key: _Key) -> Connection:
        remote, transport = key
        conn = self.host.stack.connect(
            remote,
            transport.to_proto(),
            on_connected=lambda c: self._on_channel_up(key),
            on_failed=lambda c, reason: self._channel_lost(key, reason),
            hello=self._self_socket,
        )
        conn.on_message = self._on_wire_message
        conn.on_closed = lambda c: self._channel_lost(key, "closed")
        self.channels[key] = conn
        self._m_dialed.inc()
        return conn

    def _discard_stale(self, conn: Connection) -> None:
        """Disarm and close a dead channel still in the map before replacing it.

        Its ``on_closed``/``on_failed`` are still armed with
        :meth:`_channel_lost` for the same key: left in place, a late
        firing could evict the *replacement* or start a spurious reconnect
        campaign that then parks healthy traffic.
        """
        conn.on_closed = None
        conn.on_failed = None
        conn.close()

    # ------------------------------------------------------------------
    # reconnect campaigns and fallback
    # ------------------------------------------------------------------
    def _channel_lost(self, key: _Key, reason: str) -> None:
        """A channel closed or failed: drop it, and recover it if we dialled it.

        Called for the first loss and for every failed redial alike; the
        campaign tells the two apart.  :meth:`on_kill` empties the map
        *before* closing, so only genuine failures find their channel here.
        """
        conn = self.channels.get(key)
        if conn is None or conn.state in _USABLE:
            return
        del self.channels[key]
        self.logger.debug("channel %s dropped (%s)", key, reason)
        campaigns = self.campaigns
        if campaigns is None or conn.hello is None:  # off, or an accepted channel
            return
        campaign = campaigns.get(key)
        if campaign is None:
            campaign = campaigns[key] = _Campaign()
        elif campaign.dialing:
            campaign.dialing = False  # the redial we were waiting on failed
        else:
            return  # duplicate loss report; the next dial is already set
        if campaign.attempts >= MAX_ATTEMPTS:
            self._give_up(key, campaign, reason)
            return
        delay = self._policy.delay_for(campaign.attempts, self._reconnect_rng)
        remote, transport = key
        self.tracer.event(
            "messaging.reconnect_scheduled",
            remote=f"{remote[0]}:{remote[1]}", proto=transport.value,
            attempt=campaign.attempts, delay=delay, reason=reason,
        )
        campaign.handle = self.host.stack.sim.schedule(
            delay, lambda: self._redial(key, campaign), label="chan-reconnect"
        )

    def _redial(self, key: _Key, campaign: _Campaign) -> None:
        """One campaign attempt; :meth:`_on_channel_up` or
        :meth:`_channel_lost` reports its outcome."""
        if self.campaigns is None or self.campaigns.get(key) is not campaign:
            return
        campaign.handle = None
        campaign.attempts += 1
        campaign.dialing = True
        self._m_attempts.inc()
        self.counters["reconnect_attempts"] += 1
        remote, transport = key
        self.tracer.event(
            "messaging.reconnect_attempt",
            remote=f"{remote[0]}:{remote[1]}", proto=transport.value,
            attempt=campaign.attempts,
        )
        stale = self.channels.get(key)
        if stale is not None and stale.state not in _USABLE:
            self._discard_stale(stale)
        self._dial(key)

    def _on_channel_up(self, key: _Key) -> None:
        """A dial over ``key`` completed: end its campaign, lift any Down mark.

        Deliberately keyed to *dial success on that transport*, not to a
        delivered message — a fallback delivery over TCP says nothing
        about whether UDT is back.
        """
        remote, transport = key
        campaign = self.campaigns.pop(key, None) if self.campaigns else None
        if campaign is not None:
            self._m_recovered.inc()
            self.counters["reconnect_recovered"] += 1
            self.tracer.event(
                "messaging.reconnect_success",
                remote=f"{remote[0]}:{remote[1]}", proto=transport.value,
                attempts=campaign.attempts, flushed=len(campaign.queue),
            )
            self.logger.debug(
                "channel %s recovered after %d attempt(s), flushing %d message(s)",
                key, campaign.attempts, len(campaign.queue),
            )
            if campaign.queue:
                conn = self.channels.get(key)
                if conn is None or conn.state not in _USABLE:  # lost again already
                    _fail_sends(campaign.queue)
                else:
                    for wire in campaign.queue:
                        conn.send(wire)
        self._mark_up(remote, transport)

    def _give_up(self, key: _Key, campaign: _Campaign, reason: str) -> None:
        """A campaign ran out of dials: mark the transport Down, degrade to
        TCP or fail the parked sends.

        Either way the consumers (and, through the DataNetwork wiring, the
        adaptive selector) are told the transport is down so they can stop
        prescribing it (§IV-A's penalty signal for the Sarsa(λ) learner).
        """
        del self.campaigns[key]
        remote, transport = key
        pending = list(campaign.queue)
        self._m_giveups.inc()
        self.counters["reconnect_giveups"] += 1
        self.tracer.event(
            "messaging.reconnect_giveup",
            remote=f"{remote[0]}:{remote[1]}", proto=transport.value,
            attempts=campaign.attempts, pending=len(pending), reason=reason,
        )
        self.logger.debug(
            "giving up on channel %s after %d attempts (%s)",
            key, campaign.attempts, reason,
        )
        self._mark_down(remote, transport, reason)
        can_fall_back = (
            self._fallback_enabled
            and transport is not Transport.TCP
            and Transport.TCP in self.protocols
        )
        if can_fall_back and pending:
            self._m_fallbacks.inc()
            self.counters["fallback_activations"] += 1
            self.tracer.event(
                "messaging.transport_fallback",
                remote=f"{remote[0]}:{remote[1]}", down=transport.value, via="tcp",
                pending=len(pending), reason=reason,
            )
            self.logger.debug(
                "%s: %s to %s down (%s); degrading %d pending message(s) to tcp",
                self.name, transport.value, remote, reason, len(pending),
            )
            for wire in pending:
                self._send_wire((remote, Transport.TCP), wire)
            return
        _fail_sends(pending)

    # ------------------------------------------------------------------
    # receive path
    # ------------------------------------------------------------------
    def _on_accept(self, conn: Connection) -> None:
        # The handshake hello names the dialling middleware instance's own
        # listening socket: register the channel so replies reuse it, unless
        # a usable one is already there.  (The message header's *source*
        # must NOT be used here — with multi-hop RoutingHeaders it names the
        # original sender, not the peer.)
        conn.on_message = self._on_wire_message
        if conn.peer_hello is None:
            return
        key = (tuple(conn.peer_hello), Transport(conn.proto.value))
        existing = self.channels.get(key)
        if existing is None or existing.state not in _USABLE:
            conn.on_closed = lambda c: self._channel_lost(key, "closed")
            self.channels[key] = conn
            self._m_inbound.inc()

    def _on_wire_message(self, msg: Any, size: int, conn: Connection) -> None:
        # fluid path: the envelope is the message itself
        self._deliver(msg)

    def _on_datagram(self, msg: Any, size: int, src: Socket) -> None:
        self._deliver(msg)
