"""Channel management for the network component.

One transport channel per (remote socket, protocol), created lazily on
first use and kept open as long as possible — channel establishment can be
expensive (the paper mentions NAT hole punching, §III-C), so teardown is
deliberately conservative: a channel closes only when it fails or its
owner dies.  Inbound connections are registered under the sender's
*middleware* address (learned from the handshake hello) so replies reuse
them instead of dialling back.
"""

from __future__ import annotations

import logging
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.messaging.recovery import ChannelRecovery, ReconnectPolicy, fail_sends
from repro.netsim.connection import Connection, ConnectionState, WireMessage
from repro.netsim.host import NetworkStack
from repro.netsim.link import Proto
from repro.obs import get_registry, get_tracer

Socket = Tuple[str, int]
ChannelKey = Tuple[Socket, Proto]

#: callback invoked when a recovery campaign exhausts its attempts:
#: ``(key, pending sends, reason)`` — set by the pool owner for transport
#: fallback; the default fails every pending send (at-most-once).
RecoveryExhausted = Callable[[ChannelKey, List[WireMessage], str], None]

#: states a pooled connection can still carry a send in
_USABLE = (ConnectionState.ACTIVE, ConnectionState.CONNECTING)


class ChannelRef:
    """A pooled transport channel and which side dialled it."""

    __slots__ = ("key", "conn", "outbound")

    def __init__(self, key: ChannelKey, conn: Connection, outbound: bool) -> None:
        self.key = key
        self.conn = conn
        self.outbound = outbound

    @property
    def usable(self) -> bool:
        return self.conn.state in _USABLE


class ChannelPool:
    """Lazily-connected, conservatively-retained channel map."""

    def __init__(
        self,
        stack: NetworkStack,
        on_message: Callable[[Any, int, Connection], None],
        logger: Optional[logging.Logger] = None,
        hello: Any = None,
        recovery_policy: Optional[ReconnectPolicy] = None,
        recovery_rng: Any = None,
    ) -> None:
        self.stack = stack
        self.on_message = on_message
        self.logger = logger or logging.getLogger("repro.messaging.channels")
        #: handshake payload announcing this middleware instance's own
        #: listening socket, so acceptors can register the channel for reuse
        self.hello = hello
        self.channels: Dict[ChannelKey, ChannelRef] = {}
        #: owner hook fired when recovery exhausts its attempts (fallback)
        self.on_recovery_exhausted: Optional[RecoveryExhausted] = None
        #: owner hook fired when an outbound channel's dial completes —
        #: proof the wire protocol towards that remote actually works
        #: (a fallback delivery over another protocol is no such proof)
        self.on_channel_up: Optional[Callable[[ChannelKey], None]] = None
        self.recovery: Optional[ChannelRecovery] = None
        if recovery_policy is not None:
            self.recovery = ChannelRecovery(
                sim=stack.sim,
                policy=recovery_policy,
                dial=self._redial,
                flush=self._flush_recovered,
                give_up=self._recovery_exhausted,
                rng=recovery_rng,
                logger=self.logger,
            )
        metrics = get_registry()
        self.tracer = get_tracer()
        self._m_dialed = metrics.counter("messaging.channels.dialed_total")
        self._m_inbound = metrics.counter("messaging.channels.inbound_total")

    # ------------------------------------------------------------------
    # outbound
    # ------------------------------------------------------------------
    def send(self, key: ChannelKey, wire: WireMessage) -> None:
        """Send over the pooled channel, dialling (or recovering) as needed.

        While a recovery campaign runs for ``key`` the message is parked
        in the campaign's bounded queue instead of being thrown into a
        connection that is known to be down; beyond the bound the send
        fails immediately.
        """
        recovery = self.recovery
        if recovery is not None and recovery.recovering(key):
            if not recovery.queue_send(key, wire):
                fail_sends([wire])
            return
        ref = self.channels.get(key)
        if ref is None or ref.conn.state not in _USABLE:
            ref = self.get_or_connect(*key)
        ref.conn.send(wire)

    def get_or_connect(self, remote: Socket, proto: Proto) -> ChannelRef:
        key = (remote, proto)
        ref = self.channels.get(key)
        if ref is not None and ref.usable:
            return ref
        if ref is not None:
            self._discard_stale(ref)
        ref = self._dial(key, self._channel_up)
        self.tracer.event(
            "messaging.channel_dial", remote=f"{remote[0]}:{remote[1]}",
            proto=proto.value,
        )
        return ref

    def _dial(self, key: ChannelKey, on_up: Callable[[ChannelKey], None]) -> ChannelRef:
        remote, proto = key
        conn = self.stack.connect(
            remote,
            proto,
            on_connected=lambda c: on_up(key),
            on_failed=lambda c, reason: self._on_gone(key, reason),
            hello=self.hello,
        )
        conn.on_message = self.on_message
        conn.on_closed = lambda c: self._on_gone(key, "closed")
        ref = self.channels[key] = ChannelRef(key, conn, outbound=True)
        self._m_dialed.inc()
        return ref

    def _discard_stale(self, ref: ChannelRef) -> None:
        """Disarm and close a dead ref still in the pool before replacing it.

        Its connection's ``on_closed``/``on_failed`` are still armed with
        ``_on_gone`` for the same key: left in place, a late firing could
        evict the *replacement* from the pool or start a spurious recovery
        campaign that then parks healthy traffic.
        """
        ref.conn.on_closed = None
        ref.conn.on_failed = None
        ref.conn.close()

    # ------------------------------------------------------------------
    # recovery plumbing
    # ------------------------------------------------------------------
    def _redial(self, key: ChannelKey) -> None:
        """One recovery attempt: dial and report the outcome to recovery."""
        stale = self.channels.get(key)
        if stale is not None and not stale.usable:
            self._discard_stale(stale)
        self._dial(key, self._on_redialed)

    def _on_redialed(self, key: ChannelKey) -> None:
        if self.recovery is not None:
            self.recovery.dial_succeeded(key)
        self._channel_up(key)

    def _channel_up(self, key: ChannelKey) -> None:
        if self.on_channel_up is not None:
            self.on_channel_up(key)

    def _flush_recovered(self, key: ChannelKey, pending: List[WireMessage]) -> None:
        ref = self.channels.get(key)
        if ref is None or not ref.usable:  # lost again between dial and flush
            fail_sends(pending)
            return
        for wire in pending:
            ref.conn.send(wire)

    def _recovery_exhausted(self, key: ChannelKey, pending: List[WireMessage],
                            reason: str) -> None:
        if self.on_recovery_exhausted is not None:
            self.on_recovery_exhausted(key, pending, reason)
            return
        fail_sends(pending)

    # ------------------------------------------------------------------
    # inbound
    # ------------------------------------------------------------------
    def register_inbound(self, key: ChannelKey, conn: Connection) -> None:
        """Make an accepted connection reusable for replies to ``key``'s socket."""
        existing = self.channels.get(key)
        if existing is not None and existing.usable:
            return
        conn.on_closed = lambda c: self._on_gone(key, "closed")
        self.channels[key] = ChannelRef(key, conn, outbound=False)
        self._m_inbound.inc()

    # ------------------------------------------------------------------
    # teardown
    # ------------------------------------------------------------------
    def _on_gone(self, key: ChannelKey, reason: str) -> None:
        ref = self.channels.get(key)
        if ref is not None and not ref.usable:
            del self.channels[key]
            self.logger.debug("channel %s dropped (%s)", key, reason)
            # A deliberate close (close_all) removes the ref from
            # the map *before* closing, so only genuine failures get here
            # with a live ref — those are the ones worth recovering.
            if self.recovery is not None and ref.outbound:
                self.recovery.channel_lost(key, reason)

    def close_all(self) -> None:
        if self.recovery is not None:
            self.recovery.shutdown()
        refs = list(self.channels.values())
        self.channels.clear()  # cleared first: close() must not look like a cut
        for ref in refs:
            ref.conn.close()

    def __len__(self) -> int:
        return len(self.channels)
