"""Fault-injecting socket adaptors for the datagram transports (test tooling).

Modelled on COMP4621-Protocol's ``adaptors.py`` (see SNIPPETS.md): a
socket adaptor sits between a protocol endpoint and its UDP socket and
perturbs *outgoing* packets — dropping, duplicating, delaying, truncating
or any chain thereof.  Both :class:`~repro.aio.udt.UdtLiteEndpoint` and
:class:`~repro.aio.udp.UdpEndpoint` accept one via their ``adaptor``
parameter, which makes loss patterns (lost DATA or ACKs, duplicated
control packets, corrupted lengths) scriptable in tests without touching
the protocol code.

All randomised adaptors take an explicit seed, so campaigns stay
deterministic; predicates receive ``(packet_bytes, remote)`` and may
parse the packet (see :func:`udt_packet_type`).
"""

from __future__ import annotations

import random
from typing import Callable, Iterable, List, Optional, Tuple

from repro.aio.transport import Endpoint

#: the raw transmit continuation an adaptor forwards (possibly mutated)
#: packets to — ultimately the ``sendto`` of :class:`~repro.aio.udp.UdpEndpoint`'s socket
Transmit = Callable[[bytes, Endpoint], None]
PacketPredicate = Callable[[bytes, Endpoint], bool]


def udt_packet_type(packet: bytes) -> int:
    """The UDT-lite packet type of a raw datagram (0 if too short).

    Usable in predicates to target control packets, e.g.
    ``DropAdaptor(match=lambda p, _: udt_packet_type(p) == udt.ACK)``.
    """
    return packet[0] if packet else 0


class SocketAdaptor:
    """Base adaptor: forwards every packet unchanged.

    Subclasses override :meth:`sendto` and call ``transmit`` zero, one or
    several times.  Adaptors must be driven from the event-loop thread
    (they may schedule delayed transmissions on the running loop).
    """

    def sendto(self, packet: bytes, remote: Endpoint, transmit: Transmit) -> None:
        transmit(packet, remote)


class DropAdaptor(SocketAdaptor):
    """Drop packets by predicate, probability, or both.

    ``max_drops`` bounds the total (e.g. "drop the first two ACKs"), after
    which everything passes — the shape most regression tests want, since
    a protocol under test must eventually make progress.
    """

    def __init__(
        self,
        probability: float = 0.0,
        seed: int = 0,
        match: Optional[PacketPredicate] = None,
        max_drops: Optional[int] = None,
    ) -> None:
        self.probability = probability
        self.match = match
        self.max_drops = max_drops
        self.dropped = 0
        self._rng = random.Random(seed)

    def sendto(self, packet: bytes, remote: Endpoint, transmit: Transmit) -> None:
        eligible = self.match is None or self.match(packet, remote)
        under_budget = self.max_drops is None or self.dropped < self.max_drops
        if eligible and under_budget:
            if self.probability >= 1.0 or self._rng.random() < self.probability:
                self.dropped += 1
                return
        transmit(packet, remote)


class DupAdaptor(SocketAdaptor):
    """Duplicate matching packets (each sent ``copies + 1`` times)."""

    def __init__(
        self,
        probability: float = 1.0,
        seed: int = 0,
        match: Optional[PacketPredicate] = None,
        copies: int = 1,
    ) -> None:
        self.probability = probability
        self.match = match
        self.copies = copies
        self.duplicated = 0
        self._rng = random.Random(seed)

    def sendto(self, packet: bytes, remote: Endpoint, transmit: Transmit) -> None:
        transmit(packet, remote)
        if self.match is not None and not self.match(packet, remote):
            return
        if self.probability >= 1.0 or self._rng.random() < self.probability:
            self.duplicated += 1
            for _ in range(self.copies):
                transmit(packet, remote)


class DelayAdaptor(SocketAdaptor):
    """Hold matching packets back for ``delay`` (plus seeded jitter) seconds.

    Delays are scheduled on the running asyncio loop, so ordering between
    a delayed packet and later undelayed ones inverts — which is the
    point: it manufactures reordering on loopback, where the kernel alone
    never reorders.
    """

    def __init__(
        self,
        delay: float = 0.05,
        jitter: float = 0.0,
        seed: int = 0,
        match: Optional[PacketPredicate] = None,
    ) -> None:
        self.delay = delay
        self.jitter = jitter
        self.match = match
        self.delayed = 0
        self._rng = random.Random(seed)

    def sendto(self, packet: bytes, remote: Endpoint, transmit: Transmit) -> None:
        if self.match is not None and not self.match(packet, remote):
            transmit(packet, remote)
            return
        import asyncio

        delay = self.delay + (self._rng.random() * self.jitter if self.jitter else 0.0)
        self.delayed += 1
        asyncio.get_running_loop().call_later(delay, transmit, packet, remote)


class TruncateAdaptor(SocketAdaptor):
    """Cut matching packets down to ``keep_bytes`` (corruption-by-loss).

    UDT-lite has no checksum, but its header is self-describing enough
    that a truncated packet exercises the short-packet guards; for plain
    UDP it exercises the middleware's deserialization error paths.
    """

    def __init__(
        self,
        keep_bytes: int = 8,
        probability: float = 1.0,
        seed: int = 0,
        match: Optional[PacketPredicate] = None,
        max_truncations: Optional[int] = None,
    ) -> None:
        self.keep_bytes = keep_bytes
        self.probability = probability
        self.match = match
        self.max_truncations = max_truncations
        self.truncated = 0
        self._rng = random.Random(seed)

    def sendto(self, packet: bytes, remote: Endpoint, transmit: Transmit) -> None:
        eligible = self.match is None or self.match(packet, remote)
        under_budget = self.max_truncations is None or self.truncated < self.max_truncations
        if eligible and under_budget and (
            self.probability >= 1.0 or self._rng.random() < self.probability
        ):
            self.truncated += 1
            transmit(packet[: self.keep_bytes], remote)
            return
        transmit(packet, remote)


class ChainAdaptor(SocketAdaptor):
    """Compose adaptors left to right: each feeds the next's sendto."""

    def __init__(self, adaptors: Iterable[SocketAdaptor]) -> None:
        self.adaptors: Tuple[SocketAdaptor, ...] = tuple(adaptors)

    def sendto(self, packet: bytes, remote: Endpoint, transmit: Transmit) -> None:
        def step(index: int, pkt: bytes, rmt: Endpoint) -> None:
            if index == len(self.adaptors):
                transmit(pkt, rmt)
                return
            self.adaptors[index].sendto(pkt, rmt, lambda p, r: step(index + 1, p, r))

        step(0, packet, remote)


class RecordingAdaptor(SocketAdaptor):
    """Pass-through that records every packet (assertion helper)."""

    def __init__(self) -> None:
        self.packets: List[Tuple[bytes, Endpoint]] = []

    def sendto(self, packet: bytes, remote: Endpoint, transmit: Transmit) -> None:
        self.packets.append((packet, remote))
        transmit(packet, remote)
