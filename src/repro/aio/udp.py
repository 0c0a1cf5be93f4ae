"""Plain-UDP transport: one frame per datagram, fire-and-forget.

No ordering, no reliability, no fragmentation beyond what the OS does —
frames must fit a datagram (the middleware's 65 kB buffer limit is below
the 64 KiB UDP maximum, so any valid message fits).

:class:`UdpEndpoint` is also the one datagram socket of the package:
UDT-lite (:mod:`repro.aio.udt`) opens its socket through it, so the
drained read and the adaptor seam exist once.
"""

from __future__ import annotations

import asyncio
import socket
from typing import Optional

from repro.aio.transport import DatagramHandler, Endpoint
from repro.obs.metrics import NULL_HISTOGRAM, Histogram

#: datagrams handled per readiness event before the loop gets to run its
#: other callbacks and timers again
DRAIN_MAX = 64
MAX_DATAGRAM = 65536  # recvfrom buffer: no UDP datagram is larger


class UdpEndpoint:
    """A bound UDP socket usable for both sending and receiving frames.

    The endpoint owns a non-blocking socket registered with the running
    loop.  One readiness event hands ``on_datagram`` everything already
    queued on the socket, up to :data:`DRAIN_MAX` datagrams — a burst
    costs one trip through the selector, not one per datagram.

    ``adaptor`` optionally interposes a fault-injecting
    ``SocketAdaptor`` (``tests/aio_adaptors.py``) on the outgoing path;
    ``per_wakeup`` observes how many datagrams each readiness event
    handled.
    """

    def __init__(
        self, adaptor: Optional[object] = None, per_wakeup: Histogram = NULL_HISTOGRAM
    ) -> None:
        self._sock: Optional[socket.socket] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._on_datagram: Optional[DatagramHandler] = None
        self._per_wakeup = per_wakeup
        self.adaptor = adaptor

    async def open(self, host: str, port: int, on_datagram: Optional[DatagramHandler] = None) -> Endpoint:
        loop = asyncio.get_running_loop()
        family, kind, proto, _, address = (
            await loop.getaddrinfo(host, port, type=socket.SOCK_DGRAM)
        )[0]
        sock = socket.socket(family, kind, proto)
        try:
            sock.setblocking(False)
            sock.bind(address)
        except OSError:
            sock.close()
            raise
        self._sock, self._loop, self._on_datagram = sock, loop, on_datagram
        loop.add_reader(sock.fileno(), self._on_readable)
        return sock.getsockname()[:2]

    def _on_readable(self) -> None:
        handled = 0
        # ``on_datagram`` may close this endpoint (a UDT-lite CLOSE tears
        # its connection's socket down): look the socket up every time.
        while handled < DRAIN_MAX and self._sock is not None:
            try:
                data, addr = self._sock.recvfrom(MAX_DATAGRAM)
            except OSError:
                # Nothing (more) queued; any other socket error is as
                # transient on a datagram socket as a lost packet.
                break
            handled += 1
            if self._on_datagram is not None:
                self._on_datagram(data, addr[:2])
        self._per_wakeup.observe(handled)

    def send(self, frame: bytes, remote: Endpoint) -> None:
        if self._sock is None:
            raise RuntimeError("endpoint not open")
        if self.adaptor is not None:
            self.adaptor.sendto(frame, remote, self._transmit)
        else:
            self._transmit(frame, remote)

    def _transmit(self, frame: bytes, remote: Endpoint) -> None:
        # Also the continuation adaptors call, possibly after close().
        if self._sock is None:
            return
        try:
            self._sock.sendto(frame, remote)
        except OSError:
            # A full send buffer or an unreachable peer loses the datagram,
            # exactly as the network may: nobody above expects to hear.
            pass

    def release(self) -> None:
        """Stop reading and close the socket, synchronously (idempotent)."""
        sock, self._sock = self._sock, None
        if sock is not None:
            self._loop.remove_reader(sock.fileno())
            sock.close()

    async def close(self) -> None:
        self.release()
