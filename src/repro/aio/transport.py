"""Common interfaces for the asyncio transports.

Every transport moves *frames* (already-serialized message bytes) between
endpoints.  Connection-oriented transports (TCP, UDT-lite) exchange a
``hello`` blob during establishment — the middleware uses it to announce
its own listening socket so acceptors can reuse inbound channels for
replies (exactly like the simulated stack's handshake hello).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Callable, Optional, Sequence, Tuple

Endpoint = Tuple[str, int]
FrameHandler = Callable[[bytes], None]
DatagramHandler = Callable[[bytes, Endpoint], None]
ConnectionHandler = Callable[["AioConnection"], None]

#: longest hello a listener accepts, on every transport
MAX_HELLO = 512
#: largest frame on every stream transport; a longer length prefix closes
#: the connection.  TCP's receive buffer (an anonymous mapping, resident as
#: far as bursts have filled it) holds one, so one read takes up to 17 of
#: AioNetwork's largest (65 544 byte) frames
MAX_FRAME = 1024 * 1024


class AioConnection(ABC):
    """A framed, ordered duplex connection."""

    def __init__(self) -> None:
        self.on_frame: Optional[FrameHandler] = None
        self.on_closed: Optional[Callable[["AioConnection"], None]] = None
        self.peer_hello: Optional[bytes] = None
        self.closed = False

    async def send_frame(self, data: bytes) -> None:
        """Queue one frame for ordered, reliable delivery."""
        await self.send_frames((data,))

    @abstractmethod
    async def send_frames(self, frames: Sequence[bytes]) -> None:
        """Queue a batch of frames: one gathered write or pacing wakeup."""

    @abstractmethod
    async def drain(self) -> None:
        """Wait until everything queued so far is on the wire (or acked)."""

    @abstractmethod
    async def close(self) -> None: ...

    def _deliver(self, frame: bytes) -> None:
        if self.on_frame is not None:
            self.on_frame(frame)

    def _closed(self) -> None:
        if not self.closed:
            self.closed = True
            if self.on_closed is not None:
                self.on_closed(self)


class AioListener(ABC):
    """A bound acceptor; close() releases the port."""

    @abstractmethod
    async def close(self) -> None: ...


class AioTransport(ABC):
    """Factory for listeners and outbound connections of one protocol."""

    name: str = "abstract"

    @abstractmethod
    async def listen(self, host: str, port: int, on_connection: ConnectionHandler) -> AioListener:
        """Accept inbound connections on (host, port)."""

    @abstractmethod
    async def connect(self, remote: Endpoint, hello: bytes) -> AioConnection:
        """Dial ``remote``, announcing ``hello`` during establishment."""
