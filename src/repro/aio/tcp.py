"""Length-framed TCP on non-blocking sockets owned by the loop thread.

Wire format: every frame (including the initial hello) is a 4-byte
big-endian length followed by the payload.  The first frame sent by the
dialling side is its hello; everything after is middleware frames.
A batch goes out as one gathered ``sendmsg``; a readiness event is one ``recv_into``.
"""

from __future__ import annotations

import asyncio
import contextlib
import mmap
import socket
import struct
import weakref
from collections import deque
from itertools import islice
from typing import Callable, Deque, Optional, Sequence

from repro.aio.transport import MAX_FRAME, MAX_HELLO, AioConnection, AioListener, AioTransport, ConnectionHandler, Endpoint

LENGTH = struct.Struct(">I")
HELLO_BUFFER = 1024  # an accepted connection reads into this until its hello is in
HIGH_WATER = 64 * 1024  # send_frames returns once at most this many bytes are unsent
IOV_MAX = 1024  # buffers one sendmsg may gather (Linux)


class TcpConnection(AioConnection):
    """One framed stream.  ``on_hello`` marks an accepted connection: its
    first frame becomes ``peer_hello``, and ``on_hello(conn)`` is called."""

    def __init__(self, sock: socket.socket,
                 on_hello: Optional[Callable[["TcpConnection"], None]] = None) -> None:
        super().__init__()
        self._sock: Optional[socket.socket] = sock
        self._fd = sock.fileno()
        self._loop = asyncio.get_running_loop()
        self._on_hello = on_hello
        self._limit = MAX_HELLO if on_hello else MAX_FRAME
        self._buf = bytearray(HELLO_BUFFER) if on_hello else mmap.mmap(-1, LENGTH.size + MAX_FRAME)
        self._view = memoryview(self._buf)
        self._start = self._end = 0  # bytes not yet split: _buf[_start:_end]
        self._unsent: Deque = deque()
        self._unsent_bytes = 0
        self._writing = False
        self._progress = asyncio.Event()  # pulsed by every flush and by _abort
        self._error: Optional[OSError] = None

    def start_reading(self) -> None:
        self._loop.add_reader(self._fd, self._on_readable)

    def _on_readable(self) -> None:
        try:
            received = self._sock.recv_into(self._view[self._end:])
        except (BlockingIOError, InterruptedError):
            return
        except OSError as exc:
            return self._abort(exc)
        if not received:
            return self._abort(ConnectionResetError("connection closed by peer"))
        self._end += received
        while self._end - self._start >= LENGTH.size:
            (length,) = LENGTH.unpack_from(self._buf, self._start)
            if length > self._limit:
                return self._abort(ConnectionError(f"{length} byte frame exceeds {self._limit}"))
            start = self._start + LENGTH.size
            if start + length > self._end:
                break
            self._start = start + length
            frame = bytes(self._view[start:self._start])
            if self._on_hello is None:
                self._deliver(frame)
            else:  # the hello is in: move what follows it into the full buffer
                rest, self._buf = self._view[self._start:self._end], mmap.mmap(-1, LENGTH.size + MAX_FRAME)
                self._buf[:len(rest)] = rest
                self._view, self._start, self._end = memoryview(self._buf), 0, len(rest)
                self._limit, self.peer_hello = MAX_FRAME, frame
                on_hello, self._on_hello = self._on_hello, None
                on_hello(self)
            if self._sock is None:  # a handler closed the connection
                return
        if self._start == self._end:
            self._start = self._end = 0
        elif self._end == len(self._buf):  # full: move the partial frame to the front
            self._view[:self._end - self._start] = self._view[self._start:self._end]
            self._start, self._end = 0, self._end - self._start

    async def send_frames(self, frames: Sequence[bytes]) -> None:
        if self._sock is None:
            raise self._error
        for data in frames:
            self._unsent.extend((LENGTH.pack(len(data)), data))
            self._unsent_bytes += LENGTH.size + len(data)
        if not self._writing:
            self._flush()
        await self._wait(HIGH_WATER)

    async def drain(self) -> None:
        """Wait until every queued byte is in the kernel."""
        await self._wait(0)

    async def _wait(self, unsent: int) -> None:
        while self._error is None and self._unsent_bytes > unsent:
            await self._progress.wait()
        if self._error is not None:
            raise self._error

    def _flush(self) -> None:
        unsent = self._unsent
        while unsent:
            buffers = list(islice(unsent, IOV_MAX))
            try:
                sent = self._sock.sendmsg(buffers)
            except (BlockingIOError, InterruptedError):
                break
            except OSError as exc:
                return self._abort(exc)
            self._unsent_bytes -= sent
            done = 0
            while unsent and len(unsent[0]) <= sent:
                sent -= len(unsent.popleft())
                done += 1
            if sent:
                unsent[0] = memoryview(unsent[0])[sent:]
            if done < len(buffers):
                break  # the kernel took part of it: its buffer is full
        if unsent and not self._writing:
            self._loop.add_writer(self._fd, self._flush)
        elif self._writing and not unsent:
            self._loop.remove_writer(self._fd)
        self._writing = bool(unsent)
        self._progress.set()
        self._progress.clear()

    def _abort(self, exc: OSError) -> None:
        """Close at once, dropping unsent bytes; blocked calls raise ``exc``."""
        sock, self._sock, self._error = self._sock, None, self._error or exc
        self._unsent.clear()
        self._progress.set()
        if sock is not None:
            self._loop.remove_reader(self._fd)
            self._loop.remove_writer(self._fd)
            sock.close()
        self._closed()

    async def close(self) -> None:
        """Stop reading, flush what is unsent, then close the socket."""
        if self._sock is not None:
            self._loop.remove_reader(self._fd)
            with contextlib.suppress(OSError):
                await self.drain()
        self._abort(ConnectionResetError("connection closed"))


class _TcpListener(AioListener):
    def __init__(self, sock: socket.socket, on_connection: ConnectionHandler) -> None:
        self._sock = sock
        self._on_connection = on_connection
        self._accepted: "weakref.WeakSet[TcpConnection]" = weakref.WeakSet()
        asyncio.get_running_loop().add_reader(sock.fileno(), self._on_acceptable)

    def _on_acceptable(self) -> None:
        try:
            sock, _ = self._sock.accept()
        except OSError:  # nothing queued, or the connection died queued
            return
        sock.setblocking(False)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        conn = TcpConnection(sock, on_hello=self._on_connection)
        self._accepted.add(conn)
        conn.start_reading()

    async def close(self) -> None:
        if self._sock.fileno() >= 0:
            asyncio.get_running_loop().remove_reader(self._sock.fileno())
            self._sock.close()
        for conn in list(self._accepted):
            if conn._on_hello is not None:  # its hello never came
                conn._abort(ConnectionResetError("listener closed"))


def _family(host: str) -> socket.AddressFamily:
    return socket.AF_INET6 if ":" in host else socket.AF_INET


class TcpTransport(AioTransport):
    name = "tcp"

    async def listen(self, host: str, port: int, on_connection: ConnectionHandler) -> AioListener:
        sock = socket.create_server((host, port), family=_family(host), backlog=100)
        sock.setblocking(False)
        return _TcpListener(sock, on_connection)

    async def connect(self, remote: Endpoint, hello: bytes) -> TcpConnection:
        sock = socket.socket(_family(remote[0]))
        try:
            sock.setblocking(False)
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            await asyncio.get_running_loop().sock_connect(sock, remote)
        except BaseException:
            sock.close()
            raise
        conn = TcpConnection(sock)
        await conn.send_frame(hello)
        conn.start_reading()
        return conn
