"""Loopback tests for the asyncio transports (real sockets on 127.0.0.1)."""

import asyncio
import os
import random
import socket
from collections import deque

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from repro.aio import udt
from tests.aio_adaptors import DropAdaptor, udt_packet_type
from repro.aio.tcp import HELLO_BUFFER, HIGH_WATER, LENGTH, MAX_FRAME, MAX_HELLO, TcpConnection, TcpTransport
from repro.aio.udp import UdpEndpoint
from repro.aio.udt import UdtLiteTransport

pytestmark = pytest.mark.integration

HOST = "127.0.0.1"


def run(coro):
    return asyncio.run(asyncio.wait_for(coro, timeout=30.0))


def drop_data_once(predicate) -> DropAdaptor:
    """Drop the first transmission of each DATA packet whose sequence
    number matches, so retransmissions get through."""
    dropped = set()

    def match(packet, _remote) -> bool:
        if udt_packet_type(packet) != udt.DATA:
            return False
        seq = udt.HEADER.unpack_from(packet)[1]
        if predicate(seq) and seq not in dropped:
            dropped.add(seq)
            return True
        return False

    return DropAdaptor(probability=1.0, match=match)


async def free_port() -> int:
    """Grab an ephemeral port by binding then releasing it."""
    server = await asyncio.start_server(lambda r, w: None, host=HOST, port=0)
    port = server.sockets[0].getsockname()[1]
    server.close()
    await server.wait_closed()
    return port


class TestTcpTransport:
    def test_hello_and_frames_roundtrip(self):
        async def scenario():
            port = await free_port()
            accepted = []
            received = []
            transport = TcpTransport()

            def on_connection(conn):
                accepted.append(conn)
                conn.on_frame = received.append

            listener = await transport.listen(HOST, port, on_connection)
            conn = await transport.connect((HOST, port), b"hello-from-client")
            await conn.send_frame(b"frame-1")
            await conn.send_frame(b"\x00" * 100_000)  # bigger than one TCP segment
            await asyncio.sleep(0.2)
            assert accepted[0].peer_hello == b"hello-from-client"
            assert received == [b"frame-1", b"\x00" * 100_000]

            # Duplex: server side replies over the same connection.
            replies = []
            conn.on_frame = replies.append
            await accepted[0].send_frame(b"pong")
            await asyncio.sleep(0.2)
            assert replies == [b"pong"]

            await conn.close()
            await listener.close()

        run(scenario())

    def test_connection_refused(self):
        async def scenario():
            port = await free_port()  # nothing listening afterwards
            with pytest.raises(OSError):
                await TcpTransport().connect((HOST, port), b"x")

        run(scenario())

    def test_close_notifies(self):
        async def scenario():
            port = await free_port()
            server_conns = []
            listener = await TcpTransport().listen(HOST, port, server_conns.append)
            conn = await TcpTransport().connect((HOST, port), b"h")
            closed = []
            await asyncio.sleep(0.1)
            server_conns[0].on_closed = lambda c: closed.append(True)
            await conn.close()
            await asyncio.sleep(0.2)
            assert closed == [True]
            await listener.close()

        run(scenario())


async def turns(count: int = 3) -> None:
    """Let the loop run ``count`` iterations; no clock is involved."""
    loop = asyncio.get_running_loop()
    for _ in range(count):
        step = loop.create_future()
        loop.call_soon(step.set_result, None)
        await step


async def until(predicate, turns_left: int = 100_000) -> None:
    """Run loop iterations until ``predicate()`` holds."""
    while not predicate():
        assert turns_left > 0, "condition never came true"
        turns_left -= 1
        await turns(1)


def framed(*frames: bytes) -> bytes:
    return b"".join(LENGTH.pack(len(frame)) + frame for frame in frames)


class TestTcpHostileInput:
    """The reader's bounds: MAX_FRAME per frame, HELLO_BUFFER before the hello."""

    def test_oversize_prefix_closes_only_that_connection(self):
        async def scenario():
            loop = asyncio.get_running_loop()
            port = await free_port()
            accepted, received, closed = [], [], []

            def on_connection(conn):
                accepted.append(conn)
                conn.on_frame = received.append
                conn.on_closed = closed.append

            listener = await TcpTransport().listen(HOST, port, on_connection)
            raw = socket.socket()
            raw.setblocking(False)
            await loop.sock_connect(raw, (HOST, port))
            await loop.sock_sendall(raw, framed(b"hello") + LENGTH.pack(MAX_FRAME + 1) + b"x" * 1000)
            try:  # the listener side closes: EOF, or a reset for the unread bytes
                assert await asyncio.wait_for(loop.sock_recv(raw, 1), 5.0) == b""
            except ConnectionResetError:
                pass
            raw.close()
            assert [c.peer_hello for c in accepted] == [b"hello"]
            assert closed == accepted and received == []

            # The listener keeps accepting, and delivering, on a new connection.
            conn = await TcpTransport().connect((HOST, port), b"second")
            await conn.send_frames([b"after", b"\x00" * MAX_FRAME])
            await until(lambda: len(received) == 2)
            assert accepted[1].peer_hello == b"second" and not accepted[1].closed
            assert received == [b"after", b"\x00" * MAX_FRAME]
            await conn.close()
            await listener.close()

        run(scenario())

    def test_hello_is_read_into_a_small_bounded_buffer(self):
        async def scenario():
            loop = asyncio.get_running_loop()
            port = await free_port()
            accepted, received = [], []

            def on_connection(conn):
                accepted.append(conn)
                conn.on_frame = received.append

            listener = await TcpTransport().listen(HOST, port, on_connection)
            greeting = listener._accepted
            hello = b"h" * MAX_HELLO
            raw = socket.socket()
            raw.setblocking(False)
            await loop.sock_connect(raw, (HOST, port))
            await loop.sock_sendall(raw, framed(hello)[:300])
            await until(lambda: any(c._end == 300 for c in greeting))
            (pending,) = greeting
            assert len(pending._buf) == HELLO_BUFFER and accepted == []
            await loop.sock_sendall(raw, framed(hello)[300:] + framed(b"first"))
            await until(lambda: received)
            assert accepted == [pending] and pending.peer_hello == hello
            assert len(pending._buf) == LENGTH.size + MAX_FRAME and received == [b"first"]
            raw.close()

            # One byte over MAX_HELLO closes the connection before any callback.
            raw = socket.socket()
            raw.setblocking(False)
            await loop.sock_connect(raw, (HOST, port))
            await loop.sock_sendall(raw, LENGTH.pack(MAX_HELLO + 1) + b"h" * 100)
            try:
                assert await asyncio.wait_for(loop.sock_recv(raw, 1), 5.0) == b""
            except ConnectionResetError:
                pass
            raw.close()
            assert accepted == [pending]
            await listener.close()

        run(scenario())


class ScriptedSocket:
    """A connected socket whose reads return ``chunks`` exactly as cut."""

    def __init__(self, chunks) -> None:
        self.chunks = deque(chunks)

    def fileno(self) -> int:
        return 1 << 20  # never registered with the loop

    def recv_into(self, view) -> int:
        chunk = self.chunks.popleft()
        size = min(len(view), len(chunk))
        view[:size] = chunk[:size]
        if size < len(chunk):
            self.chunks.appendleft(chunk[size:])
        return size

    def close(self) -> None:
        pass


def split(stream: bytes, cuts, accepted: bool):
    """Feed ``stream`` cut at ``cuts`` to a connection; its hellos, frames and itself."""
    bounds = [0, *sorted({c for c in cuts if 0 < c < len(stream)}), len(stream)]
    view = memoryview(stream)
    chunks = [view[a:b] for a, b in zip(bounds, bounds[1:]) if b > a]

    async def feed():
        hellos = []
        conn = TcpConnection(ScriptedSocket(chunks), on_hello=hellos.append if accepted else None)
        delivered = []
        conn.on_frame = delivered.append
        while conn._sock is not None and conn._sock.chunks:
            conn._on_readable()
        return hellos, delivered, conn

    return asyncio.run(feed())


def reference_split(stream: bytes, accepted: bool):
    """The frames a reader must deliver from ``stream``, and whether it must close."""
    frames, offset, limit = [], 0, MAX_HELLO if accepted else MAX_FRAME
    while len(stream) - offset >= LENGTH.size:
        (length,) = LENGTH.unpack_from(stream, offset)
        if length > limit:
            return frames, True
        if offset + LENGTH.size + length > len(stream):
            break
        frames.append(stream[offset + LENGTH.size:offset + LENGTH.size + length])
        offset, limit = offset + LENGTH.size + length, MAX_FRAME
    return frames, False


class TestTcpFrameSplitter:
    """Property tests of the reader alone, on a scripted socket."""

    @seed(20170605)
    @settings(max_examples=40, deadline=None)
    @given(
        sizes=st.lists(st.one_of(st.integers(0, 70), st.integers(0, MAX_FRAME)), max_size=5),
        hello=st.none() | st.binary(max_size=MAX_HELLO),
        data=st.data(),
    )
    def test_frames_cut_anywhere_arrive_exactly_in_order(self, sizes, hello, data):
        frames = [random.Random(i).randbytes(size) for i, size in enumerate(sizes)]
        stream = framed(*([] if hello is None else [hello]), *frames)
        cuts = data.draw(st.lists(st.integers(0, len(stream)), max_size=24))
        hellos, delivered, conn = split(stream, cuts, accepted=hello is not None)
        assert delivered == frames
        assert conn._sock is not None and not conn.closed
        if hello is not None:
            assert hellos == [conn] and conn.peer_hello == hello

    @seed(20170605)
    @settings(max_examples=200, deadline=None)
    @given(
        pieces=st.lists(
            st.binary(max_size=300)
            | st.integers(0, 2 ** 32 - 1).map(LENGTH.pack)
            | st.sampled_from([MAX_HELLO, MAX_HELLO + 1, MAX_FRAME, MAX_FRAME + 1]).map(LENGTH.pack),
            max_size=12,
        ),
        accepted=st.booleans(),
        data=st.data(),
    )
    def test_arbitrary_bytes_never_raise_or_overrun(self, pieces, accepted, data):
        stream = b"".join(pieces)
        cuts = data.draw(st.lists(st.integers(0, len(stream)), max_size=24))
        hellos, delivered, conn = split(stream, cuts, accepted)
        got = ([conn.peer_hello] if hellos else []) + delivered
        assert all(len(frame) <= MAX_FRAME for frame in delivered)
        assert all(len(hello) <= MAX_HELLO for hello in ([conn.peer_hello] if hellos else []))
        assert (got, conn.closed) == reference_split(stream, accepted)


def shrunk_socketpair():
    """A connected pair whose first socket's kernel send buffer is tiny."""
    writer, reader = socket.socketpair()
    writer.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, 4096)
    writer.setblocking(False)
    reader.setblocking(False)
    return writer, reader


class TestTcpSendPath:
    """Partial gathered sends, back-pressure and resets, on a paused reader."""

    FRAMES = [bytes([i]) * (3000 + 7 * i) for i in range(60)]

    def test_partial_sends_keep_order_and_drain_waits(self):
        async def scenario():
            loop = asyncio.get_running_loop()
            writer, reader = shrunk_socketpair()
            conn = TcpConnection(writer)
            sender = asyncio.ensure_future(conn.send_frames(self.FRAMES))
            await turns()
            # The kernel took part of the batch; the rest waits, over HIGH_WATER.
            assert not sender.done() and conn._unsent_bytes > HIGH_WATER
            assert 0 < conn._unsent_bytes < len(framed(*self.FRAMES))
            drainer = asyncio.ensure_future(conn.drain())
            await turns()
            assert not drainer.done()

            stream = bytearray()
            while len(stream) < len(framed(*self.FRAMES)):
                stream += await loop.sock_recv(reader, 65536)
                if drainer.done():
                    assert conn._unsent_bytes == 0
                if conn._unsent_bytes <= HIGH_WATER:
                    await turns()
                    assert sender.done()
            await asyncio.wait_for(drainer, 5.0)
            await sender
            assert bytes(stream) == framed(*self.FRAMES)
            assert conn._unsent_bytes == 0 and not conn._writing
            await conn.close()
            reader.close()

        run(scenario())

    def test_peer_reset_with_unsent_bytes_fails_send_and_drain(self):
        async def scenario():
            writer, reader = shrunk_socketpair()
            conn = TcpConnection(writer)
            conn.start_reading()
            sender = asyncio.ensure_future(conn.send_frames(self.FRAMES))
            await turns()
            drainer = asyncio.ensure_future(conn.drain())
            await turns()
            assert not sender.done() and not drainer.done()
            reader.close()
            with pytest.raises(ConnectionError):
                await asyncio.wait_for(sender, 5.0)
            with pytest.raises(ConnectionError):
                await asyncio.wait_for(drainer, 5.0)
            assert conn.closed
            with pytest.raises(ConnectionError):
                await conn.send_frames([b"late"])

        run(scenario())


class TestUdpEndpoint:
    def test_datagram_roundtrip(self):
        async def scenario():
            received = []
            server = UdpEndpoint()
            addr = await server.open(HOST, 0, lambda d, src: received.append((d, src)))
            client = UdpEndpoint()
            await client.open(HOST, 0)
            client.send(b"dgram-1", addr)
            client.send(b"dgram-2", addr)
            await asyncio.sleep(0.2)
            assert [d for d, _ in received] == [b"dgram-1", b"dgram-2"]
            await client.close()
            await server.close()

        run(scenario())


class TestUdtLite:
    def test_reliable_ordered_transfer(self):
        async def scenario():
            port = await free_port()
            received = []
            accepted = []

            def on_connection(conn):
                accepted.append(conn)
                conn.on_frame = received.append

            transport = UdtLiteTransport(initial_rate=8 * 1024 * 1024)
            listener = await transport.listen(HOST, port, on_connection)
            conn = await transport.connect((HOST, port), b"udt-client")
            frames = [bytes([i % 256]) * (1000 + i * 37) for i in range(50)]
            for frame in frames:
                await conn.send_frame(frame)
            await conn.drain()
            await asyncio.sleep(0.3)
            assert accepted[0].peer_hello == b"udt-client"
            assert received == frames
            await conn.close()
            await listener.close()

        run(scenario())

    def test_large_frame_spans_many_packets(self):
        async def scenario():
            port = await free_port()
            received = []
            transport = UdtLiteTransport(initial_rate=32 * 1024 * 1024)
            listener = await transport.listen(
                HOST, port, lambda c: setattr(c, "on_frame", received.append)
            )
            conn = await transport.connect((HOST, port), b"h")
            payload = os.urandom(300_000)  # ~250 DATA packets
            await conn.send_frame(payload)
            await conn.drain()
            await asyncio.sleep(0.3)
            assert received == [payload]
            await conn.close()
            await listener.close()

        run(scenario())

    def test_recovers_from_injected_loss(self):
        async def scenario():
            port = await free_port()
            received = []
            # Drop every 7th DATA packet on the sender side.
            transport = UdtLiteTransport(
                initial_rate=8 * 1024 * 1024, adaptor=drop_data_once(lambda seq: seq % 7 == 3)
            )
            listener = await UdtLiteTransport(initial_rate=8 * 1024 * 1024).listen(
                HOST, port, lambda c: setattr(c, "on_frame", received.append)
            )
            conn = await transport.connect((HOST, port), b"h")
            frames = [bytes([i % 256]) * 3000 for i in range(40)]
            for frame in frames:
                await conn.send_frame(frame)
            await conn.drain()
            await asyncio.sleep(0.3)
            assert received == frames
            assert conn.retransmissions > 0  # loss recovery actually ran
            await conn.close()
            await listener.close()

        run(scenario())

    def test_nak_decreases_rate(self):
        async def scenario():
            port = await free_port()
            transport = UdtLiteTransport(
                initial_rate=4 * 1024 * 1024, adaptor=drop_data_once(lambda seq: seq == 5)
            )
            listener = await UdtLiteTransport().listen(HOST, port, lambda c: None)
            conn = await transport.connect((HOST, port), b"h")
            for _ in range(20):
                await conn.send_frame(b"y" * 3000)
            await conn.drain()
            assert conn.naks_received >= 1 or conn.retransmissions >= 1
            await conn.close()
            await listener.close()

        run(scenario())

    def test_handshake_timeout(self, monkeypatch):
        monkeypatch.setattr(udt, "HANDSHAKE_TIMEOUT", 0.3)

        async def scenario():
            port = await free_port()  # no UDT listener there
            with pytest.raises(ConnectionError):
                await UdtLiteTransport().connect((HOST, port), b"h")

        run(scenario())

    def test_a_dialling_socket_ignores_strangers(self):
        """Stray HANDSHAKEs to a dialler's socket allocate nothing, and
        nothing of UDT-lite runs once the connection and listener close."""

        async def scenario():
            listener = await UdtLiteTransport().listen(HOST, 0, lambda c: None)
            conn = await UdtLiteTransport().connect(listener.local, b"h")
            dialler = (HOST, conn.endpoint.local[1])
            strays = [socket.socket(socket.AF_INET, socket.SOCK_DGRAM) for _ in range(50)]
            try:
                for raw in strays:
                    raw.bind((HOST, 0))
                    raw.sendto(udt.HEADER.pack(udt.HANDSHAKE, 0) + b"stranger", dialler)
                # Queued behind the strays on the dialler's socket: the ACK
                # that ends this drain is read after every one of them.
                await conn.send_frame(b"after the strays")
                await asyncio.wait_for(conn.drain(), timeout=10.0)
            finally:
                for raw in strays:
                    raw.close()
            assert len(conn.endpoint.connections) == 1
            await conn.close()
            await listener.close()
            return [task for task in asyncio.all_tasks()
                    if task.get_coro().__qualname__.startswith("UdtLiteConnection.")]

        assert run(scenario()) == []

    def test_duplex_frames(self):
        async def scenario():
            port = await free_port()
            server_received = []
            client_received = []
            accepted = []

            def on_connection(conn):
                accepted.append(conn)
                conn.on_frame = server_received.append

            listener = await UdtLiteTransport().listen(HOST, port, on_connection)
            conn = await UdtLiteTransport().connect((HOST, port), b"h")
            conn.on_frame = client_received.append
            await conn.send_frame(b"to-server")
            await conn.drain()
            await asyncio.sleep(0.2)
            await accepted[0].send_frame(b"to-client")
            await accepted[0].drain()
            await asyncio.sleep(0.2)
            assert server_received == [b"to-server"]
            assert client_received == [b"to-client"]
            await conn.close()
            await listener.close()

        run(scenario())
