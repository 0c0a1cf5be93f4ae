"""End-to-end AioNetwork tests: threaded Kompics over real loopback sockets."""

import asyncio
import pickle
import socket
import threading
import time

import pytest

from repro.aio import AioNetwork
from repro.aio.network import EPOCH_HEADER, MAX_DEDUP_WINDOWS
from repro.aio.tcp import HIGH_WATER, TcpConnection
from repro.apps import register_app_serializers
from repro.errors import TransportError
from repro.kompics import ComponentDefinition, KompicsSystem
from repro.kompics.component import ComponentState
from repro.messaging import (
    BasicAddress,
    BasicHeader,
    MessageNotify,
    Msg,
    Network,
    SerializerRegistry,
    Transport,
)
from repro.messaging.serialization import FRAME_HEADER, PICKLE_TYPE_ID

from tests.messaging_helpers import Blob, BlobSerializer

pytestmark = pytest.mark.integration

HOST = "127.0.0.1"


def free_port() -> int:
    with socket.socket() as s:
        s.bind((HOST, 0))
        return s.getsockname()[1]


def registry() -> SerializerRegistry:
    reg = register_app_serializers(SerializerRegistry())
    reg.register(100, Blob, BlobSerializer())
    return reg


class WaitingCollector(ComponentDefinition):
    """Collector with a threading.Event-based wait helper."""

    def __init__(self, address) -> None:
        super().__init__()
        self.net = self.requires(Network)
        self.address = address
        self.received = []
        self.notifies = []
        self.event = threading.Event()
        self.subscribe(self.net, Msg, self._on_msg)
        self.subscribe(self.net, MessageNotify.Resp, self._on_notify)

    def _on_msg(self, msg) -> None:
        self.received.append(msg)
        self.event.set()

    def _on_notify(self, resp) -> None:
        self.notifies.append(resp)
        self.event.set()

    def wait(self, predicate, timeout=15.0) -> bool:
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if predicate():
                return True
            self.event.wait(timeout=0.1)
            self.event.clear()
        return predicate()


def build_node(system, port):
    address = BasicAddress(HOST, port)
    network = system.create(AioNetwork, address, serializers=registry())
    app = system.create(WaitingCollector, address)
    system.connect(network.provided(Network), app.required(Network))
    system.start(network)
    system.start(app)
    return address, network, app


@pytest.fixture()
def two_nodes():
    system = KompicsSystem.threaded(workers=3)
    a = build_node(system, free_port())
    b = build_node(system, free_port())
    time.sleep(0.3)  # let listeners bind
    yield system, a, b
    system.shutdown()
    time.sleep(0.2)


#: what unpickling a :class:`Booby` appends to
UNPICKLED = []


def _mark_unpickled(tag):
    UNPICKLED.append(tag)
    return tag


class Booby:
    """Whoever unpickles one runs :func:`_mark_unpickled`."""

    def __reduce__(self):
        return (_mark_unpickled, ("pickle.loads ran on socket bytes",))


def send_blob(app, src, dst, tag, transport, nbytes=200, notify=False):
    msg = Blob(BasicHeader(src, dst, transport), tag, nbytes)
    msg.nbytes = nbytes
    if notify:
        app.definition.trigger(MessageNotify.Req(msg), app.definition.net)
    else:
        app.definition.trigger(msg, app.definition.net)
    return msg


class TestAioNetwork:
    def test_tcp_roundtrip(self, two_nodes):
        system, (addr_a, net_a, app_a), (addr_b, net_b, app_b) = two_nodes
        send_blob(app_a, addr_a, addr_b, "over-tcp", Transport.TCP)
        assert app_b.definition.wait(lambda: len(app_b.definition.received) == 1)
        msg = app_b.definition.received[0]
        assert msg.tag == "over-tcp"
        assert msg.header.source == addr_a  # real serialization roundtrip

    def test_udt_roundtrip(self, two_nodes):
        system, (addr_a, net_a, app_a), (addr_b, net_b, app_b) = two_nodes
        send_blob(app_a, addr_a, addr_b, "over-udt", Transport.UDT)
        assert app_b.definition.wait(lambda: len(app_b.definition.received) == 1)
        assert app_b.definition.received[0].tag == "over-udt"

    def test_udp_roundtrip(self, two_nodes):
        system, (addr_a, net_a, app_a), (addr_b, net_b, app_b) = two_nodes
        send_blob(app_a, addr_a, addr_b, "over-udp", Transport.UDP)
        assert app_b.definition.wait(lambda: len(app_b.definition.received) == 1)
        assert app_b.definition.received[0].tag == "over-udp"

    def test_fifo_order_over_tcp(self, two_nodes):
        system, (addr_a, net_a, app_a), (addr_b, net_b, app_b) = two_nodes
        for i in range(100):
            send_blob(app_a, addr_a, addr_b, f"m{i}", Transport.TCP)
        assert app_b.definition.wait(lambda: len(app_b.definition.received) == 100)
        assert [m.tag for m in app_b.definition.received] == [f"m{i}" for i in range(100)]

    def test_notify_success(self, two_nodes):
        system, (addr_a, net_a, app_a), (addr_b, net_b, app_b) = two_nodes
        send_blob(app_a, addr_a, addr_b, "tracked", Transport.TCP, notify=True)
        assert app_a.definition.wait(lambda: len(app_a.definition.notifies) == 1)
        assert app_a.definition.notifies[0].success

    def test_notify_failure_unreachable(self, two_nodes):
        system, (addr_a, net_a, app_a), _ = two_nodes
        ghost = BasicAddress(HOST, free_port())  # nothing listening
        send_blob(app_a, addr_a, ghost, "void", Transport.TCP, notify=True)
        assert app_a.definition.wait(lambda: len(app_a.definition.notifies) == 1)
        assert not app_a.definition.notifies[0].success

    def test_reply_reuses_inbound_channel(self, two_nodes):
        system, (addr_a, net_a, app_a), (addr_b, net_b, app_b) = two_nodes
        send_blob(app_a, addr_a, addr_b, "ping", Transport.TCP)
        assert app_b.definition.wait(lambda: len(app_b.definition.received) == 1)
        send_blob(app_b, addr_b, addr_a, "pong", Transport.TCP)
        assert app_a.definition.wait(lambda: len(app_a.definition.received) == 1)
        assert app_a.definition.received[0].tag == "pong"
        # b reused the inbound channel registered via the handshake hello.
        assert len(net_b.definition._channels) == 1

    def test_mixed_transports_same_destination(self, two_nodes):
        system, (addr_a, net_a, app_a), (addr_b, net_b, app_b) = two_nodes
        send_blob(app_a, addr_a, addr_b, "t", Transport.TCP)
        send_blob(app_a, addr_a, addr_b, "u", Transport.UDT)
        send_blob(app_a, addr_a, addr_b, "d", Transport.UDP)
        assert app_b.definition.wait(lambda: len(app_b.definition.received) == 3)
        assert sorted(m.tag for m in app_b.definition.received) == ["d", "t", "u"]


class TestSendFailure:
    def test_reset_with_unsent_bytes_fails_pending_notifies(self):
        """A channel whose peer stops reading, then resets, holds a batch
        over the high-water mark; the reset fails it and everything queued
        behind it, so requested - ok - failed = 0."""
        system = KompicsSystem.threaded(workers=2)
        try:
            addr, net, app = build_node(system, free_port())
            network = net.definition
            network.wait_ready()
            ghost = BasicAddress(HOST, free_port())  # a redial finds nobody

            async def install():
                writer, reader = socket.socketpair()
                writer.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, 4096)
                writer.setblocking(False)
                conn = TcpConnection(writer)
                conn.start_reading()
                network._channels[(ghost.as_socket(), Transport.TCP)] = conn
                return conn, reader

            conn, reader = asyncio.run_coroutine_threadsafe(install(), network._loop).result(5.0)
            requested = 12
            for i in range(requested):
                send_blob(app, addr, ghost, "x" * 20_000, Transport.TCP, notify=True)
            collector = app.definition
            assert collector.wait(lambda: conn._unsent_bytes > HIGH_WATER)
            reader.close()
            assert collector.wait(lambda: len(collector.notifies) == requested)
            ok = sum(resp.success for resp in collector.notifies)
            failed = sum(not resp.success for resp in collector.notifies)
            assert failed >= 1 and requested - ok - failed == 0
            assert conn.closed
        finally:
            system.shutdown()


class TestHostileFrames:
    """Bytes from a socket that do not decode are counted and dropped."""

    def test_garbage_then_valid_frame_on_udp_and_tcp(self, two_nodes):
        system, (addr_a, net_a, app_a), (addr_b, net_b, app_b) = two_nodes
        loop_b = net_b.definition._loop
        loop_errors = []
        loop_b.call_soon_threadsafe(
            loop_b.set_exception_handler, lambda loop, context: loop_errors.append(context)
        )
        counters = net_b.definition.counters

        # UDP: anyone can throw datagrams at the instance port.
        with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as raw:
            for i in range(3):
                raw.sendto(b"garbage-datagram-%d" % i, addr_b.as_socket())
        assert app_b.definition.wait(lambda: counters["decode_failures"] == 3)
        send_blob(app_a, addr_a, addr_b, "udp-ok", Transport.UDP)
        assert app_b.definition.wait(lambda: len(app_b.definition.received) == 1)

        # TCP: a well-framed body of garbage on an established channel.
        send_blob(app_a, addr_a, addr_b, "tcp-first", Transport.TCP)
        assert app_b.definition.wait(lambda: len(app_b.definition.received) == 2)
        conn = net_a.definition._channels[(addr_b.as_socket(), Transport.TCP)]
        asyncio.run_coroutine_threadsafe(
            conn.send_frames([b"\x00\x00\x00\x01\x00\x00\x00\x02not-a-frame", b"x"]),
            net_a.definition._loop,
        ).result(timeout=5.0)
        assert app_b.definition.wait(lambda: counters["decode_failures"] == 5)
        send_blob(app_a, addr_a, addr_b, "tcp-ok", Transport.TCP)
        assert app_b.definition.wait(lambda: len(app_b.definition.received) == 3)

        assert [m.tag for m in app_b.definition.received] == ["udp-ok", "tcp-first", "tcp-ok"]
        assert counters["received"] == 3
        assert loop_errors == []
        assert net_b.state is ComponentState.ACTIVE

    def test_pickled_frame_is_refused_on_udp_and_tcp(self, two_nodes):
        """A type-id-0 frame never reaches ``pickle.loads``, whoever sends it."""
        system, (addr_a, net_a, app_a), (addr_b, net_b, app_b) = two_nodes
        counters = net_b.definition.counters
        body = pickle.dumps(Booby())
        frame = (EPOCH_HEADER.pack(1, 0)
                 + FRAME_HEADER.pack(PICKLE_TYPE_ID, len(body)) + body)
        UNPICKLED.clear()

        with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as raw:
            raw.sendto(frame, addr_b.as_socket())
        assert app_b.definition.wait(lambda: counters["decode_failures"] == 1)

        send_blob(app_a, addr_a, addr_b, "tcp-first", Transport.TCP)
        assert app_b.definition.wait(lambda: len(app_b.definition.received) == 1)
        conn = net_a.definition._channels[(addr_b.as_socket(), Transport.TCP)]
        asyncio.run_coroutine_threadsafe(
            conn.send_frames([frame]), net_a.definition._loop,
        ).result(timeout=5.0)
        assert app_b.definition.wait(lambda: counters["decode_failures"] == 2)
        send_blob(app_a, addr_a, addr_b, "tcp-ok", Transport.TCP)
        assert app_b.definition.wait(lambda: len(app_b.definition.received) == 2)

        assert [m.tag for m in app_b.definition.received] == ["tcp-first", "tcp-ok"]
        assert UNPICKLED == []

    def test_a_flood_of_udp_sources_keeps_the_dedup_table_bounded(self, two_nodes):
        system, (addr_a, net_a, app_a), (addr_b, net_b, app_b) = two_nodes
        network = net_b.definition
        msg = Blob(BasicHeader(addr_a, addr_b, Transport.UDP), "flood", 10)
        frame = EPOCH_HEADER.pack(1, 0) + network.serializers.serialize(msg)
        sources = 10_000
        kept = ("10.2.0.1", 9)

        async def flood():
            for i in range(sources):
                network._on_datagram(frame, (f"10.1.{i >> 8}.{i & 255}", 9))
                if i % 512 == 0:  # a duplicate still refreshes its window
                    network._on_datagram(frame, kept)
            return set(network._dedup)

        held = asyncio.run_coroutine_threadsafe(flood(), network._loop).result(timeout=30.0)
        assert len(held) == MAX_DEDUP_WINDOWS
        assert (kept, Transport.UDP) in held
        assert network.counters["dedup_windows_evicted"] == sources + 1 - MAX_DEDUP_WINDOWS
        assert network.counters["dups_suppressed"] == sources // 512

    def test_registry_with_pickle_fallback_is_refused(self):
        system = KompicsSystem.threaded(workers=1)
        try:
            with pytest.raises(TransportError, match="pickle"):
                system.create(
                    AioNetwork, BasicAddress(HOST, free_port()),
                    serializers=SerializerRegistry(allow_pickle_fallback=True),
                )
        finally:
            system.shutdown()
