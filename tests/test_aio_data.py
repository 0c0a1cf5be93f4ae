"""The adaptive DATA layer composed with the REAL network backend.

The interceptor only speaks the Network port and the Timer port, so
:class:`AioDataNetwork` runs it unchanged over AioNetwork +
WallTimerComponent — adaptive per-message transport selection over
genuine loopback sockets.
"""

import socket
import threading
import time

import pytest

from repro.aio import AioDataNetwork, AioNetwork
from repro.apps import register_app_serializers
from repro.core import ProtocolRatio, StaticRatio
from repro.kompics import ComponentDefinition, KompicsSystem
from repro.messaging import (
    BasicAddress,
    DataHeader,
    MessageNotify,
    Msg,
    Network,
    SerializerRegistry,
    Transport,
)

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


class Collector(ComponentDefinition):
    def __init__(self) -> None:
        super().__init__()
        self.net = self.requires(Network)
        self.received = []
        self.notifies = []
        self.event = threading.Event()
        self.subscribe(self.net, Msg, lambda m: (self.received.append(m), self.event.set()))
        self.subscribe(self.net, MessageNotify.Resp,
                       lambda r: (self.notifies.append(r), self.event.set()))

    def wait(self, predicate, timeout=20.0):
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if predicate():
                return True
            self.event.wait(timeout=0.1)
            self.event.clear()
        return predicate()


@pytest.fixture()
def stack():
    """AioDataNetwork sender; plain AioNetwork receiver."""
    system = KompicsSystem.threaded(workers=3)
    addr_a = BasicAddress(HOST, free_port())
    addr_b = BasicAddress(HOST, free_port())

    net_a = system.create(
        AioDataNetwork, addr_a, serializers=registry(),
        prp_factory=lambda: StaticRatio(ProtocolRatio.FIFTY_FIFTY),
        episode_length=0.5,
        window_messages=8,
    )
    net_b = system.create(AioNetwork, addr_b, serializers=registry())

    app_a = system.create(Collector)
    net_a.definition.connect_consumer(app_a.required(Network))
    app_b = system.create(Collector)
    system.connect(net_b.provided(Network), app_b.required(Network))

    for c in (net_a, net_b, app_a, app_b):
        system.start(c)
    for net in (net_a.definition.network_def, net_b.definition):
        net.wait_ready(10.0)
    yield system, (addr_a, app_a), (addr_b, app_b), net_a.definition.interceptor
    system.shutdown()
    time.sleep(0.2)


class TestAdaptiveOverRealSockets:
    def test_data_messages_stamped_and_delivered(self, stack):
        system, (addr_a, app_a), (addr_b, app_b), interceptor = stack
        for i in range(16):
            msg = Blob(DataHeader(addr_a, addr_b), f"m{i}", 500)
            app_a.definition.trigger(msg, app_a.definition.net)
        assert app_b.definition.wait(lambda: len(app_b.definition.received) == 16)
        protocols = {m.header.protocol for m in app_b.definition.received}
        assert Transport.DATA not in protocols
        assert protocols == {Transport.TCP, Transport.UDT}
        # 50-50 pattern selection: exactly half and half.
        values = [m.header.protocol for m in app_b.definition.received]
        assert values.count(Transport.TCP) == 8

    def test_consumer_notify_over_real_sockets(self, stack):
        system, (addr_a, app_a), (addr_b, app_b), interceptor = stack
        msg = Blob(DataHeader(addr_a, addr_b), "tracked", 500)
        app_a.definition.trigger(MessageNotify.Req(msg), app_a.definition.net)
        assert app_a.definition.wait(lambda: len(app_a.definition.notifies) == 1)
        assert app_a.definition.notifies[0].success

    def test_episode_telemetry_accumulates(self, stack):
        system, (addr_a, app_a), (addr_b, app_b), interceptor = stack
        for i in range(30):
            msg = Blob(DataHeader(addr_a, addr_b), f"m{i}", 2000)
            app_a.definition.trigger(msg, app_a.definition.net)
        assert app_b.definition.wait(lambda: len(app_b.definition.received) == 30)
        time.sleep(1.2)  # let a couple of 0.5 s episodes tick
        flow = interceptor.definition.flow_to(addr_b.ip, addr_b.port)
        assert flow is not None
        assert flow.total_bytes_acked > 0
        assert len(flow.telemetry.throughput.values) >= 1
