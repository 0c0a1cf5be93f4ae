"""The Network port's contract, asserted once and run on both backends.

Everything here goes through the port only: a ``Probe`` component sends
``Msg`` / ``MessageNotify.Req`` requests and records the indications.
The ``rig`` fixture builds the same three-slot world on the simulator
(``NettyNetwork``) and on loopback sockets (``AioNetwork``); a slot's
network is started on demand, so "the peer is not there yet" is the same
scenario on both.  See docs/component-model.md for the contract table.
"""

import socket
import time

import pytest

from repro.aio import AioNetwork
from repro.errors import TransportError
from repro.kompics import ComponentDefinition, KompicsSystem
from repro.kompics.component import ComponentState
from repro.messaging import (
    BasicAddress,
    BasicHeader,
    MessageNotify,
    Msg,
    NettyNetwork,
    Network,
    Transport,
    TransportStatus,
    VirtualAddress,
)
from repro.netsim import LinkSpec, SimNetwork
from repro.obs import collecting, tracing
from repro.sim import Simulator

from tests.messaging_helpers import MB, MIDDLEWARE_PORT, Blob, blob_registry

HOST = "127.0.0.1"

#: metric families every backend must expose under the same names
SHARED_FAMILIES = {
    "messaging.sent_total",
    "messaging.send_failures_total",
    "messaging.received_total",
    "messaging.reflected_total",
    "messaging.serialization.wire_bytes",
    "messaging.channels.open",
}


class Probe(ComponentDefinition):
    """Sends blobs; records every indication the port can make."""

    def __init__(self, address) -> None:
        super().__init__()
        self.net = self.requires(Network)
        self.address = address
        self.received = []
        self.notifies = []
        self.downs = []
        self.ups = []
        self.subscribe(self.net, Msg, self.received.append)
        self.subscribe(self.net, MessageNotify.Resp, self.notifies.append)
        self.subscribe(self.net, TransportStatus.Down, self.downs.append)
        self.subscribe(self.net, TransportStatus.Up, self.ups.append)

    def send(self, dst, tag, transport=Transport.TCP, nbytes=200, notify=False):
        # ``nbytes`` is the simulator's wire size; on sockets the pickled
        # tag is — so an oversized blob has to be big in both senses.
        msg = Blob(BasicHeader(self.address, dst, transport), tag, nbytes)
        self.trigger(MessageNotify.Req(msg) if notify else msg, self.net)
        return msg


class Node:
    def __init__(self, address, network, probe) -> None:
        self.address = address
        self.network = network
        self.probe = probe.definition

    @property
    def counters(self):
        return self.network.definition.counters


class SimRig:
    def __init__(self) -> None:
        self.sim = Simulator()
        fabric = SimNetwork(self.sim, seed=7)
        fabric.connect_timeout = 0.5
        # Reconnect campaigns are what publishes Down on the simulator.
        self.system = KompicsSystem.simulated(self.sim, seed=7, config={
            "kompics.fault_policy": "store",
            "messaging.reconnect.enabled": True,
            "messaging.reconnect.jitter": 0.0,
        })
        self.hosts = [fabric.add_host(f"h{i}", f"10.0.0.{i + 1}") for i in range(3)]
        for i, a in enumerate(self.hosts):
            for b in self.hosts[i + 1:]:
                fabric.connect_hosts(a, b, LinkSpec(100 * MB, 0.005))

    def address(self, slot):
        return BasicAddress(self.hosts[slot].ip, MIDDLEWARE_PORT)

    def create_network(self, slot, **kwargs):
        return self.system.create(
            NettyNetwork, self.address(slot), self.hosts[slot],
            serializers=blob_registry(), **kwargs,
        )

    def settle(self, predicate) -> bool:
        self.sim.run()
        return predicate()

    def close(self) -> None:
        pass


class AioRig:
    def __init__(self) -> None:
        self.system = KompicsSystem.threaded(
            workers=3, config={"kompics.fault_policy": "store"}
        )
        self.ports = [self._free_port() for _ in range(3)]

    @staticmethod
    def _free_port() -> int:
        with socket.socket() as s:
            s.bind((HOST, 0))
            return s.getsockname()[1]

    def address(self, slot):
        return BasicAddress(HOST, self.ports[slot])

    def create_network(self, slot, **kwargs):
        return self.system.create(
            AioNetwork, self.address(slot), serializers=blob_registry(), **kwargs
        )

    def settle(self, predicate, timeout=15.0) -> bool:
        deadline = time.monotonic() + timeout
        while not predicate() and time.monotonic() < deadline:
            time.sleep(0.01)
        return predicate()

    def close(self) -> None:
        self.system.shutdown()
        time.sleep(0.2)


def start(rig, slot, **net_kwargs) -> Node:
    """Bring up slot ``slot``'s network and probe, listening and ready."""
    network = rig.create_network(slot, **net_kwargs)
    probe = rig.system.create(Probe, rig.address(slot))
    rig.system.connect(network.provided(Network), probe.required(Network))
    rig.system.start(network)
    rig.system.start(probe)
    wait_ready = getattr(network.definition, "wait_ready", None)
    if wait_ready is not None:
        wait_ready(10.0)
    rig.settle(lambda: network.state is ComponentState.ACTIVE)
    return Node(rig.address(slot), network, probe)


@pytest.fixture(params=[SimRig, pytest.param(AioRig, marks=pytest.mark.integration)],
                ids=["sim", "aio"])
def rig(request):
    # Instruments and the tracer bind at construction: build inside.
    with collecting() as metrics, tracing() as tracer:
        rig = request.param()
        rig.metrics, rig.tracer = metrics, tracer
        try:
            yield rig
        finally:
            rig.close()


class TestReflection:
    def test_same_instance_message_reflected(self, rig):
        a = start(rig, 0)
        vsrc = VirtualAddress(a.address.ip, a.address.port, b"v1")
        vdst = VirtualAddress(a.address.ip, a.address.port, b"v2")
        msg = Blob(BasicHeader(vsrc, vdst, Transport.TCP), "local", 100)
        a.probe.trigger(msg, a.probe.net)
        assert rig.settle(lambda: len(a.probe.received) == 1)
        assert a.probe.received[0] is msg  # same object: never serialized
        assert a.counters["reflected"] == 1
        assert a.counters["sent"] == 0

    def test_reflected_notify_succeeds_with_zero_size(self, rig):
        a = start(rig, 0)
        vdst = VirtualAddress(a.address.ip, a.address.port, b"v2")
        msg = Blob(BasicHeader(a.address, vdst, Transport.TCP), "local", 100)
        a.probe.trigger(MessageNotify.Req(msg), a.probe.net)
        assert rig.settle(lambda: len(a.probe.notifies) == 1)
        assert a.probe.notifies[0].success
        assert a.probe.notifies[0].size == 0


class TestBadSend:
    """A bad send fails the message, never the component."""

    def test_oversized_frame_fails_notify_not_component(self, rig):
        a, b = start(rig, 0), start(rig, 1)
        # Way past the 65536-byte serialization buffer.
        a.probe.send(b.address, "h" * 200_000, nbytes=200_000, notify=True)
        assert rig.settle(lambda: len(a.probe.notifies) == 1)
        assert not a.probe.notifies[0].success
        assert a.counters["send_failures"] == 1

        # The component survived: a normal send still goes through.
        a.probe.send(b.address, "after", notify=True)
        assert rig.settle(lambda: len(a.probe.notifies) == 2)
        assert a.probe.notifies[1].success
        assert rig.settle(lambda: len(b.probe.received) == 1)
        assert b.probe.received[0].tag == "after"
        assert a.network.state is ComponentState.ACTIVE

    def test_disabled_transport_fails_notify_not_component(self, rig):
        a, b = start(rig, 0, protocols=(Transport.TCP,)), start(rig, 1)
        a.probe.send(b.address, "no-udt", transport=Transport.UDT, notify=True)
        assert rig.settle(lambda: len(a.probe.notifies) == 1)
        assert not a.probe.notifies[0].success
        assert a.counters["send_failures"] == 1

        a.probe.send(b.address, "tcp-ok", notify=True)
        assert rig.settle(lambda: len(a.probe.notifies) == 2)
        assert a.probe.notifies[1].success
        assert rig.settle(lambda: [m.tag for m in b.probe.received] == ["tcp-ok"])
        assert a.network.state is ComponentState.ACTIVE

    def test_fire_and_forget_oversized_only_counts(self, rig):
        a = start(rig, 0)
        a.probe.send(rig.address(1), "s" * 200_000, nbytes=200_000)
        assert rig.settle(lambda: a.counters["send_failures"] == 1)
        assert a.probe.notifies == []  # nothing to resolve
        assert a.network.state is ComponentState.ACTIVE

    def test_no_notify_leaks_around_a_bad_send(self, rig):
        """The parent's leak: 3 requested, 1 resolved, component FAULTY."""
        a, b = start(rig, 0), start(rig, 1)
        a.probe.send(b.address, "one", notify=True)
        a.probe.send(b.address, "b" * 200_000, nbytes=200_000, notify=True)
        a.probe.send(b.address, "two", notify=True)
        assert rig.settle(lambda: len(a.probe.notifies) == 3)
        assert sorted(r.success for r in a.probe.notifies) == [False, True, True]
        assert rig.settle(lambda: len(b.probe.received) == 2)
        assert [m.tag for m in b.probe.received] == ["one", "two"]

    def test_data_pseudo_protocol_is_a_loud_wiring_error(self, rig):
        a = start(rig, 0)
        a.probe.send(rig.address(1), "x", transport=Transport.DATA)
        assert rig.settle(lambda: a.network.state is ComponentState.FAULTY)
        (fault,) = rig.system.faults
        assert fault.component_name == a.network.name
        assert isinstance(fault.exception, TransportError)
        assert "DataNetwork" in str(fault.exception)


class TestInstruments:
    def test_same_metric_families_on_every_backend(self, rig):
        a, b = start(rig, 0), start(rig, 1)
        a.probe.send(b.address, "counted", notify=True)
        assert rig.settle(lambda: len(a.probe.notifies) == 1)
        assert rig.settle(lambda: len(b.probe.received) == 1)

        families = {key[0] for key, _ in rig.metrics}
        assert SHARED_FAMILIES <= families
        assert rig.metrics.value("messaging.sent_total", transport="tcp") == 1
        instance = f"{b.address.ip}:{b.address.port}"
        assert rig.metrics.value("messaging.received_total", instance=instance) == 1
        instance = f"{a.address.ip}:{a.address.port}"
        assert rig.metrics.value("messaging.channels.open", instance=instance) >= 1


class TestTransportStatus:
    def test_down_then_up_published_once_each(self, rig):
        a = start(rig, 0)
        ghost = rig.address(1)  # nothing listens there yet
        # One failed send at a time until the backend gives the transport
        # up (a reconnect campaign on the simulator, a failure streak on
        # sockets); every one of them resolves as a failure.
        for i in range(5):
            a.probe.send(ghost, f"f{i}", notify=True)
            assert rig.settle(lambda want=i + 1: len(a.probe.notifies) == want)
            assert not a.probe.notifies[i].success
            if a.probe.downs:
                break
        failed = len(a.probe.notifies)
        assert len(a.probe.downs) == 1
        assert a.probe.downs[0].remote == ghost.as_socket()
        assert a.probe.downs[0].transport is Transport.TCP

        # The peer comes up on the very socket that was dead.
        b = start(rig, 1)
        a.probe.send(ghost, "revived", notify=True)
        assert rig.settle(lambda: len(a.probe.notifies) == failed + 1)
        assert a.probe.notifies[-1].success
        assert rig.settle(lambda: len(a.probe.ups) == 1)
        assert a.probe.ups[0].remote == ghost.as_socket()
        assert rig.settle(lambda: [m.tag for m in b.probe.received] == ["revived"])

        assert len(a.probe.downs) == 1 and len(a.probe.ups) == 1
        remote = f"{ghost.ip}:{ghost.port}"
        for name in ("messaging.transport_down", "messaging.transport_up"):
            (event,) = rig.tracer.named(name)
            assert event.fields["remote"] == remote
            assert event.fields["proto"] == "tcp"
