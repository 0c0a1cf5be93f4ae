"""AioNetwork failure handling: races, recovery, crash-restart.

Channels recover across peer restarts; sustained failure surfaces as
``TransportStatus.Down`` and the first success afterwards as ``Up``.
(That a bad message fails the *message* and never the component is the
port's contract on every backend: tests/test_network_contract.py.)
"""

import socket
import threading
import time

import pytest

from repro.aio import AioNetwork
from repro.apps import register_app_serializers
from repro.errors import AioStartupError
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
from repro.messaging.network_port import TransportStatus
from repro.obs import MetricsRegistry, collecting

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


class StatusCollector(ComponentDefinition):
    """Collector that also records TransportStatus indications."""

    def __init__(self, address) -> None:
        super().__init__()
        self.net = self.requires(Network)
        self.address = address
        self.received = []
        self.notifies = []
        self.downs = []
        self.ups = []
        self.event = threading.Event()
        self.subscribe(self.net, Msg, self._collect(self.received))
        self.subscribe(self.net, MessageNotify.Resp, self._collect(self.notifies))
        self.subscribe(self.net, TransportStatus.Down, self._collect(self.downs))
        self.subscribe(self.net, TransportStatus.Up, self._collect(self.ups))

    def _collect(self, bucket):
        def handler(event) -> None:
            bucket.append(event)
            self.event.set()

        return handler

    def wait(self, predicate, timeout=15.0) -> bool:
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if predicate():
                return True
            self.event.wait(timeout=0.1)
            self.event.clear()
        return predicate()


def build_node(system, port, **net_kwargs):
    address = BasicAddress(HOST, port)
    network = system.create(AioNetwork, address, serializers=registry(), **net_kwargs)
    app = system.create(StatusCollector, address)
    system.connect(network.provided(Network), app.required(Network))
    system.start(network)
    system.start(app)
    network.definition.wait_ready(10.0)
    return address, network, app


@pytest.fixture()
def system():
    system = KompicsSystem.threaded(workers=3)
    yield system
    system.shutdown()
    time.sleep(0.2)


def supervised_system(**extra):
    """A threaded system wired for supervised AioNetwork restarts."""
    config = {
        "kompics.supervision.enabled": True,
        "kompics.supervision.max_restarts": 10,
        "kompics.supervision.window": 60.0,
        "kompics.fault_policy": "store",
    }
    config.update(extra)
    return KompicsSystem.threaded(workers=3, config=config)


@pytest.fixture()
def restart_system():
    system = supervised_system()
    yield system
    system.shutdown()
    time.sleep(0.2)


def send_blob(app, src, dst, tag, transport, nbytes=200, notify=False):
    msg = Blob(BasicHeader(src, dst, transport), tag, nbytes)
    if notify:
        app.definition.trigger(MessageNotify.Req(msg), app.definition.net)
    else:
        app.definition.trigger(msg, app.definition.net)
    return msg


class TestTransportStatusRecovery:
    def test_down_after_streak_then_up_on_recovery(self, system):
        addr_a, net_a, app_a = build_node(system, free_port())
        ghost_port = free_port()
        ghost = BasicAddress(HOST, ghost_port)

        # DOWN_AFTER is 3 consecutive failed sends on one channel.
        for i in range(3):
            send_blob(app_a, addr_a, ghost, f"f{i}", Transport.TCP, notify=True)
            assert app_a.definition.wait(
                lambda want=i + 1: len(app_a.definition.notifies) == want
            )
            assert not app_a.definition.notifies[i].success
        assert app_a.definition.wait(lambda: len(app_a.definition.downs) == 1)
        down = app_a.definition.downs[0]
        assert down.remote == (HOST, ghost_port)
        assert down.transport is Transport.TCP

        # The remote comes up on the very port that was dead.
        addr_b, net_b, app_b = build_node(system, ghost_port)
        send_blob(app_a, addr_a, ghost, "revived", Transport.TCP, notify=True)
        assert app_a.definition.wait(lambda: len(app_a.definition.notifies) == 4)
        assert app_a.definition.notifies[3].success
        assert app_a.definition.wait(lambda: len(app_a.definition.ups) == 1)
        assert app_a.definition.ups[0].remote == (HOST, ghost_port)
        assert app_b.definition.wait(lambda: len(app_b.definition.received) == 1)

    def test_channel_replaced_after_close(self, system):
        addr_a, net_a, app_a = build_node(system, free_port())
        addr_b, net_b, app_b = build_node(system, free_port())

        send_blob(app_a, addr_a, addr_b, "one", Transport.TCP, notify=True)
        assert app_a.definition.wait(lambda: len(app_a.definition.notifies) == 1)
        key = (addr_b.as_socket(), Transport.TCP)
        assert key in net_a.definition._channels

        # Kill the channel under the component's feet.
        import asyncio

        conn = net_a.definition._channels[key]
        asyncio.run_coroutine_threadsafe(
            conn.close(), net_a.definition._loop
        ).result(timeout=5.0)
        app_a.definition.wait(
            lambda: key not in net_a.definition._channels, timeout=5.0
        )
        assert key not in net_a.definition._channels  # on_closed deregistered it

        send_blob(app_a, addr_a, addr_b, "two", Transport.TCP, notify=True)
        assert app_a.definition.wait(lambda: len(app_a.definition.notifies) == 2)
        assert app_a.definition.notifies[1].success
        assert app_b.definition.wait(lambda: len(app_b.definition.received) == 2)

    def test_simultaneous_connect_both_directions(self, system):
        addr_a, net_a, app_a = build_node(system, free_port())
        addr_b, net_b, app_b = build_node(system, free_port())

        # Both sides dial each other at (as close as it gets to) once.
        for i in range(10):
            send_blob(app_a, addr_a, addr_b, f"a{i}", Transport.TCP)
            send_blob(app_b, addr_b, addr_a, f"b{i}", Transport.TCP)
        assert app_a.definition.wait(lambda: len(app_a.definition.received) == 10)
        assert app_b.definition.wait(lambda: len(app_b.definition.received) == 10)
        assert [m.tag for m in app_a.definition.received] == [f"b{i}" for i in range(10)]
        assert [m.tag for m in app_b.definition.received] == [f"a{i}" for i in range(10)]

    def test_kill_fails_pending_notifies(self, system):
        addr_a, net_a, app_a = build_node(system, free_port())
        # A UDT dial to a dead port blocks for its 5 s handshake timeout;
        # killing the network mid-dial must still resolve the notify.
        ghost = BasicAddress(HOST, free_port())
        send_blob(app_a, addr_a, ghost, "doomed", Transport.UDT, notify=True)
        time.sleep(0.3)  # let the batch reach the drainer and start dialling
        start = time.monotonic()
        system.kill(net_a)
        assert app_a.definition.wait(lambda: len(app_a.definition.notifies) == 1,
                                     timeout=10.0)
        assert not app_a.definition.notifies[0].success
        assert time.monotonic() - start < 8.0  # did not ride out the dial


class TestCrashRecovery:
    """Supervised restarts, epochs, redelivery, budget exhaustion."""

    def test_wait_ready_raises_startup_error_with_cause(self):
        # Occupy the port first so the AioNetwork's TCP bind fails.
        blocker = socket.socket()
        try:
            blocker.bind((HOST, 0))
            blocker.listen(1)
            port = blocker.getsockname()[1]
            system = KompicsSystem.threaded(
                workers=3, config={"kompics.fault_policy": "store"}
            )
            try:
                address = BasicAddress(HOST, port)
                network = system.create(
                    AioNetwork, address, serializers=registry()
                )
                system.start(network)
                with pytest.raises(AioStartupError) as excinfo:
                    network.definition.wait_ready(2.0)
                assert isinstance(excinfo.value.__cause__, OSError)
            finally:
                system.shutdown()
                time.sleep(0.2)
        finally:
            blocker.close()

    def test_supervised_restart_bumps_epoch_and_keeps_flowing(self, restart_system):
        system = restart_system
        addr_a, net_a, app_a = build_node(system, free_port())
        addr_b, net_b, app_b = build_node(system, free_port())

        send_blob(app_a, addr_a, addr_b, "before", Transport.TCP, notify=True)
        assert app_a.definition.wait(lambda: len(app_a.definition.notifies) == 1)
        old = net_a.definition
        old_epoch = old.epoch

        system.supervision.inject_fault(net_a, RuntimeError("chaos"))
        new = net_a.definition
        assert new is not old
        assert new.wait_ready(10.0)
        # the old incarnation released its loop thread (leak-free teardown)
        assert old._loop is None and old._thread is None
        assert new.epoch > old_epoch
        assert system.supervision.restarts_total == 1
        assert net_a.state is ComponentState.ACTIVE

        # Port subscriptions survived the reinstantiation: the successor
        # both sends and receives through the same Network channel.
        send_blob(app_a, addr_a, addr_b, "out", Transport.TCP, notify=True)
        assert app_a.definition.wait(lambda: len(app_a.definition.notifies) == 2)
        assert app_a.definition.notifies[1].success
        send_blob(app_b, addr_b, addr_a, "in", Transport.TCP, notify=True)
        assert app_a.definition.wait(lambda: len(app_a.definition.received) == 1,
                                     timeout=20.0)
        assert app_a.definition.received[0].tag == "in"
        assert app_b.definition.wait(lambda: len(app_b.definition.received) == 2)

    def test_at_least_once_redelivery_across_restart(self):
        system = supervised_system(**{"messaging.aio.redelivery": "at-least-once"})
        try:
            addr_a, net_a, app_a = build_node(system, free_port())
            addr_b, net_b, app_b = build_node(system, free_port())
            total = 30
            for i in range(total):
                send_blob(app_a, addr_a, addr_b, f"r{i}", Transport.TCP,
                          nbytes=4096, notify=True)
            system.supervision.inject_fault(net_a, RuntimeError("mid-stream"))
            assert net_a.definition.wait_ready(10.0)

            # at-least-once: every notify resolves ok (queued and in-flight
            # sends were stashed and replayed by the successor) ...
            assert app_a.definition.wait(
                lambda: len(app_a.definition.notifies) == total, timeout=20.0
            )
            assert all(n.success for n in app_a.definition.notifies)
            # ... and the receiver's (epoch, seq) window keeps the replay
            # invisible to the application: every tag exactly once.
            assert app_b.definition.wait(
                lambda: len(app_b.definition.received) == total, timeout=20.0
            )
            time.sleep(0.3)  # a duplicate would trail right behind
            tags = [m.tag for m in app_b.definition.received]
            assert sorted(tags) == sorted(f"r{i}" for i in range(total))
        finally:
            system.shutdown()
            time.sleep(0.2)

    def test_at_most_once_restart_fails_rather_than_leaks(self):
        system = supervised_system()  # redelivery defaults to at-most-once
        try:
            addr_a, net_a, app_a = build_node(system, free_port())
            addr_b, net_b, app_b = build_node(system, free_port())
            total = 30
            for i in range(total):
                send_blob(app_a, addr_a, addr_b, f"m{i}", Transport.TCP,
                          nbytes=4096, notify=True)
            system.supervision.inject_fault(net_a, RuntimeError("mid-stream"))
            assert net_a.definition.wait_ready(10.0)
            # Accounting identity across the crash: every notify resolves
            # exactly once — some ok, the ones caught by the kill failed,
            # none leaked.
            assert app_a.definition.wait(
                lambda: len(app_a.definition.notifies) == total, timeout=20.0
            )
            time.sleep(0.3)
            assert len(app_a.definition.notifies) == total
            delivered = [m.tag for m in app_b.definition.received]
            assert len(delivered) == len(set(delivered))  # never duplicated
            assert len(delivered) <= total
        finally:
            system.shutdown()
            time.sleep(0.2)

    def test_restart_budget_exhaustion_escalates_with_dead_letters(self):
        system = supervised_system(**{"kompics.supervision.max_restarts": 1})
        try:
            addr_a, net_a, app_a = build_node(system, free_port())
            system.supervision.inject_fault(net_a, RuntimeError("chaos #1"))
            assert net_a.definition.wait_ready(10.0)
            assert system.supervision.restarts_total == 1

            # Second fault exhausts the budget: escalates to the root,
            # which stores the fault and leaves the component FAULTY —
            # with its loop thread released, not leaked.
            system.supervision.inject_fault(net_a, RuntimeError("chaos #2"))
            assert system.supervision.escalations_total == 1
            assert net_a.state is ComponentState.FAULTY
            assert net_a.definition._loop is None
            assert net_a.definition._thread is None

            # Traffic sent during the gap is dead-lettered, fully accounted.
            before = system.deadletters_total
            ghost = BasicAddress(HOST, free_port())
            send_blob(app_a, addr_a, ghost, "into-the-gap", Transport.TCP)
            assert app_a.definition.wait(
                lambda: system.deadletters_total > before, timeout=5.0
            )
            letter = system.deadletters[-1]
            assert letter.state == "faulty"
            assert letter.dropped
        finally:
            system.shutdown()
            time.sleep(0.2)


class TestBatchingAndObs:
    def test_burst_coalesces_into_batches(self, system):
        addr_a, net_a, app_a = build_node(system, free_port())
        addr_b, net_b, app_b = build_node(system, free_port())
        for i in range(50):
            send_blob(app_a, addr_a, addr_b, f"m{i}", Transport.TCP)
        assert app_b.definition.wait(lambda: len(app_b.definition.received) == 50)
        assert [m.tag for m in app_b.definition.received] == [f"m{i}" for i in range(50)]
        # The sender counts a batch only once send_frames returned, which
        # may be after the receiver already has every message.
        counters = net_a.definition.counters
        assert app_a.definition.wait(lambda: counters["sent"] == 50)
        assert 1 <= counters["batches"] <= 50

    def test_obs_metrics_mirror_netty_families(self):
        metrics = MetricsRegistry("aio-test")
        with collecting(metrics):
            system = KompicsSystem.threaded(workers=3)
            try:
                addr_a, net_a, app_a = build_node(system, free_port())
                addr_b, net_b, app_b = build_node(system, free_port())
                send_blob(app_a, addr_a, addr_b, "counted", Transport.TCP, notify=True)
                assert app_a.definition.wait(lambda: len(app_a.definition.notifies) == 1)
                assert app_b.definition.wait(lambda: len(app_b.definition.received) == 1)

                sent = metrics.counter("messaging.sent_total", transport="tcp")
                assert sent.value >= 1
                received = metrics.counter(
                    "messaging.received_total",
                    instance=f"{addr_b.ip}:{addr_b.port}",
                )
                assert received.value >= 1
                channels = metrics.gauge(
                    "messaging.channels.open",
                    instance=f"{addr_a.ip}:{addr_a.port}",
                )
                assert channels.value >= 1
            finally:
                system.shutdown()
                time.sleep(0.2)
