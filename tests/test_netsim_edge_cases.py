"""Edge cases of the transport substrate."""

import gc
import weakref
from collections import deque

import pytest

from repro.netsim import ConnectionState, LinkSpec, Proto, SimNetwork, WireMessage
from repro.sim import Simulator

from tests.netsim_helpers import MB, Sink, make_pair


class TestWireMessage:
    def test_size_must_be_positive(self):
        with pytest.raises(ValueError):
            WireMessage("x", 0)
        with pytest.raises(ValueError):
            WireMessage("x", -5)

    def test_sent_callback_optional(self):
        WireMessage("x", 10)._sent(True)  # no callback: no error


class TestConnectionLifecycle:
    def test_connect_timeout_when_link_down(self):
        sim = Simulator()
        net, a, b = make_pair(sim)
        net.link_between(a.ip, b.ip).set_up(False)
        failures = []
        b.stack.listen(7000, Proto.TCP, on_accept=lambda c: None)
        a.stack.connect((b.ip, 7000), Proto.TCP, on_failed=lambda c, r: failures.append(r))
        sim.run()
        assert failures == ["link down"]

    def test_close_is_idempotent(self):
        sim = Simulator()
        net, a, b = make_pair(sim)
        b.stack.listen(7000, Proto.TCP, on_accept=lambda c: None)
        conn = a.stack.connect((b.ip, 7000), Proto.TCP)
        sim.run()
        conn.close()
        conn.close()
        assert conn.state is ConnectionState.CLOSED

    def test_close_propagates_to_peer_after_delay(self):
        sim = Simulator()
        net, a, b = make_pair(sim, delay=0.050)
        accepted = []
        b.stack.listen(7000, Proto.TCP, on_accept=accepted.append)
        conn = a.stack.connect((b.ip, 7000), Proto.TCP)
        sim.run()
        conn.close()
        assert accepted[0].state is ConnectionState.ACTIVE  # not yet
        sim.run()
        assert accepted[0].state is ConnectionState.CLOSED

    def test_messages_in_flight_dropped_when_receiver_closes(self):
        sim = Simulator()
        net, a, b = make_pair(sim, bandwidth=1 * MB, delay=0.100)
        sink = Sink(sim)
        accepted = []

        def on_accept(conn):
            accepted.append(conn)
            conn.on_message = sink.on_message

        b.stack.listen(7000, Proto.TCP, on_accept=on_accept)
        conn = a.stack.connect((b.ip, 7000), Proto.TCP)
        for i in range(5):
            conn.send(WireMessage(i, 65536))
        # Close the receiving side while messages are mid-flight.
        sim.schedule(0.30, lambda: accepted[0].close(notify_peer=False))
        sim.run()
        assert len(sink.arrivals) < 5

    def test_unlisten_refuses_new_connections(self):
        sim = Simulator()
        net, a, b = make_pair(sim)
        listener = b.stack.listen(7000, Proto.TCP, on_accept=lambda c: None)
        b.stack.unlisten(listener)
        failures = []
        a.stack.connect((b.ip, 7000), Proto.TCP, on_failed=lambda c, r: failures.append(r))
        sim.run()
        assert failures == ["connection refused"]


class TestNetworkClose:
    def _busy_pair(self):
        """A pair mid-transfer: queued, in-flight and pending messages."""
        sim = Simulator()
        net, a, b = make_pair(sim, bandwidth=1 * MB)
        sink = Sink(sim)
        b.stack.listen(7000, Proto.TCP, on_accept=sink.on_accept)
        conn = a.stack.connect((b.ip, 7000), Proto.TCP)
        outcomes = []
        for i in range(20):
            conn.send(WireMessage(i, 65536, on_sent=outcomes.append))
        sim.run_until(0.2)
        return sim, net, conn, outcomes

    def test_close_is_idempotent_and_reports_nothing(self):
        sim, net, conn, outcomes = self._busy_pair()
        sent = list(outcomes)
        net.close()
        net.close()
        sim.close()
        sim.run()
        assert outcomes == sent
        assert net.hosts == {} and net.links == {}
        assert conn.peer is None and conn.flow.queue == deque()

    def test_closed_world_is_freed_without_the_collector(self):
        gc.collect()
        gc.disable()
        try:
            sim, net, conn, _ = self._busy_pair()
            flow = weakref.ref(conn.flow)
            peer = weakref.ref(conn.peer)
            net.close()
            sim.close()
            del sim, net, conn
            assert flow() is None and peer() is None
        finally:
            gc.enable()


class TestFlowStateEdges:
    def test_abort_idempotent_and_fails_queue(self):
        sim = Simulator()
        net, a, b = make_pair(sim, bandwidth=1 * MB)
        sink = Sink(sim)
        b.stack.listen(7000, Proto.TCP, on_accept=sink.on_accept)
        conn = a.stack.connect((b.ip, 7000), Proto.TCP)
        outcomes = []
        for i in range(10):
            conn.send(WireMessage(i, 65536, on_sent=outcomes.append))
        conn.flow.abort()
        conn.flow.abort()
        sim.run()
        assert outcomes.count(False) == 10

    def test_send_after_abort_fails_immediately(self):
        sim = Simulator()
        net, a, b = make_pair(sim)
        b.stack.listen(7000, Proto.TCP, on_accept=lambda c: None)
        conn = a.stack.connect((b.ip, 7000), Proto.TCP)
        sim.run()
        conn.flow.abort()
        outcomes = []
        conn.flow.send(WireMessage("x", 10, on_sent=outcomes.append))
        assert outcomes == [False]


class TestMultiInstanceHosts:
    def test_many_ports_one_host(self):
        """A host can run many middleware-style listeners simultaneously."""
        sim = Simulator()
        net = SimNetwork(sim, seed=1)
        host = net.add_host("h", "10.0.0.1")
        sinks = []
        for port in range(34000, 34010):
            sink = Sink(sim)
            sinks.append(sink)
            host.stack.listen(port, Proto.TCP, on_accept=sink.on_accept)
        conns = [host.stack.connect((host.ip, port), Proto.TCP)
                 for port in range(34000, 34010)]
        for i, conn in enumerate(conns):
            conn.send(WireMessage(i, 100))
        sim.run()
        assert [s.payloads for s in sinks] == [[i] for i in range(10)]

    def test_duplicate_host_ip_rejected(self):
        from repro.errors import AddressError

        sim = Simulator()
        net = SimNetwork(sim, seed=1)
        net.add_host("a", "10.0.0.1")
        with pytest.raises(AddressError):
            net.add_host("b", "10.0.0.1")

    def test_duplicate_link_rejected(self):
        from repro.errors import AddressError

        sim = Simulator()
        net = SimNetwork(sim, seed=1)
        a = net.add_host("a", "10.0.0.1")
        b = net.add_host("b", "10.0.0.2")
        net.connect_hosts(a, b, LinkSpec(1e8, 0.01))
        with pytest.raises(AddressError):
            net.connect_hosts(b, a, LinkSpec(1e8, 0.01))
