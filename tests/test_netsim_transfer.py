"""Behavioural tests of the fluid transport models.

These pin down the *shapes* the paper's evaluation depends on: TCP's BDP
collapse at high RTT, UDT's RTT-insensitivity and policing cap, UDP's
lossiness, fair link sharing and head-of-line queueing delay.
"""

import pytest

from repro.netsim import ConnectionState, Proto, SimNetwork, WireMessage
from repro.netsim.congestion import UDT_MAX_RATE
from repro.netsim.host import UDP_SOCKET_BUFFER
from repro.sim import Simulator

from tests.netsim_helpers import MB, Sink, make_pair, run_transfer


class TestTcpThroughput:
    def test_saturates_fast_low_rtt_link(self):
        sim = Simulator()
        net, a, b = make_pair(sim, bandwidth=100 * MB, delay=0.0015)  # 3ms RTT
        sink = run_transfer(sim, net, a, b, Proto.TCP, 100 * MB)
        assert sink.bytes_received == pytest.approx(100 * MB, abs=65536)
        assert sink.goodput() > 80 * MB  # near link speed after ramp-up

    def test_window_limited_at_high_rtt(self):
        # 8 MB window at 320 ms RTT -> at most 25 MB/s even on a fat link.
        sim = Simulator()
        net, a, b = make_pair(sim, bandwidth=100 * MB, delay=0.160)
        sink = run_transfer(sim, net, a, b, Proto.TCP, 50 * MB)
        assert sink.goodput() < 26 * MB

    def test_loss_collapses_throughput_at_high_rtt(self):
        sim = Simulator()
        net_clean, a1, b1 = make_pair(sim, bandwidth=100 * MB, delay=0.160)
        clean = run_transfer(sim, net_clean, a1, b1, Proto.TCP, 80 * MB)

        sim2 = Simulator()
        net_lossy, a2, b2 = make_pair(sim2, bandwidth=100 * MB, delay=0.160, loss=1e-4)
        lossy = run_transfer(sim2, net_lossy, a2, b2, Proto.TCP, 80 * MB)
        assert lossy.goodput() < clean.goodput() / 2

    def test_slow_start_ramps_over_rtts(self):
        sim = Simulator()
        net, a, b = make_pair(sim, bandwidth=100 * MB, delay=0.050)  # 100ms RTT
        sink = run_transfer(sim, net, a, b, Proto.TCP, 10 * MB)
        times = [t for (t, _) in sink.arrivals]
        # First arrival cannot beat handshake + transmission + propagation.
        assert times[0] > 0.1
        # Early inter-arrival gaps (cwnd-paced) shrink as the window grows.
        early_rate = 5 * 65536 / (times[5] - times[0]) if times[5] > times[0] else 0
        late_rate = 5 * 65536 / (times[-1] - times[-6])
        assert late_rate > early_rate


class TestUdtThroughput:
    def test_rtt_insensitive(self):
        goodputs = {}
        for label, delay in (("low", 0.0015), ("high", 0.160)):
            sim = Simulator()
            net, a, b = make_pair(sim, bandwidth=100 * MB, delay=delay, udp_cap=10 * MB)
            sink = run_transfer(sim, net, a, b, Proto.UDT, 30 * MB)
            goodputs[label] = sink.goodput()
        assert goodputs["high"] > 0.7 * goodputs["low"]

    def test_respects_udp_policing_cap(self):
        sim = Simulator()
        net, a, b = make_pair(sim, bandwidth=100 * MB, delay=0.0015, udp_cap=10 * MB)
        sink = run_transfer(sim, net, a, b, Proto.UDT, 30 * MB)
        assert sink.goodput() < 10.5 * MB

    def test_reliable_under_loss(self):
        sim = Simulator()
        net, a, b = make_pair(sim, bandwidth=100 * MB, delay=0.05, loss=1e-4, udp_cap=10 * MB)
        sink = run_transfer(sim, net, a, b, Proto.UDT, 10 * MB)
        assert sink.bytes_received == pytest.approx(10 * MB, abs=65536)

    def test_small_receive_buffer_hurts_on_high_bdp(self):
        # The paper's 12 MB -> 100 MB UDT buffer fix (§V-A).
        results = {}
        for label, buf in (("small", 12 * MB), ("large", 100 * MB)):
            sim = Simulator()
            net, a, b = make_pair(
                sim,
                bandwidth=100 * MB,
                delay=0.160,
                udp_cap=10 * MB,
                config={"net.udt.receive_buffer": buf},
            )
            sink = run_transfer(sim, net, a, b, Proto.UDT, 20 * MB)
            results[label] = sink.goodput()
        assert results["small"] < 0.8 * results["large"]

    def test_processing_cap_on_loopback(self):
        sim = Simulator()
        net = SimNetwork(sim, seed=1)
        host = net.add_host("a", "10.0.0.1")
        sink = run_transfer(sim, net, host, host, Proto.UDT, 30 * MB)
        assert sink.goodput() < UDT_MAX_RATE * 1.05


class TestUdp:
    def test_delivery_without_handshake(self):
        sim = Simulator()
        net, a, b = make_pair(sim)
        sink = run_transfer(sim, net, a, b, Proto.UDP, 1 * MB, msg_size=1024)
        assert sink.bytes_received == 1 * MB

    def test_loss_drops_datagrams(self):
        sim = Simulator()
        net, a, b = make_pair(sim, loss=0.01)
        sink = run_transfer(sim, net, a, b, Proto.UDP, 2 * MB, msg_size=1024)
        assert 0 < sink.bytes_received < 2 * MB

    def test_jitter_can_reorder(self):
        sim = Simulator()
        net, a, b = make_pair(sim, delay=0.010, jitter=0.050)
        sink = run_transfer(sim, net, a, b, Proto.UDP, 64 * 1024, msg_size=1024)
        seqs = sink.payloads
        assert seqs != sorted(seqs)  # at least one reordering with 50ms jitter

    def test_socket_buffer_overflow_drops_at_sender(self):
        sim = Simulator()
        net, a, b = make_pair(sim, bandwidth=1 * MB)
        sink = Sink(sim)
        b.stack.listen(7000, Proto.UDP, on_datagram=sink.on_datagram)
        conn = a.stack.connect((b.ip, 7000), Proto.UDP)
        outcomes = []
        sent = 2 * UDP_SOCKET_BUFFER // (16 * 1024)  # a burst of twice the buffer
        for i in range(sent):
            conn.send(WireMessage(i, 16 * 1024, on_sent=outcomes.append))
        sim.run()
        # what the 2 MiB buffer held went out; the rest failed at the sender
        assert outcomes.count(True) == UDP_SOCKET_BUFFER // (16 * 1024)
        assert outcomes.count(False) == sent - outcomes.count(True)
        assert sink.bytes_received <= UDP_SOCKET_BUFFER

    def test_no_listener_silently_drops(self):
        sim = Simulator()
        net, a, b = make_pair(sim)
        conn = a.stack.connect((b.ip, 9999), Proto.UDP)
        conn.send(WireMessage("x", 100))
        sim.run()  # nothing raises


class TestHandshake:
    def test_tcp_connect_takes_one_rtt(self):
        sim = Simulator()
        net, a, b = make_pair(sim, delay=0.050)
        b.stack.listen(7000, Proto.TCP, on_accept=lambda c: None)
        connected = []
        a.stack.connect((b.ip, 7000), Proto.TCP, on_connected=lambda c: connected.append(sim.now))
        sim.run()
        assert connected == [pytest.approx(0.100, abs=1e-6)]

    def test_connection_refused(self):
        sim = Simulator()
        net, a, b = make_pair(sim, delay=0.010)
        failures = []
        a.stack.connect((b.ip, 7000), Proto.TCP, on_failed=lambda c, r: failures.append(r))
        sim.run()
        assert failures == ["connection refused"]

    def test_sends_while_connecting_flushed_after_establishment(self):
        sim = Simulator()
        net, a, b = make_pair(sim, delay=0.050)
        sink = Sink(sim)
        b.stack.listen(7000, Proto.TCP, on_accept=sink.on_accept)
        conn = a.stack.connect((b.ip, 7000), Proto.TCP)
        conn.send(WireMessage("early", 1000))
        sim.run()
        assert sink.payloads == ["early"]
        assert sink.arrivals[0][0] > 0.100  # after the handshake RTT

    def test_duplicate_listen_rejected(self):
        from repro.errors import NetworkError

        sim = Simulator()
        net, a, b = make_pair(sim)
        b.stack.listen(7000, Proto.TCP, on_accept=lambda c: None)
        with pytest.raises(NetworkError):
            b.stack.listen(7000, Proto.TCP, on_accept=lambda c: None)

    def test_same_port_different_proto_ok(self):
        sim = Simulator()
        net, a, b = make_pair(sim)
        b.stack.listen(7000, Proto.TCP, on_accept=lambda c: None)
        b.stack.listen(7000, Proto.UDP, on_datagram=lambda p, s, src: None)

    def test_no_route_raises(self):
        from repro.errors import AddressError

        sim = Simulator()
        net = SimNetwork(sim)
        a = net.add_host("a", "10.0.0.1")
        net.add_host("c", "10.0.0.3")
        with pytest.raises(AddressError):
            a.stack.connect(("10.0.0.3", 7000), Proto.TCP)


class TestSharingAndDuplex:
    def test_two_tcp_flows_share_fairly(self):
        sim = Simulator()
        net, a, b = make_pair(sim, bandwidth=50 * MB, delay=0.005)
        s1 = run_transfer(sim, net, a, b, Proto.TCP, 40 * MB, port=7000)
        # Second transfer on a fresh sim for an independent baseline.
        sim2 = Simulator()
        net2, a2, b2 = make_pair(sim2, bandwidth=50 * MB, delay=0.005)
        sink_x = Sink(sim2)
        sink_y = Sink(sim2)
        b2.stack.listen(7000, Proto.TCP, on_accept=sink_x.on_accept)
        b2.stack.listen(7001, Proto.TCP, on_accept=sink_y.on_accept)
        cx = a2.stack.connect((b2.ip, 7000), Proto.TCP)
        cy = a2.stack.connect((b2.ip, 7001), Proto.TCP)
        for i in range(40 * MB // 65536):
            cx.send(WireMessage(i, 65536))
            cy.send(WireMessage(i, 65536))
        sim2.run()
        # Together they take about twice as long as the solo transfer.
        solo_time = s1.arrivals[-1][0]
        shared_time = max(sink_x.arrivals[-1][0], sink_y.arrivals[-1][0])
        assert shared_time > 1.6 * solo_time

    def test_duplex_traffic_both_directions(self):
        sim = Simulator()
        net, a, b = make_pair(sim, delay=0.010)
        sink_b = Sink(sim)
        replies = []

        def on_accept(server_conn):
            def on_message(payload, size, conn):
                sink_b.on_message(payload, size, conn)
                conn.send(WireMessage(f"re:{payload}", 500))

            server_conn.on_message = on_message

        b.stack.listen(7000, Proto.TCP, on_accept=on_accept)
        conn = a.stack.connect((b.ip, 7000), Proto.TCP)
        conn.on_message = lambda p, s, c: replies.append(p)
        conn.send(WireMessage("hello", 500))
        sim.run()
        assert sink_b.payloads == ["hello"]
        assert replies == ["re:hello"]

    def test_head_of_line_blocking_delays_small_message(self):
        """A small message behind a bulk queue waits for the backlog."""
        sim = Simulator()
        net, a, b = make_pair(sim, bandwidth=10 * MB, delay=0.005)
        sink = Sink(sim)
        b.stack.listen(7000, Proto.TCP, on_accept=sink.on_accept)
        conn = a.stack.connect((b.ip, 7000), Proto.TCP)
        for i in range(160):  # ~10 MB backlog at 10 MB/s -> ~1s of queue
            conn.send(WireMessage(i, 65536))
        conn.send(WireMessage("ping", 100))
        sim.run()
        ping_time = [t for (t, _), p in zip(sink.arrivals, sink.payloads) if p == "ping"][0]
        assert ping_time > 0.9  # orders of magnitude above the 10ms RTT


class TestFaults:
    def test_cut_link_aborts_connections_and_loses_messages(self):
        from repro.netsim import FaultInjector

        sim = Simulator()
        net, a, b = make_pair(sim, bandwidth=1 * MB, delay=0.005)
        sink = Sink(sim)
        b.stack.listen(7000, Proto.TCP, on_accept=sink.on_accept)
        conn = a.stack.connect((b.ip, 7000), Proto.TCP)
        outcomes = []
        for i in range(100):
            conn.send(WireMessage(i, 65536, on_sent=outcomes.append))
        injector = FaultInjector(net)
        sim.schedule(1.0, lambda: injector.cut_link(a.ip, b.ip))
        sim.run()
        assert conn.state is ConnectionState.CLOSED
        assert outcomes.count(False) > 0  # queued messages lost: at-most-once
        assert sink.bytes_received < 100 * 65536

    def test_link_restores_and_new_connection_works(self):
        from repro.netsim import FaultInjector

        sim = Simulator()
        net, a, b = make_pair(sim, delay=0.005)
        sink = Sink(sim)
        b.stack.listen(7000, Proto.TCP, on_accept=sink.on_accept)
        injector = FaultInjector(net)
        injector.cut_link(a.ip, b.ip, duration=1.0)

        def reconnect():
            conn = a.stack.connect((b.ip, 7000), Proto.TCP)
            conn.send(WireMessage("back", 100))

        sim.schedule(2.0, reconnect)
        sim.run()
        assert sink.payloads == ["back"]

    def test_a_cut_mid_handshake_keeps_the_connection_down(self):
        """The SYN lands at 5 ms, the cut at 7 ms, the activation was due at 10 ms."""
        from repro.netsim import FaultInjector

        sim = Simulator()
        net, a, b = make_pair(sim, delay=0.005)
        b.stack.listen(7000, Proto.TCP, on_accept=lambda c: None)
        connected = []
        conn = a.stack.connect((b.ip, 7000), Proto.TCP, on_connected=connected.append)
        outcomes = []
        conn.send(WireMessage("never", 100, on_sent=outcomes.append))
        sim.schedule(0.007, lambda: FaultInjector(net).cut_link(a.ip, b.ip))
        sim.run()
        assert conn.state is ConnectionState.CLOSED
        assert connected == []
        assert outcomes == [False]

    def test_send_on_closed_connection_raises(self):
        from repro.errors import ConnectionClosedError

        sim = Simulator()
        net, a, b = make_pair(sim, delay=0.005)
        b.stack.listen(7000, Proto.TCP, on_accept=lambda c: None)
        conn = a.stack.connect((b.ip, 7000), Proto.TCP)
        sim.run()
        conn.close()
        with pytest.raises(ConnectionClosedError):
            conn.send(WireMessage("x", 10))


class TestDisk:
    def test_reads_serialized_fifo(self):
        from repro.netsim import DiskModel

        sim = Simulator()
        disk = DiskModel(sim, read_rate=100 * MB, write_rate=100 * MB)
        done = []
        disk.read(50 * MB, lambda: done.append(("a", sim.now)))
        disk.read(50 * MB, lambda: done.append(("b", sim.now)))
        sim.run()
        assert done[0] == ("a", pytest.approx(0.5))
        assert done[1] == ("b", pytest.approx(1.0))

    def test_reads_and_writes_independent(self):
        from repro.netsim import DiskModel

        sim = Simulator()
        disk = DiskModel(sim, read_rate=100 * MB, write_rate=100 * MB)
        done = []
        disk.read(100 * MB, lambda: done.append(("r", sim.now)))
        disk.write(100 * MB, lambda: done.append(("w", sim.now)))
        sim.run()
        assert done[0][1] == pytest.approx(1.0)
        assert done[1][1] == pytest.approx(1.0)

    def test_invalid_rates_rejected(self):
        from repro.netsim import DiskModel

        with pytest.raises(ValueError):
            DiskModel(Simulator(), read_rate=0)
