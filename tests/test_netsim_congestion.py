"""Direct unit tests of the congestion-control state machines."""

import math

import pytest

from repro.netsim.congestion import MSS, TCP_BUFFER, LedbatCc, TcpCc, UdpCc, UdtCc

MB = 1024 * 1024


class TestTcpCc:
    def test_initial_window_ten_segments(self):
        cc = TcpCc(rtt=0.1)
        assert cc.cwnd == 10 * MSS
        assert cc.demand_rate(0.0) == pytest.approx(10 * MSS / 0.1)

    def test_slow_start_doubles_per_window(self):
        cc = TcpCc(rtt=0.1)
        start = cc.cwnd
        cc.on_bytes_sent(int(start), 0.0)  # one window's worth of acks
        assert cc.cwnd == pytest.approx(2 * start)

    def test_congestion_avoidance_one_mss_per_window(self):
        cc = TcpCc(rtt=0.1)
        cc.ssthresh = cc.cwnd  # leave slow start
        start = cc.cwnd
        cc.on_bytes_sent(int(start), 0.0)
        assert cc.cwnd == pytest.approx(start + MSS, rel=1e-3)

    def test_loss_halves_window(self):
        cc = TcpCc(rtt=0.1)
        cc.cwnd = 100 * MSS
        cc.on_loss(1.0)
        assert cc.cwnd == pytest.approx(50 * MSS)
        assert cc.ssthresh == pytest.approx(50 * MSS)

    def test_one_decrease_per_loss_episode(self):
        cc = TcpCc(rtt=0.1)
        cc.cwnd = 100 * MSS
        cc.on_loss(1.0)
        cc.on_loss(1.05)  # within the same RTT: ignored
        assert cc.cwnd == pytest.approx(50 * MSS)
        cc.on_loss(1.2)  # next episode
        assert cc.cwnd == pytest.approx(25 * MSS)
        assert cc.loss_episodes == 2

    def test_window_cap_is_buffer_bound(self):
        cc = TcpCc(rtt=0.5)
        cc.on_bytes_sent(100 * MB, 0.0)
        assert cc.cwnd == TCP_BUFFER  # the socket buffer caps the window
        assert cc.demand_rate(0.0) == pytest.approx(TCP_BUFFER / 0.5)

    def test_floor_two_segments(self):
        cc = TcpCc(rtt=0.1)
        for t in range(1, 50):
            cc.on_loss(float(t))
        assert cc.demand_rate(100.0) >= 2 * MSS / 0.1 - 1e-9


class TestUdtCc:
    def test_ramps_toward_estimate(self):
        cc = UdtCc(rtt=0.1, bandwidth_estimate=10 * MB)
        r0 = cc.demand_rate(0.0)
        r1 = cc.demand_rate(1.0)  # 100 SYN intervals later
        assert r1 > r0
        assert r1 <= 10 * MB * 1.2

    def test_rtt_does_not_slow_ramp(self):
        fast = UdtCc(rtt=0.01, bandwidth_estimate=10 * MB)
        slow = UdtCc(rtt=0.4, bandwidth_estimate=10 * MB)
        assert fast.demand_rate(2.0) == pytest.approx(slow.demand_rate(2.0))

    def test_loss_decreases_by_one_ninth(self):
        cc = UdtCc(rtt=0.1, bandwidth_estimate=10 * MB)
        cc.rate = 9 * MB
        cc.on_loss(0.0)
        assert cc.rate == pytest.approx(8 * MB)

    def test_buffer_overshoot_detected_on_high_bdp(self):
        cc = UdtCc(rtt=0.3, bandwidth_estimate=10 * MB, receive_buffer=12 * MB)
        cc.rate = 10 * MB
        assert cc.check_receive_buffer(0.0)  # 10MB/s * 0.31 * 8 > 12MB
        assert cc.buffer_overflows == 1
        assert cc.rate < 10 * MB

    def test_large_buffer_no_overshoot(self):
        cc = UdtCc(rtt=0.3, bandwidth_estimate=10 * MB, receive_buffer=100 * MB)
        cc.rate = 10 * MB
        assert not cc.check_receive_buffer(0.0)

    def test_max_rate_cap(self):
        cc = UdtCc(rtt=0.01, bandwidth_estimate=100 * MB, max_rate=40 * MB)
        assert cc.demand_rate(10.0) <= 40 * MB


class TestUdpCc:
    def test_infinite_demand_no_reliability(self):
        cc = UdpCc()
        assert math.isinf(cc.demand_rate(0.0))
        assert not cc.reliable
        assert not cc.ordered
        assert cc.subject_to_udp_cap
        assert not cc.scavenger


class TestLedbatCc:
    def test_is_scavenger_and_reliable(self):
        cc = LedbatCc(rtt=0.05, bandwidth_estimate=50 * MB)
        assert cc.scavenger
        assert cc.reliable
        assert cc.subject_to_udp_cap

    def test_gentle_additive_increase(self):
        cc = LedbatCc(rtt=0.1, bandwidth_estimate=50 * MB)
        cc.rate = 1 * MB
        cc.on_bytes_sent(100_000, 0.0)
        assert 1 * MB < cc.rate < 1.2 * MB

    def test_never_exceeds_estimate(self):
        cc = LedbatCc(rtt=0.1, bandwidth_estimate=5 * MB)
        cc.rate = 1 * MB
        for _ in range(1000):
            cc.on_bytes_sent(1_000_000, 0.0)
        assert cc.rate == 5 * MB

    def test_halves_on_loss(self):
        cc = LedbatCc(rtt=0.1, bandwidth_estimate=50 * MB)
        cc.rate = 8 * MB
        cc.on_loss(0.0)
        assert cc.rate == pytest.approx(4 * MB)
        assert cc.loss_events == 1
