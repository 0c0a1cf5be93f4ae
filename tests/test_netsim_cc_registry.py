"""The pluggable congestion-control layer: policy table, new controllers,
policy names threaded to connections, abort accounting and
seed-equivalence of the defaults."""

import math

import pytest

from repro.netsim import Proto, WireMessage
from repro.netsim.congestion import (
    CC_POLICIES,
    MSS,
    UDT_RECEIVE_BUFFER,
    BbrCc,
    CongestionControl,
    CubicCc,
    TcpCc,
    UdtCc,
    UnknownCcError,
    make_cc,
)
from repro.sim import Simulator
from repro.util.config import Config

from tests.netsim_helpers import MB, Sink, make_pair, run_transfer


class FixedRate(CongestionControl):
    """Minimal custom controller used by the policy-table tests."""

    def __init__(self, rtt: float = 0.1, rate: float = 1.0 * 1024 * 1024) -> None:
        super().__init__()
        self.rtt = rtt
        self.rate = rate

    def demand_rate(self, now: float) -> float:
        return self.rate


def _fixed_rate(rtt, bandwidth, udp_cap, config):
    return FixedRate(rtt=rtt, rate=5.0)


@pytest.fixture
def fixed_rate(monkeypatch):
    """``FixedRate`` listed as ``fixed-rate`` for the test's duration."""
    monkeypatch.setitem(CC_POLICIES, "fixed-rate", (_fixed_rate, "fixed 5 B/s"))
    return "fixed-rate"


class TestCcRegistry:
    def test_builtins_registered(self):
        assert {"reno", "cubic", "bbr", "udt", "udp", "ledbat"} <= set(CC_POLICIES)

    @pytest.mark.parametrize("name", sorted(CC_POLICIES))
    def test_every_policy_reports_a_window_and_a_rate(self, name):
        # the netsim.cc.window_bytes / netsim.cc.rate gauges read these for
        # every connection; a controller without a window reports NaN
        cc = make_cc(name, rtt=0.05, bandwidth=100 * MB, udp_cap=10 * MB)
        window, rate = cc.window_bytes(), cc.current_rate()
        if name == "udp":
            assert math.isnan(window) and math.isnan(rate)
        else:
            assert window > 0 and rate > 0
            assert window == pytest.approx(rate * 0.05)

    def test_unknown_name_suggests(self):
        with pytest.raises(UnknownCcError) as err:
            make_cc("rino")
        assert "did you mean 'reno'" in str(err.value)

    def test_unknown_is_keyerror(self):
        with pytest.raises(KeyError):
            make_cc("no-such-policy")

    def test_unknown_message_is_plain_and_lists_the_names(self):
        with pytest.raises(UnknownCcError) as err:
            make_cc("cubik")
        assert str(err.value) == (
            "unknown congestion-control policy 'cubik'; did you mean 'cubic'? "
            "(registered: bbr, cubic, ledbat, reno, udp, udt)"
        )

    def test_registered_custom_policy_builds_by_name(self, fixed_rate):
        cc = make_cc(fixed_rate, rtt=0.2)
        assert isinstance(cc, FixedRate)
        assert (cc.rtt, cc.rate) == (0.2, 5.0)
        assert fixed_rate in CC_POLICIES

    def test_dotted_name_bad_module(self):
        with pytest.raises(UnknownCcError):
            make_cc("no.such.module:Thing")

    def test_udt_factory_matches_seed_parameters(self):
        # The table path must reproduce the old hard-coded fabric
        # arithmetic: estimate = min(bandwidth, udp_cap, UDT_MAX_RATE).
        cc = make_cc("udt", rtt=0.1, bandwidth=100 * MB, udp_cap=10 * MB)
        assert isinstance(cc, UdtCc)
        assert cc.bandwidth_estimate == 10 * MB

    def test_context_get_float_falls_back(self):
        # Without a config (or without the key) a factory uses the default.
        assert make_cc("udt").receive_buffer == UDT_RECEIVE_BUFFER
        assert make_cc("udt", config=Config()).receive_buffer == UDT_RECEIVE_BUFFER
        given = Config({"net.udt.receive_buffer": 12 * MB})
        assert make_cc("udt", config=given).receive_buffer == 12 * MB


class TestDemandGenIsInstanceState:
    def test_instance_attribute_not_class_attribute(self):
        # Regression: demand_gen used to be a class attribute, so the
        # first ``self.demand_gen += 1`` read shared state.  Every
        # controller must get its own counter from __init__.
        a, b = TcpCc(rtt=0.1), TcpCc(rtt=0.1)
        assert "demand_gen" in a.__dict__
        a.demand_gen += 5
        assert b.demand_gen == 0
        assert CongestionControl.__dict__.get("demand_gen") is None

    @pytest.mark.parametrize("cls", [TcpCc, CubicCc])
    def test_window_controllers_isolated(self, cls):
        a, b = cls(rtt=0.1), cls(rtt=0.1)
        a.on_bytes_sent(10 * MSS, 0.0)
        assert b.demand_gen == 0

    def test_subclass_must_chain_init(self):
        cc = FixedRate()
        assert cc.demand_gen == 0


class TestCubicCc:
    def test_initial_window_and_rate(self):
        cc = CubicCc(rtt=0.1)
        assert cc.cwnd == 10 * MSS
        assert cc.demand_rate(0.0) == pytest.approx(10 * MSS / 0.1)

    def test_slow_start_doubles_per_window(self):
        cc = CubicCc(rtt=0.1)
        start = cc.cwnd
        cc.on_bytes_sent(int(start), 0.0)
        assert cc.cwnd == pytest.approx(2 * start)

    def test_loss_exits_slow_start(self):
        cc = CubicCc(rtt=0.1)
        cc.on_bytes_sent(90 * MSS, 0.0)  # grow in slow start
        before = cc.cwnd
        cc.on_loss(1.0)
        assert cc.cwnd == pytest.approx(before * CubicCc.BETA)
        assert cc.ssthresh < float("inf")
        # Growth after the loss is cubic-shaped (ack-clocked), not doubling.
        gen = cc.demand_gen
        cc.on_bytes_sent(int(cc.cwnd), 1.05)
        assert cc.cwnd < 2 * before * CubicCc.BETA
        assert cc.demand_gen > gen

    def test_one_decrease_per_rtt(self):
        cc = CubicCc(rtt=0.1)
        cc.on_bytes_sent(100 * MSS, 0.0)
        cc.on_loss(1.0)
        after_first = cc.cwnd
        cc.on_loss(1.02)  # same loss episode: ignored
        assert cc.cwnd == after_first

    def test_concave_recovery_toward_w_max(self):
        cc = CubicCc(rtt=0.05)
        cc.on_bytes_sent(200 * MSS, 0.0)
        w_max = cc.cwnd
        cc.on_loss(1.0)
        # Feed steady acks; the window should approach (and plateau near)
        # the pre-loss level rather than blow straight past it.
        t = 1.0
        for _ in range(200):
            t += cc.rtt
            cc.on_bytes_sent(int(cc.cwnd), t)
        assert cc.cwnd >= 0.9 * w_max

    def test_demand_gen_bumped_only_on_change(self):
        cc = CubicCc(rtt=0.1)
        cc.on_bytes_sent(int(cc.wnd_max) * 2, 0.0)  # clamp at the buffer cap
        gen = cc.demand_gen
        cc.on_bytes_sent(10 * MSS, 0.1)  # capped: no change, no bump
        assert cc.demand_gen == gen


class TestBbrCc:
    def test_demand_is_time_varying(self):
        assert BbrCc.demand_time_varying is True
        assert CubicCc.demand_time_varying is False

    def test_startup_grows_toward_estimate(self):
        cc = BbrCc(rtt=0.1, bandwidth_estimate=10 * MB)
        first = cc.demand_rate(0.0)
        cc.on_bytes_sent(int(first * cc.rtt), 0.1)
        assert cc.demand_rate(0.1) > first

    def test_demand_rate_idempotent_within_timestamp(self):
        cc = BbrCc(rtt=0.1, bandwidth_estimate=10 * MB)
        # Drive into probe mode, where demand depends on ``now``.
        for i in range(50):
            cc.on_bytes_sent(256 * 1024, i * 0.1)
        for now in (10.0, 10.05, 10.2):
            assert cc.demand_rate(now) == cc.demand_rate(now)

    def test_probe_cycle_has_both_gains(self):
        cc = BbrCc(rtt=0.1, bandwidth_estimate=10 * MB)
        for i in range(100):
            cc.on_bytes_sent(512 * 1024, i * 0.1)
        base = 20.0
        rates = {cc.demand_rate(base + k * cc.rtt) for k in range(8)}
        assert max(rates) > min(rates)  # probe-up and drain phases differ

    def test_loss_decays_estimate_once_per_rtt(self):
        cc = BbrCc(rtt=0.1, bandwidth_estimate=10 * MB)
        for i in range(100):
            cc.on_bytes_sent(512 * 1024, i * 0.1)
        before = cc.btl_bw
        cc.on_loss(20.0)
        assert cc.btl_bw == pytest.approx(before * BbrCc.LOSS_DECAY)
        cc.on_loss(20.01)  # same RTT: no further decay
        assert cc.btl_bw == pytest.approx(before * BbrCc.LOSS_DECAY)

    def test_rate_never_below_floor(self):
        cc = BbrCc(rtt=0.1, bandwidth_estimate=10 * MB)
        for t in range(1, 60):
            cc.on_loss(float(t))
        assert cc.demand_rate(100.0) >= BbrCc.MIN_RATE - 1e-9


class TestSpecThreading:
    def test_connect_with_named_policy(self):
        sim = Simulator()
        net, a, b = make_pair(sim)
        b.stack.listen(7000, Proto.TCP, on_accept=lambda c: None)
        conn = a.stack.connect((b.ip, 7000), Proto.TCP, cc="cubic")
        sim.run_until(1.0)
        assert isinstance(conn.flow.cc, CubicCc)

    def test_listener_spec_stamps_accepted_connections(self):
        sim = Simulator()
        net, a, b = make_pair(sim)
        accepted = []
        b.stack.listen(7000, Proto.TCP, on_accept=accepted.append, cc="bbr")
        a.stack.connect((b.ip, 7000), Proto.TCP)
        sim.run_until(1.0)
        assert accepted and isinstance(accepted[0].flow.cc, BbrCc)

    def test_transfer_completes_under_cubic_and_bbr(self):
        for name in ("cubic", "bbr"):
            sim = Simulator()
            net, a, b = make_pair(sim, bandwidth=50 * MB, delay=0.005)
            sink = Sink(sim)
            b.stack.listen(7000, Proto.TCP, on_accept=sink.on_accept)
            conn = a.stack.connect((b.ip, 7000), Proto.TCP, cc=name)
            for i in range(160):
                conn.send(WireMessage(("m", i), 65536))
            sim.run()
            assert sink.bytes_received == 160 * 65536, name


class TestSeedEquivalence:
    """Table-built defaults must be digest-identical to the seed path."""

    @pytest.mark.parametrize("proto", [Proto.TCP, Proto.UDT, Proto.LEDBAT])
    def test_explicit_defaults_match_implicit(self, proto):
        explicit = {Proto.TCP: "reno", Proto.UDT: "udt", Proto.LEDBAT: "ledbat"}[proto]
        arrivals = []
        for cc in (None, explicit):
            sim = Simulator()
            net, a, b = make_pair(
                sim, bandwidth=20 * MB, delay=0.01, loss=1e-5, udp_cap=10 * MB,
            )
            sink = run_transfer(sim, net, a, b, proto, 8 * MB, cc=cc)
            arrivals.append(sink.arrivals)
        assert arrivals[0] == arrivals[1]


class TestAbortReleasesBandwidth:
    def test_survivor_absorbs_freed_share_same_epoch(self):
        # Two flows share a 10 MB/s link; the victim aborts mid-transfer
        # and the survivor's pace must jump to full bandwidth at its very
        # next transmission — the abort bumps demand_gen and dirties the
        # link, so no unrelated event is needed to invalidate the cache.
        sim = Simulator()
        net, a, b = make_pair(sim, bandwidth=10 * MB, delay=0.001)
        sink = Sink(sim)
        b.stack.listen(7000, Proto.TCP, on_accept=sink.on_accept)
        b.stack.listen(7001, Proto.TCP, on_accept=lambda c: None)
        survivor = a.stack.connect((b.ip, 7000), Proto.TCP)
        victim = a.stack.connect((b.ip, 7001), Proto.TCP)
        msg = 65536
        for i in range(320):  # 20 MB survivor
            survivor.send(WireMessage(("s", i), msg))
        for i in range(320):  # victim would also run ~4 s alone
            victim.send(WireMessage(("v", i), msg))
        sim.schedule(1.0, lambda: victim.flow.abort(), label="test-abort")
        sim.run()
        assert sink.bytes_received == 320 * msg
        before = [t for (t, _) in sink.arrivals if 0.5 < t <= 1.0]
        after = [t for (t, _) in sink.arrivals if t > 1.0]
        rate_before = (len(before) - 1) * msg / (before[-1] - before[0])
        rate_after = (len(after) - 1) * msg / (after[-1] - after[0])
        # Shared half before the abort, full link after.
        assert rate_before < 0.7 * 10 * MB
        assert rate_after > 0.9 * 10 * MB

    def test_abort_then_completion_beats_contended_run(self):
        def survivor_finish(abort_at):
            sim = Simulator()
            net, a, b = make_pair(sim, bandwidth=10 * MB, delay=0.001)
            sink = Sink(sim)
            b.stack.listen(7000, Proto.TCP, on_accept=sink.on_accept)
            b.stack.listen(7001, Proto.TCP, on_accept=lambda c: None)
            survivor = a.stack.connect((b.ip, 7000), Proto.TCP)
            victim = a.stack.connect((b.ip, 7001), Proto.TCP)
            for i in range(320):
                survivor.send(WireMessage(("s", i), 65536))
                victim.send(WireMessage(("v", i), 65536))
            if abort_at is not None:
                sim.schedule(abort_at, lambda: victim.flow.abort(),
                             label="test-abort")
            sim.run()
            return sink.arrivals[-1][0]

        assert survivor_finish(abort_at=1.0) < survivor_finish(abort_at=None) - 0.5


class TestSharedLinkFairness:
    def test_cubic_and_reno_share_without_starvation(self):
        # Long-running CUBIC and Reno flows on one bottleneck with light
        # random loss: neither may starve the other (steady-state
        # fairness), and together they must keep the link busy.
        sim = Simulator()
        net, a, b = make_pair(sim, bandwidth=20 * MB, delay=0.01, loss=2e-5)
        sinks = {}
        for port, name in ((7000, "reno"), (7001, "cubic")):
            sink = Sink(sim)
            sinks[name] = sink
            b.stack.listen(port, Proto.TCP, on_accept=sink.on_accept)
        reno = a.stack.connect((b.ip, 7000), Proto.TCP, cc="reno")
        cubic = a.stack.connect((b.ip, 7001), Proto.TCP, cc="cubic")
        total = 30 * MB
        for i in range(total // 65536):
            reno.send(WireMessage(("r", i), 65536))
            cubic.send(WireMessage(("c", i), 65536))
        sim.run()
        finish = {n: s.arrivals[-1][0] for n, s in sinks.items()}
        for name, sink in sinks.items():
            assert sink.bytes_received == (total // 65536) * 65536, name
        # Neither flow hogs the link: completion times within 2x.
        assert max(finish.values()) / min(finish.values()) < 2.0
