"""Max-min solver equivalence and allocation-epoch tests.

The allocation epochs promise *bit-identical* results: the single-flow
solve must reproduce the scalar reference exactly (same IEEE operations
in the same order), every answer must equal the general solve
(``LinkDirection._allocate_general``, which checked runs take), and an
epoch must never serve a stale allocation across an
activate/deactivate/spec-change/pushed-demand boundary.
"""

import math
import struct
from random import Random

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.check import checking
from repro.netsim import Proto, WireMessage
from repro.netsim.congestion import LedbatCc, TcpCc, UdtCc
from repro.netsim.connection import FlowState
from repro.netsim.link import (
    LinkDirection,
    LinkSpec,
    max_min_allocation,
    max_min_share,
)
from repro.obs import MetricsRegistry, collecting
from repro.sim import Simulator

from .netsim_helpers import Sink, make_pair

MB = 1024 * 1024


def _bits(values):
    """Bit pattern of a float list — catches 0.0 vs -0.0 and NaN payloads."""
    return struct.pack(f"<{len(values)}d", *values)


# Demand strategies: finite rates, exact-tie pools (duplicates are the
# interesting case for stable-sort tie-breaking), and inf (greedy flows).
_finite = st.floats(min_value=0.0, max_value=1e9, allow_nan=False)
_tied = st.sampled_from([0.0, 1.0, 10.0, 1e4, 1e4, 2.5e5, 1e9])
_demand = st.one_of(_finite, _tied, st.just(math.inf))


class TestVecEquivalence:
    @given(
        st.lists(_demand, min_size=1, max_size=160),
        st.floats(min_value=1.0, max_value=1e9, allow_nan=False),
    )
    @settings(max_examples=300, deadline=None)
    def test_single_flow_share_bit_equal_to_scalar(self, demands, capacity):
        # Settling one flow must give what settling all of them gives it.
        ref = max_min_allocation(demands, capacity)
        assert _bits([max_min_share(demands, i, capacity)
                      for i in range(len(demands))]) == _bits(ref)


class _StubCC:
    def __init__(self, time_varying=False):
        self.demand_time_varying = time_varying

    def next_change_at(self, now):
        return now  # the base class's promise: nothing past this timestamp


class _StubFlow:
    """Just enough of FlowState for LinkDirection's allocation paths.

    ``demand`` doubles as the pushed value (what a time-invariant
    controller publishes) and as what ``demand_rate()`` answers when the
    link asks (general solve, time-varying controllers).
    """

    def __init__(self, sim, demand, udp=False, scavenger=False, time_varying=False):
        self.sim = sim
        self.demand = demand
        self.subject_to_udp_cap = udp
        self.scavenger = scavenger
        self.cc = _StubCC(time_varying)
        self.queries = 0

    def demand_rate(self):
        self.queries += 1
        return self.demand


def _direction(spec=None):
    return LinkDirection(spec or LinkSpec(100 * MB, 0.01), "t:a->b")


class TestTieredVecEquivalence:
    @given(
        # (demand, transport kind, time-varying): tcp is foreground and
        # unpoliced, udt shares the udp pool, ledbat does too and is a
        # scavenger; any of them may be pulled instead of pushed.
        st.lists(
            st.tuples(_demand, st.sampled_from(["tcp", "udt", "ledbat"]), st.booleans()),
            min_size=2,
            max_size=16,
        ),
        st.floats(min_value=1e3, max_value=1e9, allow_nan=False),
        st.one_of(st.none(), st.floats(min_value=1e3, max_value=1e8, allow_nan=False)),
        st.booleans(),
    )
    @settings(max_examples=200, deadline=None)
    def test_allocate_rate_flag_equivalence(self, flow_specs, bandwidth, udp_cap, outsider):
        def build(direction, sim):
            flows = [
                _StubFlow(sim, d, udp=kind != "tcp", scavenger=kind == "ledbat",
                          time_varying=tv)
                for (d, kind, tv) in flow_specs
            ]
            # ``outsider``: the last flow asks without having activated
            # (``_query_flows`` appends it to the set it is solved in).
            for f in flows[:-1] if outsider else flows:
                direction.activate(f)
            return flows

        sim = Simulator()
        spec = LinkSpec(bandwidth, 0.01, udp_cap=udp_cap)
        fast_dir, ref_dir = _direction(spec), _direction(spec)
        fast, ref = build(fast_dir, sim), build(ref_dir, sim)
        fast_rates = [fast_dir.allocate_rate(f) for f in fast]
        ref_rates = [ref_dir._allocate_general(f) for f in ref]
        assert _bits(fast_rates) == _bits(ref_rates)
        # Pulled controllers are asked on both paths, pushed ones only by
        # the general solve.
        for f, (_, _, tv) in zip(fast, flow_specs):
            if not tv and not outsider:
                assert f.queries == 0

    @given(
        st.lists(_finite, min_size=3, max_size=12),
        st.floats(min_value=0.5, max_value=2.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_near_capacity_sums_stay_bit_equal(self, demand_values, headroom):
        # The under-subscribed shortcut must agree with progressive
        # filling on both sides of "the demands just about fit".
        sim = Simulator()
        bandwidth = max(sum(demand_values) * headroom, 1e3)
        fast_dir = _direction(LinkSpec(bandwidth, 0.01))
        ref_dir = _direction(LinkSpec(bandwidth, 0.01))
        fast = [_StubFlow(sim, d) for d in demand_values]
        ref = [_StubFlow(sim, d) for d in demand_values]
        for f in fast:
            fast_dir.activate(f)
        for f in ref:
            ref_dir.activate(f)
        fast_rates = [fast_dir.allocate_rate(f) for f in fast]
        ref_rates = [ref_dir._allocate_general(f) for f in ref]
        assert _bits(fast_rates) == _bits(ref_rates)


_CONTROLLERS = {
    "udt": lambda bandwidth: UdtCc(0.02, bandwidth),
    "tcp": lambda bandwidth: TcpCc(0.02),
    # pushed like tcp, but shares the udp pool (and is a scavenger)
    "ledbat": lambda bandwidth: LedbatCc(0.02, bandwidth),
}


def _twin_flows(sim, direction, kinds, bandwidth):
    """Real flows (``FlowState`` over real controllers) on ``direction``."""
    return [
        FlowState(sim, direction, _CONTROLLERS[kind](bandwidth),
                  rng_source=lambda: Random(0), deliver=lambda msg: None)
        for kind in kinds
    ]


#: (operation, flow index, bytes credited, clock advance); "syn" moves the
#: clock exactly onto the next SYN boundary, ``_last_increase + SYN``, of
#: the UDT flow whose boundary comes first
_step = st.tuples(
    st.sampled_from(["query", "query", "publish", "publish", "loss",
                     "activate", "deactivate", "advance", "syn"]),
    st.integers(0, 5),
    st.sampled_from([1448, 65536, 1 << 20]),
    st.sampled_from([0.0, 1e-4, 0.005, 0.01, 0.0100001, 0.3]),
)


class TestSkipRuleTwins:
    """The cached path asks a UDT controller at most once per SYN interval
    and takes pushed demands in place; its twin asks every controller at
    every query (``_allocate_general``).  Rates and UDT state must agree."""

    @given(
        st.lists(st.sampled_from(["udt", "tcp", "tcp", "ledbat"]), min_size=2, max_size=6),
        st.sampled_from([2e5, 2e6, 1e8]),
        st.one_of(st.none(), st.just(3e5)),
        st.lists(_step, min_size=1, max_size=60),
    )
    # a pushed demand outgrows the link (the "fits" test goes stale); one
    # grows the udp pool's capping; the clock lands on a SYN boundary
    @example(["tcp", "tcp"], 2e6, None,
             [("query", 0, 0, 0), ("publish", 0, 65536, 0), ("query", 0, 0, 0)])
    @example(["udt", "ledbat"], 2e6, 3e5,
             [("query", 0, 0, 0), ("publish", 1, 1 << 20, 0), ("query", 0, 0, 0)])
    @example(["udt", "tcp"], 1e8, None,
             [("query", 0, 0, 0), ("syn", 0, 0, 0), ("query", 0, 0, 0)])
    @settings(max_examples=400, deadline=None)
    def test_cached_and_general_twins_stay_bit_equal(self, kinds, bandwidth, udp_cap, steps):
        sim = Simulator()
        spec = LinkSpec(bandwidth, 0.01, udp_cap=udp_cap)
        fast_dir, ref_dir = _direction(spec), _direction(spec)
        fast = _twin_flows(sim, fast_dir, kinds, bandwidth)
        ref = _twin_flows(sim, ref_dir, kinds, bandwidth)
        for f in fast + ref:
            f.link_dir.activate(f)
        for step in steps:
            op, i, nbytes, dt = step
            now = sim.now
            twins = (fast[i % len(kinds)], ref[i % len(kinds)])
            if op == "advance":
                sim.run_until(now + dt)
            elif op == "syn":
                boundaries = [f.cc._last_increase + UdtCc.SYN for f in fast
                              if isinstance(f.cc, UdtCc) and f.cc._last_increase > -math.inf]
                if boundaries and min(boundaries) > now:
                    sim.run_until(min(boundaries))
            elif op == "query":
                rates = [fast_dir.allocate_rate(f) for f in fast]
                expected = [ref_dir._allocate_general(f) for f in ref]
                assert _bits(rates) == _bits(expected), step
            elif op == "activate":
                for f in twins:
                    f.link_dir.activate(f)
            elif op == "deactivate":
                for f in twins:
                    f.link_dir.deactivate(f)
            else:
                for f in twins:
                    gen = f.cc.demand_gen
                    if op == "loss":
                        f.cc.on_loss(now)
                    else:
                        f.cc.on_bytes_sent(nbytes, now)
                    if f.cc.demand_gen != gen:
                        f.publish_demand()
            for f, twin in zip(fast, ref):
                if isinstance(f.cc, UdtCc):
                    assert (f.cc.rate, f.cc._last_increase) == (
                        twin.cc.rate, twin.cc._last_increase), step


class TestEpochCacheInvalidation:
    def _two_flow_direction(self):
        sim = Simulator()
        direction = _direction()
        f0 = _StubFlow(sim, 30 * MB)
        f1 = _StubFlow(sim, 90 * MB)
        direction.activate(f0)
        direction.activate(f1)
        return direction, f0, f1

    def test_pushed_demands_are_never_queried(self):
        direction, f0, f1 = self._two_flow_direction()
        first = direction.allocate_rate(f0)
        assert direction.allocate_rate(f1) == 70 * MB  # min(90, 100 - 30)
        assert direction.allocate_rate(f0) == first
        # Time-invariant controllers publish; the link reads the float.
        assert f0.queries + f1.queries == 0
        assert direction._allocate_general(f1) == 70 * MB
        assert f0.queries + f1.queries == 2  # the general solve pulls

    def test_spec_change_mid_flight_invalidates(self):
        direction, f0, f1 = self._two_flow_direction()
        direction.allocate_rate(f0)
        epoch = direction._epoch
        direction.update_spec(LinkSpec(40 * MB, 0.01))
        assert direction._epoch == epoch + 1
        # The new bandwidth must be visible immediately: 40 MB/s shared
        # max-min between 30 and 90 MB/s demands -> 20/20.
        assert direction.allocate_rate(f0) == 20 * MB
        assert direction.allocate_rate(f1) == 20 * MB

    def test_published_demand_invalidates(self):
        direction, f0, f1 = self._two_flow_direction()
        assert direction.allocate_rate(f0) == 30 * MB
        f0.demand = 80 * MB
        # Without the push the link still holds the old value; the
        # contract is that FlowState publishes whenever a time-invariant
        # controller's demand_gen moves.
        assert direction.allocate_rate(f0) == 30 * MB
        direction.publish_demand(f0, 80 * MB)
        assert direction.allocate_rate(f0) == 50 * MB
        assert direction.allocate_rate(f1) == 50 * MB

    def test_partition_rebuild_reads_published_demand(self):
        direction, f0, f1 = self._two_flow_direction()
        f2 = _StubFlow(f0.sim, 10 * MB)
        direction.allocate_rate(f0)
        direction.publish_demand(f0, 80 * MB)
        f0.demand = 80 * MB  # what FlowState.publish_demand stores
        direction.activate(f2)  # a set change: a new epoch over the edited partition
        assert direction.allocate_rate(f0) == 45 * MB  # (100 - 10) / 2

    def test_deactivate_invalidates(self):
        direction, f0, f1 = self._two_flow_direction()
        direction.allocate_rate(f0)
        direction.deactivate(f1)
        # Sole remaining flow gets its full demand, not the stale share.
        assert direction.allocate_rate(f0) == 30 * MB
        assert f1 not in direction.active_flows

    def test_time_varying_cache_is_timestamp_scoped(self):
        sim = Simulator()
        direction = _direction()
        f0 = _StubFlow(sim, 30 * MB)
        f1 = _StubFlow(sim, 90 * MB, time_varying=True)
        direction.activate(f0)
        direction.activate(f1)
        direction.allocate_rate(f0)
        assert (f0.queries, f1.queries) == (0, 1)  # only the pulled one
        direction.allocate_rate(f1)  # same timestamp: cache hit
        assert (f0.queries, f1.queries) == (0, 1)
        sim.schedule(1.0, lambda: None)
        sim.run()
        direction.allocate_rate(f1)  # clock moved: must ask again
        assert (f0.queries, f1.queries) == (0, 2)

    def test_abort_during_train_invalidates_epoch(self):
        # Integration: two competing connections, one closed mid-transfer
        # while its deliveries are still in the RX train.  The abort must
        # deactivate the flow (epoch bump) so the survivor's next
        # allocation sees the whole link.
        sim = Simulator()
        net, a, b = make_pair(sim, bandwidth=10 * MB, delay=0.05)
        sink = Sink(sim)
        b.stack.listen(7000, Proto.TCP, on_accept=sink.on_accept)
        c1 = a.stack.connect((b.ip, 7000), Proto.TCP)
        c2 = a.stack.connect((b.ip, 7000), Proto.TCP)
        for i in range(40):
            c1.send(WireMessage(("c1", i), 64 * 1024))
            c2.send(WireMessage(("c2", i), 64 * 1024))
        link_dir = c1.flow.link_dir
        epochs = []

        def cut():
            epochs.append(link_dir._epoch)
            assert c2.flow._train or c2.flow.queue  # genuinely mid-flight
            c2.close()
            epochs.append(link_dir._epoch)

        sim.schedule(0.3, cut)
        sim.run()
        assert epochs[1] > epochs[0]
        assert c2.flow not in link_dir.active_flows
        # The survivor finished untouched by the stale two-flow epoch.
        c1_payloads = [p for p in sink.payloads if p[0] == "c1"]
        assert len(c1_payloads) == 40
        assert c1.flow.messages_dropped == 0


class TestOutsideWrites:
    """``update_spec`` + ``refresh_rtts``: state written from outside the
    controller must reach the pushed demands (docs/congestion.md)."""

    FLOWS = 4

    def _run(self):
        sim = Simulator()
        net, a, b = make_pair(sim, bandwidth=20 * MB, delay=0.02)
        sink = Sink(sim)
        b.stack.listen(7000, Proto.TCP, on_accept=sink.on_accept)
        b.stack.listen(7001, Proto.UDT, on_accept=sink.on_accept)
        conns = [a.stack.connect((b.ip, 7000), Proto.TCP) for _ in range(self.FLOWS - 1)]
        conns.append(a.stack.connect((b.ip, 7001), Proto.UDT))
        for i in range(60):
            for c, conn in enumerate(conns):
                conn.send(WireMessage((c, i), 64 * 1024))
        probe = {}

        def degrade():
            link = net.link_between(a.ip, b.ip)
            flows = [conn.flow for conn in conns]
            probe["active"] = len(link.forward.active_flows)
            before = [link.forward.allocate_rate(f) for f in flows]
            for direction in (link.forward, link.backward):
                direction.update_spec(LinkSpec(20 * MB, 0.2))
            assert net.refresh_rtts() >= self.FLOWS
            probe["published"] = [
                f.demand == f.cc.demand_rate(sim.now) for f in flows[:-1]
            ]
            fast = [link.forward.allocate_rate(f) for f in flows]
            ref = [link.forward._allocate_general(f) for f in flows]
            probe["rates"] = (before, fast, ref)

        sim.schedule(0.5, degrade)
        sim.run()
        return probe, sink.arrivals, sink.payloads

    def test_refresh_reaches_a_live_multi_flow_link(self):
        probe, arrivals, payloads = self._run()
        assert probe["active"] == self.FLOWS  # the many-flow solve, live
        assert all(probe["published"])
        before, fast, ref = probe["rates"]
        assert _bits(fast) == _bits(ref)
        assert fast != before  # the tenfold RTT did move the allocation
        assert len(payloads) == 60 * self.FLOWS
        with checking():  # every solve takes the general path
            _, ref_arrivals, ref_payloads = self._run()
        assert arrivals == ref_arrivals
        assert payloads == ref_payloads


class TestReferenceIsTheGeneralPath:
    """A checked run sends every query through ``_allocate_general``.  One
    link goes through a sole-flow phase, a two-flow phase and a 40-member
    udp pool, so the general solve is compared where it is the only answer."""

    POOL = 40

    def _run(self):
        sim = Simulator()
        net, a, b = make_pair(sim, bandwidth=20 * MB, delay=0.02, udp_cap=5 * MB)
        sink = Sink(sim)
        b.stack.listen(7000, Proto.TCP, on_accept=sink.on_accept)
        b.stack.listen(7001, Proto.UDT, on_accept=sink.on_accept)
        forward = net.link_between(a.ip, b.ip).forward
        phases = []

        def start(proto, port, tag, messages):
            conn = a.stack.connect((b.ip, port), proto)
            for i in range(messages):
                conn.send(WireMessage((tag, i), 64 * 1024))

        def probe():
            flows = forward.active_flows
            phases.append((len(flows), sum(f.subject_to_udp_cap for f in flows)))

        def start_pool():
            for n in range(self.POOL):
                start(Proto.UDT, 7001, ("pool", n), 8)

        # Same-time events run in scheduling order: probe, then the arrivals.
        start(Proto.TCP, 7000, "tcp", 400)
        sim.schedule(0.3, probe)
        sim.schedule(0.3, lambda: start(Proto.UDT, 7001, "udt", 60))
        sim.schedule(0.6, probe)
        sim.schedule(0.6, start_pool)
        sim.schedule(0.9, probe)
        sim.run()
        return phases, sink.arrivals, sink.payloads

    def test_sole_two_flow_and_pool_phases_match_the_reference(self):
        phases, arrivals, payloads = self._run()
        assert phases[0] == (1, 0)
        assert phases[1] == (2, 1)
        assert phases[2][1] >= self.POOL
        assert len(payloads) == 400 + 60 + 8 * self.POOL
        with checking():
            ref_phases, ref_arrivals, ref_payloads = self._run()
        assert phases == ref_phases
        assert arrivals == ref_arrivals
        assert payloads == ref_payloads


class TestCostCounters:
    def test_queries_solves_and_demand_queries(self):
        with collecting(MetricsRegistry()) as registry:
            sim = Simulator()
            direction = _direction()
            flows = [_StubFlow(sim, 10 * MB), _StubFlow(sim, 20 * MB),
                     _StubFlow(sim, 90 * MB, time_varying=True)]
            for f in flows:
                direction.activate(f)
            for f in flows:
                direction.allocate_rate(f)

            def value(name):
                return registry.value(f"netsim.link.{name}", link="t:a->b")

            # One epoch, one timestamp: one solve asks the one pulled flow.
            assert value("alloc_queries_total") == 3
            assert value("alloc_solves_total") == 1
            assert value("demand_queries_total") == 1
            # A pushed, non-udp demand is stored in place: no new solve.
            direction.publish_demand(flows[0], 15 * MB)
            direction.allocate_rate(flows[1])
            assert value("alloc_solves_total") == 1
            assert value("demand_queries_total") == 1
            direction._allocate_general(flows[1])  # the general solve pulls all three
            assert value("alloc_queries_total") == 4
            assert value("demand_queries_total") == 4
