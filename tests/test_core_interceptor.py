"""Integration tests: DataNetwork + interceptor over the full stack."""

import random
from fractions import Fraction

import pytest

from repro.core import DataNetwork, PatternSelection, ProtocolRatio, StaticRatio, TDRatioLearner
from repro.kompics import KompicsSystem
from repro.messaging import (
    BasicAddress,
    BasicHeader,
    DataHeader,
    MessageNotify,
    Network,
    Transport,
)
from repro.netsim import LinkSpec, SimNetwork
from repro.sim import Simulator

from tests.messaging_helpers import MB, MIDDLEWARE_PORT, Blob, Collector, blob_registry


def make_data_world(
    psp_factory=None,
    prp_factory=None,
    bandwidth=20 * MB,
    delay=0.0015,
    udp_cap=2 * MB,
    window=16,
    seed=9,
):
    """Two hosts with DataNetwork stacks (VPC-like: TCP much faster)."""
    sim = Simulator()
    fabric = SimNetwork(sim, seed=seed)
    system = KompicsSystem.simulated(sim, seed=seed)
    nodes = []
    hosts = [fabric.add_host(f"h{i}", f"10.0.0.{i + 1}") for i in range(2)]
    fabric.connect_hosts(hosts[0], hosts[1], LinkSpec(bandwidth, delay, udp_cap=udp_cap))
    for i, host in enumerate(hosts):
        address = BasicAddress(host.ip, MIDDLEWARE_PORT)
        dn = system.create(
            DataNetwork,
            address,
            host,
            psp_factory=psp_factory,
            prp_factory=prp_factory,
            window_messages=window,
            serializers=blob_registry(),
            name=f"data-net-{i}",
        )
        app = system.create(Collector, address, name=f"app-{i}")
        dn.definition.connect_consumer(app.definition.net)
        system.start(dn)
        system.start(app)
        nodes.append((host, address, dn, app))
    sim.run_until(0.1)
    return sim, fabric, system, nodes


def send_data(app, src, dst, tag, nbytes=20000, notify=False):
    msg = Blob(DataHeader(src, dst), tag, nbytes)
    if notify:
        app.definition.trigger(MessageNotify.Req(msg), app.definition.net)
    else:
        app.definition.trigger(msg, app.definition.net)
    return msg


class TestDataDelivery:
    def test_data_messages_arrive_with_wire_protocol(self):
        sim, fabric, system, nodes = make_data_world(
            prp_factory=lambda: StaticRatio(ProtocolRatio.FIFTY_FIFTY)
        )
        (h0, a0, dn0, app0), (h1, a1, dn1, app1) = nodes
        for i in range(20):
            send_data(app0, a0, a1, f"m{i}")
        sim.run_until(5.0)
        received = app1.definition.received
        assert len(received) == 20
        protocols = {m.header.protocol for m in received}
        assert Transport.DATA not in protocols
        assert protocols == {Transport.TCP, Transport.UDT}

    def test_pattern_selection_hits_exact_ratio(self):
        sim, fabric, system, nodes = make_data_world(
            psp_factory=PatternSelection,
            prp_factory=lambda: StaticRatio(ProtocolRatio(Fraction(1, 4))),
        )
        (h0, a0, dn0, app0), (h1, a1, dn1, app1) = nodes
        for i in range(40):
            send_data(app0, a0, a1, f"m{i}")
        sim.run_until(5.0)
        protocols = [m.header.protocol for m in app1.definition.received]
        assert protocols.count(Transport.UDT) == 10
        assert protocols.count(Transport.TCP) == 30

    def test_consumer_notify_for_data_messages(self):
        sim, fabric, system, nodes = make_data_world()
        (h0, a0, dn0, app0), (h1, a1, dn1, app1) = nodes
        send_data(app0, a0, a1, "tracked", notify=True)
        sim.run_until(5.0)
        assert len(app0.definition.notifies) == 1
        assert app0.definition.notifies[0].success

    def test_non_data_bypasses_interceptor(self):
        sim, fabric, system, nodes = make_data_world()
        (h0, a0, dn0, app0), (h1, a1, dn1, app1) = nodes
        msg = Blob(BasicHeader(a0, a1, Transport.TCP), "direct", 500)
        app0.definition.trigger(msg, app0.definition.net)
        sim.run_until(5.0)
        assert [m.tag for m in app1.definition.received] == ["direct"]
        assert dn0.definition.interceptor_def.flows == {}

    def test_no_duplicate_deliveries(self):
        sim, fabric, system, nodes = make_data_world()
        (h0, a0, dn0, app0), (h1, a1, dn1, app1) = nodes
        send_data(app0, a0, a1, "once")
        msg = Blob(BasicHeader(a0, a1, Transport.TCP), "direct-once", 500)
        app0.definition.trigger(msg, app0.definition.net)
        sim.run_until(5.0)
        tags = [m.tag for m in app1.definition.received]
        assert sorted(tags) == ["direct-once", "once"]

    def test_flows_created_per_destination(self):
        sim = Simulator()
        fabric = SimNetwork(sim, seed=3)
        system = KompicsSystem.simulated(sim, seed=3)
        hosts = [fabric.add_host(f"h{i}", f"10.0.1.{i + 1}") for i in range(3)]
        for i in range(1, 3):
            fabric.connect_hosts(hosts[0], hosts[i], LinkSpec(10 * MB, 0.002))
        addresses = [BasicAddress(h.ip, MIDDLEWARE_PORT) for h in hosts]
        dn = system.create(DataNetwork, addresses[0], hosts[0], serializers=blob_registry())
        app = system.create(Collector, addresses[0])
        dn.definition.connect_consumer(app.definition.net)
        system.start(dn)
        system.start(app)
        # Plain NettyNetwork receivers on the other two hosts.
        from repro.messaging import NettyNetwork

        for i in (1, 2):
            net = system.create(NettyNetwork, addresses[i], hosts[i], serializers=blob_registry())
            peer = system.create(Collector, addresses[i])
            system.connect(net.provided(Network), peer.definition.net)
            system.start(net)
            system.start(peer)
        sim.run_until(0.1)
        send_data(app, addresses[0], addresses[1], "to-1")
        send_data(app, addresses[0], addresses[2], "to-2")
        sim.run_until(5.0)
        assert len(dn.definition.interceptor_def.flows) == 2


class TestEpisodesAndTelemetry:
    def test_episode_ticks_record_telemetry(self):
        sim, fabric, system, nodes = make_data_world()
        (h0, a0, dn0, app0), (h1, a1, dn1, app1) = nodes
        for i in range(200):
            send_data(app0, a0, a1, f"m{i}", nbytes=60000)
        sim.run_until(3.5)
        flow = dn0.definition.interceptor_def.flow_to(a1.ip, a1.port)
        assert flow is not None
        assert len(flow.telemetry.throughput.values) == 3  # ticks at 1s, 2s, 3s
        assert flow.telemetry.throughput.values[1] > 0

    @pytest.mark.integration
    def test_td_learner_shifts_traffic_toward_tcp(self):
        """On a TCP-favouring link the learner must converge near all-TCP
        (the Figure 5/6 behaviour, scaled down)."""
        rng = random.Random(12)
        sim, fabric, system, nodes = make_data_world(
            psp_factory=PatternSelection,
            prp_factory=lambda: TDRatioLearner(
                rng, "approx", epsilon_max=0.5, epsilon_decay=0.01
            ),
            seed=12,
            bandwidth=20 * MB,
            udp_cap=2 * MB,
            window=32,
        )
        (h0, a0, dn0, app0), (h1, a1, dn1, app1) = nodes

        # Saturating source: keep the flow busy for the whole run.
        import itertools

        counter = itertools.count()

        def top_up():
            flow = dn0.definition.interceptor_def.flow_to(a1.ip, a1.port)
            backlog = len(flow._queue) if flow is not None else 0
            for _ in range(200 - backlog):
                send_data(app0, a0, a1, f"m{next(counter)}", nbytes=60000)
            sim.schedule(0.5, top_up)

        top_up()
        sim.run_until(90.0)
        flow = dn0.definition.interceptor_def.flow_to(a1.ip, a1.port)
        prescribed = flow.telemetry.ratio_prescribed.values
        assert len(prescribed) >= 80
        tail = prescribed[-10:]
        assert sum(tail) / len(tail) < -0.5, f"learner did not favour TCP: {tail}"
        # Throughput in the last episodes approaches the TCP-only link rate.
        tail_thr = flow.telemetry.throughput.values[-10:]
        assert sum(tail_thr) / len(tail_thr) > 15 * MB
