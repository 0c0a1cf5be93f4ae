import pytest

from repro.errors import ComponentError
from repro.kompics.component import ComponentState
from repro.messaging import (
    BasicAddress,
    BasicHeader,
    NettyNetwork,
    Network,
    Transport,
)
from repro.netsim import FaultInjector

from tests.messaging_helpers import MB, MIDDLEWARE_PORT, Blob, Collector, blob_registry, make_world


class TestBasicDelivery:
    def test_tcp_message_delivered(self):
        world = make_world()
        a, b = world.nodes
        a.app_def.send(b.address, "hello", transport=Transport.TCP)
        world.sim.run()
        assert [m.tag for m in b.app_def.received] == ["hello"]

    def test_udt_message_delivered(self):
        world = make_world()
        a, b = world.nodes
        a.app_def.send(b.address, "bulk", nbytes=60000, transport=Transport.UDT)
        world.sim.run()
        assert [m.tag for m in b.app_def.received] == ["bulk"]

    def test_udp_message_delivered(self):
        world = make_world()
        a, b = world.nodes
        a.app_def.send(b.address, "dgram", transport=Transport.UDP)
        world.sim.run()
        assert [m.tag for m in b.app_def.received] == ["dgram"]

    def test_fifo_order_over_tcp(self):
        world = make_world()
        a, b = world.nodes
        for i in range(50):
            a.app_def.send(b.address, f"m{i}")
        world.sim.run()
        assert [m.tag for m in b.app_def.received] == [f"m{i}" for i in range(50)]

    def test_reply_reuses_inbound_channel(self):
        world = make_world()
        a, b = world.nodes
        a.app_def.send(b.address, "ping")
        world.sim.run()
        b.app_def.send(a.address, "pong")
        world.sim.run()
        assert [m.tag for m in a.app_def.received] == ["pong"]
        # b never dialled out: its only TCP connection is the accepted one.
        outbound = [c for c in b.host.stack.connections if c.local[1] != MIDDLEWARE_PORT]
        assert outbound == []

    def test_message_to_unknown_destination_fails_notify(self):
        world = make_world()
        a, b = world.nodes
        ghost = BasicAddress("10.0.0.99", MIDDLEWARE_PORT)
        with pytest.raises(Exception):
            a.app_def.send(ghost, "void", notify=True)
            world.sim.run()

    def test_per_message_transport_choice_on_same_destination(self):
        """The headline feature: different transports, same peer, same port."""
        world = make_world()
        a, b = world.nodes
        a.app_def.send(b.address, "t", transport=Transport.TCP)
        a.app_def.send(b.address, "u", transport=Transport.UDT)
        a.app_def.send(b.address, "d", transport=Transport.UDP)
        world.sim.run()
        assert sorted(m.tag for m in b.app_def.received) == ["d", "t", "u"]
        # Three distinct channels in a's map (tcp, udt, udp).
        assert len(a.net_def.channels) == 3


class TestMessageNotify:
    def test_success_notification(self):
        world = make_world()
        a, b = world.nodes
        msg = a.app_def.send(b.address, "tracked", nbytes=5000, notify=True)
        world.sim.run()
        assert len(a.app_def.notifies) == 1
        resp = a.app_def.notifies[0]
        assert resp.success
        assert resp.size >= 5000
        assert resp.sent_at > 0

    def test_fire_and_forget_produces_no_notify(self):
        world = make_world()
        a, b = world.nodes
        a.app_def.send(b.address, "quiet")
        world.sim.run()
        assert a.app_def.notifies == []

    def test_failure_notification_on_link_cut(self):
        world = make_world(bandwidth=1 * MB)
        a, b = world.nodes
        injector = FaultInjector(world.fabric)
        for i in range(50):
            a.app_def.send(b.address, f"m{i}", nbytes=60000, notify=True)
        world.sim.schedule(1.0, lambda: injector.cut_link(a.address.ip, b.address.ip))
        world.sim.run()
        outcomes = [r.success for r in a.app_def.notifies]
        assert outcomes.count(False) > 0, "queued messages must fail on channel drop"
        assert outcomes.count(True) > 0
        # At-most-once: nothing received beyond what was reported sent.
        assert len(b.app_def.received) <= outcomes.count(True)


class TestValidationFaults:
    def test_data_transport_without_interceptor_faults(self):
        world = make_world()
        a, b = world.nodes
        a.app_def.send(b.address, "x", transport=Transport.DATA)
        with pytest.raises(ComponentError):
            world.sim.run()

    def test_oversized_message_faults(self):
        """An oversized frame faults the *message*, never the component.

        (It used to fault the component and leak the notifies queued
        behind it: 3 requested, 1 resolved.  Both backends share this
        contract now; tests/test_network_contract.py runs it on each.)
        """
        world = make_world()
        a, b = world.nodes
        a.app_def.send(b.address, "before", notify=True)
        a.app_def.send(b.address, "big", nbytes=200_000, notify=True)
        a.app_def.send(b.address, "after", notify=True)
        world.sim.run()
        assert [r.success for r in a.app_def.notifies] == [False, True, True]
        assert a.network.state is ComponentState.ACTIVE
        assert a.net_def.counters["send_failures"] == 1
        assert [m.tag for m in b.app_def.received] == ["before", "after"]

    def test_constructor_rejects_data_listener(self):
        world = make_world()
        with pytest.raises(Exception):
            world.system.create(
                NettyNetwork,
                world.nodes[0].address,
                world.nodes[0].host,
                protocols=(Transport.DATA,),
            )

    def test_constructor_rejects_mismatched_host(self):
        world = make_world()
        wrong = BasicAddress("1.2.3.4", 999)
        with pytest.raises(Exception):
            world.system.create(NettyNetwork, wrong, world.nodes[0].host)


class TestReflection:
    """Same-instance reflection is in ``test_network_contract.py``."""

    def test_same_host_different_port_goes_over_loopback(self):
        """Two middleware instances on one machine: no reflection."""
        world = make_world(n_hosts=1)
        node = world.nodes[0]
        second_addr = BasicAddress(node.address.ip, MIDDLEWARE_PORT + 1)
        network2 = world.system.create(
            NettyNetwork, second_addr, node.host, serializers=blob_registry(), name="net-second"
        )
        app2 = world.system.create(Collector, second_addr, name="app-second")
        world.system.connect(network2.provided(Network), app2.required(Network))
        world.system.start(network2)
        world.system.start(app2)
        world.sim.run()

        node.app_def.send(second_addr, "cross-instance")
        world.sim.run()
        assert [m.tag for m in app2.definition.received] == ["cross-instance"]
        assert node.net_def.counters["reflected"] == 0
        assert node.net_def.counters["sent"] == 1


class TestChannelLifecycle:
    def test_channels_kept_open_between_sends(self):
        world = make_world()
        a, b = world.nodes
        a.app_def.send(b.address, "one")
        world.sim.run()
        first = len(a.host.stack.connections)
        a.app_def.send(b.address, "two")
        world.sim.run()
        assert len(a.host.stack.connections) == first  # reused, not re-dialled

    def test_kill_closes_channels_and_listeners(self):
        world = make_world()
        a, b = world.nodes
        a.app_def.send(b.address, "one")
        world.sim.run()
        world.system.kill(a.network)
        world.sim.run()
        assert a.network.state is ComponentState.DESTROYED
        assert len(a.net_def.channels) == 0
        # New inbound connections are refused after unlisten.
        b.app_def.send(a.address, "late", notify=True)
        world.sim.run()
        assert [r.success for r in b.app_def.notifies] == [False]

    def test_channel_reestablished_after_link_restore(self):
        world = make_world()
        a, b = world.nodes
        injector = FaultInjector(world.fabric)
        a.app_def.send(b.address, "before")
        world.sim.run()
        injector.cut_link(a.address.ip, b.address.ip, duration=1.0)
        world.sim.run()
        a.app_def.send(b.address, "after")
        world.sim.run()
        assert [m.tag for m in b.app_def.received] == ["before", "after"]


class TestRoutedChannelReuse:
    def test_inbound_channel_registered_under_peer_not_logical_source(self):
        """Regression: with RoutingHeader, a relayed message's header source
        names the ORIGINAL sender.  The relay's connection must not be
        registered under that address, or replies to the original sender
        get delivered to the relay instead."""
        from repro.messaging import Route, RoutingHeader

        world = make_world(n_hosts=3)
        a, b, c = world.nodes

        # a -> (via b) -> c: craft the routed blob manually.
        base = BasicHeader(a.address, c.address, Transport.TCP)
        hop1 = Blob.__new__(Blob)
        Blob.__init__(hop1, RoutingHeader(base, Route(a.address, [b.address, c.address])), "routed", 200)
        a.app_def.trigger(hop1, a.app_def.net)
        world.sim.run()
        # b saw it and forwards the advanced-route copy to c.
        routed = [m for m in b.app_def.received if m.tag == "routed"]
        assert routed
        fwd = Blob.__new__(Blob)
        Blob.__init__(fwd, routed[0].header.next_hop(), "routed", 200)
        b.app_def.trigger(fwd, b.app_def.net)
        world.sim.run()
        assert any(m.tag == "routed" for m in c.app_def.received)

        # c replies to the ORIGINAL source (a). It must reach a, not b.
        c.app_def.send(a.address, "reply-to-origin")
        world.sim.run()
        assert any(m.tag == "reply-to-origin" for m in a.app_def.received)
        assert not any(m.tag == "reply-to-origin" for m in b.app_def.received)


class TestIdleChannelReaping:
    def test_disabled_by_default(self):
        # There is no idle reaping (§III-C: re-establishment is expensive):
        # a channel stays pooled for as long as the component lives.
        world = make_world()
        a, b = world.nodes
        a.app_def.send(b.address, "one")
        world.sim.run_until(300.0)
        assert len(a.net_def.channels) == 1  # conservative: kept open
