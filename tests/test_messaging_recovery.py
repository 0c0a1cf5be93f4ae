"""Channel recovery: reconnect with backoff, queued sends, and fallback."""

import pytest

from repro.kompics import KompicsSystem
from repro.messaging import BasicAddress, NettyNetwork, Network, Transport
from repro.messaging.recovery import BASE_DELAY, MAX_ATTEMPTS, MAX_DELAY, QUEUE_LIMIT
from repro.netsim import FaultInjector, LinkSpec, SimNetwork
from repro.netsim.connection import ConnectionState
from repro.obs import collecting, tracing
from repro.sim import Simulator

from tests.messaging_helpers import (
    MIDDLEWARE_PORT,
    Collector,
    blob_registry,
    make_world,
)

pytestmark = pytest.mark.integration

RECOVERY_CONFIG = {
    "messaging.reconnect.enabled": True,
    "messaging.reconnect.jitter": 0.0,  # exact backoff schedule in asserts
}


def recovery_world():
    world = make_world(config=RECOVERY_CONFIG)
    # Keep the dial timeout well under the backoff cap so reconnect
    # campaigns, not dial timeouts, dominate the timelines below.
    world.fabric.connect_timeout = 0.5
    return world


class TestReconnect:
    def test_cut_channel_recovers_and_flushes_queued_sends(self):
        with collecting() as reg, tracing() as tracer:
            world = recovery_world()
            a, b = world.nodes
            a.app_def.send(b.address, "before")
            world.sim.run()
            assert [m.tag for m in b.app_def.received] == ["before"]

            FaultInjector(world.fabric).cut_link(a.host.ip, b.host.ip, duration=1.0)
            a.app_def.send(b.address, "during-1", notify=True)
            a.app_def.send(b.address, "during-2", notify=True)
            world.sim.run()

            tags = [m.tag for m in b.app_def.received]
            assert "during-1" in tags and "during-2" in tags
            assert [r.success for r in a.app_def.notifies] == [True, True]
            assert reg.total("messaging.reconnect.recovered_total") == 1
            assert reg.total("messaging.reconnect.attempts_total") >= 2
            assert tracer.named("messaging.reconnect_success")

    def test_backoff_follows_configured_schedule_then_gives_up(self):
        with collecting() as reg, tracing() as tracer:
            world = recovery_world()
            a, b = world.nodes
            a.app_def.send(b.address, "warm")
            world.sim.run()

            FaultInjector(world.fabric).cut_link(a.host.ip, b.host.ip)  # permanent
            a.app_def.send(b.address, "lost", notify=True)
            world.sim.run()

            delays = [
                r.fields["delay"]
                for r in tracer.named("messaging.reconnect_scheduled")
            ]
            # base * multiplier^attempt, capped, one per allowed attempt
            assert len(delays) == MAX_ATTEMPTS
            assert delays[:3] == [BASE_DELAY, 2 * BASE_DELAY, 4 * BASE_DELAY]
            assert delays[-1] == MAX_DELAY
            assert reg.total("messaging.reconnect.giveups_total") == 1
            assert tracer.named("messaging.reconnect_giveup")
            assert [r.success for r in a.app_def.notifies] == [False]
            assert not any(m.tag == "lost" for m in b.app_def.received)

    def test_failed_redials_count_each_attempt_exactly_once(self):
        # Every scheduled attempt dials, fails, and is counted once — no
        # double-counting between the dial callback and the campaign timer.
        with collecting() as reg:
            world = recovery_world()
            a, b = world.nodes
            a.app_def.send(b.address, "warm")
            world.sim.run()

            FaultInjector(world.fabric).cut_link(a.host.ip, b.host.ip)  # permanent
            a.app_def.send(b.address, "lost", notify=True)
            world.sim.run()

            assert reg.total("messaging.reconnect.attempts_total") == MAX_ATTEMPTS
            assert reg.total("messaging.reconnect.giveups_total") == 1
            assert reg.total("messaging.reconnect.recovered_total") == 0

    def test_queue_limit_fails_sends_beyond_bound(self):
        with collecting() as reg:
            world = recovery_world()
            a, b = world.nodes
            a.app_def.send(b.address, "warm")
            world.sim.run()

            FaultInjector(world.fabric).cut_link(a.host.ip, b.host.ip, duration=1.0)
            for i in range(QUEUE_LIMIT + 1):
                a.app_def.send(b.address, f"q{i}", notify=True)
            world.sim.run()

            outcomes = [r.success for r in a.app_def.notifies]
            assert outcomes.count(False) == 1  # the overflow send
            assert outcomes.count(True) == QUEUE_LIMIT  # flushed after recovery
            assert reg.total("messaging.reconnect.queue_drops_total") == 1
            tags = {m.tag for m in b.app_def.received}
            assert {f"q{i}" for i in range(QUEUE_LIMIT)} <= tags
            assert f"q{QUEUE_LIMIT}" not in tags

    def test_kill_mid_campaign_fails_parked_sends_once_and_stops_redialing(self):
        with collecting() as reg, tracing() as tracer:
            world = recovery_world()
            a, b = world.nodes
            a.app_def.send(b.address, "warm", notify=True)
            world.sim.run()

            FaultInjector(world.fabric).cut_link(a.host.ip, b.host.ip)  # permanent
            # A cold UDT dial into the dead link fails with its send and
            # starts a campaign; the next three sends park behind it.
            a.app_def.send(b.address, "first", transport=Transport.UDT, notify=True)
            world.sim.run_until(world.sim.now + 0.6)
            for i in range(3):
                a.app_def.send(b.address, f"parked-{i}", transport=Transport.UDT, notify=True)
            world.sim.run_until(world.sim.now + 0.3)
            assert reg.total("messaging.reconnect.attempts_total") >= 1
            world.system.kill(a.network)
            killed_at = world.sim.now
            world.sim.run()

            assert [r.success for r in a.app_def.notifies] == [True] + [False] * 4
            counters = a.net_def.counters
            assert (counters["sent"], counters["send_failures"]) == (1, 4)
            assert not [r for r in tracer.named("messaging.reconnect_attempt")
                        if r.time > killed_at]
            assert reg.total("messaging.reconnect.giveups_total") == 0
            assert not tracer.named("messaging.reconnect_giveup")

    def test_recovery_is_off_by_default_and_loses_outage_sends(self):
        world = make_world()
        world.fabric.connect_timeout = 0.5
        a, b = world.nodes
        assert a.net_def.campaigns is None
        a.app_def.send(b.address, "before")
        world.sim.run()

        FaultInjector(world.fabric).cut_link(a.host.ip, b.host.ip, duration=0.3)
        a.app_def.send(b.address, "during", notify=True)
        world.sim.run()
        # At-most-once floor: the outage send dialled into the dead link
        # and failed; nothing was queued or retried.
        assert [r.success for r in a.app_def.notifies] == [False]
        assert not any(m.tag == "during" for m in b.app_def.received)

        # A later send re-dials cold over the restored link and works.
        a.app_def.send(b.address, "after")
        world.sim.run()
        assert any(m.tag == "after" for m in b.app_def.received)

    def test_auto_restore_emits_metrics_and_middleware_reestablishes(self):
        with collecting() as reg, tracing() as tracer:
            world = recovery_world()
            a, b = world.nodes
            a.app_def.send(b.address, "warm")
            world.sim.run()

            FaultInjector(world.fabric).cut_link(a.host.ip, b.host.ip, duration=0.8)
            world.sim.run()
            # The injector restored the link itself and said so.
            assert reg.value("netsim.faults.link_restores_total") == 1
            restores = tracer.named("netsim.fault.link_restore")
            assert restores and restores[0].fields.get("auto") is True
            assert world.fabric.link_between(a.host.ip, b.host.ip).forward.up

            # The middleware re-established its channel without any new
            # application send: the reconnect campaign redialled it.
            assert reg.total("messaging.reconnect.recovered_total") == 1
            conn = a.net_def.channels.get((b.address.as_socket(), Transport.TCP))
            assert conn is not None and conn.state is ConnectionState.ACTIVE


class TestTransportFallback:
    def _world_without_udt_listener(self):
        """Two hosts; the target listens on TCP/UDP only, so UDT dials are
        refused — the repeatable stand-in for a protocol-selective outage."""
        sim = Simulator()
        fabric = SimNetwork(sim, seed=7)
        fabric.connect_timeout = 0.5
        system = KompicsSystem.simulated(
            sim,
            seed=7,
            config={
                "messaging.reconnect.enabled": True,
                "messaging.reconnect.jitter": 0.0,
                "messaging.fallback.enabled": True,
            },
        )
        h0 = fabric.add_host("h0", "10.0.0.1")
        h1 = fabric.add_host("h1", "10.0.0.2")
        fabric.connect_hosts(h0, h1, LinkSpec(100 * 1024 * 1024, 0.005))
        a_addr = BasicAddress(h0.ip, MIDDLEWARE_PORT)
        b_addr = BasicAddress(h1.ip, MIDDLEWARE_PORT)
        net_a = system.create(
            NettyNetwork, a_addr, h0, serializers=blob_registry(), name="net-a"
        )
        net_b = system.create(
            NettyNetwork, b_addr, h1,
            protocols=(Transport.TCP, Transport.UDP),
            serializers=blob_registry(), name="net-b",
        )
        app_a = system.create(Collector, a_addr, name="app-a")
        app_b = system.create(Collector, b_addr, name="app-b")
        system.connect(net_a.provided(Network), app_a.required(Network))
        system.connect(net_b.provided(Network), app_b.required(Network))
        for c in (net_a, net_b, app_a, app_b):
            system.start(c)
        sim.run()
        return sim, net_a, net_b, app_a.definition, b_addr, app_b.definition

    def test_exhausted_udt_campaign_degrades_pending_to_tcp(self):
        with collecting() as reg, tracing() as tracer:
            sim, net_a, _, app_a, b_addr, app_b = self._world_without_udt_listener()
            # First send cold-dials UDT; the refusal starts the campaign.
            app_a.send(b_addr, "first", transport=Transport.UDT, notify=True)
            sim.run_until(sim.now + 0.03)
            assert net_a.definition.campaigns
            # Sends during the campaign are queued, then degraded to TCP
            # once both re-dials are refused.
            app_a.send(b_addr, "rescued", transport=Transport.UDT, notify=True)
            sim.run()

            assert any(m.tag == "rescued" for m in app_b.received)
            assert reg.value("messaging.fallback.activations_total") == 1
            assert tracer.named("messaging.transport_fallback")
            down = (b_addr.as_socket(), Transport.UDT)
            assert down in net_a.definition._down
            # The rescued send was notified as successful; the first one
            # died with its cold dial (at-most-once).
            assert sorted(r.success for r in app_a.notifies) == [False, True]

    def test_udt_recovery_lifts_the_down_mark(self):
        with collecting():
            sim, net_a, net_b, app_a, b_addr, app_b = self._world_without_udt_listener()
            app_a.send(b_addr, "first", transport=Transport.UDT, notify=True)
            sim.run()
            down = (b_addr.as_socket(), Transport.UDT)
            assert down in net_a.definition._down
            # The peer starts listening on UDT; the next UDT send dials
            # cold, succeeds, and the Down mark is lifted.
            net_b.definition.host.stack.listen(
                MIDDLEWARE_PORT, Transport.UDT.to_proto(),
                on_accept=net_b.definition._on_accept,
            )
            app_a.send(b_addr, "retry", transport=Transport.UDT, notify=True)
            sim.run()
            assert down not in net_a.definition._down
            assert any(m.tag == "retry" for m in app_b.received)


class TestInterceptorFallback:
    def test_transport_down_steers_releases_to_tcp_until_lifted(self):
        from repro.core import ProtocolRatio, StaticRatio
        from repro.messaging import TransportStatus

        from tests.test_core_interceptor import make_data_world, send_data

        with collecting() as reg:
            sim, fabric, system, nodes = make_data_world(
                prp_factory=lambda: StaticRatio(ProtocolRatio.ALL_UDT), window=4
            )
            (h0, a0, dn0, app0), (h1, a1, dn1, app1) = nodes
            icept = dn0.definition.interceptor_def
            send_data(app0, a0, a1, "prime")
            sim.run_until(0.5)

            # The recovery layer reports UDT towards a1 as down; the flow
            # must release over TCP even though the PSP prescribes UDT.
            icept._on_transport_down(
                TransportStatus.Down(a1.as_socket(), Transport.UDT, "test")
            )
            for i in range(10):
                send_data(app0, a0, a1, f"held-{i}")
            sim.run_until(1.5)
            held = [m for m in app1.definition.received if m.tag.startswith("held-")]
            assert len(held) == 10
            assert all(m.header.protocol is Transport.TCP for m in held)
            assert reg.total("rl.flow.fallback_overrides_total") == 10

            # An Up indication lifts the hold: prescriptions flow again.
            icept._on_transport_up(TransportStatus.Up(a1.as_socket(), Transport.UDT))
            for i in range(5):
                send_data(app0, a0, a1, f"lifted-{i}")
            sim.run_until(2.5)
            lifted = [m for m in app1.definition.received if m.tag.startswith("lifted-")]
            assert lifted
            assert all(m.header.protocol is Transport.UDT for m in lifted)

    def test_down_event_reaches_interceptor_through_data_network_wiring(self):
        from repro.messaging import TransportStatus

        from tests.test_core_interceptor import make_data_world

        sim, fabric, system, nodes = make_data_world()
        (h0, a0, dn0, app0), (h1, a1, dn1, app1) = nodes
        netty = dn0.definition.network_def
        netty.trigger(
            TransportStatus.Down(a1.as_socket(), Transport.UDT, "test"), netty.net
        )
        sim.run_until(0.2)
        icept = dn0.definition.interceptor_def
        assert (a1.as_socket(), Transport.UDT) in icept._transport_down


class TestChannelRegressions:
    def test_send_disarms_stale_conn_before_replacing(self):
        # Regression: a dead channel still in the map was silently
        # overwritten with its on_closed/on_failed still armed for the same
        # key — a late firing could evict the *replacement* or start a
        # spurious recovery campaign that parked healthy traffic.
        world = make_world()
        a, b = world.nodes
        a.app_def.send(b.address, "warm")
        world.sim.run()

        key = (b.address.as_socket(), Transport.TCP)
        channels = a.net_def.channels
        old_conn = channels[key]
        assert old_conn.on_closed is not None
        # Simulate a connection that died without its callbacks firing.
        old_conn.state = ConnectionState.FAILED

        a.app_def.send(b.address, "after")
        world.sim.run_until(world.sim.now + 0.001)  # the send, not its 5 ms handshake
        replacement = channels[key]
        assert replacement is not old_conn
        # The stale conn is fully disarmed: a late close/fail can no longer
        # reach _channel_lost for this key.
        assert old_conn.on_closed is None
        assert old_conn.on_failed is None

        world.sim.run()
        assert channels.get(key) is replacement  # replacement survived
        assert any(m.tag == "after" for m in b.app_def.received)
