"""The adaptive layer under faults: at-most-once end to end."""

import pytest

from repro.core import StaticRatio, ProtocolRatio
from repro.netsim import FaultInjector, LinkSpec
from repro.obs import collecting, tracing

from tests.messaging_helpers import MB
from tests.test_core_interceptor import make_data_world, send_data

pytestmark = pytest.mark.integration


class TestInterceptorUnderFaults:
    def test_link_cut_surfaces_failures_in_episode_stats(self):
        sim, fabric, system, nodes = make_data_world(
            prp_factory=lambda: StaticRatio(ProtocolRatio.FIFTY_FIFTY),
            bandwidth=2 * MB,
            udp_cap=1 * MB,
            window=8,
        )
        (h0, a0, dn0, app0), (h1, a1, dn1, app1) = nodes
        for i in range(100):
            send_data(app0, a0, a1, f"m{i}", nbytes=60000)
        injector = FaultInjector(fabric)
        sim.schedule(1.5, lambda: injector.cut_link(a0.ip, a1.ip))
        sim.run_until(3.0)

        flow = dn0.definition.interceptor_def.flow_to(a1.ip, a1.port)
        assert flow is not None
        # Failures were accounted; at-most-once — nothing retried.
        assert flow.total_messages > 0
        received = len(app1.definition.received)
        acked = flow.total_messages - len(flow._queue)
        assert received <= flow.total_messages
        assert len(app1.definition.received) < 100

    def test_flow_recovers_after_link_restore(self):
        sim, fabric, system, nodes = make_data_world(
            prp_factory=lambda: StaticRatio(ProtocolRatio.ALL_TCP),
            bandwidth=5 * MB,
            window=8,
        )
        (h0, a0, dn0, app0), (h1, a1, dn1, app1) = nodes
        injector = FaultInjector(fabric)
        for i in range(20):
            send_data(app0, a0, a1, f"first-{i}", nbytes=30000)
        sim.run_until(1.0)
        injector.cut_link(a0.ip, a1.ip, duration=1.0)
        sim.run_until(2.5)
        before = len(app1.definition.received)
        # New messages after restore flow again over a fresh channel.
        for i in range(20):
            send_data(app0, a0, a1, f"second-{i}", nbytes=30000)
        sim.run_until(6.0)
        assert len(app1.definition.received) > before
        assert any(m.tag.startswith("second-") for m in app1.definition.received)

    def test_cut_link_auto_restore_is_accounted_and_traffic_resumes(self):
        # cut_link(duration=...) restores the link itself; the injector
        # must account that restore like an explicit one, and the
        # middleware must be able to re-establish channels afterwards.
        with collecting() as reg, tracing() as tracer:
            sim, fabric, system, nodes = make_data_world(
                prp_factory=lambda: StaticRatio(ProtocolRatio.ALL_TCP),
                bandwidth=5 * MB,
                window=8,
            )
            (h0, a0, dn0, app0), (h1, a1, dn1, app1) = nodes
            injector = FaultInjector(fabric)
            link = injector.cut_link(a0.ip, a1.ip, duration=0.5)
            assert not link.forward.up
            sim.run_until(sim.now + 1.0)
            assert link.forward.up
            assert reg.value("netsim.faults.link_restores_total") == 1
            restores = tracer.named("netsim.fault.link_restore")
            assert restores and restores[0].fields.get("auto") is True

            for i in range(10):
                send_data(app0, a0, a1, f"post-{i}", nbytes=20000)
            sim.run_until(sim.now + 2.0)
            assert sum(
                1 for m in app1.definition.received if m.tag.startswith("post-")
            ) == 10

    def test_degrade_link_auto_restore_restores_original_specs(self):
        # degrade_link(duration=...) mirrors cut_link: it must restore
        # the exact specs the link had when the call was made, in both
        # directions, and account the restore.
        with collecting() as reg, tracing() as tracer:
            sim, fabric, system, nodes = make_data_world(
                prp_factory=lambda: StaticRatio(ProtocolRatio.ALL_TCP),
                bandwidth=5 * MB,
                window=8,
            )
            (h0, a0, dn0, app0), (h1, a1, dn1, app1) = nodes
            injector = FaultInjector(fabric)
            link = fabric.link_between(a0.ip, a1.ip)
            original = link.forward.spec
            degraded = LinkSpec(
                bandwidth=original.bandwidth / 4, delay=original.delay * 2, loss=0.02
            )
            injector.degrade_link(a0.ip, a1.ip, degraded, duration=0.5)
            assert link.forward.spec.bandwidth == original.bandwidth / 4
            assert link.backward.spec.loss == 0.02
            sim.run_until(sim.now + 1.0)
            assert link.forward.spec == original
            assert link.backward.spec == original
            assert reg.value("netsim.faults.link_restores_total") == 1
            restores = tracer.named("netsim.fault.link_degrade_restore")
            assert restores and restores[0].fields.get("auto") is True

    def test_consumer_notify_failure_propagates_through_interceptor(self):
        sim, fabric, system, nodes = make_data_world(
            prp_factory=lambda: StaticRatio(ProtocolRatio.ALL_TCP),
            bandwidth=1 * MB,
            window=4,
        )
        (h0, a0, dn0, app0), (h1, a1, dn1, app1) = nodes
        injector = FaultInjector(fabric)
        for i in range(50):
            send_data(app0, a0, a1, f"m{i}", nbytes=60000, notify=True)
        sim.schedule(1.0, lambda: injector.cut_link(a0.ip, a1.ip))
        sim.run_until(4.0)
        outcomes = [r.success for r in app0.definition.notifies]
        assert outcomes.count(True) > 0
        assert outcomes.count(False) > 0
