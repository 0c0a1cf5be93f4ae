"""Cross-cutting behaviour tests that didn't fit an existing module."""

import pytest

from repro.apps import FileReceiver, FileSender, SyntheticDataset, register_app_serializers
from repro.kompics import KompicsSystem
from repro.messaging import (
    BasicAddress,
    BasicHeader,
    MessageNotify,
    NettyNetwork,
    Network,
    Route,
    RoutingHeader,
    SerializerRegistry,
    Transport,
    VirtualNetworkChannel,
)
from repro.netsim import DiskModel, LinkSpec, SimNetwork
from repro.sim import Simulator

from tests.messaging_helpers import MB, MIDDLEWARE_PORT, Blob, Collector, make_world


class TestCompressionEndToEnd:
    """The Snappy pipeline stage shrinks wire bytes for compressible data,
    which shows up directly as higher disk-to-disk throughput (§V-A notes
    results would differ for compressible data)."""

    def transfer_time(self, compressibility: float) -> float:
        sim = Simulator()
        fabric = SimNetwork(sim, seed=4)
        system = KompicsSystem.simulated(sim, seed=4)
        a = fabric.add_host("a", "10.0.0.1", disk=DiskModel(sim))
        b = fabric.add_host("b", "10.0.0.2", disk=DiskModel(sim))
        fabric.connect_hosts(a, b, LinkSpec(10 * MB, 0.005))
        reg = lambda: register_app_serializers(SerializerRegistry())
        addr_a = BasicAddress(a.ip, MIDDLEWARE_PORT)
        addr_b = BasicAddress(b.ip, MIDDLEWARE_PORT)
        net_a = system.create(NettyNetwork, addr_a, a, serializers=reg())
        net_b = system.create(NettyNetwork, addr_b, b, serializers=reg())
        dataset = SyntheticDataset(size=8 * MB, compressibility=compressibility)
        sender = system.create(FileSender, addr_a, addr_b, dataset, transport=Transport.TCP)
        receiver = system.create(FileReceiver, addr_b)
        system.connect(net_a.provided(Network), sender.required(Network))
        system.connect(net_b.provided(Network), receiver.required(Network))
        for c in (net_a, net_b, receiver, sender):
            system.start(c)
        sim.run()
        assert sender.definition.duration is not None
        return sender.definition.duration

    def test_compressible_data_transfers_faster(self):
        incompressible = self.transfer_time(1.0)
        compressible = self.transfer_time(0.3)
        # ~0.3 ratio -> ~3x fewer wire bytes -> ~3x faster on the link.
        assert compressible < 0.5 * incompressible

    def test_snappy_floor_applies(self):
        # Hints below Snappy's ~25% floor gain nothing extra.
        at_floor = self.transfer_time(0.25)
        below_floor = self.transfer_time(0.05)
        assert below_floor == pytest.approx(at_floor, rel=0.01)


class TestTcpBufferConfig:
    def test_small_socket_buffers_cap_throughput(self):
        from tests.netsim_helpers import make_pair, run_transfer
        from repro.netsim import Proto
        from repro.netsim.congestion import TCP_BUFFER

        # A 1 s RTT on a 100 MB/s link: past slow start the 8 MiB socket
        # buffer, not the link, caps TCP at one TCP_BUFFER per RTT (the
        # paper's BDP collapse).
        sim = Simulator()
        net, a, b = make_pair(sim, bandwidth=100 * MB, delay=0.5)
        sink = run_transfer(sim, net, a, b, Proto.TCP, 64 * MB)
        steady = sink.arrivals[len(sink.arrivals) // 2:]
        rate = (len(steady) - 1) * 65536 / (steady[-1][0] - steady[0][0])
        assert rate == pytest.approx(TCP_BUFFER / 1.0, rel=0.01)
        assert sink.bytes_received == 64 * MB


class TestVnetNotifyBroadcast:
    def test_notify_responses_reach_all_vnodes(self):
        """Documented behaviour: Resp indications pass every vnode filter;
        consumers correlate by notify_id (broadcast-and-ignore)."""
        world = make_world(n_hosts=2)
        a, b = world.nodes
        apps = []
        vnc = VirtualNetworkChannel(world.system, a.network)
        for vid in (b"v1", b"v2"):
            vaddr = a.address.with_vnode(vid)
            app = world.system.create(Collector, vaddr, name=f"vn-{vid.decode()}")
            vnc.connect_vnode(app.definition.net, vid)
            world.system.start(app)
            apps.append(app.definition)
        world.sim.run()

        msg = Blob(BasicHeader(a.address.with_vnode(b"v1"), b.address, Transport.TCP), "out", 100)
        apps[0].trigger(MessageNotify.Req(msg), apps[0].net)
        world.sim.run()
        # Both vnodes observed the Resp; only notify_id tells them apart.
        assert len(apps[0].notifies) == 1
        assert len(apps[1].notifies) == 1


class TestProtocolReplacementErrors:
    def test_with_protocol_requires_replaceable_header(self):
        A = BasicAddress("10.0.0.1", 1000)
        B = BasicAddress("10.0.0.2", 1000)
        C = BasicAddress("10.0.0.3", 1000)
        routed = Blob(RoutingHeader(BasicHeader(A, C, Transport.TCP), Route(A, [B, C])), "x", 10)
        with pytest.raises(TypeError):
            routed.with_protocol(Transport.UDT)

    def test_with_protocol_preserves_payload_fields(self):
        A = BasicAddress("10.0.0.1", 1000)
        B = BasicAddress("10.0.0.2", 1000)
        original = Blob(BasicHeader(A, B, Transport.DATA), "tagged", 1234)
        clone = original.with_protocol(Transport.TCP)
        assert clone is not original
        assert clone.tag == "tagged" and clone.nbytes == 1234
        assert clone.header.protocol is Transport.TCP
        assert original.header.protocol is Transport.DATA
        assert clone.msg_id == original.msg_id  # same logical message


class TestCliFigures:
    @pytest.mark.integration
    def test_figures_fig1_smoke(self, capsys):
        from repro.cli import main

        assert main(["figures", "fig1"]) == 0
        out = capsys.readouterr().out
        assert "Figure 1" in out
        assert "3/100" in out
