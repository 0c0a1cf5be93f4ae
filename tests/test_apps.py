"""Tests for the evaluation applications: datasets, serializers, transfer
and ping/pong over the simulated stack."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps import (
    DataChunkMsg,
    FileReceiver,
    FileSender,
    PingMsg,
    Pinger,
    Ponger,
    PongMsg,
    SyntheticDataset,
    register_app_serializers,
)
from repro.apps.filetransfer.chunks import PAPER_CHUNK_BYTES, TransferDone
from repro.apps.serializers import pack_header, packed_header_size, unpack_header
from repro.kompics import KompicsSystem, SimTimerComponent, Timer
from repro.messaging import (
    BasicAddress,
    BasicHeader,
    DataHeader,
    NettyNetwork,
    Network,
    SerializerRegistry,
    Transport,
)
from repro.netsim import DiskModel, LinkSpec, SimNetwork
from repro.sim import Simulator

MB = 1024 * 1024
A = BasicAddress("10.0.0.1", 34000)
B = BasicAddress("10.0.0.2", 34000)


class TestSyntheticDataset:
    def test_chunk_count_and_sizes(self):
        ds = SyntheticDataset(size=100_000, chunk_size=30_000)
        assert ds.total_chunks == 4
        assert [ds.chunk_length(i) for i in range(4)] == [30_000, 30_000, 30_000, 10_000]

    def test_exact_multiple(self):
        ds = SyntheticDataset(size=90_000, chunk_size=30_000)
        assert ds.total_chunks == 3
        assert ds.chunk_length(2) == 30_000

    def test_validation(self):
        with pytest.raises(ValueError):
            SyntheticDataset(size=0)
        with pytest.raises(ValueError):
            SyntheticDataset(size=10, compressibility=0.0)
        with pytest.raises(IndexError):
            SyntheticDataset(size=100, chunk_size=50).chunk_length(5)

    def test_paper_defaults(self):
        ds = SyntheticDataset()
        assert ds.size == 395 * MB
        assert ds.chunk_size == PAPER_CHUNK_BYTES


class TestAppSerializers:
    def registry(self):
        return register_app_serializers(SerializerRegistry(allow_pickle_fallback=False))

    def test_header_roundtrip(self):
        for header in (BasicHeader(A, B, Transport.UDT), DataHeader(A, B)):
            out, offset = unpack_header(pack_header(header))
            assert type(out) is type(header)
            assert out.source == A and out.destination == B
            assert out.protocol == header.protocol
            assert offset == packed_header_size(header)

    def test_ping_pong_roundtrip(self):
        reg = self.registry()
        ping = PingMsg(BasicHeader(A, B, Transport.TCP), 42, 1.5)
        out = reg.deserialize(reg.serialize(ping))
        assert isinstance(out, PingMsg)
        assert (out.seq, out.sent_at) == (42, 1.5)
        pong = PongMsg(BasicHeader(B, A, Transport.TCP), 42, 1.5)
        out = reg.deserialize(reg.serialize(pong))
        assert (out.seq, out.ping_sent_at) == (42, 1.5)

    def test_chunk_roundtrip_with_payload(self):
        reg = self.registry()
        chunk = DataChunkMsg(
            DataHeader(A, B), transfer_id=7, seq=3, length=5000,
            total_chunks=10, total_bytes=50_000, compressibility=0.5,
            payload=b"z" * 5000,
        )
        out = reg.deserialize(reg.serialize(chunk))
        assert out.payload == b"z" * 5000
        assert out.seq == 3 and out.transfer_id == 7
        assert out.compressibility == pytest.approx(0.5)
        assert isinstance(out.header, DataHeader)

    def test_chunk_wire_size_counts_virtual_payload(self):
        reg = self.registry()
        chunk = DataChunkMsg(DataHeader(A, B), 1, 0, 60_000, 10, 600_000)
        assert reg.wire_size(chunk) == len(reg.serialize(chunk))
        assert reg.wire_size(chunk) > 60_000

    def test_chunk_payload_length_mismatch(self):
        from repro.errors import SerializationError

        reg = self.registry()
        chunk = DataChunkMsg(DataHeader(A, B), 1, 0, 100, 1, 100, payload=b"xx")
        with pytest.raises(SerializationError):
            reg.serialize(chunk)

    def test_done_roundtrip(self):
        reg = self.registry()
        done = TransferDone(BasicHeader(B, A, Transport.TCP), 9, 12.25)
        out = reg.deserialize(reg.serialize(done))
        assert (out.transfer_id, out.completed_at) == (9, 12.25)

    @given(st.integers(min_value=0, max_value=2**31 - 1), st.floats(min_value=0, max_value=1e6))
    @settings(max_examples=50, deadline=None)
    def test_ping_roundtrip_property(self, seq, sent_at):
        reg = self.registry()
        ping = PingMsg(BasicHeader(A, B, Transport.UDP), seq, sent_at)
        out = reg.deserialize(reg.serialize(ping))
        assert out.seq == seq and out.sent_at == pytest.approx(sent_at)


def build_pair(bandwidth=50 * MB, delay=0.005, seed=11):
    sim = Simulator()
    fabric = SimNetwork(sim, seed=seed)
    system = KompicsSystem.simulated(sim, seed=seed)
    ha = fabric.add_host("a", A.ip, disk=DiskModel(sim))
    hb = fabric.add_host("b", B.ip, disk=DiskModel(sim))
    fabric.connect_hosts(ha, hb, LinkSpec(bandwidth, delay))
    registry = lambda: register_app_serializers(SerializerRegistry())
    net_a = system.create(NettyNetwork, A, ha, serializers=registry())
    net_b = system.create(NettyNetwork, B, hb, serializers=registry())
    system.start(net_a)
    system.start(net_b)
    return sim, system, (ha, net_a), (hb, net_b)


@pytest.mark.integration
class TestFileTransfer:
    def test_disk_to_disk_transfer_completes(self):
        sim, system, (ha, net_a), (hb, net_b) = build_pair()
        dataset = SyntheticDataset(size=4 * MB, chunk_size=PAPER_CHUNK_BYTES)
        sender = system.create(
            FileSender, A, B, dataset, transport=Transport.TCP, disk=ha.disk,
        )
        receiver = system.create(FileReceiver, B, disk=hb.disk)
        system.connect(net_a.provided(Network), sender.required(Network))
        system.connect(net_b.provided(Network), receiver.required(Network))
        system.start(receiver)
        system.start(sender)
        sim.run()
        tid = sender.definition.transfer_id
        assert sender.definition.chunks_sent == dataset.total_chunks
        assert receiver.definition.progress(tid) == 1.0
        assert receiver.definition.transfer(tid).duplicates == 0
        assert receiver.definition.protocols == {Transport.TCP: dataset.total_chunks}
        # Disk-to-disk time is bounded below by size / min(bw, disk rate).
        assert sender.definition.duration >= 4 * MB / (50 * MB)

    def test_transfer_without_disks(self):
        sim, system, (ha, net_a), (hb, net_b) = build_pair()
        dataset = SyntheticDataset(size=1 * MB, chunk_size=PAPER_CHUNK_BYTES)
        sender = system.create(FileSender, A, B, dataset, transport=Transport.UDT)
        receiver = system.create(FileReceiver, B)
        system.connect(net_a.provided(Network), sender.required(Network))
        system.connect(net_b.provided(Network), receiver.required(Network))
        system.start(receiver)
        system.start(sender)
        sim.run()
        assert sender.definition.duration is not None

    def test_an_endless_stream_needs_a_window(self):
        _, system, _, _ = build_pair()
        with pytest.raises(ValueError, match="window"):
            system.create(FileSender, A, B)

    def test_two_concurrent_transfers_distinct_ids(self):
        sim, system, (ha, net_a), (hb, net_b) = build_pair()
        receiver = system.create(FileReceiver, B, disk=hb.disk)
        system.connect(net_b.provided(Network), receiver.required(Network))
        system.start(receiver)
        senders = []
        for _ in range(2):
            dataset = SyntheticDataset(size=1 * MB, chunk_size=PAPER_CHUNK_BYTES)
            sender = system.create(FileSender, A, B, dataset, transport=Transport.TCP, disk=ha.disk)
            system.connect(net_a.provided(Network), sender.required(Network))
            system.start(sender)
            senders.append(sender)
        sim.run()
        ids = {s.definition.transfer_id for s in senders}
        assert len(ids) == 2
        assert all(s.definition.duration is not None for s in senders)
        assert set(receiver.definition.completed) == ids


@pytest.mark.integration
class TestPingPong:
    def test_rtt_measures_link_delay(self):
        sim, system, (ha, net_a), (hb, net_b) = build_pair(delay=0.025)
        timer = system.create(SimTimerComponent)
        pinger = system.create(Pinger, A, B, transport=Transport.TCP, interval=0.5)
        ponger = system.create(Ponger, B)
        system.connect(net_a.provided(Network), pinger.required(Network))
        system.connect(timer.provided(Timer), pinger.required(Timer))
        system.connect(net_b.provided(Network), ponger.required(Network))
        for c in (timer, ponger, pinger):
            system.start(c)
        sim.run_until(5.0)
        stats = pinger.definition.rtt_stats
        assert stats.count >= 8
        # The first ping pays the TCP handshake; steady-state RTTs measure
        # the 50 ms link round trip.
        steady = pinger.definition.rtts[1:]
        assert sum(steady) / len(steady) == pytest.approx(0.050, rel=0.1)
        assert ponger.definition.pings_answered == stats.count

    def test_max_pings_stops_probing(self):
        sim, system, (ha, net_a), (hb, net_b) = build_pair()
        timer = system.create(SimTimerComponent)
        pinger = system.create(Pinger, A, B, transport=Transport.TCP, interval=0.1, max_pings=5)
        ponger = system.create(Ponger, B)
        system.connect(net_a.provided(Network), pinger.required(Network))
        system.connect(timer.provided(Timer), pinger.required(Timer))
        system.connect(net_b.provided(Network), ponger.required(Network))
        for c in (timer, ponger, pinger):
            system.start(c)
        sim.run_until(5.0)
        assert len(pinger.definition.rtts) == 5
        assert pinger.definition.outstanding == 0

    def test_udp_pings_survive_loss(self):
        sim, system, (ha, net_a), (hb, net_b) = build_pair()
        # Rebuild with loss: easier to make a fresh lossy pair.
        sim = Simulator()
        fabric = SimNetwork(sim, seed=13)
        system = KompicsSystem.simulated(sim, seed=13)
        ha = fabric.add_host("a", A.ip)
        hb = fabric.add_host("b", B.ip)
        fabric.connect_hosts(ha, hb, LinkSpec(50 * MB, 0.005, loss=0.05))
        registry = lambda: register_app_serializers(SerializerRegistry())
        net_a = system.create(NettyNetwork, A, ha, serializers=registry())
        net_b = system.create(NettyNetwork, B, hb, serializers=registry())
        timer = system.create(SimTimerComponent)
        pinger = system.create(Pinger, A, B, transport=Transport.UDP, interval=0.1)
        ponger = system.create(Ponger, B)
        system.connect(net_a.provided(Network), pinger.required(Network))
        system.connect(timer.provided(Timer), pinger.required(Timer))
        system.connect(net_b.provided(Network), ponger.required(Network))
        for c in (net_a, net_b, timer, ponger, pinger):
            system.start(c)
        sim.run_until(20.0)
        assert pinger.definition.rtt_stats.count > 100
        assert pinger.definition.outstanding > 0  # some pings were lost
