"""Fault-injecting socket adaptors, and the UDT-lite fixes they lock in.

The adaptors manufacture loss patterns — lost DATA or ACKs, duplicated
packets, reordering, truncation — on a real loopback socket.  The protocol-level tests here are regression
tests for sender/receiver control-plane bugs: the lost-ACK livelock,
NAK-driven retransmission and selective ACKs.
"""

import asyncio

import pytest

from repro.aio import udt
from tests.aio_adaptors import (
    ChainAdaptor,
    DelayAdaptor,
    DropAdaptor,
    DupAdaptor,
    RecordingAdaptor,
    TruncateAdaptor,
    udt_packet_type,
)
from repro.aio.udt import UdtLiteTransport

pytestmark = pytest.mark.integration

HOST = "127.0.0.1"


def run(coro):
    return asyncio.run(asyncio.wait_for(coro, timeout=30.0))


async def free_port() -> int:
    server = await asyncio.start_server(lambda r, w: None, host=HOST, port=0)
    port = server.sockets[0].getsockname()[1]
    server.close()
    await server.wait_closed()
    return port


def is_ack(packet, _remote) -> bool:
    return udt_packet_type(packet) == udt.ACK


def is_data(packet, _remote) -> bool:
    return udt_packet_type(packet) == udt.DATA


def data_seq(packet) -> int:
    return udt.HEADER.unpack_from(packet)[1]


class TestAdaptorUnits:
    REMOTE = ("10.0.0.9", 1234)

    def _capture(self):
        sent = []
        return sent, lambda p, r: sent.append((p, r))

    def test_base_adaptor_is_passthrough(self):
        sent, transmit = self._capture()
        RecordingAdaptor().sendto(b"x", self.REMOTE, transmit)
        assert sent == [(b"x", self.REMOTE)]

    def test_drop_all_and_budget(self):
        sent, transmit = self._capture()
        adaptor = DropAdaptor(probability=1.0, max_drops=2)
        for _ in range(4):
            adaptor.sendto(b"p", self.REMOTE, transmit)
        assert adaptor.dropped == 2
        assert len(sent) == 2  # budget exhausted, rest pass

    def test_drop_match_only(self):
        sent, transmit = self._capture()
        adaptor = DropAdaptor(probability=1.0, match=lambda p, r: p.startswith(b"a"))
        adaptor.sendto(b"abc", self.REMOTE, transmit)
        adaptor.sendto(b"xyz", self.REMOTE, transmit)
        assert sent == [(b"xyz", self.REMOTE)]

    def test_drop_is_seeded(self):
        results = []
        for _ in range(2):
            sent, transmit = self._capture()
            adaptor = DropAdaptor(probability=0.5, seed=42)
            for i in range(32):
                adaptor.sendto(bytes([i]), self.REMOTE, transmit)
            results.append([p for p, _ in sent])
        assert results[0] == results[1]  # deterministic across instances

    def test_dup_copies(self):
        sent, transmit = self._capture()
        DupAdaptor(copies=2).sendto(b"p", self.REMOTE, transmit)
        assert len(sent) == 3

    def test_truncate(self):
        sent, transmit = self._capture()
        adaptor = TruncateAdaptor(keep_bytes=3, max_truncations=1)
        adaptor.sendto(b"abcdef", self.REMOTE, transmit)
        adaptor.sendto(b"abcdef", self.REMOTE, transmit)
        assert [p for p, _ in sent] == [b"abc", b"abcdef"]

    def test_chain_applies_in_order(self):
        sent, transmit = self._capture()
        recorder = RecordingAdaptor()
        chain = ChainAdaptor([
            TruncateAdaptor(keep_bytes=2),  # first truncate...
            recorder,                        # ...then record the result
        ])
        chain.sendto(b"abcdef", self.REMOTE, transmit)
        assert sent == [(b"ab", self.REMOTE)]
        assert recorder.packets == [(b"ab", self.REMOTE)]

    def test_delay_schedules_on_loop(self):
        async def scenario():
            sent, transmit = self._capture()
            adaptor = DelayAdaptor(delay=0.05)
            adaptor.sendto(b"late", self.REMOTE, transmit)
            assert sent == []  # not transmitted synchronously
            await asyncio.sleep(0.15)
            assert sent == [(b"late", self.REMOTE)]
            assert adaptor.delayed == 1

        run(scenario())


class TestLostAckLivelock:
    def test_sender_drains_when_acks_are_lost(self):
        """Regression: a dropped cumulative ACK must not strand the sender.

        The receiver's ack loop only fires while ``_expected`` is ahead of
        what it last acknowledged, so once the final ACK of a transfer is
        lost there is no periodic resend — the sender RTO-retransmits the
        oldest packet forever unless duplicate DATA triggers a re-ACK.
        """

        async def scenario():
            port = await free_port()
            received = []
            accepted = []
            # Receiver side: swallow the first 3 ACKs (covers the initial
            # ACK and the first re-ACK attempts), then let traffic flow.
            ack_drops = DropAdaptor(probability=1.0, match=is_ack, max_drops=3)
            listener = await UdtLiteTransport(adaptor=ack_drops).listen(
                HOST, port,
                lambda c: (accepted.append(c), setattr(c, "on_frame", received.append)),
            )
            conn = await UdtLiteTransport().connect((HOST, port), b"h")
            await conn.send_frame(b"z" * 800)  # single DATA packet
            # Without duplicate-triggered re-ACKs this never returns.
            await asyncio.wait_for(conn.drain(), timeout=10.0)
            assert received == [b"z" * 800]
            assert ack_drops.dropped >= 1
            assert accepted[0].dup_data_received >= 1  # retransmits arrived
            assert accepted[0].reacks_sent >= 1
            await conn.close()
            await listener.close()

        run(scenario())

    def test_duplicate_out_of_order_packet_triggers_reack(self):
        async def scenario():
            port = await free_port()
            received = []
            accepted = []
            listener = await UdtLiteTransport().listen(
                HOST, port,
                lambda c: (accepted.append(c), setattr(c, "on_frame", received.append)),
            )
            # Duplicate every DATA packet: the copies of out-of-order
            # packets must count as duplicates, not corrupt the stream.
            dups = DupAdaptor(probability=1.0, match=is_data)
            conn = await UdtLiteTransport(adaptor=dups).connect((HOST, port), b"h")
            frames = [bytes([i]) * 3000 for i in range(10)]
            for frame in frames:
                await conn.send_frame(frame)
            await asyncio.wait_for(conn.drain(), timeout=10.0)
            await asyncio.sleep(0.2)
            assert received == frames  # exactly once, in order
            assert accepted[0].dup_data_received >= 1
            await conn.close()
            await listener.close()

        run(scenario())


class TestLossRecoveryViaAdaptors:
    def test_nak_retransmission_under_deterministic_drop(self):
        async def scenario():
            port = await free_port()
            received = []
            listener = await UdtLiteTransport().listen(
                HOST, port, lambda c: setattr(c, "on_frame", received.append)
            )
            # Drop DATA seq 2 exactly once on the dialling side.
            drops = DropAdaptor(
                probability=1.0, max_drops=1,
                match=lambda p, r: is_data(p, r) and data_seq(p) == 2,
            )
            conn = await UdtLiteTransport(adaptor=drops).connect((HOST, port), b"h")
            frames = [bytes([i]) * 2500 for i in range(8)]
            for frame in frames:
                await conn.send_frame(frame)
            await asyncio.wait_for(conn.drain(), timeout=10.0)
            await asyncio.sleep(0.2)
            assert received == frames
            assert drops.dropped == 1
            assert conn.retransmissions >= 1
            await conn.close()
            await listener.close()

        run(scenario())

    def test_truncated_packets_are_survivable(self):
        async def scenario():
            port = await free_port()
            received = []
            listener = await UdtLiteTransport().listen(
                HOST, port, lambda c: setattr(c, "on_frame", received.append)
            )
            # Cut one DATA packet below the header size: the receiver must
            # ignore the runt and recover the payload by retransmission.
            runts = TruncateAdaptor(
                keep_bytes=3, probability=1.0, max_truncations=1, match=is_data,
            )
            conn = await UdtLiteTransport(adaptor=runts).connect((HOST, port), b"h")
            frames = [bytes([i]) * 2000 for i in range(6)]
            for frame in frames:
                await conn.send_frame(frame)
            await asyncio.wait_for(conn.drain(), timeout=10.0)
            await asyncio.sleep(0.2)
            assert received == frames
            assert runts.truncated == 1
            await conn.close()
            await listener.close()

        run(scenario())

    def test_selective_acks_spare_held_packets(self):
        async def scenario():
            port = await free_port()
            received = []
            # Delay NAKs so the loss hole stays open across several ACK
            # ticks — the ACKs sent meanwhile must carry selective acks
            # for the out-of-order packets the receiver is holding.
            nak_delay = DelayAdaptor(
                delay=0.08, match=lambda p, r: udt_packet_type(p) == udt.NAK
            )
            listener = await UdtLiteTransport(adaptor=nak_delay).listen(
                HOST, port, lambda c: setattr(c, "on_frame", received.append)
            )
            drops = DropAdaptor(
                probability=1.0, max_drops=1,
                match=lambda p, r: is_data(p, r) and data_seq(p) == 5,
            )
            transport = UdtLiteTransport(initial_rate=16 * 1024 * 1024, adaptor=drops)
            conn = await transport.connect((HOST, port), b"h")
            frames = [bytes([i % 256]) * 3000 for i in range(30)]
            for frame in frames:
                await conn.send_frame(frame)
            await asyncio.wait_for(conn.drain(), timeout=10.0)
            await asyncio.sleep(0.2)
            assert received == frames
            assert conn.sacked >= 1  # packets past the hole left the ledger
            await conn.close()
            await listener.close()

        run(scenario())
