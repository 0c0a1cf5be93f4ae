"""UDT-lite's burst-granular wake-ups, ``drain()`` and hostile NAKs — no real sleeps.

The pacing loop runs on a virtual clock against a stand-in endpoint; the
drained read gets its datagrams queued on a real loopback socket before
the loop may look at it, so nothing here waits on a wall-clock delay.
"""

import asyncio
import math
import random
import signal
import socket
from contextlib import contextmanager
from unittest import mock

import pytest

from repro.aio import udt
from repro.aio.pacing import DaimdPacing
from repro.aio.transport import MAX_FRAME, MAX_HELLO
from repro.aio.udp import DRAIN_MAX, UdpEndpoint
from repro.aio.udt import (
    FLIGHT_WINDOW,
    HEADER,
    LENGTH,
    PACING_BURST,
    PACING_QUANTUM,
    SYN_INTERVAL,
    UdtLiteConnection,
    UdtLiteEndpoint,
    UdtLiteTransport,
)
from repro.obs import metrics

HOST = "127.0.0.1"
REMOTE = ("10.0.0.9", 1234)

_real_sleep = asyncio.sleep


def run(coro):
    return asyncio.run(asyncio.wait_for(coro, timeout=30.0))


def packet(ptype: int, field: int = 0, payload: bytes = b"") -> bytes:
    return HEADER.pack(ptype, field) + payload


def framed(data: bytes) -> bytes:
    return LENGTH.pack(len(data)) + data


class ConstantRate(DaimdPacing):
    """A pacer that never moves: the loop's arithmetic is all that is left."""

    def on_interval(self, now: float) -> None:
        pass

    def on_loss(self, now: float) -> None:
        pass


class VirtualWire:
    """The pacing loop's clock *and* its endpoint.

    Stands in for the ``time`` module inside ``repro.aio.udt`` and for
    ``asyncio.sleep``: time moves only when the loop sleeps (by what it
    asked for, plus a scripted oversleep), and every DATA packet is
    stamped with the virtual time it left at.
    """

    def __init__(self, expect: int, oversleeps=()) -> None:
        self.now = 0.0
        self.expect = expect
        self.oversleeps = list(oversleeps)
        self.sent = []  # virtual departure time of every DATA packet
        self.yields = []  # packets sent so far, at every sleep
        self.timed_sleeps = 0  # sleeps that needed a timer (delay > 0)
        self.done = asyncio.Event()

    # -- time ----------------------------------------------------------
    def monotonic(self) -> float:
        return self.now

    async def sleep(self, delay: float, result=None):
        self.yields.append(len(self.sent))
        if delay > 0:
            self.timed_sleeps += 1
            self.now += delay + (self.oversleeps.pop(0) if self.oversleeps else 0.0)
        await _real_sleep(0)
        return result

    # -- endpoint ------------------------------------------------------
    def _send_packet(self, ptype, field, payload, remote) -> None:
        if ptype == udt.DATA:
            self.sent.append(self.now)
            if len(self.sent) == self.expect:
                self.done.set()

    def _forget(self, remote) -> None:
        pass


async def _no_acks(self) -> None:
    """Replaces the ACK loop, whose 10 ms timer would move the virtual clock."""


def paced(rate: float, packets: int, oversleeps=()) -> VirtualWire:
    """Send ``packets`` full packets at a constant ``rate``; return the wire."""

    async def scenario() -> VirtualWire:
        wire = VirtualWire(packets, oversleeps)
        with mock.patch.object(udt, "time", wire), \
                mock.patch.object(asyncio, "sleep", wire.sleep), \
                mock.patch.object(UdtLiteConnection, "_ack_loop", _no_acks):
            conn = UdtLiteConnection(
                wire, REMOTE, initial_rate=rate, max_rate=rate, pacer_factory=ConstantRate
            )
            conn._enqueue_frames([b"x" * (packets * udt.MSS - LENGTH.size)])
            await asyncio.wait_for(wire.done.wait(), timeout=10.0)
            await conn.close()
        return wire

    return run(scenario())


def back_to_back(wire: VirtualWire) -> list:
    """The packets that left together with the second one (after the first sleep)."""
    return [at for at in wire.sent if abs(at - wire.sent[1]) < 1e-6]


SLOW = 1.2e6  # one MSS per millisecond: a packet's gap is the quantum
FAST = 512 * 1024 * 1024  # DaimdPacing's ceiling: 2.2 us a packet
GAP_SLOW = udt.MSS / SLOW


class TestPacingByDebt:
    @pytest.mark.parametrize("rate,packets", [(SLOW, 200), (FAST, 1000)])
    def test_long_run_rate_is_the_pacers(self, rate, packets):
        wire = paced(rate, packets)
        elapsed = wire.sent[-1] - wire.sent[0]
        assert elapsed == pytest.approx((packets - 1) * udt.MSS / rate, abs=PACING_QUANTUM)

    def test_a_gap_of_a_quantum_sleeps_once_per_packet(self):
        assert GAP_SLOW >= PACING_QUANTUM
        wire = paced(SLOW, 50)
        assert wire.yields[:49] == list(range(1, 50))
        assert wire.timed_sleeps >= 49

    def test_at_the_ceiling_it_yields_once_per_burst(self):
        wire = paced(FAST, 1000)
        between = [b - a for a, b in zip([0] + wire.yields, wire.yields)]
        assert max(between) == PACING_BURST  # never more: ACKs and NAKs get their turn
        assert len(wire.yields) <= math.ceil(1000 / PACING_BURST)

    def test_an_oversleep_is_credited(self):
        # The first sleep runs 5 ms long; the five packets that fell due
        # meanwhile leave back to back and the schedule is whole again.
        wire = paced(SLOW, 40, oversleeps=[0.005])
        assert wire.sent[-1] - wire.sent[0] == pytest.approx(39 * GAP_SLOW, abs=PACING_QUANTUM)
        assert len(back_to_back(wire)) == 1 + round(0.005 / GAP_SLOW)

    def test_the_credit_is_bounded(self):
        # 50 ms late is not 50 packets of burst: one SYN interval's worth
        # leaves at once, the rest of the delay stays lost.
        wire = paced(SLOW, 40, oversleeps=[0.050])
        late = (wire.sent[-1] - wire.sent[0]) - 39 * GAP_SLOW
        assert late == pytest.approx(0.050 - SYN_INTERVAL, abs=PACING_QUANTUM)
        assert len(back_to_back(wire)) == 1 + round(SYN_INTERVAL / GAP_SLOW)


class TestDrainContract:
    def test_a_nak_overtaken_by_its_ack_does_not_strand_drain(self):
        """NAKed in flight, then covered by the cumulative ACK: nothing is owed."""

        async def scenario():
            conn = UdtLiteConnection(VirtualWire(expect=0), REMOTE)
            try:
                conn._enqueue_frames([b"frame"])
                assert conn._next_packet()[0] == 0  # on the wire, unacknowledged
                conn._on_nak([0])
                conn._on_ack(1)
                assert not conn._unacked and not conn._fresh
                assert not conn._retransmit and not conn._retransmit_set
                assert conn._all_acked.is_set()
                await asyncio.wait_for(conn.drain(), timeout=5.0)
            finally:
                await conn.close()

        run(scenario())


@contextmanager
def deadline(seconds: float):
    """Fail, rather than hang, if the body spins on the main thread."""

    def expired(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expired)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


class TestHostileNak:
    def test_the_count_field_does_not_size_the_loop(self):
        naks = []

        class Peer:
            def _on_nak(self, seqs):
                naks.append(list(seqs))

        endpoint = UdtLiteEndpoint()
        endpoint.connections[REMOTE] = Peer()
        with deadline(5.0):  # 4 G iterations would take the better part of an hour
            endpoint._on_packet(packet(udt.NAK, 0xFFFFFFFF, LENGTH.pack(9)), REMOTE)
            endpoint._on_packet(packet(udt.NAK, 0xFFFFFFFF), REMOTE)
            endpoint._on_packet(packet(udt.NAK, 1, LENGTH.pack(3) + LENGTH.pack(4)), REMOTE)
        assert naks == [[9], [], [3]]


def listening() -> UdtLiteEndpoint:
    """An endpoint that accepts handshakes, as a listener's does."""
    return UdtLiteEndpoint(on_connection=lambda conn: None)


class TestHostileHandshake:
    """Any source can send a HANDSHAKE; what handshakes allocate is bounded."""

    @staticmethod
    def source(i):
        return (f"10.0.{i >> 8}.{i & 255}", 9)

    @staticmethod
    async def on_loop(drive):
        """Run ``drive(endpoint, acked)`` on a running loop; ``acked`` lists
        the sources answered with a HANDSHAKE_ACK."""
        endpoint = listening()
        acked = []
        endpoint._send_packet = lambda ptype, field, payload, remote: (
            acked.append(remote) if ptype == udt.HANDSHAKE_ACK else None)
        try:
            return drive(endpoint, acked)
        finally:
            for conn in list(endpoint.connections.values()):
                conn._teardown()

    def test_a_flood_of_sources_stops_at_the_connection_cap(self):
        hello = packet(udt.HANDSHAKE, 0, b"h" * MAX_HELLO)

        def drive(endpoint, acked):
            for i in range(10_000):
                endpoint._on_packet(hello, self.source(i))
            held = set(endpoint.connections)
            # A peer already in the table is answered, and evicts nobody.
            endpoint._on_packet(hello, self.source(9_999))
            assert set(endpoint.connections) == held
            return held, len(acked), endpoint.evicted_connections, endpoint.refused_handshakes

        held, acks, evicted, refused = run(self.on_loop(drive))
        # Oldest silent connection out first: the newest sources are held.
        assert held == {self.source(i) for i in range(10_000 - udt.MAX_CONNECTIONS, 10_000)}
        assert (acks, evicted, refused) == (10_001, 10_000 - udt.MAX_CONNECTIONS, 0)

    def test_a_peer_that_sent_data_outlives_the_flood(self):
        def drive(endpoint, acked):
            endpoint._on_packet(packet(udt.HANDSHAKE), REMOTE)
            endpoint._on_packet(packet(udt.DATA, 0, b"x"), REMOTE)
            for i in range(3 * udt.MAX_CONNECTIONS):
                endpoint._on_packet(packet(udt.HANDSHAKE), self.source(i))
            return REMOTE in endpoint.connections, len(endpoint.connections)

        assert run(self.on_loop(drive)) == (True, udt.MAX_CONNECTIONS)

    def test_a_table_of_peers_that_sent_data_refuses_a_new_source(self):
        def drive(endpoint, acked):
            for i in range(udt.MAX_CONNECTIONS):
                endpoint._on_packet(packet(udt.HANDSHAKE), self.source(i))
                endpoint._on_packet(packet(udt.DATA, 0, b"x"), self.source(i))
            endpoint._on_packet(packet(udt.HANDSHAKE), REMOTE)
            return (REMOTE in endpoint.connections, REMOTE in acked,
                    endpoint.evicted_connections, endpoint.refused_handshakes)

        assert run(self.on_loop(drive)) == (False, False, 0, 1)

    def test_a_long_hello_is_refused_before_anything_is_allocated(self):
        endpoint = listening()  # no running loop: allocating would raise
        endpoint._on_packet(packet(udt.HANDSHAKE, 0, b"h" * (MAX_HELLO + 1)), REMOTE)
        assert endpoint.connections == {}
        assert endpoint.refused_handshakes == 1


class TestHostileData:
    """What DATA from an established peer makes the receiver hold is bounded."""

    def test_a_prefix_over_max_frame_closes_the_connection(self):
        def drive(endpoint, acked):
            for remote, length in ((REMOTE, MAX_FRAME), (("10.0.0.8", 1234), MAX_FRAME + 1)):
                endpoint._on_packet(packet(udt.HANDSHAKE), remote)
                conn = endpoint.connections[remote]
                endpoint._on_packet(packet(udt.DATA, 0, LENGTH.pack(length) + b"x" * 100), remote)
                yield conn.closed, remote in endpoint.connections

        fits, over = run(TestHostileHandshake.on_loop(lambda *args: list(drive(*args))))
        assert fits == (False, True)  # a frame of MAX_FRAME bytes is still coming
        assert over == (True, False)  # torn down, not buffering behind the prefix

    def test_a_flood_past_the_flight_window_is_not_held(self):
        flood = 50_000

        def drive(endpoint, acked):
            endpoint._on_packet(packet(udt.HANDSHAKE), REMOTE)
            conn = endpoint.connections[REMOTE]
            for seq in range(1, FLIGHT_WINDOW + flood):  # seq 0 never arrives
                endpoint._on_packet(packet(udt.DATA, seq, b"x"), REMOTE)
            return len(conn._ooo), conn.out_of_window_dropped

        held, dropped = run(TestHostileHandshake.on_loop(drive))
        assert held == FLIGHT_WINDOW - 1  # seqs 1 .. FLIGHT_WINDOW - 1
        assert dropped == flood

    def test_a_close_with_data_unacknowledged_fails_drain(self):
        async def scenario():
            endpoint = listening()
            endpoint._send_packet = lambda ptype, field, payload, remote: None
            endpoint._on_packet(packet(udt.HANDSHAKE), REMOTE)
            conn = endpoint.connections[REMOTE]
            await conn.send_frame(b"never acknowledged")
            drain = asyncio.ensure_future(conn.drain())
            await asyncio.sleep(0)
            assert not drain.done()
            endpoint._on_packet(packet(udt.CLOSE), REMOTE)
            assert conn.closed
            with pytest.raises(ConnectionResetError):
                await asyncio.wait_for(drain, timeout=1.0)

        run(scenario())


class Wakeups(list):
    """Stands in for the per-wakeup histogram: keeps every observation."""

    observe = list.append


@contextmanager
def no_loop_errors():
    """Everything a callback raised into the running loop, asserted empty."""
    errors = []
    loop = asyncio.get_running_loop()
    loop.set_exception_handler(lambda _loop, context: errors.append(context))
    yield
    assert not errors, errors


class TestDrainedRead:
    def test_a_queued_burst_costs_a_few_wakeups(self):
        async def scenario():
            count = 200
            wakeups, got, done = Wakeups(), [], asyncio.Event()

            def on_datagram(data, src):
                got.append(data)
                if len(got) == count:
                    done.set()

            server = UdpEndpoint(per_wakeup=wakeups)
            addr = await server.open(HOST, 0, on_datagram)
            # room for the whole burst, whatever the host's default
            server._sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 1 << 20)
            with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as client:
                for i in range(count):  # no await: all queued before the loop looks
                    client.sendto(i.to_bytes(2, "big"), addr)
            with no_loop_errors():
                await asyncio.wait_for(done.wait(), timeout=10.0)
            await server.close()
            assert got == [i.to_bytes(2, "big") for i in range(count)]
            assert sum(wakeups) == count
            assert max(wakeups) <= DRAIN_MAX
            assert len(wakeups) <= math.ceil(count / DRAIN_MAX) + 1

        run(scenario())

    def test_a_close_inside_a_burst_ends_the_drain(self):
        async def scenario():
            # A hand-driven peer: answers the handshake, then queues
            # DATA, DATA, DATA, CLOSE, DATA, DATA on the dialler's socket.
            hello = asyncio.Event()
            sources = []

            def on_datagram(data, src):
                sources.append(src)
                hello.set()

            peer = UdpEndpoint()
            peer_addr = await peer.open(HOST, 0, on_datagram)
            dial = asyncio.ensure_future(UdtLiteTransport().connect(peer_addr, b"h"))
            await asyncio.wait_for(hello.wait(), timeout=10.0)
            dialler = sources[0]
            peer.send(packet(udt.HANDSHAKE_ACK), dialler)
            conn = await asyncio.wait_for(dial, timeout=10.0)
            frames, closed = [], asyncio.Event()
            conn.on_frame = frames.append
            conn.on_closed = lambda _conn: closed.set()

            for seq in range(3):
                peer.send(packet(udt.DATA, seq, framed(bytes([seq]))), dialler)
            peer.send(packet(udt.CLOSE), dialler)
            for seq in range(3, 5):
                peer.send(packet(udt.DATA, seq, framed(bytes([seq]))), dialler)
            with no_loop_errors():
                await asyncio.wait_for(closed.wait(), timeout=10.0)
                await _real_sleep(0)  # one more loop pass: nothing left to trip on
            assert frames == [b"\x00", b"\x01", b"\x02"]
            assert conn.endpoint._socket is None  # the dialler's socket went with it
            await conn.close()
            await peer.close()

        run(scenario())

    def test_garbage_never_raises_out_of_the_read(self):
        async def scenario():
            frames, delivered = [], asyncio.Event()

            def on_connection(conn):
                conn.on_frame = lambda frame: (frames.append(frame), delivered.set())

            listener = await UdtLiteTransport().listen(HOST, 0, on_connection)
            addr = listener.local
            rng = random.Random(7)
            # CLOSE is left out: it is valid, and would end the connection
            kinds = (0, udt.HANDSHAKE_ACK, udt.DATA, udt.ACK, udt.NAK, 7, 255)
            junk = [b"", b"\x03", packet(udt.DATA, 7, b"before any handshake"),
                    packet(udt.HANDSHAKE, 0, b"hello")]
            junk += [packet(udt.ACK, 5, b"\x00\x01\x02"),
                     packet(udt.NAK, 0xFFFFFFFF, b"\x00\x00\x00"),
                     packet(udt.DATA, 0xFFFFFFFF, b"far ahead"),
                     packet(99, 0, b"no such type")]
            for _ in range(60):
                body = rng.randbytes(rng.randrange(0, 40))
                junk.append(bytes([rng.choice(kinds)]) + LENGTH.pack(rng.randrange(1, 2 ** 32)) + body)
                junk.append(bytes([rng.choice(kinds)]) + rng.randbytes(rng.randrange(0, 4)))
            with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as raw:
                raw.bind((HOST, 0))
                for datagram in junk:
                    raw.sendto(datagram, addr)
                raw.sendto(packet(udt.DATA, 0, framed(b"still here")), addr)
                with no_loop_errors():
                    await asyncio.wait_for(delivered.wait(), timeout=10.0)
            assert frames == [b"still here"]
            await listener.close()

        run(scenario())


class TestBurstInstruments:
    def test_histograms_bind_at_construction_and_are_free_when_disabled(self):
        async def transfer():
            received, done = [], asyncio.Event()

            def on_connection(conn):
                conn.on_frame = lambda f: (received.append(f), len(received) == 40 and done.set())

            listener = await UdtLiteTransport().listen(HOST, 0, on_connection)
            conn = await UdtLiteTransport().connect(listener.local, b"h")
            await conn.send_frames([bytes([i]) * 3000 for i in range(40)])
            await asyncio.wait_for(conn.drain(), timeout=10.0)
            await asyncio.wait_for(done.wait(), timeout=10.0)
            instruments = (conn._m_packets_per_sleep, conn.endpoint._m_datagrams_per_wakeup)
            await conn.close()
            await listener.close()
            return instruments

        assert run(transfer()) == (metrics.NULL_HISTOGRAM, metrics.NULL_HISTOGRAM)
        registry = metrics.enable()
        try:
            run(transfer())
        finally:
            metrics.disable()
        per_sleep = registry.get("messaging.aio.udt.packets_per_sleep")
        per_wakeup = registry.get("messaging.aio.udt.datagrams_per_wakeup")
        # 40 frames of 3004 bytes are 101 packets, every one of them read once
        assert per_sleep.count * per_sleep.stats.mean >= 101 - 1e-6
        assert per_sleep.overflow == 0  # the last bucket is the burst cap
        assert per_wakeup.count * per_wakeup.stats.mean >= 101 - 1e-6
        assert per_wakeup.overflow == 0  # ... and here the drain bound
