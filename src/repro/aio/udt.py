"""UDT-lite: reliable, ordered framing over UDP with DAIMD rate pacing.

A compact re-implementation of UDT's behaviour class (Gu & Grossman,
Computer Networks 2007) sufficient for the middleware:

* DATA packets carry a u32 sequence number and <= MSS payload bytes;
  frames are length-prefixed and split across packets.
* The receiver sends batched cumulative ACKs on a 10 ms timer (UDT's SYN
  interval), each carrying up to :data:`MAX_SACK` selective
  acknowledgements for out-of-order packets it is holding, and immediate
  NAKs when it observes sequence gaps.  Duplicate DATA triggers an
  immediate re-ACK — a dropped ACK packet must not strand the sender in
  an RTO retransmission loop.
* The sender paces packets at ``rate`` bytes/s, increases the rate every
  SYN interval (probing toward a configurable estimate) and applies UDT's
  multiplicative decrease (x 8/9) on NAK or retransmission timeout.
  Selectively-acknowledged packets leave the loss ledger immediately, so
  a single hole never forces the whole flight to retransmit.
* Handshake packets exchange the middleware hello and are retransmitted
  until acknowledged, for at most :data:`HANDSHAKE_TIMEOUT`.  A listening
  socket accepts HANDSHAKEs from any source, within bounds; each dial
  gets a socket of its own that serves its one remote and ignores every
  HANDSHAKE.

An optional ``SocketAdaptor`` (``tests/aio_adaptors.py``) can perturb every
outgoing packet (drop DATA or ACKs, duplicate, delay, truncate) to
exercise loss recovery and the control plane on a loopback socket.
"""

from __future__ import annotations

import asyncio
import struct
import time
from collections import OrderedDict, deque
from typing import Deque, Dict, Iterable, Optional, Sequence, Set, Tuple, Type

from repro.aio.pacing import MSS, SYN_INTERVAL, DaimdPacing
from repro.aio.transport import (
    MAX_FRAME,
    MAX_HELLO,
    AioConnection,
    AioListener,
    AioTransport,
    ConnectionHandler,
    Endpoint,
)
from repro.aio.udp import DRAIN_MAX, UdpEndpoint
from repro.obs import get_registry

HEADER = struct.Struct(">BI")  # packet type, sequence/field
LENGTH = struct.Struct(">I")  # frame length prefix inside the byte stream

HANDSHAKE = 1
HANDSHAKE_ACK = 2
DATA = 3
ACK = 4
NAK = 5
CLOSE = 6

#: the pacing loop sleeps once per this much accumulated pacing gap ...
PACING_QUANTUM = 0.001
#: ... or after this many packets, so ACK/NAK processing is never starved
PACING_BURST = 16
RTO = 0.25
FLIGHT_WINDOW = 2048  # max unacked packets
MAX_NAK_BATCH = 128
MAX_SACK = 64  # selective acks carried per ACK packet
#: most connections a listener holds: at the cap a new peer evicts a silent one or is refused
MAX_CONNECTIONS = 1024
#: a dial resends its HANDSHAKE this often until acknowledged ...
HANDSHAKE_RESEND = 0.2
#: ... and gives up after this long
HANDSHAKE_TIMEOUT = 5.0


class UdtLiteConnection(AioConnection):
    """One reliable peer relationship multiplexed over an endpoint."""

    def __init__(
        self,
        endpoint: "UdtLiteEndpoint",
        remote: Endpoint,
        initial_rate: float = 2 * 1024 * 1024,
        max_rate: float = 512 * 1024 * 1024,
        pacer_factory: Optional[Type[DaimdPacing]] = None,
    ) -> None:
        super().__init__()
        self.endpoint = endpoint
        self.remote = remote
        self.max_rate = max_rate
        # The pacing policy owns the rate: DAIMD unless a test substitutes one.
        self.pacer = (pacer_factory or DaimdPacing)(
            initial_rate, max_rate, time.monotonic()
        )

        # sender state
        self._next_seq = 0
        self._unacked: "OrderedDict[int, bytes]" = OrderedDict()
        self._fresh: Deque[Tuple[int, bytes]] = deque()
        self._retransmit: Deque[int] = deque()
        #: mirrors _retransmit for O(1) membership under bursty NAK storms
        self._retransmit_set: Set[int] = set()
        self._work = asyncio.Event()
        self._all_acked = asyncio.Event()
        self._all_acked.set()
        self._last_progress = time.monotonic()
        self.retransmissions = 0
        self.naks_received = 0
        self.sacked = 0
        self._m_packets_per_sleep = get_registry().histogram(
            "messaging.aio.udt.packets_per_sleep", buckets=(1, 2, 4, 8, PACING_BURST)
        )

        # receiver state
        self._expected = 0
        self._ooo: Dict[int, bytes] = {}
        self._stream = bytearray()
        self._last_acked_to_peer = -1
        #: set when the peer evidently missed our last ACK (duplicate DATA)
        self._ack_dirty = False
        self._next_reack = 0.0
        self.dup_data_received = 0
        #: DATA dropped because its seq lies a flight window or more ahead
        self.out_of_window_dropped = 0
        self.reacks_sent = 0

        self._tasks = [
            asyncio.ensure_future(self._pacing_loop()),
            asyncio.ensure_future(self._ack_loop()),
        ]

    # ------------------------------------------------------------------
    # sending
    # ------------------------------------------------------------------
    def _enqueue_frames(self, frames: Iterable[bytes]) -> None:
        for data in frames:
            stream = LENGTH.pack(len(data)) + data
            for offset in range(0, len(stream), MSS):
                seq = self._next_seq
                self._next_seq += 1
                self._fresh.append((seq, bytes(stream[offset:offset + MSS])))
        self._all_acked.clear()
        self._work.set()

    async def send_frames(self, frames: Sequence[bytes]) -> None:
        # One enqueue pass and one pacing-loop wakeup for the whole batch.
        self._enqueue_frames(frames)

    async def drain(self) -> None:
        """Wait until the peer has acknowledged everything queued so far.

        Returns at once when nothing is outstanding; a sequence that was
        NAKed and then acknowledged anyway does not count as outstanding.
        Raises :class:`ConnectionResetError` when the connection closes
        with data still unacknowledged.
        """
        await self._all_acked.wait()
        if self.closed and (self._unacked or self._fresh):
            raise ConnectionResetError(f"UDT-lite connection to {self.remote} closed with data unacked")

    async def _pacing_loop(self) -> None:
        """Send DATA at the pacer's rate, yielding once per burst.

        Each packet moves ``due`` — when the rate lets the next one out —
        on by its own gap, ``len(payload) / rate``; the loop sleeps until
        ``due`` once the gaps since its last yield add up to
        :data:`PACING_QUANTUM`, or after :data:`PACING_BURST` packets.
        Because ``due`` is a point in time, whatever the loop spent
        sending, idle or oversleeping is credited against later gaps (by
        at most one :data:`SYN_INTERVAL`, so a sender that was idle for
        long does not burst), and the long-run rate is the pacer's.  A
        packet whose gap alone reaches the quantum gets its own sleep.
        """
        due = time.monotonic()
        owed = 0.0  # pacing gaps of the packets sent since the last yield
        burst = 0  # ... and how many packets those are
        while not self.closed:
            if not self._retransmit and (not self._fresh or len(self._unacked) >= FLIGHT_WINDOW):
                if burst:
                    self._m_packets_per_sleep.observe(burst)
                    owed, burst = 0.0, 0
                self._work.clear()
                try:
                    await asyncio.wait_for(self._work.wait(), timeout=RTO)
                except asyncio.TimeoutError:
                    self._check_timeout()
                    continue
            now = time.monotonic()
            self.pacer.on_interval(now)
            packet = self._next_packet()
            if packet is None:
                continue
            seq, payload = packet
            self.endpoint._send_packet(DATA, seq, payload, self.remote)
            gap = len(payload) / self.pacer.rate
            due = max(due, now - SYN_INTERVAL) + gap
            owed += gap
            burst += 1
            if owed >= PACING_QUANTUM or burst >= PACING_BURST:
                self._m_packets_per_sleep.observe(burst)
                owed, burst = 0.0, 0
                # Not behind schedule: a real sleep.  Behind: a bare yield.
                await asyncio.sleep(due - time.monotonic())

    def _next_packet(self) -> Optional[Tuple[int, bytes]]:
        while self._retransmit:
            seq = self._retransmit.popleft()
            self._retransmit_set.discard(seq)
            payload = self._unacked.get(seq)
            if payload is not None:
                self.retransmissions += 1
                return seq, payload
        if self._fresh and len(self._unacked) < FLIGHT_WINDOW:
            seq, payload = self._fresh.popleft()
            self._unacked[seq] = payload
            return seq, payload
        return None

    @property
    def rate(self) -> float:
        """Current pacing rate in bytes/s (owned by the pacing policy)."""
        return self.pacer.rate

    def _check_timeout(self) -> None:
        if self._unacked and time.monotonic() - self._last_progress > RTO:
            oldest = next(iter(self._unacked))
            if oldest not in self._retransmit_set:
                self._retransmit.appendleft(oldest)
                self._retransmit_set.add(oldest)
            self.pacer.on_loss(time.monotonic())
            self._last_progress = time.monotonic()
            self._work.set()

    def _on_ack(self, cum: int, sacks: Sequence[int] = ()) -> None:
        progressed = False
        while self._unacked and next(iter(self._unacked)) < cum:
            self._unacked.popitem(last=False)
            progressed = True
        for seq in sacks:
            if self._unacked.pop(seq, None) is not None:
                # Held at the receiver: never retransmit it again.
                self._retransmit_set.discard(seq)
                self.sacked += 1
                progressed = True
        if progressed:
            self._last_progress = time.monotonic()
            self._work.set()
        if not self._unacked and not self._fresh:
            # Nothing in flight, nothing queued: whatever _retransmit still
            # lists was NAKed and then covered by an ACK.  _next_packet would
            # skip it, but nobody would wake drain() afterwards.
            self._retransmit.clear()
            self._retransmit_set.clear()
            self._all_acked.set()

    def _on_nak(self, seqs: Iterable[int]) -> None:
        self.naks_received += 1
        for seq in seqs:
            if seq in self._unacked and seq not in self._retransmit_set:
                self._retransmit.append(seq)
                self._retransmit_set.add(seq)
        self.pacer.on_loss(time.monotonic())
        self._work.set()

    # ------------------------------------------------------------------
    # receiving
    # ------------------------------------------------------------------
    def _on_data(self, seq: int, payload: bytes) -> None:
        if seq < self._expected:
            # Duplicate of something already consumed: the peer would only
            # retransmit this if our cumulative ACK got lost.  Re-ACK now,
            # or the sender RTO-loops on the oldest packet forever.
            self.dup_data_received += 1
            self._reack()
            return
        if seq > self._expected:
            if seq - self._expected >= FLIGHT_WINDOW:
                # No sender of ours runs this far ahead: holding it would
                # let a peer grow the out-of-order table without bound.
                self.out_of_window_dropped += 1
                return
            if seq in self._ooo:
                # Duplicate out-of-order packet: our ACK carrying its
                # selective acknowledgement (or the NAK reply) was lost.
                self.dup_data_received += 1
                self._reack()
                return
            self._ooo[seq] = payload
            missing = [s for s in range(self._expected, min(seq, self._expected + MAX_NAK_BATCH))
                       if s not in self._ooo]
            if missing:
                self.endpoint._send_packet(
                    NAK, len(missing),
                    b"".join(LENGTH.pack(s) for s in missing),
                    self.remote,
                )
            return
        self._consume(payload)
        while self._expected in self._ooo and not self.closed:
            self._consume(self._ooo.pop(self._expected))

    def _consume(self, payload: bytes) -> None:
        self._expected += 1
        self._stream.extend(payload)
        while len(self._stream) >= LENGTH.size:
            (length,) = LENGTH.unpack_from(self._stream)
            if length > MAX_FRAME:
                # As TCP does: a longer prefix is a broken or hostile peer.
                self.endpoint._send_packet(CLOSE, 0, b"", self.remote)
                self._teardown()
                return
            if len(self._stream) < LENGTH.size + length:
                break
            frame = bytes(self._stream[LENGTH.size:LENGTH.size + length])
            del self._stream[:LENGTH.size + length]
            self._deliver(frame)

    def _send_ack(self) -> None:
        self._last_acked_to_peer = self._expected - 1
        self._ack_dirty = False
        sacks = sorted(self._ooo)[:MAX_SACK]
        self.endpoint._send_packet(
            ACK, self._expected,
            b"".join(LENGTH.pack(s) for s in sacks),
            self.remote,
        )

    def _reack(self) -> None:
        """Resend the current cumulative ACK, rate-limited to SYN_INTERVAL.

        Immediate where possible (a retransmission burst should be cut
        short right away), deferred to the ack loop otherwise so duplicate
        floods cannot amplify into ACK floods.
        """
        now = time.monotonic()
        if now >= self._next_reack:
            self._next_reack = now + SYN_INTERVAL
            self.reacks_sent += 1
            self._send_ack()
        else:
            self._ack_dirty = True

    async def _ack_loop(self) -> None:
        while not self.closed:
            await asyncio.sleep(SYN_INTERVAL)
            if self._expected - 1 != self._last_acked_to_peer or self._ack_dirty:
                self._send_ack()

    # ------------------------------------------------------------------
    # teardown
    # ------------------------------------------------------------------
    async def close(self) -> None:
        if not self.closed:
            self.endpoint._send_packet(CLOSE, 0, b"", self.remote)
        self._teardown()
        # _teardown only *cancels* the pacing/ACK loops (it must stay sync
        # for the datagram-receive path); here we can wait for them to
        # actually unwind so the loop never stops over a pending task.
        await asyncio.gather(*self._tasks, return_exceptions=True)

    def _teardown(self) -> None:
        for task in self._tasks:
            task.cancel()
        self.endpoint._forget(self.remote)
        self._closed()
        # Wake drain(): it raises if anything is still unacknowledged.
        self._all_acked.set()


class UdtLiteEndpoint(AioListener):
    """One UDP socket carrying UDT-lite connections, keyed by peer address.

    With an ``on_connection`` handler it listens: any source may
    handshake, within :data:`MAX_CONNECTIONS` and :data:`MAX_HELLO`.
    Without one it dials: :meth:`dial` makes its only connection, every
    HANDSHAKE is ignored, and the socket closes with that connection.
    """

    def __init__(
        self,
        on_connection: Optional[ConnectionHandler] = None,
        initial_rate: float = 2 * 1024 * 1024,
        adaptor: Optional[object] = None,
        pacer_factory: Optional[Type[DaimdPacing]] = None,
    ) -> None:
        self.on_connection = on_connection
        self.initial_rate = initial_rate
        self.pacer_factory = pacer_factory
        #: fault-injecting ``SocketAdaptor`` of ``tests/aio_adaptors.py``
        self.adaptor = adaptor
        self.connections: Dict[Endpoint, UdtLiteConnection] = {}
        #: the datagram socket: drained reads, adaptor on the way out
        self._socket: Optional[UdpEndpoint] = None
        self._m_datagrams_per_wakeup = get_registry().histogram(
            "messaging.aio.udt.datagrams_per_wakeup", buckets=(1, 2, 4, 8, 16, 32, DRAIN_MAX)
        )
        #: set by the dialled remote's HANDSHAKE_ACK
        self._acked: Optional[asyncio.Event] = None
        self.local: Optional[Endpoint] = None
        self.refused_handshakes = 0
        self.evicted_connections = 0

    async def open(self, host: str, port: int) -> Endpoint:
        self._socket = UdpEndpoint(
            adaptor=self.adaptor, per_wakeup=self._m_datagrams_per_wakeup
        )
        self.local = await self._socket.open(host, port, self._on_packet)
        return self.local

    # ------------------------------------------------------------------
    # packet I/O
    # ------------------------------------------------------------------
    def _send_packet(self, ptype: int, field: int, payload: bytes, remote: Endpoint) -> None:
        if self._socket is None:
            return
        self._socket.send(HEADER.pack(ptype, field) + payload, remote)

    def _on_packet(self, data: bytes, src: Endpoint) -> None:
        if len(data) < HEADER.size:
            return
        ptype, field = HEADER.unpack_from(data)
        payload = data[HEADER.size:]
        if ptype == HANDSHAKE:
            if self.on_connection is None:
                return  # a dialling socket serves its one remote
            conn = self.connections.get(src)
            if conn is None:
                # Before anything is allocated: any source can send this.
                if len(payload) > MAX_HELLO or (
                        len(self.connections) >= MAX_CONNECTIONS and not self._evict_silent()):
                    self.refused_handshakes += 1
                    return
                conn = UdtLiteConnection(
                    self, src, initial_rate=self.initial_rate,
                    pacer_factory=self.pacer_factory,
                )
                conn.peer_hello = payload
                self.connections[src] = conn
                self.on_connection(conn)
            self._send_packet(HANDSHAKE_ACK, 0, b"", src)
            return
        conn = self.connections.get(src)
        if conn is None:
            return
        if ptype == DATA:
            conn._on_data(field, payload)
        elif ptype == ACK:
            sacks = [LENGTH.unpack_from(payload, i * 4)[0]
                     for i in range(len(payload) // 4)]
            conn._on_ack(field, sacks)
        elif ptype == NAK:
            # ``field`` is the sender's count: trust the payload's length.
            seqs = [LENGTH.unpack_from(payload, i * 4)[0]
                    for i in range(min(field, len(payload) // 4))]
            conn._on_nak(seqs)
        elif ptype == CLOSE:
            conn._teardown()
        elif ptype == HANDSHAKE_ACK and self._acked is not None:
            self._acked.set()

    # ------------------------------------------------------------------
    # client-side establishment
    # ------------------------------------------------------------------
    async def dial(self, remote: Endpoint, hello: bytes) -> UdtLiteConnection:
        """Make this socket's one connection: resend the hello until
        ``remote`` acknowledges it, or fail after :data:`HANDSHAKE_TIMEOUT`."""
        acked = self._acked = asyncio.Event()
        conn = self.connections[remote] = UdtLiteConnection(
            self, remote, initial_rate=self.initial_rate,
            pacer_factory=self.pacer_factory,
        )
        deadline = time.monotonic() + HANDSHAKE_TIMEOUT
        try:
            while not acked.is_set():
                if time.monotonic() > deadline:
                    raise ConnectionError(f"UDT-lite handshake to {remote} timed out")
                self._send_packet(HANDSHAKE, 0, hello, remote)
                try:
                    await asyncio.wait_for(acked.wait(), timeout=HANDSHAKE_RESEND)
                except asyncio.TimeoutError:
                    pass
        except BaseException:
            conn._teardown()  # and with it the socket
            raise
        return conn

    def _evict_silent(self) -> bool:
        """Tear down the oldest accepted connection that never got DATA (likely spoofed)."""
        for conn in self.connections.values():
            if conn.peer_hello is not None and conn._expected == 0 and not conn._ooo:
                conn._teardown()
                self.evicted_connections += 1
                return True
        return False

    def _forget(self, remote: Endpoint) -> None:
        self.connections.pop(remote, None)
        if self.on_connection is None:
            self._release_socket()  # a dialling socket dies with its connection

    def _release_socket(self) -> None:
        if self._socket is not None:
            self._socket.release()
            self._socket = None

    async def close(self) -> None:
        for conn in list(self.connections.values()):
            await conn.close()
        self._release_socket()


class UdtLiteTransport(AioTransport):
    """AioTransport facade over :class:`UdtLiteEndpoint`."""

    name = "udt"

    def __init__(self, initial_rate: float = 2 * 1024 * 1024,
                 adaptor: Optional[object] = None,
                 pacer_factory: Optional[Type[DaimdPacing]] = None) -> None:
        self.initial_rate = initial_rate
        self.adaptor = adaptor
        #: pacing policy for every connection this transport creates;
        #: None is DAIMD (tests substitute fixed-rate pacers here)
        self.pacer_factory = pacer_factory

    async def listen(self, host: str, port: int, on_connection: ConnectionHandler) -> UdtLiteEndpoint:
        endpoint = UdtLiteEndpoint(
            on_connection=on_connection,
            initial_rate=self.initial_rate, adaptor=self.adaptor,
            pacer_factory=self.pacer_factory,
        )
        await endpoint.open(host, port)
        return endpoint

    async def connect(self, remote: Endpoint, hello: bytes) -> UdtLiteConnection:
        endpoint = UdtLiteEndpoint(
            initial_rate=self.initial_rate,
            adaptor=self.adaptor, pacer_factory=self.pacer_factory,
        )
        await endpoint.open("0.0.0.0", 0)
        return await endpoint.dial(remote, hello)
