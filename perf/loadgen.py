"""Load generator for the real-socket workloads.

Two Kompics components on the system's own worker pool, no thread of their
own: :class:`Source` keeps a delivery-clocked closed loop of data messages
going (at most ``window`` sent but not yet credited) and, when asked, two
open-loop control streams of pings; :class:`Sink` checks and stamps every
delivery and returns one small credit message per ``credit_every``
deliveries.  Both write into one :class:`RunLog`, because sender and
receiver share a process and therefore one ``perf_counter``.

Everything the generator needs per message is built *before* the window
(the payload pool, the headers), and the CPU it burns inside its own
handlers is accounted in their ``cpu`` attributes so a run can prove the generator
was not the bottleneck (``loadgen.cpu_share``) - the defect that made
``repro loopback`` measure ``SyntheticDataset.chunk_bytes``.
"""

from __future__ import annotations

import random
from time import perf_counter, thread_time
from typing import Dict, List, Sequence

from repro.apps.filetransfer.chunks import DataChunkMsg
from repro.apps.pingpong.messages import PingMsg, PongMsg
from repro.kompics.component import ComponentDefinition
from repro.kompics.timer import ScheduleTimeout, Timeout, Timer
from repro.messaging.address import Address
from repro.messaging.message import BasicHeader
from repro.messaging.network_port import MessageNotify, Network
from repro.messaging.transport import Transport

#: ``transfer_id`` of generated data messages and of the receiver's credits
DATA_ID = 1
CREDIT_ID = 2

#: payloads in the seeded pool; 64 x 60 kB is larger than this host's L2
POOL_SIZE = 64

#: wrong-result descriptions kept per run (the count is kept in full)
MAX_ERRORS = 20


def payload_pool(seed: int, size: int) -> List[bytes]:
    """The seeded payloads every data message of a run draws from."""
    rng = random.Random(seed)
    return [rng.randbytes(size) for _ in range(POOL_SIZE)]


class RunLog:
    """Stamps and counts of one run, shared by Source and Sink.

    Lists are indexed by message sequence number; every time is a
    ``perf_counter`` reading.  Appends and item stores are atomic under
    the interpreter lock, and each field has exactly one writing handler.
    """

    def __init__(self) -> None:
        self.sent: List[float] = []  # Source: just before trigger
        self.recv: List[float] = []  # Sink: handler entry
        self.notified: Dict[int, float] = {}  # Source: MessageNotify.Resp
        self.notify_failed = 0
        #: per control stream: due time of ping i, and pong arrival by i
        self.ping_due: Dict[Transport, List[float]] = {}
        self.pong_at: Dict[Transport, Dict[int, float]] = {}
        #: how late each ping tick ran, with the time it ran at
        self.ping_late: List[tuple] = []
        self.wrong = 0
        self.errors: List[str] = []

    def error(self, text: str) -> None:
        self.wrong += 1
        if len(self.errors) < MAX_ERRORS:
            self.errors.append(text)


class _PingDue(Timeout):
    __slots__ = ()


class Source(ComponentDefinition):
    """Closed-loop data sender plus open-loop ping streams."""

    def __init__(
        self,
        log: RunLog,
        me: Address,
        peer: Address,
        transport: Transport,
        pool: Sequence[bytes],
        window: int,
        ping_hz: float = 0.0,
        ping_transports: Sequence[Transport] = (),
    ) -> None:
        super().__init__()
        self.net = self.requires(Network)
        self.timer = self.requires(Timer)
        self.log = log
        self.pool = pool
        self.size = len(pool[0])
        self.window = window
        self.header = BasicHeader(me, peer, transport)
        self.next_seq = 0
        self.credited = 0
        self.stopped = False
        #: thread CPU seconds spent in this component's own code, trigger
        #: calls excluded (one accumulator per component: each is written
        #: by one handler at a time, never by two threads)
        self.cpu = 0.0
        self._pending: Dict[int, int] = {}  # notify id -> seq

        self.ping_hz = ping_hz
        self._ping_headers = [BasicHeader(me, peer, t) for t in ping_transports]
        for t in ping_transports:
            log.ping_due[t] = []
            log.pong_at[t] = {}
        self._ping_t0 = 0.0

        self.subscribe(self.net, DataChunkMsg, self._on_credit)
        self.subscribe(self.net, MessageNotify.Resp, self._on_notify)
        self.subscribe(self.net, PongMsg, self._on_pong)
        self.subscribe(self.timer, _PingDue, self._on_ping_due)

    def on_start(self) -> None:
        self._pump()
        if self.ping_hz and self._ping_headers:
            self._ping_t0 = perf_counter() + 1.0 / self.ping_hz
            self._schedule_ping()

    # -- closed loop ----------------------------------------------------
    def _pump(self) -> None:
        if self.stopped:
            return
        c0 = thread_time()
        first = self.next_seq
        count = self.window - (first - self.credited)
        pool, size, header = self.pool, self.size, self.header
        pending = self._pending
        requests = []
        for seq in range(first, first + count):
            req = MessageNotify.Req(
                DataChunkMsg(header, DATA_ID, seq, size, 0, 0,
                             payload=pool[seq % len(pool)])
            )
            pending[req.notify_id] = seq
            requests.append(req)
        self.next_seq = first + count
        self.cpu += thread_time() - c0
        sent = self.log.sent
        trigger = self.net.trigger
        for req in requests:
            sent.append(perf_counter())
            trigger(req)

    def _on_credit(self, msg: DataChunkMsg) -> None:
        if msg.transfer_id != CREDIT_ID:
            return
        self.credited = msg.seq
        self._pump()

    def _on_notify(self, resp: MessageNotify.Resp) -> None:
        seq = self._pending.pop(resp.notify_id, None)
        if seq is None:
            return
        if resp.success:
            self.log.notified[seq] = perf_counter()
        else:
            self.log.notify_failed += 1

    # -- open loop --------------------------------------------------------
    def _schedule_ping(self) -> None:
        index = len(self.log.ping_late)
        delay = self._ping_t0 + index / self.ping_hz - perf_counter()
        self.trigger(ScheduleTimeout(max(0.0, delay), _PingDue()), self.timer)

    def _on_ping_due(self, _tick: _PingDue) -> None:
        if self.stopped:
            return
        c0 = thread_time()
        log = self.log
        now = perf_counter()
        pings = []
        # A late tick sends every ping that has fallen due, each stamped
        # with the time it *should* have gone out, so a stall is charged
        # to the pings it delayed (no coordinated omission).
        while True:
            index = len(log.ping_late)
            due = self._ping_t0 + index / self.ping_hz
            if due > now:
                break
            log.ping_late.append((now, now - due))
            for header in self._ping_headers:
                log.ping_due[header.protocol].append(due)
                pings.append(PingMsg(header, index, due))
        self.cpu += thread_time() - c0
        for ping in pings:
            self.trigger(ping, self.net)
        self._schedule_ping()

    def _on_pong(self, pong: PongMsg) -> None:
        self.log.pong_at[pong.header.protocol][pong.seq] = perf_counter()


class Sink(ComponentDefinition):
    """Checks and stamps every delivery; returns credits over TCP."""

    def __init__(
        self,
        log: RunLog,
        me: Address,
        peer: Address,
        pool: Sequence[bytes],
        credit_every: int,
    ) -> None:
        super().__init__()
        self.net = self.requires(Network)
        self.log = log
        self.pool = pool
        self.size = len(pool[0])
        self.credit_every = credit_every
        self.cpu = 0.0
        self._credit_header = BasicHeader(me, peer, Transport.TCP)
        self.subscribe(self.net, DataChunkMsg, self._on_data)

    def _on_data(self, msg: DataChunkMsg) -> None:
        now = perf_counter()
        c0 = thread_time()
        log = self.log
        recv = log.recv
        seq = msg.seq
        if seq != len(recv):
            log.error(f"sequence: expected {len(recv)}, got {seq}")
        if msg.length != self.size or msg.payload != self.pool[seq % len(self.pool)]:
            log.error(f"payload of message {seq} differs from what was sent")
        recv.append(now)
        delivered = len(recv)
        if delivered % self.credit_every:
            self.cpu += thread_time() - c0
            return
        credit = DataChunkMsg(self._credit_header, CREDIT_ID, delivered, 0, 0, 0)
        self.cpu += thread_time() - c0
        self.trigger(credit, self.net)
