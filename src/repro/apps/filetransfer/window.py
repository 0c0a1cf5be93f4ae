"""The notify-clocked chunk stream: a windowed source and a counting sink.

:class:`FileSender` / :class:`FileReceiver` are the paper's §V-A app —
disk-clocked and fire-and-forget.  This pair is the other clocking
discipline: every chunk rides in a ``MessageNotify.Req`` and the next one
leaves only when a response frees a slot, so the sender never holds more
than ``window`` unresolved chunks.  It runs unchanged on the simulator and
on real sockets.
"""

from __future__ import annotations

import threading
from typing import Callable, Dict, Optional, Set

from repro.apps.filetransfer.chunks import (
    PAPER_CHUNK_BYTES,
    DataChunkMsg,
    SyntheticDataset,
    next_transfer_id,
)
from repro.kompics.component import ComponentDefinition
from repro.messaging.address import Address
from repro.messaging.message import BasicHeader, DataHeader, Msg
from repro.messaging.network_port import MessageNotify, Network
from repro.messaging.transport import Transport


class WindowSource(ComponentDefinition):
    """Keeps at most ``window`` notify-tracked chunks in flight.

    With a ``dataset`` it sends that dataset's chunks (payload bytes
    included) once and sets :attr:`done`; without one it streams
    paper-sized chunks for as long as it runs.  Accounting is strict:
    every request comes back exactly once, so :attr:`leaked` is zero at
    any quiescent point.
    """

    def __init__(
        self,
        self_address: Address,
        destination: Address,
        dataset: Optional[SyntheticDataset] = None,
        transport: Transport = Transport.DATA,
        window: int = 256,
    ) -> None:
        super().__init__()
        self.net = self.requires(Network)
        self.dataset = dataset
        self.window = window
        header_cls = DataHeader if transport is Transport.DATA else BasicHeader
        self._header = header_cls(self_address, destination, transport)
        self.transfer_id = next_transfer_id()
        self._next = 0
        self._in_flight: Set[int] = set()  # notify ids
        self.requested = 0
        self.ok = 0
        self.failed = 0
        #: on the component's clock (simulated or wall seconds)
        self.started_at: Optional[float] = None
        self.finished_at: Optional[float] = None
        #: set once the whole dataset is resolved (never, when endless)
        self.done = threading.Event()
        #: called with ``ok + failed`` after each resolved notify, *before*
        #: the window refills — the chaos campaign kills the network from
        #: here, at an exact mid-transfer point
        self.on_progress: Optional[Callable[[int], None]] = None
        self.subscribe(self.net, MessageNotify.Resp, self._on_resp)

    def on_start(self) -> None:
        self.started_at = self.clock.now()
        self._fill()

    def _fill(self) -> None:
        dataset = self.dataset
        total = None if dataset is None else dataset.total_chunks
        while len(self._in_flight) < self.window and (total is None or self._next < total):
            index = self._next
            self._next += 1
            if dataset is None:
                msg = DataChunkMsg(
                    self._header, self.transfer_id, index, PAPER_CHUNK_BYTES,
                    total_chunks=2**31 - 1, total_bytes=2**62,
                )
            else:
                msg = DataChunkMsg(
                    self._header, self.transfer_id, index, dataset.chunk_length(index),
                    total_chunks=total, total_bytes=dataset.size,
                    payload=dataset.chunk_bytes(index),
                )
            req = MessageNotify.Req(msg)
            self._in_flight.add(req.notify_id)
            self.requested += 1
            self.trigger(req, self.net)

    def _on_resp(self, resp: MessageNotify.Resp) -> None:
        if resp.notify_id not in self._in_flight:
            return
        self._in_flight.remove(resp.notify_id)
        if resp.success:
            self.ok += 1
        else:
            self.failed += 1
        if self.on_progress is not None:
            self.on_progress(self.ok + self.failed)
        self._fill()
        if not self._in_flight:
            self.finished_at = self.clock.now()
            self.done.set()

    @property
    def outstanding(self) -> int:
        return len(self._in_flight)

    @property
    def leaked(self) -> int:
        return self.requested - self.ok - self.failed


class ChunkSink(ComponentDefinition):
    """Counts chunk deliveries per sequence number and per wire protocol.

    ``delivered`` is every chunk delivery, ``delivered_unique`` distinct
    chunks and ``duplicates`` the difference — the number that must stay
    zero when at-least-once redelivery replays a crashed sender's frames
    through the receiver network's dedup window.  ``count`` is every
    message that reached the port, chunk or not.
    """

    def __init__(self, expected_chunks: Optional[int] = None) -> None:
        super().__init__()
        self.net = self.requires(Network)
        self.expected = expected_chunks
        self.seen: Dict[int, int] = {}
        self.count = 0
        self.delivered = 0
        self.bytes = 0
        self.protocols: Dict[str, int] = {}
        #: set once every expected chunk arrived at least once
        self.complete = threading.Event()
        self.subscribe(self.net, Msg, self._on_msg)

    def _on_msg(self, msg: Msg) -> None:
        self.count += 1
        if not isinstance(msg, DataChunkMsg):
            return
        self.delivered += 1
        self.bytes += msg.length
        self.seen[msg.seq] = self.seen.get(msg.seq, 0) + 1
        proto = msg.header.protocol.value
        self.protocols[proto] = self.protocols.get(proto, 0) + 1
        if len(self.seen) == self.expected:
            self.complete.set()

    @property
    def delivered_unique(self) -> int:
        return len(self.seen)

    @property
    def duplicates(self) -> int:
        return self.delivered - len(self.seen)
