"""The file-transfer sender component (§V-A item 1).

By default it reads the dataset from disk in chunk-sized sequential reads
and fires each chunk at the receiver as soon as it is in memory ("keeping
the whole process as asynchronous as possible").  Chunks are
fire-and-forget; flow control is whatever the chosen transport (or the
DATA interceptor) provides — which is exactly why bulk TCP data crowds
out control traffic in the paper's Figure 8 and the DATA protocol's
internal queueing helps.  With ``window=N`` it is notify-clocked from
memory instead, on the simulator and on real sockets alike.
"""

from __future__ import annotations

import threading
from functools import partial
from typing import Callable, Optional, Set

from repro.apps.filetransfer.chunks import PAPER_CHUNK_BYTES, DataChunkMsg, SyntheticDataset
from repro.apps.filetransfer.chunks import TransferDone, next_transfer_id
from repro.kompics.component import ComponentDefinition
from repro.messaging.address import Address
from repro.messaging.message import BasicHeader, DataHeader
from repro.messaging.network_port import MessageNotify, Network
from repro.messaging.transport import Transport
from repro.netsim.disk import DiskModel

#: disk reads a disk-clocked sender keeps outstanding
READ_AHEAD = 128
#: what a windowed sender without a dataset streams: paper-sized chunks,
#: as many as a chunk message can count
ENDLESS = SyntheticDataset(size=(2**31 - 1) * PAPER_CHUNK_BYTES)


class FileSender(ComponentDefinition):
    """Streams one dataset to one receiver over a chosen transport.

    With ``window=N`` every chunk rides in a ``MessageNotify.Req`` and the
    next leaves only when a response frees a slot (``dataset=None``
    streams endlessly).  Otherwise chunks are read from ``disk``, or all
    emitted at start without one.  :attr:`duration` comes from the
    receiver's :class:`TransferDone` either way.
    """

    def __init__(
        self,
        self_address: Address,
        destination: Address,
        dataset: Optional[SyntheticDataset] = None,
        transport: Transport = Transport.TCP,
        disk: Optional[DiskModel] = None,
        window: Optional[int] = None,
    ) -> None:
        if dataset is None and window is None:
            raise ValueError("an endless stream needs a window")
        super().__init__()
        self.net = self.requires(Network)
        self.dataset = ENDLESS if dataset is None else dataset
        self.disk = disk
        self.window = window

        # Headers are immutable and identical for every chunk of the
        # transfer; build the one header once instead of per chunk (the
        # interceptor's with_protocol() clones the message, not this).
        header_cls = DataHeader if transport is Transport.DATA else BasicHeader
        self._chunk_header = header_cls(self_address, destination, transport)

        self.transfer_id = next_transfer_id()
        #: on the component's clock (simulated or wall seconds)
        self.started_at: Optional[float] = None
        self.finished_at: Optional[float] = None
        self.chunks_sent = 0
        self._next_to_read = 0
        self._halted = False

        #: notify ids of the windowed sender's unresolved requests
        self._in_flight: Set[int] = set()
        self.ok = 0
        self.failed = 0
        #: set once every notify of the dataset resolved (never, when
        #: endless) — apart from completion, which needs every chunk delivered
        self.done = threading.Event()
        #: called with ``ok + failed`` after each resolved notify, *before*
        #: the window refills — the chaos campaign kills the network from
        #: here, at an exact mid-transfer point
        self.on_progress: Optional[Callable[[int], None]] = None

        self.subscribe(self.net, TransferDone, self._on_done_msg)
        if window is not None:
            self.subscribe(self.net, MessageNotify.Resp, self._on_resp)

    def on_start(self) -> None:
        self.started_at = self.clock.now()
        if self.window is not None:
            self._fill()
        elif self.disk is None:
            # No disk model: emit everything immediately (memory-to-memory).
            while self._next_to_read < self.dataset.total_chunks:
                index = self._next_to_read
                self._next_to_read += 1
                self._chunk_ready(index, self.dataset.chunk_length(index))
        else:
            # Prime the disk pipeline; each completed read issues the next.
            for _ in range(min(READ_AHEAD, self.dataset.total_chunks)):
                self._issue_read()

    def on_kill(self) -> None:
        self._halted = True

    def on_fault(self, fault) -> None:
        # Pending disk-read callbacks reference this instance; without the
        # halt a killed/restarted sender would keep streaming its old
        # transfer through the component's (still wired) ports.
        self._halted = True

    def _issue_read(self) -> None:
        if self.disk is None:
            return
        index = self._next_to_read
        if index >= self.dataset.total_chunks:
            return
        self._next_to_read += 1
        length = self.dataset.chunk_length(index)
        self.disk.read(length, partial(self._chunk_ready, index, length))

    def _chunk_ready(self, index: int, length: int) -> None:
        if self._halted:
            return
        dataset = self.dataset
        msg = DataChunkMsg(
            self._chunk_header, self.transfer_id, index, length,
            dataset.total_chunks, dataset.size, dataset.compressibility,
        )
        self.net.trigger(msg)
        self.chunks_sent += 1
        self._issue_read()

    def _fill(self) -> None:
        dataset = self.dataset
        while len(self._in_flight) < self.window and self._next_to_read < dataset.total_chunks:
            index = self._next_to_read
            self._next_to_read += 1
            req = MessageNotify.Req(DataChunkMsg(
                self._chunk_header, self.transfer_id, index, dataset.chunk_length(index),
                dataset.total_chunks, dataset.size, dataset.compressibility,
            ))
            self._in_flight.add(req.notify_id)
            self.chunks_sent += 1
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
            self.done.set()

    @property
    def outstanding(self) -> int:
        """Notifies requested and not yet resolved."""
        return len(self._in_flight)

    def _on_done_msg(self, msg: TransferDone) -> None:
        if msg.transfer_id == self.transfer_id:
            self.finished_at = msg.completed_at

    @property
    def duration(self) -> Optional[float]:
        """Disk-to-disk transfer time, once complete."""
        if self.started_at is None or self.finished_at is None:
            return None
        return self.finished_at - self.started_at
