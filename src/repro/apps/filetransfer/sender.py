"""The file-transfer sender component (§V-A item 1).

Reads the dataset from disk in chunk-sized sequential reads and fires each
chunk at the receiver as soon as it is in memory ("keeping the whole
process as asynchronous as possible").  Chunks are fire-and-forget; flow
control is whatever the chosen transport (or the DATA interceptor)
provides — which is exactly why bulk TCP data crowds out control traffic
in the paper's Figure 8 and the DATA protocol's internal queueing helps.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Optional

from repro.apps.filetransfer.chunks import DataChunkMsg, SyntheticDataset, TransferDone, next_transfer_id
from repro.kompics.component import ComponentDefinition
from repro.messaging.address import Address
from repro.messaging.message import BasicHeader, DataHeader
from repro.messaging.network_port import Network
from repro.messaging.transport import Transport
from repro.netsim.disk import DiskModel


class FileSender(ComponentDefinition):
    """Streams one dataset to one receiver over a chosen transport."""

    def __init__(
        self,
        self_address: Address,
        destination: Address,
        dataset: SyntheticDataset,
        transport: Transport = Transport.TCP,
        disk: Optional[DiskModel] = None,
        on_done: Optional[Callable[[float], None]] = None,
        read_ahead: int = 128,
    ) -> None:
        super().__init__()
        self.net = self.requires(Network)
        self.self_address = self_address
        self.destination = destination
        self.dataset = dataset
        self.transport = transport
        self.disk = disk
        self.on_done = on_done
        self.read_ahead = max(read_ahead, 1)

        # Headers are immutable and identical for every chunk of the
        # transfer; build the one header once instead of per chunk (the
        # interceptor's with_protocol() clones the message, not this).
        header_cls = DataHeader if transport is Transport.DATA else BasicHeader
        self._chunk_header = header_cls(self_address, destination, transport)

        self.transfer_id = next_transfer_id()
        self.started_at: Optional[float] = None
        self.finished_at: Optional[float] = None
        self.chunks_sent = 0
        self._next_to_read = 0
        self._halted = False

        self.subscribe(self.net, TransferDone, self._on_done_msg)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def on_start(self) -> None:
        self.started_at = self.clock.now()
        if self.disk is None:
            # No disk model: emit everything immediately (memory-to-memory).
            while self._next_to_read < self.dataset.total_chunks:
                index = self._next_to_read
                self._next_to_read += 1
                self._chunk_ready(index, self.dataset.chunk_length(index))
            return
        # Prime the disk pipeline; each completed read issues the next.
        for _ in range(min(self.read_ahead, self.dataset.total_chunks)):
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
            self._chunk_header,
            transfer_id=self.transfer_id,
            seq=index,
            length=length,
            total_chunks=dataset.total_chunks,
            total_bytes=dataset.size,
            compressibility=dataset.compressibility,
        )
        self.net.trigger(msg)
        self.chunks_sent += 1
        self._issue_read()

    # ------------------------------------------------------------------
    # completion
    # ------------------------------------------------------------------
    def _on_done_msg(self, msg: TransferDone) -> None:
        if msg.transfer_id != self.transfer_id:
            return
        self.finished_at = msg.completed_at
        if self.on_done is not None and self.started_at is not None:
            self.on_done(self.finished_at - self.started_at)

    @property
    def duration(self) -> Optional[float]:
        """Disk-to-disk transfer time, once complete."""
        if self.started_at is None or self.finished_at is None:
            return None
        return self.finished_at - self.started_at
