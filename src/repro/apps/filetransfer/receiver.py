"""The file-transfer receiver component (§V-A item 1).

Reassembles chunk messages and writes them to disk; writing "has to be
synchronised", which the disk model's FIFO write queue provides.  When
every byte of the transfer is on disk, a :class:`TransferDone` notice goes
back to the sender (over TCP — a control message) so disk-to-disk timing
can be read on either side.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Dict, Optional, Set

from repro.apps.filetransfer.chunks import DataChunkMsg, TransferDone
from repro.kompics.component import ComponentDefinition
from repro.messaging.address import Address
from repro.messaging.message import BasicHeader
from repro.messaging.network_port import Network
from repro.messaging.transport import Transport
from repro.netsim.disk import DiskModel


class _TransferState:
    __slots__ = ("expected_bytes", "expected_chunks", "seen", "bytes_written", "first_at", "done")

    def __init__(self, expected_bytes: int, expected_chunks: int, first_at: float) -> None:
        self.expected_bytes = expected_bytes
        self.expected_chunks = expected_chunks
        self.seen: Set[int] = set()
        self.bytes_written = 0
        self.first_at = first_at
        self.done = False


class FileReceiver(ComponentDefinition):
    """Accepts any number of concurrent transfers and writes them to disk."""

    def __init__(
        self,
        self_address: Address,
        disk: Optional[DiskModel] = None,
        on_complete: Optional[Callable[[int, float], None]] = None,
        done_transport: Transport = Transport.TCP,
    ) -> None:
        super().__init__()
        self.net = self.requires(Network)
        self.self_address = self_address
        self.disk = disk
        self.on_complete = on_complete
        self.done_transport = done_transport
        self.transfers: Dict[int, _TransferState] = {}
        self.completed: Dict[int, float] = {}
        self.duplicate_chunks = 0
        self.subscribe(self.net, DataChunkMsg, self._on_chunk)

    def _on_chunk(self, msg: DataChunkMsg) -> None:
        state = self.transfers.get(msg.transfer_id)
        if state is None:
            state = _TransferState(msg.total_bytes, msg.total_chunks, self.clock.now())
            self.transfers[msg.transfer_id] = state
        if msg.seq in state.seen:
            self.duplicate_chunks += 1  # must not happen on TCP/UDT paths
            return
        state.seen.add(msg.seq)
        source = msg.header.source
        if self.disk is not None:
            self.disk.write(msg.length, partial(self._written, msg, state, source))
        else:
            self._written(msg, state, source)

    def _written(self, msg: DataChunkMsg, state: _TransferState, source: Address) -> None:
        state.bytes_written += msg.length
        if state.bytes_written >= state.expected_bytes and not state.done:
            state.done = True
            now = self.clock.now()
            self.completed[msg.transfer_id] = now
            if self.on_complete is not None:
                self.on_complete(msg.transfer_id, now)
            done = TransferDone(
                BasicHeader(self.self_address, source, self.done_transport),
                msg.transfer_id,
                now,
            )
            self.trigger(done, self.net)

    def progress(self, transfer_id: int) -> float:
        """Fraction of the transfer's bytes already on disk."""
        state = self.transfers.get(transfer_id)
        if state is None:
            return 0.0
        return state.bytes_written / state.expected_bytes
