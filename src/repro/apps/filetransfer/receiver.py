"""The file-transfer receiver component (§V-A item 1).

Reassembles chunk messages and writes them to disk; writing "has to be
synchronised", which the disk model's FIFO write queue provides.  Once a
transfer's every byte is on disk (or delivered, without one), a
:class:`TransferDone` goes back to the sender over TCP, a control message.
"""

from __future__ import annotations

import threading
from collections import defaultdict
from functools import partial
from typing import Dict, Optional, Set

from repro.apps.filetransfer.chunks import DataChunkMsg, TransferDone
from repro.kompics.component import ComponentDefinition
from repro.messaging.address import Address
from repro.messaging.message import BasicHeader
from repro.messaging.network_port import Network
from repro.messaging.transport import Transport
from repro.netsim.disk import DiskModel


class _TransferState:
    """What one transfer delivered: distinct chunks, repeats, bytes written."""

    __slots__ = ("expected_bytes", "seen", "duplicates", "bytes_written", "done")

    def __init__(self, expected_bytes: int) -> None:
        self.expected_bytes = expected_bytes
        self.seen: Set[int] = set()
        self.duplicates = 0  # zero unless redelivery beats the dedup window
        self.bytes_written = 0
        self.done = False


class FileReceiver(ComponentDefinition):
    """Accepts any number of concurrent transfers and writes them to disk."""

    def __init__(self, self_address: Address, disk: Optional[DiskModel] = None) -> None:
        super().__init__()
        self.net = self.requires(Network)
        self.self_address = self_address
        self.disk = disk
        self.transfers: Dict[int, _TransferState] = {}
        #: transfer id -> completion time, on the component's clock
        self.completed: Dict[int, float] = {}
        #: chunk deliveries per wire transport, duplicates included
        self.protocols: Dict[Transport, int] = defaultdict(int)  # counts without a call
        #: set whenever a transfer completes
        self.complete = threading.Event()
        self.subscribe(self.net, DataChunkMsg, self._on_chunk)

    def _on_chunk(self, msg: DataChunkMsg) -> None:
        self.protocols[msg.header.protocol] += 1
        state = self.transfers.get(msg.transfer_id)
        if state is None:
            state = self.transfers[msg.transfer_id] = _TransferState(msg.total_bytes)
        if msg.seq in state.seen:
            state.duplicates += 1
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
            self.complete.set()
            done = TransferDone(
                BasicHeader(self.self_address, source, Transport.TCP), msg.transfer_id, now,
            )
            self.trigger(done, self.net)

    def transfer(self, transfer_id: int) -> _TransferState:
        """What arrived of ``transfer_id`` (empty before its first chunk)."""
        state = self.transfers.get(transfer_id)
        return _TransferState(0) if state is None else state

    def progress(self, transfer_id: int) -> float:
        """Fraction of the transfer's bytes already on disk."""
        state = self.transfer(transfer_id)
        return state.bytes_written / state.expected_bytes if state.expected_bytes else 0.0
