"""Datasets and chunk messages for the file-transfer workload (§V-A).

The paper transfers a 395 MB NetCDF climate file split into messages that
fit the 65 kB serialization buffers.  We model the dataset synthetically,
by size alone: a chunk carries its length and the dataset's
compressibility (1.0, like the NetCDF floats, unless configured
otherwise), and the wire serializer writes that many zero bytes.
"""

from __future__ import annotations

import itertools
import math

from repro.messaging.message import BaseMsg, Header

#: the paper's dataset and buffer sizes
PAPER_DATASET_BYTES = 395 * 1024 * 1024
#: chunks must *fit* the 65 kB serialization buffers (§V-A) together with
#: their message header and compression framing, so the payload per chunk
#: leaves a small margin below 64 KiB.
PAPER_BUFFER_BYTES = 65536
PAPER_CHUNK_BYTES = PAPER_BUFFER_BYTES - 256

_transfer_ids = itertools.count(1)


class SyntheticDataset:
    """A deterministic stand-in for the paper's NetCDF climate file."""

    def __init__(
        self,
        size: int = PAPER_DATASET_BYTES,
        chunk_size: int = PAPER_CHUNK_BYTES,
        compressibility: float = 1.0,
    ) -> None:
        if size <= 0 or chunk_size <= 0:
            raise ValueError("size and chunk_size must be positive")
        if not 0.0 < compressibility <= 1.0:
            raise ValueError("compressibility must be in (0, 1]")
        self.size = size
        self.chunk_size = chunk_size
        self.compressibility = compressibility
        # Datasets are immutable after construction; the sender consults
        # total_chunks several times per chunk, so it is a plain attribute.
        self.total_chunks = math.ceil(size / chunk_size)

    def chunk_length(self, index: int) -> int:
        """Byte length of chunk ``index`` (the last one may be short)."""
        total = self.total_chunks
        if not 0 <= index < total:
            raise IndexError(f"chunk {index} out of range (0..{total - 1})")
        if index == total - 1:
            rest = self.size - index * self.chunk_size
            return rest
        return self.chunk_size


class DataChunkMsg(BaseMsg):
    """One 65 kB-class piece of the dataset.

    The apps send only ``length`` (plus a small header); a non-empty
    ``payload`` is serialized as given, an empty one as ``length`` zero bytes.
    """

    __slots__ = ("transfer_id", "seq", "length", "total_chunks", "total_bytes",
                 "compressibility", "payload")

    def __init__(
        self,
        header: Header,
        transfer_id: int,
        seq: int,
        length: int,
        total_chunks: int,
        total_bytes: int,
        compressibility: float = 1.0,
        payload: bytes = b"",
    ) -> None:
        super().__init__(header)
        self.transfer_id = transfer_id
        self.seq = seq
        self.length = length
        self.total_chunks = total_chunks
        self.total_bytes = total_bytes
        self.compressibility = compressibility
        self.payload = payload


class TransferDone(BaseMsg):
    """Receiver-to-sender completion notice (all bytes on disk)."""

    __slots__ = ("transfer_id", "completed_at")

    def __init__(self, header: Header, transfer_id: int, completed_at: float) -> None:
        super().__init__(header)
        self.transfer_id = transfer_id
        self.completed_at = completed_at


def next_transfer_id() -> int:
    return next(_transfer_ids)
