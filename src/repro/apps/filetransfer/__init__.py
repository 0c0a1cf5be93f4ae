"""Chunked transfer over selectable transports (paper §V-A).

One app: :class:`FileSender` streams a dataset, disk-clocked and
fire-and-forget (the paper's app) or, with ``window=N``, notify-clocked;
:class:`FileReceiver` counts what arrives, writes it to disk and answers
each completed transfer with :class:`TransferDone`.
"""

from repro.apps.filetransfer.chunks import (
    PAPER_CHUNK_BYTES,
    PAPER_DATASET_BYTES,
    DataChunkMsg,
    SyntheticDataset,
    TransferDone,
    next_transfer_id,
)
from repro.apps.filetransfer.receiver import FileReceiver
from repro.apps.filetransfer.sender import FileSender

__all__ = [
    "SyntheticDataset",
    "DataChunkMsg",
    "TransferDone",
    "FileSender",
    "FileReceiver",
    "PAPER_DATASET_BYTES",
    "PAPER_CHUNK_BYTES",
    "next_transfer_id",
]
