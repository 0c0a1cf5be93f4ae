"""Chunked transfer over selectable transports (paper §V-A).

Two clocking disciplines, one implementation each: the disk-clocked,
fire-and-forget :class:`FileSender` / :class:`FileReceiver` (the paper's
app) and the notify-clocked :class:`WindowSource` / :class:`ChunkSink`.
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
from repro.apps.filetransfer.window import ChunkSink, WindowSource

__all__ = [
    "SyntheticDataset",
    "DataChunkMsg",
    "TransferDone",
    "FileSender",
    "FileReceiver",
    "WindowSource",
    "ChunkSink",
    "PAPER_DATASET_BYTES",
    "PAPER_CHUNK_BYTES",
    "next_transfer_id",
]
