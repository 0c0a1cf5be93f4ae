"""Evaluation applications from the paper's §V-A.

* :mod:`repro.apps.filetransfer` — disk-to-disk bulk transfer of a
  synthetic NetCDF-like dataset, split into 65 kB messages.
* :mod:`repro.apps.pingpong` — timing-sensitive control messages measuring
  round-trip times.
"""

from repro.apps.filetransfer import (
    ChunkSink,
    DataChunkMsg,
    FileReceiver,
    FileSender,
    SyntheticDataset,
    TransferDone,
    WindowSource,
)
from repro.apps.pingpong import PingMsg, Pinger, Ponger, PongMsg
from repro.apps.serializers import register_app_serializers

__all__ = [
    "SyntheticDataset",
    "DataChunkMsg",
    "TransferDone",
    "FileSender",
    "FileReceiver",
    "WindowSource",
    "ChunkSink",
    "PingMsg",
    "PongMsg",
    "Pinger",
    "Ponger",
    "register_app_serializers",
]
