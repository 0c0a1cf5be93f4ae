"""Evaluation applications from the paper's §V-A.

* :mod:`repro.apps.filetransfer` — disk-to-disk bulk transfer of a
  synthetic NetCDF-like dataset, split into 65 kB messages: one sender
  (disk-clocked, or notify-clocked with ``window=N``) and one receiver.
* :mod:`repro.apps.pingpong` — timing-sensitive control messages measuring
  round-trip times.
"""

from repro.apps.filetransfer import (
    DataChunkMsg,
    FileReceiver,
    FileSender,
    SyntheticDataset,
    TransferDone,
)
from repro.apps.pingpong import PingMsg, Pinger, Ponger, PongMsg
from repro.apps.serializers import register_app_serializers

__all__ = [
    "SyntheticDataset",
    "DataChunkMsg",
    "TransferDone",
    "FileSender",
    "FileReceiver",
    "PingMsg",
    "PongMsg",
    "Pinger",
    "Ponger",
    "register_app_serializers",
]
