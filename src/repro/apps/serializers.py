"""Compact binary serializers for the evaluation applications.

Every serializer reports an exact ``wire_size`` without materialising
bytes, which is what the fluid simulation charges to the network; the
``to_bytes``/``from_bytes`` paths are real and round-trip-tested (and used
by the asyncio backend).
"""

from __future__ import annotations

import struct
from typing import Tuple

from repro.apps.filetransfer.chunks import DataChunkMsg, TransferDone
from repro.apps.pingpong.messages import PingMsg, PongMsg
from repro.errors import SerializationError
from repro.messaging.message import BasicHeader, DataHeader, Header
from repro.messaging.serialization import (
    Serializer,
    SerializerRegistry,
    pack_address,
    packed_address_size,
    unpack_address,
)
from repro.messaging.transport import Transport

_TRANSPORT_CODE = {t: i for i, t in enumerate(Transport)}
_TRANSPORT_BY_CODE = {i: t for t, i in _TRANSPORT_CODE.items()}
_HEADER_BASIC = 0
_HEADER_DATA = 1

# Registry type ids for the app messages (1xx block).
TYPE_PING = 101
TYPE_PONG = 102
TYPE_CHUNK = 103
TYPE_DONE = 104


def pack_header(header: Header) -> bytes:
    kind = _HEADER_DATA if isinstance(header, DataHeader) else _HEADER_BASIC
    return (
        bytes([kind, _TRANSPORT_CODE[header.protocol]])
        + pack_address(header.source)
        + pack_address(header.destination)
    )


def unpack_header(data: bytes, offset: int = 0) -> Tuple[Header, int]:
    kind = data[offset]
    transport = _TRANSPORT_BY_CODE[data[offset + 1]]
    offset += 2
    source, offset = unpack_address(data, offset)
    destination, offset = unpack_address(data, offset)
    cls = DataHeader if kind == _HEADER_DATA else BasicHeader
    return cls(source, destination, transport), offset


def packed_header_size(header: Header) -> int:
    return 2 + packed_address_size(header.source) + packed_address_size(header.destination)


class PingSerializer(Serializer):
    _FIXED = struct.Struct(">Id")  # seq, sent_at

    def to_bytes(self, obj: PingMsg) -> bytes:
        return pack_header(obj.header) + self._FIXED.pack(obj.seq, obj.sent_at)

    def from_bytes(self, data: bytes) -> PingMsg:
        header, offset = unpack_header(data)
        seq, sent_at = self._FIXED.unpack_from(data, offset)
        return PingMsg(header, seq, sent_at)

    def wire_size(self, obj: PingMsg) -> int:
        return packed_header_size(obj.header) + self._FIXED.size

    def variable_size(self, obj: PingMsg) -> int:
        return 0


class PongSerializer(Serializer):
    _FIXED = struct.Struct(">Id")  # seq, ping_sent_at

    def to_bytes(self, obj: PongMsg) -> bytes:
        return pack_header(obj.header) + self._FIXED.pack(obj.seq, obj.ping_sent_at)

    def from_bytes(self, data: bytes) -> PongMsg:
        header, offset = unpack_header(data)
        seq, sent_at = self._FIXED.unpack_from(data, offset)
        return PongMsg(header, seq, sent_at)

    def wire_size(self, obj: PongMsg) -> int:
        return packed_header_size(obj.header) + self._FIXED.size

    def variable_size(self, obj: PongMsg) -> int:
        return 0


class DataChunkSerializer(Serializer):
    _FIXED = struct.Struct(">IIIIQf")  # transfer_id, seq, length, chunks, bytes, compressibility

    def to_bytes(self, obj: DataChunkMsg) -> bytes:
        if obj.payload and len(obj.payload) != obj.length:
            raise SerializationError(
                f"chunk payload length {len(obj.payload)} != declared {obj.length}"
            )
        payload = obj.payload if obj.payload else bytes(obj.length)
        return (
            pack_header(obj.header)
            + self._FIXED.pack(
                obj.transfer_id, obj.seq, obj.length, obj.total_chunks,
                obj.total_bytes, obj.compressibility,
            )
            + payload
        )

    def from_bytes(self, data: bytes) -> DataChunkMsg:
        header, offset = unpack_header(data)
        transfer_id, seq, length, chunks, total_bytes, compressibility = self._FIXED.unpack_from(
            data, offset
        )
        payload = bytes(data[offset + self._FIXED.size:offset + self._FIXED.size + length])
        return DataChunkMsg(
            header, transfer_id, seq, length, chunks, total_bytes,
            round(compressibility, 6), payload,
        )

    def wire_size(self, obj: DataChunkMsg) -> int:
        # The chunk body counts in full whether or not it was materialised.
        return packed_header_size(obj.header) + self._FIXED.size + obj.length

    def variable_size(self, obj: DataChunkMsg) -> int:
        return obj.length


class TransferDoneSerializer(Serializer):
    _FIXED = struct.Struct(">Id")  # transfer_id, completed_at

    def to_bytes(self, obj: TransferDone) -> bytes:
        return pack_header(obj.header) + self._FIXED.pack(obj.transfer_id, obj.completed_at)

    def from_bytes(self, data: bytes) -> TransferDone:
        header, offset = unpack_header(data)
        transfer_id, completed_at = self._FIXED.unpack_from(data, offset)
        return TransferDone(header, transfer_id, completed_at)

    def wire_size(self, obj: TransferDone) -> int:
        return packed_header_size(obj.header) + self._FIXED.size

    def variable_size(self, obj: TransferDone) -> int:
        return 0


def register_app_serializers(registry: SerializerRegistry) -> SerializerRegistry:
    """Register all application message serializers on ``registry``."""
    registry.register(TYPE_PING, PingMsg, PingSerializer())
    registry.register(TYPE_PONG, PongMsg, PongSerializer())
    registry.register(TYPE_CHUNK, DataChunkMsg, DataChunkSerializer())
    registry.register(TYPE_DONE, TransferDone, TransferDoneSerializer())
    return registry
