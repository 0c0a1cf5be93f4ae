"""Serialization: registry, framing, and default serializers.

Every message class is serialized by a registered :class:`Serializer`
under a stable 16-bit type id; frames are ``>HI`` (type id + body length)
followed by the body.  ``wire_size`` lets serializers report exact sizes
without materialising bytes — the simulation transport carries message
*sizes* (fluid model) while the asyncio backend and the round-trip tests
use the real byte paths.
"""

from __future__ import annotations

import pickle
import struct
from abc import ABC, abstractmethod
from typing import Any, Callable, Dict, Optional, Tuple, Type

from repro.errors import SerializationError
from repro.messaging.address import Address, BasicAddress, VirtualAddress

FRAME_HEADER = struct.Struct(">HI")  # type id, body length
PICKLE_TYPE_ID = 0
#: (class, header) pairs whose fixed frame size one registry remembers
SIZES_LIMIT = 1024


class Serializer(ABC):
    """Encodes/decodes one class (and, by registration, its subtypes)."""

    @abstractmethod
    def to_bytes(self, obj: Any) -> bytes: ...

    @abstractmethod
    def from_bytes(self, data: bytes) -> Any:
        """Decode ``data``, bytes or a read-only memoryview; keep no view of it."""

    def wire_size(self, obj: Any) -> int:
        """Body size in bytes; override when computable without encoding."""
        return len(self.to_bytes(obj))

    def variable_size(self, obj: Any) -> Optional[int]:
        """The part of :meth:`wire_size` not fixed by ``obj``'s class and header.

        ``None`` (the default) means the size has no such split.  A number
        promises that ``wire_size(obj) - variable_size(obj)`` is the same
        for every object of one class carrying one header, so the
        registry sizes that part once and adds this per message.
        """
        return None


class PickleSerializer(Serializer):
    """Fallback serializer; convenient but neither compact nor portable."""

    def to_bytes(self, obj: Any) -> bytes:
        return pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)

    def from_bytes(self, data: bytes) -> Any:
        return pickle.loads(data)


class SerializerRegistry:
    """Type-id <-> serializer mapping with mro-based lookup.

    Two memoization layers keep the per-message cost flat:

    * the MRO walk in :meth:`lookup` resolves once per concrete type and
      is cached (invalidated by :meth:`register`);
    * for serializers that split their size (:meth:`Serializer.variable_size`)
      :meth:`wire_size` computes the part fixed by class and header once
      per (class, header) pair.

    An unregistered class is an error unless ``allow_pickle_fallback``
    is set: the fallback would ``pickle.loads`` type-id-0 frames, so only
    a registry that never decodes foreign bytes may opt in.
    """

    def __init__(self, allow_pickle_fallback: bool = False) -> None:
        self._by_type: Dict[Type, Tuple[int, Serializer]] = {}
        self._by_id: Dict[int, Serializer] = {}
        self._pickle: Optional[PickleSerializer] = PickleSerializer() if allow_pickle_fallback else None
        if self._pickle is not None:
            self._by_id[PICKLE_TYPE_ID] = self._pickle
        #: concrete type -> resolved (type_id, serializer)
        self._lookup_cache: Dict[Type, Tuple[int, Serializer]] = {}
        #: (class, header) -> (framed size they fix, the serializer's
        #: variable_size); emptied when full, so headers made per message
        #: cannot grow it without bound
        self._sizes: Dict[Tuple[Type, Any], Tuple[int, Callable[[Any], int]]] = {}

    @property
    def allow_pickle_fallback(self) -> bool:
        """True when unregistered classes fall back to pickle."""
        return self._pickle is not None

    def register(self, type_id: int, cls: Type, serializer: Serializer) -> None:
        if type_id == PICKLE_TYPE_ID:
            raise SerializationError("type id 0 is reserved for the pickle fallback")
        if type_id in self._by_id:
            raise SerializationError(f"type id {type_id} already registered")
        if cls in self._by_type:
            raise SerializationError(f"{cls.__name__} already has a serializer")
        self._by_type[cls] = (type_id, serializer)
        self._by_id[type_id] = serializer
        self._lookup_cache.clear()
        self._sizes.clear()

    def lookup(self, obj: Any) -> Tuple[int, Serializer]:
        """Find the serializer for ``obj`` walking its mro."""
        cls = obj.__class__
        entry = self._lookup_cache.get(cls)
        if entry is None:
            entry = self._resolve(cls)
            self._lookup_cache[cls] = entry
        return entry

    def _resolve(self, cls: Type) -> Tuple[int, Serializer]:
        for base in cls.__mro__:
            entry = self._by_type.get(base)
            if entry is not None:
                return entry
        if self._pickle is not None:
            return (PICKLE_TYPE_ID, self._pickle)
        raise SerializationError(f"no serializer for {cls.__name__}")

    # ------------------------------------------------------------------
    # framed encode/decode
    # ------------------------------------------------------------------
    def serialize(self, obj: Any) -> bytes:
        type_id, serializer = self.lookup(obj)
        body = serializer.to_bytes(obj)
        return FRAME_HEADER.pack(type_id, len(body)) + body

    def deserialize(self, data: bytes) -> Any:
        if len(data) < FRAME_HEADER.size:
            raise SerializationError(f"frame too short: {len(data)} bytes")
        type_id, length = FRAME_HEADER.unpack_from(data)
        body = data[FRAME_HEADER.size:FRAME_HEADER.size + length]
        if len(body) != length:
            raise SerializationError(f"truncated frame: expected {length}, got {len(body)}")
        serializer = self._by_id.get(type_id)
        if serializer is None:
            raise SerializationError(f"unknown type id {type_id}")
        return serializer.from_bytes(body)

    def wire_size(self, obj: Any) -> int:
        """Framed size without materialising the body where possible.

        Serializers that can compute their size do so without encoding;
        the rest (notably the pickle fallback) encode to measure.
        """
        try:
            key = (obj.__class__, obj.header)
            sized = self._sizes.get(key)
        except (AttributeError, TypeError):  # no header, or unhashable
            key = sized = None
        if sized is not None:
            return sized[0] + sized[1](obj)
        serializer = self.lookup(obj)[1]
        size = FRAME_HEADER.size + serializer.wire_size(obj)
        if key is not None:
            variable = serializer.variable_size(obj)
            if variable is not None:
                if len(self._sizes) >= SIZES_LIMIT:
                    self._sizes.clear()
                self._sizes[key] = (size - variable, serializer.variable_size)
        return size


# ----------------------------------------------------------------------
# address packing helpers (reused by message serializers)
# ----------------------------------------------------------------------

def pack_address(address: Address) -> bytes:
    """ip (len-prefixed utf8) + port (u16) + vnode id (len-prefixed, 0 = none)."""
    ip = address.ip.encode("utf-8")
    if len(ip) > 255:
        raise SerializationError("ip too long")
    vnode = getattr(address, "vnode_id", None) or b""
    if len(vnode) > 255:
        raise SerializationError("vnode id too long")
    return bytes([len(ip)]) + ip + struct.pack(">H", address.port) + bytes([len(vnode)]) + vnode


def unpack_address(data: bytes, offset: int = 0) -> Tuple[Address, int]:
    """Inverse of :func:`pack_address`; returns (address, next_offset)."""
    ip_len = data[offset]
    offset += 1
    ip = str(data[offset:offset + ip_len], "utf-8")
    offset += ip_len
    (port,) = struct.unpack_from(">H", data, offset)
    offset += 2
    vnode_len = data[offset]
    offset += 1
    vnode = bytes(data[offset:offset + vnode_len])
    offset += vnode_len
    if vnode:
        return VirtualAddress(ip, port, vnode), offset
    return BasicAddress(ip, port), offset


def packed_address_size(address: Address) -> int:
    # The built-in address classes precompute their packed size (they are
    # immutable); arbitrary Address implementations take the slow path.
    size = getattr(address, "_packed_size", None)
    if size is not None:
        return size
    vnode = getattr(address, "vnode_id", None) or b""
    ip = address.ip
    # ASCII ips (the common case) need no encode to know their byte length.
    ip_len = len(ip) if ip.isascii() else len(ip.encode("utf-8"))
    return 1 + ip_len + 2 + 1 + len(vnode)
