from enum import Enum

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SerializationError
from repro.messaging import (
    BasicAddress,
    NoCompression,
    PickleSerializer,
    Serializer,
    SerializerRegistry,
    SimulatedSnappy,
    VirtualAddress,
    pack_address,
    packed_address_size,
    unpack_address,
)


class TestAddressPacking:
    def test_roundtrip_basic(self):
        addr = BasicAddress("192.168.1.20", 34000)
        packed = pack_address(addr)
        out, offset = unpack_address(packed)
        assert out == addr
        assert offset == len(packed) == packed_address_size(addr)

    def test_unpack_reads_a_view(self):
        addr = VirtualAddress("10.0.0.1", 8080, b"vnode-42")
        packed = b"pre" + pack_address(addr)
        out, offset = unpack_address(memoryview(packed), 3)
        assert out == addr and offset == len(packed)
        assert type(out.ip) is str and type(out.vnode_id) is bytes

    def test_roundtrip_virtual(self):
        addr = VirtualAddress("10.0.0.1", 8080, b"vnode-42")
        out, _ = unpack_address(pack_address(addr))
        assert isinstance(out, VirtualAddress)
        assert out == addr
        assert out.vnode_id == b"vnode-42"

    def test_roundtrip_at_offset(self):
        addr = BasicAddress("1.2.3.4", 99)
        data = b"prefix" + pack_address(addr)
        out, offset = unpack_address(data, 6)
        assert out == addr
        assert offset == len(data)

    @given(
        st.from_regex(r"[0-9]{1,3}\.[0-9]{1,3}\.[0-9]{1,3}\.[0-9]{1,3}", fullmatch=True),
        st.integers(min_value=1, max_value=65535),
        st.one_of(st.none(), st.binary(min_size=1, max_size=32)),
    )
    @settings(max_examples=100, deadline=None)
    def test_roundtrip_property(self, ip, port, vnode):
        addr = VirtualAddress(ip, port, vnode) if vnode else BasicAddress(ip, port)
        out, offset = unpack_address(pack_address(addr))
        assert out == addr
        assert offset == packed_address_size(addr)


class Point:
    def __init__(self, x: int, y: int) -> None:
        self.x = x
        self.y = y

    def __eq__(self, other) -> bool:
        return isinstance(other, Point) and (self.x, self.y) == (other.x, other.y)


class PointSerializer(Serializer):
    def to_bytes(self, obj: Point) -> bytes:
        return f"{obj.x},{obj.y}".encode()

    def from_bytes(self, data: bytes) -> Point:
        x, y = data.decode().split(",")
        return Point(int(x), int(y))


class TestRegistry:
    def test_custom_serializer_roundtrip(self):
        reg = SerializerRegistry()
        reg.register(10, Point, PointSerializer())
        data = reg.serialize(Point(3, -4))
        assert reg.deserialize(data) == Point(3, -4)

    def test_subtype_uses_parent_serializer(self):
        class Point3(Point):
            pass

        reg = SerializerRegistry()
        reg.register(10, Point, PointSerializer())
        type_id, ser = reg.lookup(Point3(1, 2))
        assert type_id == 10

    def test_pickle_fallback(self):
        reg = SerializerRegistry(allow_pickle_fallback=True)
        data = reg.serialize({"a": [1, 2, 3]})
        assert reg.deserialize(data) == {"a": [1, 2, 3]}

    def test_fallback_disabled(self):
        reg = SerializerRegistry()
        with pytest.raises(SerializationError):
            reg.serialize(object())

    def test_duplicate_type_id_rejected(self):
        reg = SerializerRegistry()
        reg.register(10, Point, PointSerializer())
        with pytest.raises(SerializationError):
            reg.register(10, dict, PickleSerializer())

    def test_duplicate_class_rejected(self):
        reg = SerializerRegistry()
        reg.register(10, Point, PointSerializer())
        with pytest.raises(SerializationError):
            reg.register(11, Point, PointSerializer())

    def test_reserved_id_rejected(self):
        reg = SerializerRegistry()
        with pytest.raises(SerializationError):
            reg.register(0, Point, PointSerializer())

    def test_unknown_type_id(self):
        reg = SerializerRegistry()
        data = reg.serialize(Point(0, 0)) if False else None
        # Forge a frame with unregistered id 999.
        import struct

        frame = struct.pack(">HI", 999, 2) + b"xy"
        with pytest.raises(SerializationError):
            reg.deserialize(frame)

    def test_truncated_frame(self):
        import struct

        reg = SerializerRegistry()
        frame = struct.pack(">HI", 0, 100) + b"short"
        with pytest.raises(SerializationError):
            reg.deserialize(frame)

    def test_wire_size_matches_serialize(self):
        reg = SerializerRegistry()
        reg.register(10, Point, PointSerializer())
        p = Point(12, 34)
        assert reg.wire_size(p) == len(reg.serialize(p))


class CountingSerializer(Serializer):
    """Pickle-equivalent serializer that counts encode calls."""

    def __init__(self) -> None:
        self.encodes = 0

    def to_bytes(self, obj) -> bytes:
        self.encodes += 1
        return f"{obj.x},{obj.y}".encode()

    def from_bytes(self, data: bytes):
        x, y = data.decode().split(",")
        return Point(int(x), int(y))


class TestLookupCache:
    def test_lookup_memoized_per_concrete_type(self):
        reg = SerializerRegistry()
        reg.register(10, Point, PointSerializer())
        first = reg.lookup(Point(0, 0))
        assert reg.lookup(Point(1, 1)) == first
        assert Point in reg._lookup_cache

    def test_register_invalidates_lookup_cache(self):
        class Point3(Point):
            pass

        reg = SerializerRegistry()
        reg.register(10, Point, PointSerializer())
        type_id, _ = reg.lookup(Point3(1, 2))
        assert type_id == 10  # resolved via the parent, now cached
        reg.register(11, Point3, PointSerializer())
        type_id, _ = reg.lookup(Point3(1, 2))
        assert type_id == 11  # the more specific registration wins

    def test_cache_and_scan_agree(self):
        class Point3(Point):
            pass

        reg = SerializerRegistry(allow_pickle_fallback=True)
        reg.register(10, Point, PointSerializer())
        for obj in (Point(1, 2), Point3(3, 4), {"plain": "pickle"}):
            assert reg.lookup(obj) == reg._resolve(type(obj))


class TestSizeThenSerializeOnce:
    def test_size_then_serialize_encodes_once(self):
        """The send path's double-serialization fix: size + encode = 1 encode."""
        counting = CountingSerializer()
        reg = SerializerRegistry()
        reg.register(10, Point, counting)
        p = Point(5, 6)
        size = reg.wire_size(p)
        frame = reg.serialize(p)
        assert size == len(frame)
        assert counting.encodes == 1

    def test_cached_frame_is_per_object(self):
        counting = CountingSerializer()
        reg = SerializerRegistry()
        reg.register(10, Point, counting)
        a, b = Point(1, 1), Point(2, 2)
        reg.wire_size(a)  # caches a's frame
        frame_b = reg.serialize(b)  # different object: fresh encode
        assert reg.deserialize(frame_b) == b
        assert counting.encodes == 2
        # a's cached frame is still valid for a itself.
        assert reg.deserialize(reg.serialize(a)) == a
        assert counting.encodes == 2

    def test_cached_frame_consumed_once(self):
        counting = CountingSerializer()
        reg = SerializerRegistry()
        reg.register(10, Point, counting)
        p = Point(7, 8)
        reg.wire_size(p)
        first = reg.serialize(p)   # consumes the sized frame
        second = reg.serialize(p)  # re-encodes
        assert first == second
        assert counting.encodes == 2

    def test_sizing_serializer_skips_frame_cache(self):
        """Serializers with a real wire_size never trigger the encode cache."""

        class SizedSerializer(CountingSerializer):
            def wire_size(self, obj) -> int:
                return len(f"{obj.x},{obj.y}")

        counting = SizedSerializer()
        reg = SerializerRegistry()
        reg.register(10, Point, counting)
        p = Point(9, 9)
        assert reg.wire_size(p) == len(reg.serialize(p))
        assert counting.encodes == 1  # only the serialize() call encoded
        assert reg._sized_frame is None


class TestCompression:
    def test_no_compression_identity(self):
        codec = NoCompression()
        assert codec.compress(b"abc") == b"abc"
        assert codec.estimate_size(1000, 0.1) == 1000

    def test_snappy_sim_incompressible(self):
        codec = SimulatedSnappy()
        assert codec.estimate_size(65536, 1.0) == 65536 + codec.OVERHEAD

    def test_snappy_sim_ratio_floor(self):
        codec = SimulatedSnappy()
        # Snappy never does better than ~25% in this model.
        assert codec.estimate_size(10000, 0.01) == 2500 + codec.OVERHEAD

    def test_snappy_passthrough_bytes(self):
        codec = SimulatedSnappy()
        assert codec.decompress(codec.compress(b"x" * 10)) == b"x" * 10


def _held(obj):
    """Everything a decoded object holds, recursively, as plain values."""
    if isinstance(obj, (list, tuple)):
        return [_held(item) for item in obj]
    if isinstance(obj, (bool, int, float, str, bytes, memoryview, Enum, type(None))):
        return obj
    fields = dict(getattr(obj, "__dict__", {}))
    for cls in type(obj).__mro__:
        slots = getattr(cls, "__slots__", ())
        for name in (slots,) if isinstance(slots, str) else slots:
            if hasattr(obj, name):
                fields[name] = getattr(obj, name)
    fields.pop("msg_id", None)  # drawn per constructed message, not decoded
    return type(obj).__name__, {name: _held(value) for name, value in sorted(fields.items())}


def _views(held):
    if isinstance(held, memoryview):
        return 1
    if isinstance(held, (list, tuple)):
        return sum(_views(item) for item in held)
    if isinstance(held, dict):
        return sum(_views(value) for value in held.values())
    return 0


class TestDecodeFromView:
    """The socket backend decodes through a memoryview of the received frame."""

    def test_in_tree_serializers_decode_views_keep_none(self):
        from repro.apps import register_app_serializers
        from repro.apps.filetransfer.chunks import DataChunkMsg, TransferDone
        from repro.apps.gossip import DigestMsg, PullMsg, RumorMsg, register_gossip_serializers
        from repro.apps.pingpong.messages import PingMsg, PongMsg
        from repro.messaging import BasicHeader, DataHeader, Transport

        registry = register_gossip_serializers(register_app_serializers(SerializerRegistry()))
        src = BasicAddress("10.0.0.1", 34000)
        dst = VirtualAddress("10.0.0.2", 34001, b"vnode-7")
        header = BasicHeader(src, dst, Transport.TCP)
        ping = PingMsg(header, 7, 1.25)
        samples = [
            ping,
            PongMsg(BasicHeader(dst, src, Transport.UDT), 7, 1.25),
            DataChunkMsg(DataHeader(src, dst, Transport.DATA), 3, 9, 5, 10, 50, 0.5, b"abcde"),
            TransferDone(header, 3, 2.5),
            DigestMsg(header, [1, 2 ** 63]),
            PullMsg(header, []),
            RumorMsg(header, 5, b"rumour"),
        ]
        assert {type(msg) for msg in samples} == set(registry._by_type)
        for msg in samples:
            frame = registry.serialize(msg)
            from_bytes = registry.deserialize(frame)
            # As AioNetwork decodes: a view past the frame's epoch header.
            from_view = registry.deserialize(memoryview(b"\x00" * 8 + frame)[8:])
            assert _held(from_view) == _held(from_bytes)
            assert _views(_held(from_view)) == 0, type(msg).__name__
            assert registry.serialize(from_view) == frame
