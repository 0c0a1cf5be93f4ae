import pytest

from repro.errors import AddressError
from repro.messaging import (
    BaseMsg,
    BasicAddress,
    BasicHeader,
    DataHeader,
    Route,
    RoutingHeader,
    Transport,
    VirtualAddress,
    vnode_id_of,
)

A = BasicAddress("10.0.0.1", 1000)
B = BasicAddress("10.0.0.2", 1000)
C = BasicAddress("10.0.0.3", 1000)


class TestAddress:
    def test_validation(self):
        with pytest.raises(AddressError):
            BasicAddress("", 1000)
        with pytest.raises(AddressError):
            BasicAddress("10.0.0.1", 0)
        with pytest.raises(AddressError):
            BasicAddress("10.0.0.1", 70000)

    def test_equality_and_hash(self):
        assert BasicAddress("10.0.0.1", 1000) == A
        assert hash(BasicAddress("10.0.0.1", 1000)) == hash(A)
        assert A != B

    def test_same_host_as(self):
        assert A.same_host_as(BasicAddress("10.0.0.1", 2000))
        assert not A.same_host_as(B)

    def test_as_socket(self):
        assert A.as_socket() == ("10.0.0.1", 1000)

    def test_virtual_address(self):
        v = A.with_vnode(b"x1")
        assert isinstance(v, VirtualAddress)
        assert v.vnode_id == b"x1"
        assert v != A  # vnode id distinguishes
        assert v == A.with_vnode(b"x1") and hash(v) == hash(A.with_vnode(b"x1"))
        assert v.same_host_as(A)
        assert v.as_socket() == A.as_socket()  # a vnode is dialled at its host
        assert vnode_id_of(v) == b"x1"
        assert vnode_id_of(A) is None

    def test_virtual_address_validation(self):
        with pytest.raises(AddressError):
            VirtualAddress("10.0.0.1", 1000, b"")


class TestHeaders:
    def test_basic_header(self):
        h = BasicHeader(A, B, Transport.TCP)
        assert h.source is A and h.destination is B and h.protocol is Transport.TCP

    def test_with_protocol_copies(self):
        h = BasicHeader(A, B, Transport.TCP)
        h2 = h.with_protocol(Transport.UDT)
        assert h.protocol is Transport.TCP
        assert h2.protocol is Transport.UDT
        assert h2.source is A

    def test_data_header_defaults_to_data(self):
        h = DataHeader(A, B)
        assert h.protocol is Transport.DATA
        assert isinstance(h.with_protocol(Transport.TCP), DataHeader)

    def test_msg_ids_unique(self):
        h = BasicHeader(A, B, Transport.TCP)
        assert BaseMsg(h).msg_id != BaseMsg(h).msg_id


class TestTransport:
    def test_wire_protocols(self):
        assert Transport.TCP.is_wire_protocol
        assert not Transport.DATA.is_wire_protocol

    def test_proto_mapping(self):
        from repro.netsim import Proto

        assert Transport.TCP.to_proto() is Proto.TCP
        assert Transport.UDP.to_proto() is Proto.UDP
        assert Transport.UDT.to_proto() is Proto.UDT

    def test_data_has_no_proto(self):
        from repro.errors import TransportError

        with pytest.raises(TransportError):
            Transport.DATA.to_proto()


class TestRouting:
    def test_route_requires_hops(self):
        with pytest.raises(ValueError):
            Route(A, [])

    def test_routing_header_walks_hops(self):
        base = BasicHeader(A, C, Transport.TCP)
        header = RoutingHeader(base, Route(A, [B, C]))
        # At the first hop the destination is the relay B.
        assert header.destination == B
        assert header.source == A  # original sender preserved for replies
        nxt = header.next_hop()
        assert nxt.destination == C
        assert nxt.source == A
        assert not nxt.route.has_next()
        with pytest.raises(IndexError):
            nxt.next_hop()

    def test_routing_header_without_route_uses_base(self):
        base = BasicHeader(A, C, Transport.TCP)
        header = RoutingHeader(base)
        assert header.destination == C
        assert header.source == A

    def test_protocol_from_base(self):
        header = RoutingHeader(BasicHeader(A, C, Transport.UDT), Route(A, [B, C]))
        assert header.protocol is Transport.UDT
