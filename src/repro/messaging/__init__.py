"""KompicsMessaging: the messaging middleware layer (paper §III).

Public surface:

* :class:`Transport` — per-message protocol choice (UDP/TCP/UDT + DATA).
* :class:`Address` / :class:`BasicAddress` / :class:`VirtualAddress`.
* :class:`Msg`, :class:`Header`, :class:`BasicHeader`, :class:`DataHeader`,
  :class:`RoutingHeader`, :class:`Route`, :class:`BaseMsg`.
* :class:`Network` port and :class:`MessageNotify`.
* :class:`NetworkComponent` — the port's send/receive pipeline, shared
  by :class:`NettyNetwork` (simulation backend) and ``repro.aio``.
* :class:`VirtualNetworkChannel` — vnode routing.
* Serialization registry and compression codecs.
"""

from repro.messaging.address import Address, BasicAddress, VirtualAddress, vnode_id_of
from repro.messaging.channels import ChannelPool, ChannelRef
from repro.messaging.compression import (
    CompressionCodec,
    NoCompression,
    SimulatedSnappy,
)
from repro.messaging.message import (
    BaseMsg,
    BasicHeader,
    DataHeader,
    Header,
    Msg,
    Route,
    RoutingHeader,
)
from repro.messaging.netty import NettyNetwork
from repro.messaging.network_component import NetworkComponent
from repro.messaging.network_port import MessageNotify, Network, TransportStatus
from repro.messaging.recovery import ChannelRecovery, ReconnectPolicy
from repro.messaging.serialization import (
    PickleSerializer,
    Serializer,
    SerializerRegistry,
    pack_address,
    packed_address_size,
    unpack_address,
)
from repro.messaging.transport import Transport
from repro.messaging.vnet import VirtualNetworkChannel

__all__ = [
    "Transport",
    "Address",
    "BasicAddress",
    "VirtualAddress",
    "vnode_id_of",
    "Msg",
    "Header",
    "BasicHeader",
    "DataHeader",
    "RoutingHeader",
    "Route",
    "BaseMsg",
    "Network",
    "MessageNotify",
    "TransportStatus",
    "NetworkComponent",
    "NettyNetwork",
    "ReconnectPolicy",
    "ChannelRecovery",
    "VirtualNetworkChannel",
    "ChannelPool",
    "ChannelRef",
    "Serializer",
    "SerializerRegistry",
    "PickleSerializer",
    "pack_address",
    "unpack_address",
    "packed_address_size",
    "CompressionCodec",
    "NoCompression",
    "SimulatedSnappy",
]
