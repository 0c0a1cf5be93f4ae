"""Virtual networks: many addressable vnodes over one network component.

A *virtual node* is a subtree of the component hierarchy addressed by an
id carried in :class:`~repro.messaging.address.VirtualAddress` (§III-B).
All vnodes of one host share the NettyNetwork instance; this module's
channel factory attaches selector-filtered channels so each vnode only
sees messages addressed to its id.  Messages between vnodes of the same
instance are reflected by NettyNetwork without serialization and then
routed here like any other indication.
"""

from __future__ import annotations

from repro.kompics.channel import Channel, ChannelSelector
from repro.kompics.component import Component
from repro.kompics.event import KompicsEvent
from repro.kompics.port import Port
from repro.kompics.runtime import KompicsSystem
from repro.messaging.address import vnode_id_of
from repro.messaging.message import Msg
from repro.messaging.network_port import Network


class VirtualNetworkChannel:
    """Connects vnode Network ports to a network component with id routing.

    Non-``Msg`` indications (``MessageNotify.Resp``) pass to every vnode —
    correlation happens via ``notify_id``, mirroring the broadcast-and-
    ignore philosophy of Kompics channels.
    """

    def __init__(self, system: KompicsSystem, network: Component) -> None:
        self.system = system
        self.network_port = network.provided(Network)

    def connect_vnode(self, port: Port, vnode_id: bytes) -> Channel:
        """Deliver only messages whose destination carries ``vnode_id``."""
        if not isinstance(vnode_id, bytes) or not vnode_id:
            raise ValueError("vnode_id must be non-empty bytes")

        def matches(event: KompicsEvent) -> bool:
            if isinstance(event, Msg):
                return vnode_id_of(event.header.destination) == vnode_id
            return True

        return self.system.connect(self.network_port, port, ChannelSelector(on_indication=matches))
