"""The Transport enum: the per-message protocol choice.

The paper's headline feature is that every message header names its
transport (§III-A, listing 3).  ``DATA`` is the pseudo-protocol introduced
by the adaptive selection layer (§IV-A): the interceptor replaces it with
TCP or UDT at runtime before the message reaches the network component.
"""

from __future__ import annotations

import enum

from repro.errors import TransportError
from repro.netsim.link import Proto


class Transport(enum.Enum):
    UDP = "udp"
    TCP = "tcp"
    UDT = "udt"
    #: scavenger background transport (extension beyond the paper's three;
    #: §I notes LEDBAT was implemented on Kompics/UDP before, and §IV
    #: invites extending the selection machinery to other protocols)
    LEDBAT = "ledbat"
    #: pseudo-protocol resolved to TCP/UDT by the data interceptor (§IV-A)
    DATA = "data"

    # Members are singletons: hash by identity in C (see Proto.__hash__).
    __hash__ = object.__hash__

    @property
    def is_wire_protocol(self) -> bool:
        """True for protocols the network component can put on the wire."""
        return self is not Transport.DATA

    def to_proto(self) -> Proto:
        """Map to the simulator's wire protocol (same value)."""
        if self is Transport.DATA:
            raise TransportError(f"{self.value} is not a wire protocol")
        return Proto(self.value)
