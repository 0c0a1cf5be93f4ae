"""Addresses (paper listing 4).

The interface deliberately specifies only what the network implementation
needs — IP, port, socket form and a same-host predicate — so applications
can bring their own implementations (paper §III-A).  ``VirtualAddress``
adds the vnode identifier used by the virtual-network package (§III-B).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Optional, Tuple

from repro.errors import AddressError

Socket = Tuple[str, int]


class Address(ABC):
    """Minimum features the network implementation requires."""

    @property
    @abstractmethod
    def ip(self) -> str:
        """The host's IP address (as a string)."""

    @property
    @abstractmethod
    def port(self) -> int:
        """The middleware instance's port."""

    def as_socket(self) -> Socket:
        """The (ip, port) pair the network layer binds/connects on."""
        return (self.ip, self.port)

    def same_host_as(self, other: "Address") -> bool:
        """True when both addresses live on the same machine."""
        return self.ip == other.ip


class BasicAddress(Address):
    """Immutable default implementation."""

    __slots__ = ("_ip", "_port", "_sock", "_packed_size")

    def __init__(self, ip: str, port: int) -> None:
        if not ip:
            raise AddressError("ip must be non-empty")
        if not 0 < port < 65536:
            raise AddressError(f"port {port} out of range")
        self._ip = ip
        self._port = port
        # Addresses are immutable, and as_socket() / serialized sizing sit
        # on the network's per-message path: derive both once.
        self._sock = (ip, port)
        ip_len = len(ip) if ip.isascii() else len(ip.encode("utf-8"))
        self._packed_size = 1 + ip_len + 2 + 1

    @property
    def ip(self) -> str:
        return self._ip

    @property
    def port(self) -> int:
        return self._port

    def as_socket(self) -> Socket:
        return self._sock

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Address)
            and self.ip == other.ip
            and self.port == other.port
            and getattr(other, "vnode_id", None) is None
        )

    def __hash__(self) -> int:
        return hash((self._ip, self._port))

    def __repr__(self) -> str:
        return f"{self._ip}:{self._port}"

    def with_vnode(self, vnode_id: bytes) -> "VirtualAddress":
        """Address the vnode ``vnode_id`` at this host/port."""
        return VirtualAddress(self._ip, self._port, vnode_id)


class VirtualAddress(BasicAddress):
    """Address of a virtual node: host/port plus a vnode identifier.

    Messages between vnodes of the same middleware instance never touch the
    wire — the network component reflects them back up (paper §III-B).
    """

    __slots__ = ("_vnode_id",)

    def __init__(self, ip: str, port: int, vnode_id: bytes) -> None:
        super().__init__(ip, port)
        if not isinstance(vnode_id, bytes) or not vnode_id:
            raise AddressError("vnode_id must be non-empty bytes")
        self._vnode_id = vnode_id
        self._packed_size += len(vnode_id)

    @property
    def vnode_id(self) -> bytes:
        return self._vnode_id

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Address)
            and self.ip == other.ip
            and self.port == other.port
            and getattr(other, "vnode_id", None) == self._vnode_id
        )

    def __hash__(self) -> int:
        return hash((self.ip, self.port, self._vnode_id))

    def __repr__(self) -> str:
        return f"{self.ip}:{self.port}/{self._vnode_id.hex()}"


def vnode_id_of(address: Address) -> Optional[bytes]:
    """The vnode id of ``address`` or None for plain host addresses."""
    return getattr(address, "vnode_id", None)
