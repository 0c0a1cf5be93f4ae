"""Messages, headers and multi-hop routes (paper listings 2, 3, 5).

``Msg`` and ``Header`` are deliberately thin interfaces so applications can
pick implementations that suit them without extending library classes or
relying on runtime casts (§III-A).  The library ships the default
implementations ``BasicHeader`` / ``BaseMsg``, a ``DataHeader`` carrying
the adaptive ``Transport.DATA`` pseudo-protocol, and ``RoutingHeader`` for
multi-hop forwarding with direct reply (listing 5).
"""

from __future__ import annotations

import itertools
from typing import List, Optional, Sequence

from repro.kompics.event import KompicsEvent
from repro.messaging.address import Address
from repro.messaging.transport import Transport

_msg_ids = itertools.count()

# Per-class compiled copiers for BaseMsg.__copy__ (direct slot-to-slot
# assignment, no per-attribute getattr/setattr).  copy.copy on a slotted
# class otherwise detours through __reduce_ex__/copy._reconstruct, which
# shows up on the bulk path at one clone per chunk (with_protocol).
_copiers: dict = {}


def _slots_of(cls: type) -> tuple:
    names: List[str] = []
    for klass in cls.__mro__:
        declared = klass.__dict__.get("__slots__", ())
        if isinstance(declared, str):
            declared = (declared,)
        for name in declared:
            if name not in ("__dict__", "__weakref__") and name not in names:
                names.append(name)
    return tuple(names)


def _make_copier(cls: type):
    """Compile a straight-line copier for ``cls`` (dataclass-style).

    Assumes every declared slot is assigned; __copy__ falls back to the
    tolerant per-attribute loop when that assumption breaks.
    """
    lines = ["def _copy(self):", "    clone = _new(cls)"]
    for name in _slots_of(cls):
        lines.append(f"    clone.{name} = self.{name}")
    if cls.__dictoffset__:
        lines.append("    state = self.__dict__")
        lines.append("    if state:")
        lines.append("        clone.__dict__.update(state)")
    lines.append("    return clone")
    namespace = {"cls": cls, "_new": cls.__new__}
    exec("\n".join(lines), namespace)  # noqa: S102 - static, class-derived source
    return namespace["_copy"]


class Header:
    """Routing metadata of a message (listing 3).

    An interface, not a base to inherit from: anything with ``source``,
    ``destination`` (both :class:`Address`) and ``protocol``
    (:class:`Transport`) attributes is a header.  Headers are immutable
    once sent — the network derives the route and the wire size from a
    header once and reuses them for every message carrying it.
    """

    __slots__ = ()

    source: Address
    destination: Address
    protocol: Transport


class Msg(KompicsEvent):
    """Anything with a ``header`` can travel over the network port (listing 2).

    Routing fields are read from the header: ``msg.header.destination``.
    """

    __slots__ = ()

    header: Header


class BasicHeader(Header):
    """Immutable default header: its fields are plain attributes."""

    __slots__ = ("source", "destination", "protocol", "_stamped")

    def __init__(self, source: Address, destination: Address, protocol: Transport) -> None:
        self.source = source
        self.destination = destination
        self.protocol = protocol
        #: memoized with_protocol results — headers are immutable, so the
        #: stamped variants can be shared by every message reusing this
        #: header (the bulk sender stamps one header once per chunk)
        self._stamped = None

    def with_protocol(self, protocol: Transport) -> "BasicHeader":
        """A copy with the transport replaced (headers stay immutable)."""
        stamped = self._stamped
        if stamped is None:
            stamped = self._stamped = {}
        header = stamped.get(protocol)
        if header is None:
            header = stamped[protocol] = type(self)(self.source, self.destination, protocol)
        return header

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{self.source!r}->{self.destination!r}/{self.protocol.value}"


class DataHeader(BasicHeader):
    """Header for bulk data: defaults to the adaptive DATA pseudo-protocol.

    The data interceptor (§IV-A) recognises this header type and replaces
    ``Transport.DATA`` with TCP or UDT transparently at runtime.
    """

    __slots__ = ()

    def __init__(self, source: Address, destination: Address, protocol: Transport = Transport.DATA) -> None:
        super().__init__(source, destination, protocol)
        # with_protocol is inherited: type(self) keeps the DataHeader class.


class Route:
    """An explicit multi-hop path: remaining hops plus the true endpoints."""

    __slots__ = ("source", "hops", "index")

    def __init__(self, source: Address, hops: Sequence[Address], index: int = 0) -> None:
        if not hops:
            raise ValueError("a route needs at least one hop")
        self.source = source
        self.hops: List[Address] = list(hops)
        self.index = index

    @property
    def destination(self) -> Address:
        """The next hop to forward to."""
        return self.hops[self.index]

    @property
    def final_destination(self) -> Address:
        return self.hops[-1]

    def has_next(self) -> bool:
        return self.index < len(self.hops) - 1

    def advance(self) -> "Route":
        """The route as seen by the next hop."""
        if not self.has_next():
            raise IndexError("route exhausted")
        return Route(self.source, self.hops, self.index + 1)


class RoutingHeader(Header):
    """Multi-hop header (listing 5): wraps a base header with a Route.

    While a route is present, ``destination`` is the next hop; ``source``
    stays the original sender so that the final recipient can reply
    directly.
    """

    __slots__ = ("base", "route")

    def __init__(self, base: BasicHeader, route: Optional[Route] = None) -> None:
        self.base = base
        self.route = route

    @property
    def source(self) -> Address:
        if self.route is not None:
            return self.route.source
        return self.base.source

    @property
    def destination(self) -> Address:
        if self.route is not None and self.route.has_next():
            return self.route.destination
        if self.route is not None:
            return self.route.final_destination
        return self.base.destination

    @property
    def protocol(self) -> Transport:
        return self.base.protocol

    def next_hop(self) -> "RoutingHeader":
        """Header for the message as forwarded by the current hop."""
        if self.route is None or not self.route.has_next():
            raise IndexError("no further hops")
        return RoutingHeader(self.base, self.route.advance())


class BaseMsg(Msg):
    """Convenient concrete message: header + optional opaque payload.

    Applications typically subclass this (or implement ``Msg`` directly)
    and add typed fields.  ``msg_id`` supports notification correlation.
    """

    __slots__ = ("header", "msg_id")

    def __init__(self, header: Header) -> None:
        self.header = header
        self.msg_id = next(_msg_ids)

    def with_protocol(self, protocol: Transport) -> "BaseMsg":
        """A shallow copy with the header's transport replaced.

        The message itself stays immutable; this is how the data
        interceptor replaces ``Transport.DATA`` with the selected wire
        protocol transparently at runtime (§IV-A).  Requires a header
        implementation with ``with_protocol`` (e.g. :class:`BasicHeader`).
        """
        replace = getattr(self.header, "with_protocol", None)
        if replace is None:
            raise TypeError(
                f"{type(self.header).__name__} does not support protocol replacement"
            )
        # copy.copy(self) resolves to __copy__ anyway; call it directly —
        # the data interceptor stamps every data message through here.
        clone = self.__copy__()
        clone.header = replace(protocol)
        return clone

    def __copy__(self) -> "BaseMsg":
        cls = type(self)
        copier = _copiers.get(cls)
        if copier is None:
            copier = _copiers[cls] = _make_copier(cls)
        try:
            return copier(self)
        except AttributeError:
            pass  # a slot declared but never assigned: take the slow path
        clone = cls.__new__(cls)
        for name in _slots_of(cls):
            try:
                setattr(clone, name, getattr(self, name))
            except AttributeError:
                pass
        state = getattr(self, "__dict__", None)
        if state:
            clone.__dict__.update(state)
        return clone

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(#{self.msg_id} {self.header!r})"
