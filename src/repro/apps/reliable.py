"""Application-level reliable delivery on top of the at-most-once network.

Paper §III-B: network messages are at-most-once by design — "If message
delivery is a concern for an application, it may implement resending and
acknowledgements itself."  This module is that implementation, packaged as
a reusable component so applications don't each rebuild it:

:class:`ReliabilityLayer` sits between a consumer and a network component
(like the data interceptor does), providing **exactly-once, per-sender
FIFO** delivery of the messages routed through it:

* outgoing messages are wrapped in a :class:`SeqEnvelope` with a
  per-destination sequence number and retransmitted until acknowledged;
* incoming envelopes are acknowledged (cumulatively), de-duplicated, and
  released in sequence order;
* everything else (acks, unrelated traffic) passes through untouched.

The layer works over any transport — including UDP, which turns the
paper's "lightweight but lossy" protocol into a usable reliable channel
where TCP's connection state is undesirable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from repro.kompics.component import ComponentDefinition
from repro.kompics.timer import SchedulePeriodicTimeout, Timeout, Timer
from repro.messaging.address import Address
from repro.messaging.message import BaseMsg, BasicHeader, Header, Msg
from repro.messaging.network_port import Network
from repro.messaging.serialization import Serializer, SerializerRegistry
from repro.messaging.transport import Transport

FlowKey = Tuple[str, int]


class SeqEnvelope(BaseMsg):
    """A consumer message wrapped with a reliability sequence number."""

    __slots__ = ("seq", "inner")

    def __init__(self, header: Header, seq: int, inner: Msg) -> None:
        super().__init__(header)
        self.seq = seq
        self.inner = inner


class AckMsg(BaseMsg):
    """Cumulative acknowledgement: everything below ``cumulative`` arrived."""

    __slots__ = ("cumulative",)

    def __init__(self, header: Header, cumulative: int) -> None:
        super().__init__(header)
        self.cumulative = cumulative


class SeqEnvelopeSerializer(Serializer):
    """Wire format: header + seq + the framed inner message."""

    _OVERHEAD = 4  # u32 sequence number

    def __init__(self, registry: SerializerRegistry) -> None:
        self.registry = registry

    def to_bytes(self, obj: SeqEnvelope) -> bytes:
        import struct

        from repro.apps.serializers import pack_header

        return (
            pack_header(obj.header)
            + struct.pack(">I", obj.seq)
            + self.registry.serialize(obj.inner)
        )

    def from_bytes(self, data: bytes) -> SeqEnvelope:
        import struct

        from repro.apps.serializers import unpack_header

        header, offset = unpack_header(data)
        (seq,) = struct.unpack_from(">I", data, offset)
        inner = self.registry.deserialize(data[offset + 4:])
        return SeqEnvelope(header, seq, inner)

    def wire_size(self, obj: SeqEnvelope) -> int:
        from repro.apps.serializers import packed_header_size

        return packed_header_size(obj.header) + self._OVERHEAD + self.registry.wire_size(obj.inner)


class AckSerializer(Serializer):
    def to_bytes(self, obj: AckMsg) -> bytes:
        import struct

        from repro.apps.serializers import pack_header

        return pack_header(obj.header) + struct.pack(">I", obj.cumulative)

    def from_bytes(self, data: bytes) -> AckMsg:
        import struct

        from repro.apps.serializers import unpack_header

        header, offset = unpack_header(data)
        (cumulative,) = struct.unpack_from(">I", data, offset)
        return AckMsg(header, cumulative)

    def wire_size(self, obj: AckMsg) -> int:
        from repro.apps.serializers import packed_header_size

        return packed_header_size(obj.header) + 4


def register_reliability_serializers(registry: SerializerRegistry) -> SerializerRegistry:
    """Register the envelope serializers (type ids 120/121)."""
    registry.register(120, SeqEnvelope, SeqEnvelopeSerializer(registry))
    registry.register(121, AckMsg, AckSerializer())
    return registry


class _RetransmitTick(Timeout):
    __slots__ = ()


@dataclass
class _OutgoingFlow:
    next_seq: int = 0
    #: seq -> (envelope, first_sent_at)
    unacked: Dict[int, Tuple[SeqEnvelope, float]] = field(default_factory=dict)


@dataclass
class _IncomingFlow:
    expected: int = 0
    #: out-of-order buffer: seq -> inner message
    pending: Dict[int, Msg] = field(default_factory=dict)
    duplicates: int = 0


class ReliabilityLayer(ComponentDefinition):
    """Exactly-once FIFO delivery between matching layer instances.

    Both communication endpoints must run a ReliabilityLayer; the wrapped
    envelopes and acks travel over whatever transport each message's
    header names (``transport_override`` forces one, e.g. UDP).
    """

    def __init__(
        self,
        self_address: Address,
        retransmit_timeout: float = 0.3,
        transport_override: Optional[Transport] = None,
    ) -> None:
        super().__init__()
        self.upper = self.provides(Network)
        self.lower = self.requires(Network)
        self.timer = self.requires(Timer)
        self.self_address = self_address
        self.retransmit_timeout = retransmit_timeout
        self.transport_override = transport_override

        self.outgoing: Dict[FlowKey, _OutgoingFlow] = {}
        self.incoming: Dict[FlowKey, _IncomingFlow] = {}
        self.retransmissions = 0

        self.subscribe(self.upper, Msg, self._on_consumer_msg)
        self.subscribe(self.lower, SeqEnvelope, self._on_envelope)
        self.subscribe(self.lower, AckMsg, self._on_ack)
        self.subscribe(self.lower, Msg, self._on_other_msg)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def on_start(self) -> None:
        from repro.kompics.matchers import match_fields

        tick = _RetransmitTick()
        # Timeout indications broadcast on shared timers: match our id.
        self.subscribe_matching(
            self.timer, _RetransmitTick, self._on_tick,
            match_fields(timeout_id=tick.timeout_id),
        )
        period = max(self.retransmit_timeout / 2, 1e-3)
        self.trigger(SchedulePeriodicTimeout(period, period, tick), self.timer)

    # ------------------------------------------------------------------
    # sending
    # ------------------------------------------------------------------
    def _on_consumer_msg(self, msg: Msg) -> None:
        if isinstance(msg, (SeqEnvelope, AckMsg)):
            return  # never re-wrap our own control traffic
        destination = msg.header.destination
        key: FlowKey = destination.as_socket()
        flow = self.outgoing.setdefault(key, _OutgoingFlow())
        transport = self.transport_override or msg.header.protocol
        envelope = SeqEnvelope(
            BasicHeader(self.self_address, destination, transport),
            flow.next_seq,
            msg,
        )
        flow.unacked[flow.next_seq] = (envelope, self.clock.now())
        flow.next_seq += 1
        self.trigger(envelope, self.lower)

    def _on_tick(self, tick: _RetransmitTick) -> None:
        now = self.clock.now()
        for flow in self.outgoing.values():
            for seq, (envelope, sent_at) in sorted(flow.unacked.items()):
                if now - sent_at >= self.retransmit_timeout:
                    flow.unacked[seq] = (envelope, now)
                    self.retransmissions += 1
                    self.trigger(envelope, self.lower)

    def _on_ack(self, ack: AckMsg) -> None:
        key: FlowKey = ack.header.source.as_socket()
        flow = self.outgoing.get(key)
        if flow is None:
            return
        for seq in [s for s in flow.unacked if s < ack.cumulative]:
            del flow.unacked[seq]

    # ------------------------------------------------------------------
    # receiving
    # ------------------------------------------------------------------
    def _on_envelope(self, envelope: SeqEnvelope) -> None:
        source = envelope.header.source
        key: FlowKey = source.as_socket()
        flow = self.incoming.setdefault(key, _IncomingFlow())

        if envelope.seq < flow.expected or envelope.seq in flow.pending:
            flow.duplicates += 1
        else:
            flow.pending[envelope.seq] = envelope.inner
            while flow.expected in flow.pending:
                self.trigger(flow.pending.pop(flow.expected), self.upper)
                flow.expected += 1

        transport = self.transport_override or envelope.header.protocol
        ack = AckMsg(BasicHeader(self.self_address, source, transport), flow.expected)
        self.trigger(ack, self.lower)

    def _on_other_msg(self, msg: Msg) -> None:
        # Unrelated inbound traffic passes through transparently.
        if isinstance(msg, (SeqEnvelope, AckMsg)):
            return
        self.trigger(msg, self.upper)

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def unacked_count(self) -> int:
        return sum(len(f.unacked) for f in self.outgoing.values())
