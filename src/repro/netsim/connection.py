"""Connections and the fluid message-transmission machinery."""

from __future__ import annotations

import enum
import math
from collections import deque
from random import Random
from typing import TYPE_CHECKING, Any, Callable, Deque, List, Optional, Tuple

from repro.check import get_checker
from repro.errors import ConnectionClosedError
from repro.netsim.congestion import CongestionControl
from repro.netsim.link import LinkDirection, Proto
from repro.sim import Simulator

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.netsim.host import NetworkStack


class WireMessage:
    """A middleware message handed to the transport layer.

    ``payload`` is opaque to the simulator (the messaging layer passes its
    serialized envelope); ``size`` is the on-wire byte count after
    serialization and compression.  ``on_sent`` fires at transmission end
    (success) or when the message is dropped/aborted (failure) — this is
    the signal behind the middleware's ``MessageNotify`` feature.
    """

    __slots__ = ("payload", "size", "on_sent", "check_seq")

    def __init__(self, payload: Any, size: int, on_sent: Optional[Callable[[bool], None]] = None) -> None:
        if size <= 0:
            raise ValueError("message size must be positive")
        self.payload = payload
        self.size = size
        self.on_sent = on_sent
        #: (stream id, sequence number) stamped by the sending flow only
        #: when an invariant checker is installed (FIFO/exactly-once check)
        self.check_seq: Optional[Tuple[int, int]] = None

    def _sent(self, success: bool) -> None:
        if self.on_sent is not None:
            self.on_sent(success)


class ConnectionState(enum.Enum):
    CONNECTING = "connecting"
    ACTIVE = "active"
    CLOSED = "closed"
    FAILED = "failed"


class FlowState:
    """One direction's transmission engine: queue + pacing + loss.

    The head message occupies the flow for ``size / rate`` seconds, with the
    rate sampled at transmission start from the congestion controller and
    the link's max-min allocation.  Completion credits the controller
    (ack-equivalent under self-pacing) and draws loss; reliable protocols
    only slow down on loss, UDP drops the datagram.

    Receive-side delivery train
    ---------------------------
    When the congestion window keeps a bulk flow busy, completions come
    back-to-back and every one schedules its own delivery event one link
    delay ahead — on a long fat path that's O(bandwidth × delay) heap
    entries per flow.  The flow coalesces them into a per-flow
    *delivery train*: due times are computed once per completion (one
    clock read, one jitter draw), appended to a deque, and a single pump
    event walks the train, so the heap holds at most one receive event
    per flow.  Entries whose due time would break the train's monotonic
    order (the link delay dropped mid-flight) fall back to an
    individually scheduled event.  See ``docs/performance.md``.
    """

    def __init__(
        self,
        sim: Simulator,
        link_dir: LinkDirection,
        cc: CongestionControl,
        rng_source: Callable[[], Random],
        deliver: Callable[[WireMessage], None],
        queue_limit_bytes: float = math.inf,
    ) -> None:
        self.sim = sim
        self.link_dir = link_dir
        self.cc = cc
        self.subject_to_udp_cap = cc.subject_to_udp_cap
        self.scavenger = cc.scavenger
        #: loss and jitter stream, made by ``rng_source()`` at the first draw
        self.rng: Optional[Random] = None
        self._rng_source = rng_source
        self.deliver = deliver
        self.queue_limit_bytes = queue_limit_bytes
        self.queue: Deque[WireMessage] = deque()
        self.queued_bytes = 0
        self.busy = False
        self.aborted = False
        self.bytes_sent = 0
        self.messages_sent = 0
        self.messages_dropped = 0
        #: in-flight deliveries as (due time, message), due-monotonic
        self._train: Deque[Tuple[float, WireMessage]] = deque()
        self._pump_scheduled = False
        # Bind the per-completion hook only when the controller overrides
        # it, keeping the hot path a single None check for the common case.
        if type(cc).on_transmit_complete is not CongestionControl.on_transmit_complete:
            self._cc_post: Optional[Callable[[float], None]] = cc.on_transmit_complete
        else:
            self._cc_post = None
        # Ordered flows stamp a (stream, seq) pair on each wire message so
        # the receiving connection can assert FIFO delivery.  UDP flows are
        # exempt: jitter legitimately reorders them.
        checker = get_checker()
        if checker.enabled and cc.ordered:
            self._wire_stream: Optional[int] = checker.register_wire_stream()
        else:
            self._wire_stream = None
        self._wire_seq = 0
        #: the demand last pushed to the links (time-invariant controllers
        #: only; see publish_demand)
        self.demand = math.nan if cc.demand_time_varying else cc.demand_rate(sim.clock._now)

    def demand_rate(self) -> float:
        return self.cc.demand_rate(self.sim.clock._now)

    def publish_demand(self) -> None:
        """Tell every hop that the controller's ``demand_gen`` moved.

        A time-invariant controller's demand is a pure function of the
        state ``demand_gen`` covers, so it is evaluated here, once, and
        pushed; a time-varying one is asked by the links at every solve
        and only needs their epochs invalidated.
        """
        if self.cc.demand_time_varying:
            self.link_dir.demand_dirty()
        else:
            self.demand = demand = self.cc.demand_rate(self.sim.clock._now)
            self.link_dir.publish_demand(self, demand)

    # ------------------------------------------------------------------
    # sending
    # ------------------------------------------------------------------
    def send(self, msg: WireMessage) -> None:
        if self.aborted:
            msg._sent(False)
            return
        if self.queued_bytes + msg.size > self.queue_limit_bytes:
            # Socket-buffer overflow (UDP): drop at the sender.
            self.messages_dropped += 1
            self.link_dir.note_drop()
            msg._sent(False)
            return
        if self._wire_stream is not None:
            msg.check_seq = (self._wire_stream, self._wire_seq)
            self._wire_seq += 1
        self.queue.append(msg)
        self.queued_bytes += msg.size
        if not self.busy:
            # A busy flow is already registered on every hop.
            self.link_dir.activate(self)
            self._start_next()

    def _start_next(self) -> None:
        msg = self.queue[0]
        # allocate_rate() never exceeds this flow's demand and floors at 1.0.
        rate = self.link_dir.allocate_rate(self)
        self.busy = True
        duration = msg.size / rate
        self.sim.schedule(duration, self._complete, label="flow-tx")

    def _complete(self) -> None:
        if self.aborted:
            return
        sim = self.sim
        link_dir = self.link_dir
        now = sim.clock._now
        msg = self.queue.popleft()
        size = msg.size
        self.queued_bytes -= size
        self.bytes_sent += size
        self.messages_sent += 1
        link_dir.note_transmit(size)

        cc = self.cc
        gen0 = cc.demand_gen
        cc.on_bytes_sent(size, now)
        rng = self.rng
        if rng is None:
            rng = self.rng = self._rng_source()
        lost = rng.random() < link_dir.loss_probability(size)
        if lost:
            cc.on_loss(now)
        if self._cc_post is not None:
            # Policy-specific completion hook (e.g. UDT's receive-buffer
            # overshoot check, which acts as an additional loss signal).
            self._cc_post(now)
        if cc.demand_gen != gen0:
            # The controller's demand moved: cached allocations are stale.
            self.publish_demand()

        if link_dir.up and (cc.reliable or not lost):
            spec = link_dir.spec
            delay = spec.delay
            if not cc.ordered and spec.jitter > 0:
                delay += rng.uniform(0.0, spec.jitter)
            self._enqueue_delivery(now + delay, msg)
            msg._sent(True)
        else:
            self.messages_dropped += 1
            link_dir.note_drop()
            msg._sent(False)

        if self.queue:
            self._start_next()
        else:
            self.busy = False
            link_dir.deactivate(self)

    # ------------------------------------------------------------------
    # receive-side delivery train
    # ------------------------------------------------------------------
    def _enqueue_delivery(self, due: float, msg: WireMessage) -> None:
        train = self._train
        if train and due < train[-1][0]:
            # The link delay shrank while messages were in flight: an
            # appended entry would pump out of due order, so this one is
            # scheduled individually.
            self.sim.schedule_at(due, lambda m=msg: self.deliver(m), label="flow-rx")
            return
        train.append((due, msg))
        if not self._pump_scheduled:
            self._pump_scheduled = True
            self.sim.schedule_at(due, self._pump_rx, label="flow-rx")

    def _pump_rx(self) -> None:
        """Deliver every train entry that is due; re-arm for the next one.

        Deliveries keep running after an abort or close: those messages
        were already on the wire, and the receiving connection drops them
        itself if it is no longer active.
        """
        train = self._train
        now = self.sim.clock._now
        due = 0
        for entry in train:
            if entry[0] > now:
                break
            due += 1
        if due == 1:
            # The overwhelmingly common case under windowed flow control:
            # exactly one entry matured, deliver it right here.
            self.deliver(train.popleft()[1])
        elif due:
            # A real burst (coinciding due times): one zero-delay event per
            # entry — contiguous sequence numbers keep train order, and each
            # delivery runs as its own event so a mid-batch teardown sees
            # the deliveries before it.
            deliver = self.deliver
            schedule = self.sim.schedule
            for _ in range(due):
                msg = train.popleft()[1]
                schedule(0.0, lambda m=msg: deliver(m), label="flow-rx")
        if train:
            self.sim.schedule_at(train[0][0], self._pump_rx, label="flow-rx")
        else:
            self._pump_scheduled = False

    # ------------------------------------------------------------------
    # teardown
    # ------------------------------------------------------------------
    def abort(self) -> None:
        """Fail everything queued; at-most-once semantics on channel drop."""
        if self.aborted:
            return
        self.aborted = True
        self.busy = False
        self.link_dir.deactivate(self)
        # The controller must stop contributing demand in this same
        # allocation epoch: deactivate() only bumps the epoch when the flow
        # was in the active set, so also invalidate via the controller's
        # generation and an explicit dirty mark — survivors re-solve at
        # their next event and absorb the freed bandwidth.
        self.cc.demand_gen += 1
        self.link_dir.demand_dirty()
        pending: List[WireMessage] = list(self.queue)
        self.queue.clear()
        self.queued_bytes = 0
        for msg in pending:
            self.messages_dropped += 1
            self.link_dir.note_drop()
            msg._sent(False)


class Connection:
    """A duplex transport connection between two stacks.

    Sends buffered while CONNECTING are flushed on ACTIVE (the paper's
    "messages delayed until the requested channels are available", §III-C).
    """

    def __init__(
        self,
        stack: "NetworkStack",
        local: tuple,
        remote: tuple,
        proto: Proto,
        flow: FlowState,
        conn_id: int,
    ) -> None:
        self.stack = stack
        self.local = local
        self.remote = remote
        self.proto = proto
        self.flow = flow
        self.id = conn_id
        self.state = ConnectionState.CONNECTING
        self.peer: Optional["Connection"] = None
        #: opaque client-supplied handshake payload; the accepting side
        #: reads it as ``peer_hello`` (middleware uses it to announce its
        #: own listening address for channel reuse)
        self.hello: Any = None
        self.peer_hello: Any = None
        self._pending: List[WireMessage] = []
        self.on_message: Optional[Callable[[Any, int, "Connection"], None]] = None
        self.on_connected: Optional[Callable[[ "Connection"], None]] = None
        self.on_failed: Optional[Callable[["Connection", str], None]] = None
        self.on_closed: Optional[Callable[["Connection"], None]] = None
        checker = get_checker()
        self._check = checker if checker.enabled else None

    # ------------------------------------------------------------------
    # state transitions (driven by the owning stack)
    # ------------------------------------------------------------------
    def _activate(self) -> None:
        if self.state is not ConnectionState.CONNECTING:
            return  # closed or failed mid-handshake: it stays down
        self.state = ConnectionState.ACTIVE
        if self.on_connected is not None:
            self.on_connected(self)
        pending, self._pending = self._pending, []
        for msg in pending:
            self.flow.send(msg)

    def _fail(self, reason: str) -> None:
        self.state = ConnectionState.FAILED
        pending, self._pending = self._pending, []
        for msg in pending:
            msg._sent(False)
        self.flow.abort()
        if self.on_failed is not None:
            self.on_failed(self, reason)

    # ------------------------------------------------------------------
    # data path
    # ------------------------------------------------------------------
    def send(self, msg: WireMessage) -> None:
        if self.state is ConnectionState.CONNECTING:
            self._pending.append(msg)
            return
        if self.state is not ConnectionState.ACTIVE:
            raise ConnectionClosedError(f"send on {self.state.value} connection {self!r}")
        self.flow.send(msg)

    def _receive(self, msg: WireMessage) -> None:
        """Called by the peer's flow at delivery time."""
        if self.state is not ConnectionState.ACTIVE:
            return  # connection dropped while the message was in flight
        if self._check is not None and msg.check_seq is not None:
            self._check.on_wire_delivery(*msg.check_seq)
        if self.on_message is not None:
            self.on_message(msg.payload, msg.size, self)

    # ------------------------------------------------------------------
    # teardown
    # ------------------------------------------------------------------
    def close(self, notify_peer: bool = True) -> None:
        """Abort the connection; queued and in-flight messages are lost."""
        if self.state in (ConnectionState.CLOSED, ConnectionState.FAILED):
            return
        self.state = ConnectionState.CLOSED
        self.flow.abort()
        for msg in self._pending:
            msg._sent(False)
        self._pending.clear()
        if self.on_closed is not None:
            self.on_closed(self)
        if notify_peer and self.peer is not None:
            peer = self.peer
            delay = self.flow.link_dir.spec.delay if self.flow.link_dir.up else 0.0
            self.stack.sim.schedule(delay, lambda: peer.close(notify_peer=False), label="conn-close")

    def _release(self) -> None:
        """Drop peer, callbacks, messages and delivery closure, unreported (``SimNetwork.close``)."""
        self.peer = self.on_message = self.on_connected = self.on_failed = self.on_closed = None
        self._pending.clear()
        flow = self.flow
        flow.deliver = None
        flow.queue.clear()
        flow._train.clear()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Connection(#{self.id} {self.proto.value} {self.local}->{self.remote} "
            f"{self.state.value})"
        )
