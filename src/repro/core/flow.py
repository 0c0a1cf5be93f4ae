"""Per-destination data-flow state inside the interceptor (§IV-A).

The interceptor "controls the flow of a data stream to a specific
destination node by queuing outgoing messages, and then releasing them to
the network layer at an adaptive rate, inserting the transport protocol
chosen by the current protocol selection policy".

Release is notify-clocked: at most ``window_messages`` messages are in
flight toward the network at once, and each delivery notification both
releases the next message and feeds the episode statistics the PRP learns
from.  Keeping the network-level queue this short is also what lets
latency-sensitive control traffic interleave with a DATA stream (§V-C).
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Dict, Optional, Tuple

from repro.check import get_checker
from repro.core.prp import ProtocolRatioPolicy
from repro.core.psp import ProtocolSelectionPolicy
from repro.core.ratio import ProtocolRatio
from repro.core.rewards import EpisodeStats
from repro.errors import PolicyError
from repro.messaging.message import Msg
from repro.messaging.network_port import MessageNotify
from repro.messaging.transport import Transport
from repro.obs import get_registry, get_tracer
from repro.stats import TimeSeries
from repro.util.clock import Clock

DEFAULT_WINDOW_MESSAGES = 64
#: wire transports the selection policy emits, in fallback-preference order:
#: a hold on one reroutes releases to the other
SELECTABLE = (Transport.TCP, Transport.UDT)


class FlowTelemetry:
    """Per-episode series recorded for experiment output."""

    def __init__(self) -> None:
        self.throughput = TimeSeries("throughput")
        self.ratio_prescribed = TimeSeries("ratio-prescribed")
        self.ratio_true = TimeSeries("ratio-true")
        self.reward = TimeSeries("reward")


class DestinationFlow:
    """Queue + windowed release + episode accounting for one destination."""

    def __init__(
        self,
        psp: ProtocolSelectionPolicy,
        prp: ProtocolRatioPolicy,
        clock: Clock,
        release: Callable[[MessageNotify.Req], None],
        window_messages: int = DEFAULT_WINDOW_MESSAGES,
        dest: Optional[str] = None,
    ) -> None:
        if window_messages < 1:
            raise PolicyError("window_messages must be at least 1")
        self.psp = psp
        self.prp = prp
        self.clock = clock
        self._release = release
        self.window_messages = window_messages

        self.psp.set_ratio(prp.initial_ratio())

        #: (message, consumer notify id or None), oldest first
        self._queue: Deque[Tuple[Msg, Optional[int]]] = deque()
        #: released notify id -> the consumer's notify id, or None
        self._in_flight: Dict[int, Optional[int]] = {}
        #: transports held out of selection until the given sim time
        #: (transport-fallback signal from the recovery layer, §IV-A)
        self._down_until: Dict[Transport, float] = {}

        self._episode_start = clock.now()
        self._bytes_acked = 0
        self._messages_acked = 0
        self._messages_failed = 0
        self._tcp_released = 0
        self._udt_released = 0

        self.telemetry = FlowTelemetry()
        self.total_bytes_acked = 0
        self.total_messages = 0

        metrics = get_registry()
        self._obs = metrics.enabled
        self._tracer = get_tracer()
        self._dest = dest
        checker = get_checker()
        self._inv = (
            checker.flow_hook(dest or "?", window_messages) if checker.enabled else None
        )
        labels = {"dest": dest} if dest is not None else {}
        self._m_selected_tcp = metrics.counter(
            "rl.selection_total", transport="tcp", **labels
        )
        self._m_selected_udt = metrics.counter(
            "rl.selection_total", transport="udt", **labels
        )
        self._m_episodes = metrics.counter("rl.flow.episodes_total", **labels)
        self._m_overrides = metrics.counter("rl.flow.fallback_overrides_total", **labels)
        self._m_ratio = metrics.gauge("rl.flow.ratio_signed", **labels)
        self._m_reward = metrics.gauge("rl.flow.reward", **labels)
        if metrics.enabled:
            metrics.gauge("rl.flow.queued", **labels).set_function(
                lambda: len(self._queue)
            )
            metrics.gauge("rl.flow.in_flight", **labels).set_function(
                lambda: len(self._in_flight)
            )

    # ------------------------------------------------------------------
    # intake and release
    # ------------------------------------------------------------------
    def enqueue(self, msg: Msg, consumer_notify_id: Optional[int] = None) -> None:
        """Accept a DATA message from a consumer."""
        self._queue.append((msg, consumer_notify_id))
        self._pump()

    def _pump(self) -> None:
        queue = self._queue
        if not queue:
            return
        in_flight = self._in_flight
        window = self.window_messages
        select = self.psp.select
        release = self._release
        inv = self._inv
        obs = self._obs
        while queue and len(in_flight) < window:
            msg, consumer_notify_id = queue.popleft()
            transport = select()
            if self._down_until:
                transport = self._apply_transport_hold(transport)
            if transport is Transport.TCP:
                self._tcp_released += 1
                if obs:
                    self._m_selected_tcp.inc()
            elif transport is Transport.UDT:
                self._udt_released += 1
                if obs:
                    self._m_selected_udt.inc()
            req = MessageNotify.Req(msg.with_protocol(transport))
            in_flight[req.notify_id] = consumer_notify_id
            if inv is not None:
                inv.on_release(transport.value, len(in_flight))
            release(req)

    # ------------------------------------------------------------------
    # transport fallback (recovery layer → selector penalty, §IV-A)
    # ------------------------------------------------------------------
    def mark_transport_down(self, transport: Transport, until: float) -> None:
        """Hold ``transport`` out of the release path until sim time ``until``.

        Released messages the PSP prescribes for a held transport go out
        over the alternative instead; the resulting skew between prescribed
        and true ratio — and the failures that triggered the hold — are the
        penalty signal the ratio policy learns from.
        """
        self._down_until[transport] = max(self._down_until.get(transport, 0.0), until)
        self._tracer.event(
            "rl.transport_hold", dest=self._dest, transport=transport.value,
            until=until,
        )

    def mark_transport_up(self, transport: Transport) -> None:
        if self._down_until.pop(transport, None) is not None:
            self._tracer.event(
                "rl.transport_release", dest=self._dest, transport=transport.value,
            )

    def _apply_transport_hold(self, transport: Transport) -> Transport:
        now = self.clock.now()
        down = self._down_until
        # Purge expired holds so one recovery hold cannot tax every later
        # release: once the map empties, _pump skips this branch entirely.
        expired = [t for t, until in down.items() if until <= now]
        for t in expired:
            del down[t]
        if transport not in down:
            return transport
        for other in SELECTABLE:
            if other is not transport and other not in down:
                if self._obs:
                    self._m_overrides.inc()
                return other
        return transport  # every alternative held: nothing better to offer

    # ------------------------------------------------------------------
    # feedback
    # ------------------------------------------------------------------
    def owns_notify(self, notify_id: int) -> bool:
        return notify_id in self._in_flight

    def on_notify_response(self, resp: MessageNotify.Resp) -> Optional[MessageNotify.Resp]:
        """Account a send notification; returns the consumer's Resp, if any."""
        in_flight = self._in_flight
        if resp.notify_id not in in_flight:
            return None
        consumer_notify_id = in_flight.pop(resp.notify_id)
        if resp.success:
            self._bytes_acked += resp.size
            self._messages_acked += 1
            self.total_bytes_acked += resp.size
        else:
            self._messages_failed += 1
        self.total_messages += 1
        if self._inv is not None:
            self._inv.on_result(resp.success, len(in_flight))
        self._pump()
        if consumer_notify_id is not None:
            return MessageNotify.Resp(consumer_notify_id, resp.success, resp.sent_at, resp.size)
        return None

    # ------------------------------------------------------------------
    # episodes
    # ------------------------------------------------------------------
    def end_episode(self) -> Tuple[EpisodeStats, ProtocolRatio]:
        """Snapshot the episode, consult the PRP, adopt the new ratio."""
        now = self.clock.now()
        stats = EpisodeStats(
            start=self._episode_start,
            duration=now - self._episode_start,
            bytes_acked=self._bytes_acked,
            messages_acked=self._messages_acked,
            messages_failed=self._messages_failed,
            tcp_released=self._tcp_released,
            udt_released=self._udt_released,
        )
        new_ratio = self.prp.update(stats)
        self.psp.set_ratio(new_ratio)

        self.telemetry.throughput.record(now, stats.throughput)
        self.telemetry.ratio_prescribed.record(now, float(new_ratio.signed))
        if stats.released > 0:
            self.telemetry.ratio_true.record(now, stats.true_ratio)
        reward = getattr(self.prp, "last_reward", None)
        if reward is not None:
            self.telemetry.reward.record(now, reward)
            self._m_reward.set(reward)
        self._m_episodes.inc()
        self._m_ratio.set(float(new_ratio.signed))
        self._tracer.event(
            "rl.episode", dest=self._dest, reward=reward,
            ratio=float(new_ratio.signed), throughput=stats.throughput,
        )

        self._episode_start = now
        self._bytes_acked = 0
        self._messages_acked = 0
        self._messages_failed = 0
        self._tcp_released = 0
        self._udt_released = 0
        return stats, new_ratio
