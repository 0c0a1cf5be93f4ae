"""The data-network-interceptor component (paper §IV-A).

Sits between consumers and the NettyNetwork component.  Messages carrying
the ``Transport.DATA`` pseudo-protocol are queued per destination and
released at an adaptive, notify-clocked rate with a concrete transport
(TCP or UDT) stamped by the protocol selection policy; the protocol ratio
policy revises the target ratio every learning episode (1 s timer).

It is wired by :class:`~repro.core.data_network.DataNetworkBase`, whose
ChannelSelectors route non-data traffic and inbound messages straight
past the interceptor as the paper describes: only DATA requests, its own
send notifications and transport health events ever reach it.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Tuple

from repro.core.flow import DEFAULT_WINDOW_MESSAGES, SELECTABLE, DestinationFlow
from repro.core.prp import ProtocolRatioPolicy, StaticRatio
from repro.core.psp import ProtocolSelectionPolicy
from repro.core.patterns import PatternSelection
from repro.core.ratio import ProtocolRatio
from repro.kompics.component import ComponentDefinition
from repro.kompics.timer import SchedulePeriodicTimeout, Timeout, Timer
from repro.messaging.message import Msg
from repro.messaging.network_port import MessageNotify, Network, TransportStatus
from repro.messaging.transport import Transport
from repro.obs import get_registry

PspFactory = Callable[[], ProtocolSelectionPolicy]
PrpFactory = Callable[[], ProtocolRatioPolicy]

FlowKey = Tuple[str, int]

#: seconds per learning episode unless the constructor says otherwise
DEFAULT_EPISODE_LENGTH = 1.0
#: how long a TransportStatus.Down holds a transport out of a flow's
#: release path (sim seconds); Up indications lift it early
FALLBACK_HOLD = 10.0


class _EpisodeTick(Timeout):
    __slots__ = ()


def is_data_traffic(event) -> bool:
    """True for requests that belong to the interceptor (DATA protocol)."""
    if isinstance(event, Msg):
        return event.header.protocol is Transport.DATA
    if isinstance(event, MessageNotify.Req):
        return event.msg.header.protocol is Transport.DATA
    return False


class DataNetworkInterceptor(ComponentDefinition):
    """Adaptive per-destination TCP/UDT traffic shifting."""

    def __init__(
        self,
        psp_factory: Optional[PspFactory] = None,
        prp_factory: Optional[PrpFactory] = None,
        episode_length: Optional[float] = None,
        window_messages: Optional[int] = None,
    ) -> None:
        super().__init__()
        self.upper = self.provides(Network)  # consumers
        self.lower = self.requires(Network)  # the NettyNetwork
        self.timer = self.requires(Timer)

        self.psp_factory: PspFactory = psp_factory or PatternSelection
        self.prp_factory: PrpFactory = prp_factory or (
            lambda: StaticRatio(ProtocolRatio.FIFTY_FIFTY)
        )
        self.episode_length = (
            DEFAULT_EPISODE_LENGTH if episode_length is None else episode_length
        )
        self.window_messages = (
            DEFAULT_WINDOW_MESSAGES if window_messages is None else window_messages
        )

        self.flows: Dict[FlowKey, DestinationFlow] = {}
        self._owned_notify_ids: set[int] = set()
        #: active holds, kept so flows created mid-outage inherit them
        self._transport_down: Dict[Tuple[FlowKey, Transport], float] = {}

        metrics = get_registry()
        self._m_ticks = metrics.counter("rl.interceptor.ticks_total")
        self._m_transport_down = metrics.counter("rl.interceptor.transport_down_total")
        if metrics.enabled:
            metrics.gauge("rl.interceptor.flows", component=self.name).set_function(
                lambda: len(self.flows)
            )

        self.subscribe(self.upper, Msg, self._on_consumer_msg)
        self.subscribe(self.upper, MessageNotify.Req, self._on_consumer_notify_req)
        self.subscribe(self.lower, MessageNotify.Resp, self._on_network_notify_resp)
        self.subscribe(self.lower, TransportStatus.Down, self._on_transport_down)
        self.subscribe(self.lower, TransportStatus.Up, self._on_transport_up)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def on_start(self) -> None:
        from repro.kompics.matchers import match_fields

        tick = _EpisodeTick()
        # Timeout indications broadcast on shared timers: match our id.
        self.subscribe_matching(
            self.timer, _EpisodeTick, self._on_episode_tick,
            match_fields(timeout_id=tick.timeout_id),
        )
        self.trigger(
            SchedulePeriodicTimeout(self.episode_length, self.episode_length, tick), self.timer
        )

    # ------------------------------------------------------------------
    # consumer-side handlers
    # ------------------------------------------------------------------
    def _on_consumer_msg(self, msg: Msg) -> None:
        self._flow_for(msg).enqueue(msg, consumer_notify_id=None)

    def _on_consumer_notify_req(self, req: MessageNotify.Req) -> None:
        self._flow_for(req.msg).enqueue(req.msg, consumer_notify_id=req.notify_id)

    def _flow_for(self, msg: Msg) -> DestinationFlow:
        key: FlowKey = msg.header.destination.as_socket()
        flow = self.flows.get(key)
        if flow is None:
            flow = DestinationFlow(
                psp=self.psp_factory(),
                prp=self.prp_factory(),
                clock=self.clock,
                release=self._release,
                window_messages=self.window_messages,
                dest=f"{key[0]}:{key[1]}",
            )
            self.flows[key] = flow
            # A flow created mid-outage inherits the active holds.
            now = self.clock.now()
            for (down_key, transport), until in self._transport_down.items():
                if down_key == key and until > now:
                    flow.mark_transport_down(transport, until)
        return flow

    def _release(self, req: MessageNotify.Req) -> None:
        self._owned_notify_ids.add(req.notify_id)
        self.lower.trigger(req)

    # ------------------------------------------------------------------
    # network-side handlers
    # ------------------------------------------------------------------
    def _on_network_notify_resp(self, resp: MessageNotify.Resp) -> None:
        if resp.notify_id not in self._owned_notify_ids:
            return
        self._owned_notify_ids.discard(resp.notify_id)
        for flow in self.flows.values():
            if flow.owns_notify(resp.notify_id):
                consumer_resp = flow.on_notify_response(resp)
                if consumer_resp is not None:
                    self.trigger(consumer_resp, self.upper)
                return

    # ------------------------------------------------------------------
    # transport health (recovery-layer fallback signal, §IV-A)
    # ------------------------------------------------------------------
    def _on_transport_down(self, event: TransportStatus.Down) -> None:
        if event.transport not in SELECTABLE:
            return  # only transports the PSP can emit matter to holds
        self._m_transport_down.inc()
        until = self.clock.now() + FALLBACK_HOLD
        self._transport_down[(event.remote, event.transport)] = until
        flow = self.flows.get(event.remote)
        if flow is not None:
            flow.mark_transport_down(event.transport, until)

    def _on_transport_up(self, event: TransportStatus.Up) -> None:
        if self._transport_down.pop((event.remote, event.transport), None) is None:
            return
        flow = self.flows.get(event.remote)
        if flow is not None:
            flow.mark_transport_up(event.transport)

    # ------------------------------------------------------------------
    # episodes
    # ------------------------------------------------------------------
    def _on_episode_tick(self, tick: _EpisodeTick) -> None:
        self._m_ticks.inc()
        for flow in self.flows.values():
            flow.end_episode()

    # ------------------------------------------------------------------
    # introspection (used by DataNetwork's channel selectors and benches)
    # ------------------------------------------------------------------
    def owns_notify_id(self, notify_id: int) -> bool:
        return notify_id in self._owned_notify_ids

    def flow_to(self, ip: str, port: int) -> Optional[DestinationFlow]:
        return self.flows.get((ip, port))
