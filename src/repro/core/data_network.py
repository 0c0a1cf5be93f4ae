"""DataNetwork: the interceptor + network bundle (paper §IV-A).

"The DataNetwork component is provided to wrap the interceptor and the
network component, in order to simplify setup."  It creates both children
(plus a timer for learning episodes), wires the interceptor to the network
with a selector that only lets the interceptor's own notifications back
in, and offers :meth:`connect_consumer`, which attaches a consumer port
with the ChannelSelectors that route non-data traffic straight past the
interceptor to the network component.

The wiring is backend-agnostic — :class:`DataNetworkBase` holds it, and
the concrete bundles plug in a network component: :class:`DataNetwork`
(simulated NettyNetwork over netsim) here, and
:class:`repro.aio.data_network.AioDataNetwork` (real sockets) in the aio
package.
"""

from __future__ import annotations

from typing import Iterable, Optional, Tuple

from repro.core.interceptor import DataNetworkInterceptor, PrpFactory, PspFactory, is_data_traffic
from repro.kompics.channel import Channel, ChannelSelector
from repro.kompics.component import Component, ComponentDefinition
from repro.kompics.event import KompicsEvent
from repro.kompics.port import Port
from repro.kompics.timer import SimTimerComponent, Timer
from repro.messaging.address import Address
from repro.messaging.netty import DEFAULT_PROTOCOLS, NettyNetwork
from repro.messaging.network_component import NetworkComponent
from repro.messaging.network_port import MessageNotify, Network, TransportStatus
from repro.messaging.serialization import SerializerRegistry
from repro.messaging.transport import Transport
from repro.netsim.host import SimHost


class DataNetworkBase(ComponentDefinition):
    """Shared interceptor/consumer wiring for DataNetwork bundles.

    Subclasses create ``self.network`` (a component providing ``Network``)
    and a timer, then call :meth:`_wire_interceptor`.
    """

    network: Component

    def _wire_interceptor(
        self,
        timer: Component,
        psp_factory: Optional[PspFactory],
        prp_factory: Optional[PrpFactory],
        episode_length: Optional[float],
        window_messages: Optional[int],
    ) -> None:
        self.interceptor = self.create(
            DataNetworkInterceptor,
            psp_factory=psp_factory,
            prp_factory=prp_factory,
            episode_length=episode_length,
            window_messages=window_messages,
        )
        self.connect(timer.provided(Timer), self.interceptor.required(Timer))

        interceptor_def = self.interceptor.definition

        def owned_resp(event: KompicsEvent) -> bool:
            # Only the interceptor's own send notifications flow back into
            # it; inbound messages go straight to consumers.  Transport
            # health events also reach the interceptor so the selector can
            # steer flows away from a dead transport (recovery fallback).
            if isinstance(event, (TransportStatus.Down, TransportStatus.Up)):
                return True
            return isinstance(event, MessageNotify.Resp) and interceptor_def.owns_notify_id(
                event.notify_id
            )

        self.connect(
            self.network.provided(Network),
            self.interceptor.required(Network),
            ChannelSelector(on_indication=owned_resp),
        )

    # ------------------------------------------------------------------
    # consumer wiring
    # ------------------------------------------------------------------
    def connect_consumer(self, consumer_port: Port) -> Tuple[Channel, Channel]:
        """Attach a consumer's required Network port.

        Two selector-filtered channels reproduce the paper's wiring: DATA
        requests go to the interceptor, everything else directly to the
        network component; indications come from the network (minus the
        interceptor's internal notifications) and from the interceptor
        (re-emitted consumer notifications for data messages).
        """
        interceptor_def = self.interceptor.definition

        def not_owned_resp(event: KompicsEvent) -> bool:
            if isinstance(event, MessageNotify.Resp):
                return not interceptor_def.owns_notify_id(event.notify_id)
            return True

        data_channel = self.connect(
            self.interceptor.provided(Network),
            consumer_port,
            ChannelSelector(on_request=is_data_traffic),
        )
        direct_channel = self.connect(
            self.network.provided(Network),
            consumer_port,
            ChannelSelector(
                on_request=lambda ev: not is_data_traffic(ev),
                on_indication=not_owned_resp,
            ),
        )
        return data_channel, direct_channel

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def interceptor_def(self) -> DataNetworkInterceptor:
        return self.interceptor.definition

    @property
    def network_def(self) -> NetworkComponent:
        """The wire-level network component behind the interceptor."""
        return self.network.definition


class DataNetwork(DataNetworkBase):
    """Wrapper composing NettyNetwork + DataNetworkInterceptor + timer."""

    def __init__(
        self,
        self_address: Address,
        host: SimHost,
        psp_factory: Optional[PspFactory] = None,
        prp_factory: Optional[PrpFactory] = None,
        episode_length: Optional[float] = None,
        window_messages: Optional[int] = None,
        protocols: Iterable[Transport] = DEFAULT_PROTOCOLS,
        serializers: Optional[SerializerRegistry] = None,
        timer: Optional[Component] = None,
    ) -> None:
        super().__init__()
        self.self_address = self_address
        self.network = self.create(
            NettyNetwork,
            self_address,
            host,
            protocols=protocols,
            serializers=serializers,
        )
        if timer is None:
            timer = self.create(SimTimerComponent)
        self._wire_interceptor(timer, psp_factory, prp_factory, episode_length, window_messages)
