"""AioDataNetwork: the adaptive bundle over real sockets (paper §IV-A).

Same composition as :class:`repro.core.data_network.DataNetwork` — an
interceptor with Sarsa(lambda)-driven per-flow transport selection in
front of the network component — but the network child is
:class:`AioNetwork` and the learning episodes tick on a wall-clock timer,
so the whole transport-selection loop runs against the OS network stack.

Intended for ``KompicsSystem.threaded()`` systems; the netsim backend is
neither required nor touched.
"""

from __future__ import annotations

from typing import Iterable, Optional

from repro.aio.network import DEFAULT_PROTOCOLS, AioNetwork
from repro.core.data_network import DataNetworkBase
from repro.core.interceptor import PrpFactory, PspFactory
from repro.kompics.component import Component
from repro.kompics.timer import WallTimerComponent
from repro.messaging.address import Address
from repro.messaging.serialization import SerializerRegistry
from repro.messaging.transport import Transport


class AioDataNetwork(DataNetworkBase):
    """Wrapper composing AioNetwork + DataNetworkInterceptor + wall timer."""

    def __init__(
        self,
        self_address: Address,
        psp_factory: Optional[PspFactory] = None,
        prp_factory: Optional[PrpFactory] = None,
        episode_length: Optional[float] = None,
        window_messages: Optional[int] = None,
        protocols: Iterable[Transport] = DEFAULT_PROTOCOLS,
        serializers: Optional[SerializerRegistry] = None,
        timer: Optional[Component] = None,
        bind_ip: Optional[str] = None,
    ) -> None:
        super().__init__()
        self.self_address = self_address
        self.network = self.create(
            AioNetwork,
            self_address,
            protocols=protocols,
            serializers=serializers,
            bind_ip=bind_ip,
        )
        if timer is None:
            timer = self.create(WallTimerComponent)
        self._wire_interceptor(timer, psp_factory, prp_factory, episode_length, window_messages)
