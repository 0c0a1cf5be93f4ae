"""The paper's experimental setups (Figure 7) as simulated testbeds.

Four setups on c3.2xlarge-class pairs (§V-A):

* **Local** (0 ms): both middleware instances on one node, copying SSD to
  SSD over loopback — throughput is disk-bound for TCP/DATA and
  implementation-bound for UDT.
* **EU-VPC** (~3 ms RTT): both instances in the Ireland region VPC.
* **EU2US** (~155 ms RTT): Ireland <-> North California.
* **EU2AU** (~320 ms RTT): Ireland <-> Sydney.

Amazon rate-limits UDP traffic to ~10 MB/s (§V-B), which the link model's
``udp_cap`` reproduces on every real-network setup.  WAN paths carry a
small random loss rate, which is what breaks TCP at a high
bandwidth-delay product.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional, Tuple

from repro.apps import (
    ChunkSink,
    FileReceiver,
    FileSender,
    Pinger,
    Ponger,
    SyntheticDataset,
    WindowSource,
    register_app_serializers,
)
from repro.core import DataNetwork
from repro.kompics import Component, KompicsSystem, SimTimerComponent, Timer
from repro.messaging import BasicAddress, NettyNetwork, Network, SerializerRegistry, Transport
from repro.netsim import DiskModel, LinkSpec, SimNetwork
from repro.sim import Simulator

MB = 1024 * 1024

MIDDLEWARE_PORT = 34000
SECOND_INSTANCE_PORT = 34001


@dataclass(frozen=True)
class Setup:
    """One testbed configuration."""

    name: str
    rtt: float  # seconds
    bandwidth: float  # bytes/s per direction
    loss: float = 0.0
    udp_cap: Optional[float] = 10 * MB  # EC2 UDP policing
    #: SSD sequential rates: reads outpace the NIC (as on c3.2xlarge), so a
    #: flooding sender builds a real network backlog; writes bound the
    #: disk-to-disk rate on the Local setup (§V-B).
    disk_read: float = 200 * MB
    disk_write: float = 120 * MB
    local: bool = False  # both instances on one host (loopback)

    @property
    def one_way_delay(self) -> float:
        return self.rtt / 2.0


#: the four setups of Figure 7/8/9, in RTT order
AWS_SETUPS: Tuple[Setup, ...] = (
    Setup(name="Local", rtt=0.0, bandwidth=150 * MB, udp_cap=None, local=True),
    Setup(name="EU-VPC", rtt=0.003, bandwidth=125 * MB, loss=0.0),
    Setup(name="EU2US", rtt=0.155, bandwidth=60 * MB, loss=2e-5),
    Setup(name="EU2AU", rtt=0.320, bandwidth=60 * MB, loss=5e-5),
)


def setup_by_name(name: str) -> Setup:
    for setup in AWS_SETUPS:
        if setup.name == name:
            return setup
    raise KeyError(f"unknown setup {name!r}; choose from {[s.name for s in AWS_SETUPS]}")


def aws_testbed() -> Tuple[Setup, ...]:
    """All four setups (kept as a function for discoverability)."""
    return AWS_SETUPS


def app_registry() -> SerializerRegistry:
    return register_app_serializers(SerializerRegistry())


@dataclass
class EndpointHandle:
    """One middleware endpoint of a pair."""

    address: BasicAddress
    host: object = None  # SimHost (simulated pairs only)
    disk: Optional[DiskModel] = None
    #: what apps attach to: a network component or a DataNetwork bundle
    network: Optional[Component] = None

    def attach(self, app: Component) -> None:
        """Connect an application's Network port — plain endpoint or DATA."""
        self.network.definition.connect_consumer(app.required(Network))


class Pair:
    """What a two-node testbed offers on either backend.

    Once both endpoints have their networks, a driver names its
    workloads, starts what they return in the order it wants, runs, and
    reads the results.
    """

    def __init__(self, system: KompicsSystem, sender: EndpointHandle,
                 receiver: EndpointHandle) -> None:
        self.system = system
        self.sender = sender
        self.receiver = receiver

    def start(self, *components: Component) -> None:
        for component in components:
            self.system.start(component)

    def stream(
        self,
        dataset: Optional[SyntheticDataset] = None,
        transport: Transport = Transport.DATA,
        window: int = 256,
        sink_name: Optional[str] = None,
    ) -> Tuple[Component, Component]:
        """The notify-clocked windowed stream: ``(source, sink)``, attached.

        Sends ``dataset`` once, or streams endlessly without one.
        """
        source = self.system.create(
            WindowSource, self.sender.address, self.receiver.address,
            dataset, transport, window,
        )
        sink = self.system.create(
            ChunkSink, None if dataset is None else dataset.total_chunks, name=sink_name,
        )
        self.sender.attach(source)
        self.receiver.attach(sink)
        return source, sink


class TestbedPair(Pair):
    """A sender/receiver pair on one simulated :class:`Setup`.

    Creates the simulator, fabric and Kompics system, plus two endpoints
    (on one host for the Local setup, otherwise on two linked hosts).
    :meth:`wire` gives them their network components; the workload
    methods create the apps, attach them and leave starting to the driver
    (creation, attach and start order are what the digests pin).
    """

    __test__ = False  # not a pytest class, despite the name

    def __init__(self, setup: Setup, seed: int = 0, net_config: Optional[dict] = None,
                 sys_config: Optional[dict] = None) -> None:
        self.setup = setup
        self.seed = seed
        self.sim = Simulator()
        self.fabric = SimNetwork(self.sim, seed=seed, config=net_config)
        system = KompicsSystem.simulated(self.sim, seed=seed, config=sys_config)

        def disk() -> DiskModel:
            return DiskModel(self.sim, setup.disk_read, setup.disk_write)

        if setup.local:
            # Second instance on the same node: different port, same stack,
            # traffic crosses the loopback interface (never reflected).
            h_send = h_recv = self.fabric.add_host("node", "10.0.0.1", disk=disk())
            recv_port = SECOND_INSTANCE_PORT
        else:
            h_send = self.fabric.add_host("sender", "10.0.0.1", disk=disk())
            h_recv = self.fabric.add_host("receiver", "10.0.0.2", disk=disk())
            self.fabric.connect_hosts(
                h_send,
                h_recv,
                LinkSpec(
                    bandwidth=setup.bandwidth,
                    delay=setup.one_way_delay,
                    loss=setup.loss,
                    udp_cap=setup.udp_cap,
                ),
            )
            recv_port = MIDDLEWARE_PORT
        super().__init__(
            system,
            EndpointHandle(BasicAddress(h_send.ip, MIDDLEWARE_PORT), h_send, h_send.disk),
            EndpointHandle(BasicAddress(h_recv.ip, recv_port), h_recv, h_recv.disk),
        )

    def wire(self, transport: Optional[Transport] = None, **interceptor_args: Any) -> None:
        """Create and start both network components.

        The sending side is a :class:`DataNetwork` built with
        ``interceptor_args`` when ``transport`` is DATA; otherwise both
        sides are plain and the arguments are not used.
        """
        snd, rcv = self.sender, self.receiver
        if transport is Transport.DATA:
            snd.network = self.system.create(
                DataNetwork, snd.address, snd.host, **interceptor_args,
                serializers=app_registry(), name="data-net-snd",
            )
        else:
            snd.network = self._plain_network(snd, "net-snd")
        self.system.start(snd.network)
        rcv.network = self._plain_network(rcv, "net-rcv")
        self.system.start(rcv.network)

    def _plain_network(self, endpoint: EndpointHandle, name: str) -> Component:
        return self.system.create(
            NettyNetwork, endpoint.address, endpoint.host,
            serializers=app_registry(), name=name,
        )

    def pings(self, transport: Transport,
              interval: float) -> Tuple[Component, Component, Component]:
        """Control pings sender -> receiver: ``(pinger, ponger, timer)``."""
        pinger = self.system.create(
            Pinger, self.sender.address, self.receiver.address,
            transport=transport, interval=interval,
        )
        ponger = self.system.create(Ponger, self.receiver.address)
        timer = self.system.create(SimTimerComponent)
        self.system.connect(timer.provided(Timer), pinger.required(Timer))
        self.sender.attach(pinger)
        self.receiver.attach(ponger)
        return pinger, ponger, timer

    def file_sender(self, dataset: SyntheticDataset, transport: Transport,
                    name: Optional[str] = None) -> Component:
        """The disk-clocked §V-A sender."""
        sender = self.system.create(
            FileSender, self.sender.address, self.receiver.address, dataset,
            transport=transport, disk=self.sender.disk, name=name,
        )
        self.sender.attach(sender)
        return sender

    def file_receiver(self) -> Component:
        """Its receiver; one serves any number of senders."""
        receiver = self.system.create(
            FileReceiver, self.receiver.address, disk=self.receiver.disk
        )
        self.receiver.attach(receiver)
        return receiver
