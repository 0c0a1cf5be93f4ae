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

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.kompics import KompicsSystem
from repro.messaging import BasicAddress
from repro.netsim import DiskModel, LinkSpec, SimNetwork
from repro.sim import Simulator
from repro.util.registry import Registry, UnknownNameError

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


@dataclass
class EndpointHandle:
    """One middleware endpoint of a testbed pair."""

    host: object  # SimHost
    address: BasicAddress
    disk: DiskModel


class TestbedPair:
    """A sender/receiver pair on one :class:`Setup`.

    Creates the simulator, fabric and Kompics system, plus two endpoints
    (on one host for the Local setup, otherwise on two linked hosts).
    Network components and applications are attached by the harness.
    """

    __test__ = False  # not a pytest class, despite the name

    def __init__(self, setup: Setup, seed: int = 0, net_config: Optional[dict] = None,
                 sys_config: Optional[dict] = None) -> None:
        self.setup = setup
        self.seed = seed
        self.sim = Simulator()
        self.fabric = SimNetwork(self.sim, seed=seed, config=net_config)
        self.system = KompicsSystem.simulated(self.sim, seed=seed, config=sys_config)

        if setup.local:
            host = self.fabric.add_host(
                "node", "10.0.0.1", disk=DiskModel(self.sim, setup.disk_read, setup.disk_write)
            )
            self.sender = EndpointHandle(host, BasicAddress(host.ip, MIDDLEWARE_PORT), host.disk)
            # Second instance on the same node: different port, same stack,
            # traffic crosses the loopback interface (never reflected).
            self.receiver = EndpointHandle(
                host, BasicAddress(host.ip, SECOND_INSTANCE_PORT), host.disk
            )
        else:
            h_send = self.fabric.add_host(
                "sender", "10.0.0.1", disk=DiskModel(self.sim, setup.disk_read, setup.disk_write)
            )
            h_recv = self.fabric.add_host(
                "receiver", "10.0.0.2", disk=DiskModel(self.sim, setup.disk_read, setup.disk_write)
            )
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
            self.sender = EndpointHandle(h_send, BasicAddress(h_send.ip, MIDDLEWARE_PORT), h_send.disk)
            self.receiver = EndpointHandle(
                h_recv, BasicAddress(h_recv.ip, MIDDLEWARE_PORT), h_recv.disk
            )


# ----------------------------------------------------------------------
# scenario registry
# ----------------------------------------------------------------------

class UnknownScenarioError(UnknownNameError):
    """Raised on a lookup of a name no scenario was registered under."""


class DuplicateScenarioError(ValueError):
    """Raised when a second builder is registered under an existing name."""


@dataclass(frozen=True)
class Scenario:
    """One named, seeded workload every campaign layer can run.

    ``builder`` is a keyword-only callable; every builder accepts ``seed``
    and whatever workload knobs it documents.  ``kind`` groups scenarios
    for listings ("workload" for pair-scale drivers, "campaign" for
    fault/chaos campaigns, "fleet" for topology-scale runs); ``tags``
    mark which consumers may use it (e.g. ``check`` for the invariant
    checker's workloads).
    """

    name: str
    builder: Callable[..., Any]
    description: str = ""
    kind: str = "workload"
    tags: Tuple[str, ...] = ()
    defaults: Dict[str, Any] = field(default_factory=dict)

    def run(self, **kwargs: Any) -> Any:
        merged = dict(self.defaults)
        merged.update(kwargs)
        return self.builder(**merged)


class ScenarioRegistry(Registry[Scenario]):
    """Name -> :class:`Scenario` (strict: see :class:`~repro.util.registry.Registry`)."""

    def __init__(self) -> None:
        super().__init__(
            "scenario", UnknownScenarioError, DuplicateScenarioError,
            owner=lambda scenario: scenario.builder,
        )

    def names(self, kind: Optional[str] = None, tag: Optional[str] = None) -> List[str]:
        return [
            s.name for s in self.all()
            if (kind is None or s.kind == kind) and (tag is None or tag in s.tags)
        ]


#: the process-wide registry; campaign layers (check, faults, chaos, perf,
#: fleet) resolve their workloads here instead of keeping private dicts
SCENARIOS = ScenarioRegistry()


def register_scenario(name: str, builder: Callable[..., Any], **kwargs: Any) -> Scenario:
    """Register ``builder`` under ``name``; ``kwargs`` are :class:`Scenario` fields."""
    return SCENARIOS.add(name, Scenario(name=name, builder=builder, **kwargs))


def get_scenario(name: str) -> Scenario:
    return SCENARIOS.get(name)


def run_scenario(name: str, **kwargs: Any) -> Any:
    """Resolve ``name`` and run its builder with ``kwargs``."""
    return SCENARIOS.get(name).run(**kwargs)


def scenario_names(kind: Optional[str] = None, tag: Optional[str] = None) -> List[str]:
    return SCENARIOS.names(kind=kind, tag=tag)


# ----------------------------------------------------------------------
# built-in scenarios (builders import lazily: the drivers live in modules
# that themselves import this one)
# ----------------------------------------------------------------------

def _transfer_scenario(
    setup: str = "EU2US",
    transport: str = "data",
    size_mb: float = 4.0,
    duration: float = 4.0,  # unused; uniform check-workload signature
    seed: int = 3,
) -> Any:
    """One disk-to-disk transfer (Figure 9 shape)."""
    from repro.bench.harness import run_transfer_once
    from repro.messaging.transport import Transport

    return run_transfer_once(
        setup_by_name(setup), Transport(transport), int(size_mb * MB), seed=seed,
    )


def _fig8_scenario(
    setup: str = "EU-VPC",
    size_mb: float = 4.0,
    duration: float = 4.0,  # unused; uniform check-workload signature
    seed: int = 3,
    warmup: float = 0.1,
    ping_interval: float = 0.05,
) -> Any:
    """Latency-under-load (Figure 8): pings racing a bulk TCP transfer."""
    from repro.bench.harness import run_latency_experiment
    from repro.messaging.transport import Transport

    return run_latency_experiment(
        setup_by_name(setup), Transport.TCP, Transport.TCP,
        seed=seed, transfer_bytes=int(size_mb * MB),
        warmup=warmup, ping_interval=ping_interval,
    )


def _obs_scenario(
    size_mb: float = 4.0,  # unused; uniform check-workload signature
    duration: float = 4.0,
    seed: int = 3,
) -> Any:
    """The observability demo: pings + learner + vnode traffic."""
    from repro.bench.harness import run_observability_demo

    return run_observability_demo(duration=duration, seed=seed)


def _loopback_scenario(
    size_mb: float = 2.0,
    duration: float = 4.0,  # unused; uniform check-workload signature
    seed: int = 3,
    transports: Optional[str] = None,
    timeout: float = 120.0,
) -> Any:
    """Sim-predicted vs. real-socket loopback transfers (fig9 shape).

    The only registered scenario that opens real sockets: it binds
    loopback ports and runs the aio backend, so it is deliberately NOT
    tagged ``check`` (the invariant checker's workloads stay simulated).
    """
    from repro.bench.loopback import DEFAULT_TRANSPORTS, run_loopback_comparison
    from repro.messaging.transport import Transport

    wanted = (
        DEFAULT_TRANSPORTS
        if transports is None
        else tuple(Transport(t.strip()) for t in transports.split(",") if t.strip())
    )
    return run_loopback_comparison(
        wanted, size=int(size_mb * MB), seed=seed, timeout=timeout
    )


def _faults_scenario(**kwargs: Any) -> Any:
    """Scripted cut/degrade/restore campaign (``repro faults``)."""
    from repro.bench.faults import run_fault_campaign

    return run_fault_campaign(**kwargs)


def _chaos_scenario(**kwargs: Any) -> Any:
    """Seeded random fault campaign under supervision (``repro chaos``)."""
    from repro.bench.chaos import run_chaos_campaign

    return run_chaos_campaign(**kwargs)


register_scenario(
    "transfer", _transfer_scenario, kind="workload", tags=("check", "equivalence"),
    description="one disk-to-disk transfer on a testbed pair (fig9 shape)",
)
register_scenario(
    "fig8", _fig8_scenario, kind="workload", tags=("check", "equivalence"),
    description="ping RTTs while a bulk transfer shares the link (fig8 shape)",
)
register_scenario(
    "obs", _obs_scenario, kind="workload", tags=("check", "equivalence"),
    description="instrumented ping-pong + adaptive DATA stream (obs demo)",
)
register_scenario(
    "loopback", _loopback_scenario, kind="workload", tags=("real",),
    description="sim-predicted vs. real-socket loopback transfers (aio backend)",
)
register_scenario(
    "faults", _faults_scenario, kind="campaign",
    description="scripted link cut/degrade/restore with recovery metrics",
)
register_scenario(
    "chaos", _chaos_scenario, kind="campaign",
    description="seeded random handler faults + link cuts under supervision",
)
