"""Deterministic network simulation substrate.

Replaces the paper's EC2 testbed + Netty + kernel transports with a
discrete-event, fluid-flow model:

* :class:`SimNetwork` — the fabric: hosts, point-to-point links, loopback.
* :class:`Link` — duplex; each direction has bandwidth, propagation delay,
  random loss, and (to model EC2's policing) a separate UDP capacity pool.
  Concurrent flows share a direction by progressive-filling max-min.
* Connections carry middleware messages as *fluid* transmissions: a message
  occupies its flow for ``size / rate`` seconds, where the rate comes from
  the transport's congestion-control state and the link share; completed
  messages arrive after the propagation delay.  TCP (slow start + AIMD,
  window-capped) and UDT (DAIMD rate-based, RTT-insensitive) are reliable
  and FIFO; UDP is lossy and unordered.

The fluid quantum is one middleware message (65 kB in the paper's
experiments), which keeps event counts ~1000x below packet-level simulation
while preserving the aggregate quantities the paper measures: throughput
ramps, bandwidth-delay limits and head-of-line queueing delay.
"""

from repro.netsim.congestion import (
    CC_POLICIES,
    BbrCc,
    CongestionControl,
    CubicCc,
    LedbatCc,
    TcpCc,
    UdpCc,
    UdtCc,
    UnknownCcError,
    make_cc,
)
from repro.netsim.connection import Connection, ConnectionState, WireMessage
from repro.netsim.disk import DiskModel
from repro.netsim.fabric import SimNetwork
from repro.netsim.faults import FaultInjector
from repro.netsim.host import Listener, NetworkStack, SimHost
from repro.netsim.link import Link, LinkDirection, LinkSpec, Proto, max_min_allocation
from repro.netsim.routing import CompositePath

__all__ = [
    "SimNetwork",
    "SimHost",
    "NetworkStack",
    "Listener",
    "Link",
    "LinkDirection",
    "LinkSpec",
    "Proto",
    "max_min_allocation",
    "CompositePath",
    "Connection",
    "ConnectionState",
    "WireMessage",
    "CongestionControl",
    "TcpCc",
    "UdtCc",
    "UdpCc",
    "LedbatCc",
    "CubicCc",
    "BbrCc",
    "CC_POLICIES",
    "UnknownCcError",
    "make_cc",
    "DiskModel",
    "FaultInjector",
]
