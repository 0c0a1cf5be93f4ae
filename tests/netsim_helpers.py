"""Shared helpers for network-simulation tests."""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.netsim import LinkSpec, Proto, SimNetwork, WireMessage
from repro.sim import Simulator

MB = 1024 * 1024


def make_pair(
    sim: Simulator,
    bandwidth: float = 100 * MB,
    delay: float = 0.005,
    loss: float = 0.0,
    udp_cap: Optional[float] = None,
    jitter: float = 0.0,
    seed: int = 1,
    config: Optional[dict] = None,
):
    """Two hosts joined by a symmetric link."""
    net = SimNetwork(sim, seed=seed, config=config)
    a = net.add_host("a", "10.0.0.1")
    b = net.add_host("b", "10.0.0.2")
    net.connect_hosts(a, b, LinkSpec(bandwidth, delay, loss, udp_cap, jitter))
    return net, a, b


class Sink:
    """Receiving endpoint recording (arrival_time, size) per message."""

    def __init__(self, sim: Simulator) -> None:
        self.sim = sim
        self.arrivals: List[Tuple[float, int]] = []
        self.payloads: List[object] = []

    def on_accept(self, conn) -> None:
        conn.on_message = self.on_message

    def on_message(self, payload, size, conn) -> None:
        self.arrivals.append((self.sim.now, size))
        self.payloads.append(payload)

    def on_datagram(self, payload, size, src) -> None:
        self.arrivals.append((self.sim.now, size))
        self.payloads.append(payload)

    @property
    def bytes_received(self) -> int:
        return sum(s for (_, s) in self.arrivals)

    def goodput(self) -> float:
        """Bytes/second from first send (t=0) to last arrival."""
        if not self.arrivals:
            return 0.0
        end = self.arrivals[-1][0]
        return self.bytes_received / end if end > 0 else float("inf")


def run_transfer(
    sim: Simulator,
    net: SimNetwork,
    src,
    dst,
    proto: Proto,
    total_bytes: int,
    msg_size: int = 65536,
    port: int = 7000,
    cc: Optional[str] = None,
) -> Sink:
    """Blast ``total_bytes`` from src to dst and run the sim to completion.

    ``cc`` names the congestion-control policy of both ends (None keeps
    the protocol's default)."""
    sink = Sink(sim)
    if proto is Proto.UDP:
        dst.stack.listen(port, proto, on_datagram=sink.on_datagram, cc=cc)
    else:
        dst.stack.listen(port, proto, on_accept=sink.on_accept, cc=cc)
    conn = src.stack.connect((dst.ip, port), proto, cc=cc)
    count = total_bytes // msg_size
    for i in range(count):
        conn.send(WireMessage(i, msg_size))
    sim.run()
    return sink
