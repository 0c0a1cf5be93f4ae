"""Multi-hop routing: composite paths over several links.

The paper's testbeds are point-to-point pairs, but a middleware meant for
multi-datacenter and P2P deployments routes across networks.  The fabric
keeps the links as a graph and, when two hosts share no direct link,
returns a :class:`CompositePath` assembled from the delay-shortest chain
of link directions.  A composite path quacks like a single
``LinkDirection`` for the fluid transmission machinery:

* one-way delay is the sum of the hops;
* the achievable rate is the minimum of the per-hop max-min shares
  (flows register on every hop, so a shared bottleneck divides fairly
  among flows that only partially overlap);
* loss combines independently across hops;
* the path is up only while every hop is.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Sequence, Tuple

from repro.netsim.link import LinkDirection, LinkSpec

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.netsim.connection import FlowState


class CompositePath:
    """A chain of link directions presented as one direction."""

    def __init__(self, directions: Sequence[LinkDirection]) -> None:
        if not directions:
            raise ValueError("a path needs at least one hop")
        self._dirs: Tuple[LinkDirection, ...] = tuple(directions)
        self.name = " + ".join(d.name for d in self._dirs)
        caps = [d.spec.udp_cap for d in self._dirs if d.spec.udp_cap is not None]
        self.spec = LinkSpec(
            bandwidth=min(d.spec.bandwidth for d in self._dirs),
            delay=sum(d.spec.delay for d in self._dirs),
            loss=0.0,  # combined per-hop below, not via the spec
            udp_cap=min(caps) if caps else None,
            jitter=sum(d.spec.jitter for d in self._dirs),
        )
        self._obs = any(d._obs for d in self._dirs)

    @property
    def directions(self) -> Tuple[LinkDirection, ...]:
        return self._dirs

    @property
    def up(self) -> bool:
        for d in self._dirs:
            if not d.up:
                return False
        return True

    # ------------------------------------------------------------------
    # flow registration: every hop sees the flow
    # ------------------------------------------------------------------
    def activate(self, flow: "FlowState") -> None:
        for d in self._dirs:
            d.activate(flow)

    def deactivate(self, flow: "FlowState") -> None:
        for d in self._dirs:
            d.deactivate(flow)

    def demand_dirty(self) -> None:
        for d in self._dirs:
            d.demand_dirty()

    def publish_demand(self, flow: "FlowState", demand: float) -> None:
        for d in self._dirs:
            d.publish_demand(flow, demand)

    def allocate_rate(self, flow: "FlowState") -> float:
        rate = math.inf
        for d in self._dirs:
            hop_rate = d.allocate_rate(flow)
            if hop_rate < rate:
                rate = hop_rate
        return rate if rate > 1.0 else 1.0

    # ------------------------------------------------------------------
    # wire accounting: every hop carries the bytes
    # ------------------------------------------------------------------
    def note_transmit(self, nbytes: int) -> None:
        if self._obs:
            for d in self._dirs:
                d.note_transmit(nbytes)

    def note_drop(self) -> None:
        for d in self._dirs:
            d.note_drop()

    # ------------------------------------------------------------------
    # loss
    # ------------------------------------------------------------------
    def loss_probability(self, nbytes: int) -> float:
        survive = 1.0
        for d in self._dirs:
            survive *= 1.0 - d.loss_probability(nbytes)
        return 1.0 - survive

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CompositePath({self.name})"


def single_hop_directions(direction) -> Tuple[LinkDirection, ...]:
    """Uniform access to the hop list of a LinkDirection or CompositePath."""
    if isinstance(direction, CompositePath):
        return direction.directions
    return (direction,)
