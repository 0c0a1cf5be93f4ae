"""Fault injection: link cuts and link degradations.

Used to verify the middleware's at-most-once semantics: "Even over TCP and
UDT a sudden channel drop may lead to the loss of messages" (§III-B).
"""

from __future__ import annotations

from typing import List, Optional

from repro.netsim.connection import Connection, ConnectionState
from repro.netsim.fabric import SimNetwork
from repro.netsim.link import Link
from repro.obs import get_registry, get_tracer


class FaultInjector:
    """Imperative fault control over a :class:`SimNetwork`."""

    def __init__(self, network: SimNetwork) -> None:
        self.network = network
        metrics = get_registry()
        self.tracer = get_tracer()
        self._m_cuts = metrics.counter("netsim.faults.link_cuts_total")
        self._m_restores = metrics.counter("netsim.faults.link_restores_total")
        self._m_degrades = metrics.counter("netsim.faults.link_degrades_total")

    # ------------------------------------------------------------------
    # scripting
    # ------------------------------------------------------------------
    def at(self, time: float, action, label: str = "fault-script"):
        """Schedule a scripted fault action at absolute sim time ``time``.

        Convenience for campaign timelines::

            faults.at(5.0, lambda: faults.cut_link("10.0.0.1", "10.0.0.2",
                                                   duration=2.0))
        """
        return self.network.sim.schedule_at(time, action, label=label)

    # ------------------------------------------------------------------
    # link faults
    # ------------------------------------------------------------------
    def cut_link(self, ip_a: str, ip_b: str, duration: Optional[float] = None) -> Link:
        """Take the link down, aborting every connection traversing it.

        With ``duration`` the link restores automatically; connections do
        not — the middleware must re-establish channels on demand.
        """
        link = self.network.link_between(ip_a, ip_b)
        link.set_up(False)
        self._m_cuts.inc()
        self.tracer.event("netsim.fault.link_cut", a=ip_a, b=ip_b, duration=duration)
        for conn in self._connections_over(ip_a, ip_b):
            conn.close(notify_peer=False)
        if duration is not None:
            def auto_restore() -> None:
                link.set_up(True)
                self._m_restores.inc()
                self.tracer.event(
                    "netsim.fault.link_restore", a=ip_a, b=ip_b, auto=True
                )

            self.network.sim.schedule(duration, auto_restore, label="link-restore")
        return link

    def degrade_link(
        self,
        ip_a: str,
        ip_b: str,
        spec,
        spec_reverse=None,
        duration: Optional[float] = None,
    ) -> Link:
        """Change a link's characteristics without dropping connections.

        Models changing network conditions — extra cross-traffic, a route
        flap onto a longer path, a lossy period — which is exactly the
        environment drift the paper's adaptive transport selection reacts
        to.  Existing connections keep running; their congestion
        controllers see the new loss/bandwidth immediately and their RTT
        estimates are refreshed to the new propagation delays.

        With ``duration`` the link auto-restores to the specs it had at
        the moment of the call (mirroring :meth:`cut_link`), counted as a
        restore.
        """
        link = self.network.link_between(ip_a, ip_b)
        original_forward, original_backward = link.forward.spec, link.backward.spec
        link.forward.update_spec(spec)
        link.backward.update_spec(spec_reverse if spec_reverse is not None else spec)
        self._m_degrades.inc()
        self.tracer.event(
            "netsim.fault.link_degrade", a=ip_a, b=ip_b,
            bandwidth=spec.bandwidth, delay=spec.delay, loss=spec.loss,
        )
        self.network.refresh_rtts()
        if duration is not None:
            def auto_restore() -> None:
                link.forward.update_spec(original_forward)
                link.backward.update_spec(original_backward)
                self._m_restores.inc()
                self.tracer.event(
                    "netsim.fault.link_degrade_restore", a=ip_a, b=ip_b, auto=True
                )
                self.network.refresh_rtts()

            self.network.sim.schedule(duration, auto_restore, label="degrade-restore")
        return link

    def _connections_over(self, ip_a: str, ip_b: str) -> List[Connection]:
        """Live connections whose route traverses the (ip_a, ip_b) link —
        including multi-hop routed connections between other endpoints."""
        from repro.netsim.routing import single_hop_directions

        link = self.network.link_between(ip_a, ip_b)
        cut = {link.forward, link.backward}
        found: List[Connection] = []
        for host in self.network.hosts.values():
            for conn in host.stack.connections:
                if conn.state not in (ConnectionState.ACTIVE, ConnectionState.CONNECTING):
                    continue
                hops = set(single_hop_directions(conn.flow.link_dir))
                if hops & cut:
                    found.append(conn)
        return found
