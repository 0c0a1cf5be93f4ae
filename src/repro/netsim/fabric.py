"""The network fabric: hosts, links, routing and protocol parameters."""

from __future__ import annotations

from heapq import heappop, heappush
from typing import TYPE_CHECKING, Any, Dict, List, Mapping, Optional, Tuple

if TYPE_CHECKING:  # pragma: no cover - structural typing only
    from typing import Protocol

    class TopologyLike(Protocol):
        hosts: Tuple[Tuple[str, str], ...]
        links: Tuple[Any, ...]

from repro.errors import AddressError
from repro.netsim.routing import CompositePath
from repro.netsim.congestion import CongestionControl, make_cc
from repro.netsim.disk import DiskModel
from repro.netsim.host import NetworkStack, SimHost
from repro.netsim.link import Link, LinkDirection, LinkSpec, Proto
from repro.obs import get_registry, get_tracer
from repro.sim import Simulator
from repro.util.config import Config
from repro.util.ids import IdGenerator
from repro.util.rng import RngRegistry

#: Two routes whose delays differ by less than this (relative to the
#: longer one) count as tied: far above float rounding in a sum of link
#: delays, far below any difference between generated link delays.
ROUTE_TIE_TOLERANCE = 1e-9

#: the congestion-control policy each wire protocol dials with unless a
#: connection or listener names another (``cc=``); names in
#: :data:`repro.netsim.congestion.CC_POLICIES`
DEFAULT_CC = {Proto.TCP: "reno", Proto.UDT: "udt", Proto.UDP: "udp", Proto.LEDBAT: "ledbat"}

#: the loopback interface for same-host (and same-node dual-instance) traffic
LOOPBACK_SPEC = LinkSpec(bandwidth=150.0 * 1024 * 1024, delay=25e-6)


class SimNetwork:
    """Registry of hosts and links plus the factory for protocol state."""

    def __init__(
        self,
        sim: Simulator,
        seed: int = 0,
        config: Optional[Mapping[str, Any]] = None,
        connect_timeout: float = 5.0,
    ) -> None:
        self.sim = sim
        self.rngs = RngRegistry(seed).fork("netsim")
        self.config = Config(config)
        self.ids = IdGenerator()
        self.connect_timeout = connect_timeout
        self.metrics = get_registry()
        self.tracer = get_tracer()
        if self.tracer.enabled:
            self.tracer.use_clock(sim.clock)
        self.hosts: Dict[str, SimHost] = {}
        self.links: Dict[Tuple[str, str], Link] = {}
        self._loopbacks: Dict[str, Link] = {}
        #: the routed topology: adjacency lists of (peer, delay at connect
        #: time), and the sum of those delays; ``connect_hosts`` is the one
        #: place that grows either
        self._neighbours: Dict[str, List[Tuple[str, float]]] = {}
        self._delay_total = 0.0
        self._route_cache: Dict[Tuple[str, str], CompositePath] = {}
        #: source -> parent of every reachable node on its route tree;
        #: dropped with ``_route_cache``
        self._route_trees: Dict[str, Dict[str, str]] = {}

    # ------------------------------------------------------------------
    # topology construction
    # ------------------------------------------------------------------
    def add_host(self, name: str, ip: str, disk: Optional[DiskModel] = None) -> SimHost:
        if ip in self.hosts:
            raise AddressError(f"duplicate host ip {ip}")
        host = SimHost(self, name, ip, disk)
        self.hosts[ip] = host
        self._loopbacks[ip] = Link(ip, ip, LOOPBACK_SPEC)
        return host

    def connect_hosts(
        self, a: SimHost, b: SimHost, spec: LinkSpec, spec_reverse: Optional[LinkSpec] = None
    ) -> Link:
        """Create a duplex point-to-point link between two hosts."""
        key = (a.ip, b.ip)
        if key in self.links or (b.ip, a.ip) in self.links:
            raise AddressError(f"link {a.ip}<->{b.ip} already exists")
        link = Link(a.ip, b.ip, spec, spec_reverse)
        self.links[key] = link
        self._neighbours.setdefault(a.ip, []).append((b.ip, spec.delay))
        self._neighbours.setdefault(b.ip, []).append((a.ip, spec.delay))
        self._delay_total += spec.delay
        self._route_cache.clear()
        self._route_trees.clear()
        return link

    # ------------------------------------------------------------------
    # fleet-scale wiring
    # ------------------------------------------------------------------
    def apply_topology(self, topology: "TopologyLike") -> List[SimHost]:
        """Instantiate a generated topology plan onto this fabric.

        ``topology`` is duck-typed (netsim stays independent of the bench
        layer): it needs ``hosts`` as ``(name, ip)`` pairs and ``links``
        as objects with ``a``/``b`` IPs and a ``spec`` (optionally
        ``spec_reverse``).  Returns the created hosts in plan order.
        """
        hosts = [self.add_host(name, ip) for name, ip in topology.hosts]
        for plan in topology.links:
            self.connect_hosts(self.stack_for(plan.a).host, self.stack_for(plan.b).host,
                               plan.spec, getattr(plan, "spec_reverse", None))
        return hosts

    # ------------------------------------------------------------------
    # routing
    # ------------------------------------------------------------------
    def path(self, src_ip: str, dst_ip: str):
        """The direction (or multi-hop composite path) from src to dst.

        Direct links are returned as their :class:`LinkDirection`; hosts
        without a direct link are joined by the delay-shortest chain of
        links (static routing, cached until the topology changes).
        """
        if src_ip == dst_ip:
            loop = self._loopbacks.get(src_ip)
            if loop is None:
                raise AddressError(f"unknown host {src_ip}")
            return loop.forward
        link = self.links.get((src_ip, dst_ip))
        if link is not None:
            return link.forward
        link = self.links.get((dst_ip, src_ip))
        if link is not None:
            return link.backward
        return self._routed_path(src_ip, dst_ip)

    def _routed_path(self, src_ip: str, dst_ip: str) -> CompositePath:
        cached = self._route_cache.get((src_ip, dst_ip))
        if cached is not None:
            return cached
        if src_ip not in self._neighbours or dst_ip not in self._neighbours:
            raise AddressError(f"no route from {src_ip} to {dst_ip}")
        hops = self._tree_hops(src_ip, dst_ip)
        directions = [
            self.link_between(a, b).direction(a, b) for a, b in zip(hops, hops[1:])
        ]
        composite = CompositePath(directions)
        self._route_cache[(src_ip, dst_ip)] = composite
        return composite

    def _tree_hops(self, src_ip: str, dst_ip: str) -> List[str]:
        """The delay-shortest hop list from ``src_ip`` to ``dst_ip``.

        Routes come from one single-source shortest-path tree per source.
        Among routes within rounding of the same delay (equal-cost
        multipath) the tree keeps the one with the fewest hops, then the
        smallest hop list, so every pair has exactly one route.  A stub
        host (one link) routes through its only neighbour, so trees grow
        only from hosts with two or more.
        """
        neighbours = self._neighbours
        root = neighbours[src_ip][0][0] if len(neighbours[src_ip]) == 1 else src_ip
        last = neighbours[dst_ip][0][0] if len(neighbours[dst_ip]) == 1 else dst_ip
        parent = self._route_trees.get(root)
        if parent is None:
            parent = self._route_trees[root] = self._route_tree(root)
        if last not in parent and last != root:
            raise AddressError(f"no route from {src_ip} to {dst_ip}")
        head = [src_ip] if root != src_ip else []
        tail = [dst_ip] if last != dst_ip else []
        return head + _hops_to(parent, root, last) + tail

    def _route_tree(self, src_ip: str) -> Dict[str, str]:
        """Dijkstra from ``src_ip``: each reachable node's parent.

        Two routes within rounding of the same delay are tied; the tie goes
        to the route with fewer hops, then to the smaller hop list.
        """
        neighbours = self._neighbours
        # No route is longer than every link end to end, so this margin is
        # ROUTE_TIE_TOLERANCE relative to any route's delay or more.
        margin = ROUTE_TIE_TOLERANCE * self._delay_total
        dist = {src_ip: 0.0}
        parent: Dict[str, str] = {}
        settled = set()
        heap = [(0.0, src_ip)]
        while heap:
            _, node = heappop(heap)
            if node in settled:
                continue
            settled.add(node)
            reached = dist[node]
            for peer, delay in neighbours[node]:
                via = reached + delay
                known = dist.get(peer)
                if known is not None:
                    if abs(via - known) <= margin:
                        if peer in settled or not _fewer_hops(parent, src_ip, node, parent[peer]):
                            continue
                    elif via > known:
                        continue
                dist[peer] = via
                parent[peer] = node
                heappush(heap, (via, peer))
        return parent

    def link_between(self, ip_a: str, ip_b: str) -> Link:
        if ip_a == ip_b:
            return self._loopbacks[ip_a]
        link = self.links.get((ip_a, ip_b)) or self.links.get((ip_b, ip_a))
        if link is None:
            raise AddressError(f"no link between {ip_a} and {ip_b}")
        return link

    def stack_for(self, ip: str) -> NetworkStack:
        host = self.hosts.get(ip)
        if host is None:
            raise AddressError(f"unknown host {ip}")
        return host.stack

    def refresh_rtts(self) -> int:
        """Propagate changed link delays into live connections' RTTs.

        Connections sample the path RTT at dial time (like a kernel's
        smoothed RTT, which would converge on its own); after a link spec
        change this pushes the new value into every live controller.
        Returns the number of connections updated.
        """
        from repro.netsim.connection import ConnectionState

        self.tracer.event("netsim.rtt_refresh")
        updated = 0
        for host in self.hosts.values():
            for conn in host.stack.connections:
                if conn.state not in (ConnectionState.ACTIVE, ConnectionState.CONNECTING):
                    continue
                try:
                    out_dir = self.path(conn.local[0], conn.remote[0])
                    back_dir = self.path(conn.remote[0], conn.local[0])
                except AddressError:  # pragma: no cover - topology shrank
                    continue
                rtt = max(out_dir.spec.delay + back_dir.spec.delay, 1e-5)
                cc = conn.flow.cc
                if hasattr(cc, "rtt"):
                    # An outside write to demand-relevant state: move the
                    # generation and republish, as the controller would.
                    cc.rtt = rtt
                    cc.demand_gen += 1
                    conn.flow.publish_demand()
                    updated += 1
        return updated

    def close(self) -> None:
        """Cut this fabric's cycles so refcounting frees it; unusable after, idempotent."""
        for host in self.hosts.values():
            stack = host.stack
            for conn in stack.connections:
                conn._release()
            stack.connections.clear()
            stack._listeners.clear()
            stack.host = host.stack = None
        for link in (*self.links.values(), *self._loopbacks.values()):
            link.forward._release()
            link.backward._release()
        for table in (self.hosts, self.links, self._loopbacks, self._neighbours,
                      self._route_cache, self._route_trees):
            table.clear()

    # ------------------------------------------------------------------
    # protocol parameters
    # ------------------------------------------------------------------
    def make_congestion_control(
        self,
        proto: Proto,
        rtt: float,
        out_dir: LinkDirection,
        cc: Optional[str] = None,
    ) -> CongestionControl:
        """Build the congestion controller for a dialing connection.

        The policy is looked up in ``CC_POLICIES``: an explicit ``cc=`` name
        wins, otherwise :data:`DEFAULT_CC` names the protocol's default.
        """
        return make_cc(
            cc or DEFAULT_CC[proto],
            rtt=rtt,
            bandwidth=out_dir.spec.bandwidth,
            udp_cap=out_dir.spec.udp_cap,
            config=self.config,
        )


def _hops_to(parent: Dict[str, str], root: str, node: str) -> List[str]:
    """The tree route from ``root`` to ``node``, both ends included."""
    hops = [node]
    while node != root:
        node = parent[node]
        hops.append(node)
    hops.reverse()
    return hops


def _fewer_hops(parent: Dict[str, str], root: str, via: str, current: str) -> bool:
    """Whether the route through ``via`` beats the one through ``current``.

    Both reach the same next node at practically the same delay: the one
    with fewer hops wins, then the smaller hop list.
    """
    a, b = _hops_to(parent, root, via), _hops_to(parent, root, current)
    return (len(a), a) < (len(b), b)
