"""Multi-hop fabric routing: composite paths, bottleneck sharing, faults."""

import os
import subprocess
import sys

import networkx as nx
import pytest

from repro.bench.topology import generate_topology
from repro.errors import AddressError
from repro.netsim import (
    CompositePath,
    FaultInjector,
    LinkSpec,
    Proto,
    SimNetwork,
    WireMessage,
)
from repro.netsim.routing import single_hop_directions
from repro.sim import Simulator

from tests.netsim_helpers import MB, Sink, run_transfer


def chain(sim, specs):
    """hosts h0 - h1 - ... - hn joined by the given LinkSpecs."""
    net = SimNetwork(sim, seed=2)
    hosts = [net.add_host(f"h{i}", f"10.1.0.{i + 1}") for i in range(len(specs) + 1)]
    for i, spec in enumerate(specs):
        net.connect_hosts(hosts[i], hosts[i + 1], spec)
    return net, hosts


class TestCompositePath:
    def test_requires_hops(self):
        with pytest.raises(ValueError):
            CompositePath([])

    def test_aggregates_specs(self):
        sim = Simulator()
        net, hosts = chain(sim, [LinkSpec(100 * MB, 0.010, loss=0.001),
                                 LinkSpec(20 * MB, 0.030, udp_cap=5 * MB)])
        path = net.path(hosts[0].ip, hosts[2].ip)
        assert isinstance(path, CompositePath)
        assert path.spec.delay == pytest.approx(0.040)
        assert path.spec.bandwidth == 20 * MB
        assert path.spec.udp_cap == 5 * MB
        assert len(path.directions) == 2

    def test_loss_combines_across_hops(self):
        sim = Simulator()
        net, hosts = chain(sim, [LinkSpec(1e8, 0.01, loss=0.1), LinkSpec(1e8, 0.01, loss=0.1)])
        path = net.path(hosts[0].ip, hosts[2].ip)
        single = path.directions[0].loss_probability(1500)
        combined = path.loss_probability(1500)
        assert combined == pytest.approx(1 - (1 - single) ** 2)

    def test_direct_link_stays_plain(self):
        sim = Simulator()
        net, hosts = chain(sim, [LinkSpec(1e8, 0.01)])
        path = net.path(hosts[0].ip, hosts[1].ip)
        assert not isinstance(path, CompositePath)
        assert single_hop_directions(path) == (path,)

    def test_unroutable_raises(self):
        sim = Simulator()
        net = SimNetwork(sim)
        a = net.add_host("a", "10.0.0.1")
        net.add_host("b", "10.0.0.2")  # no link
        with pytest.raises(AddressError):
            net.path("10.0.0.1", "10.0.0.2")
        with pytest.raises(AddressError):
            net.path("10.0.0.1", "10.0.0.99")


class TestRouteTrees:
    """Per-source route trees give the delay-shortest hops, ties broken by rule."""

    @staticmethod
    def _hop_names(net, a, b):
        return [d.name for d in single_hop_directions(net.path(a, b))]

    @staticmethod
    def _pair_search(net, a, b):
        """The uncached reference: one networkx search over the links as made."""
        graph = nx.Graph()
        for (x, y), link in net.links.items():
            graph.add_edge(x, y, delay=link.forward.spec.delay)
        hops = nx.shortest_path(graph, a, b, weight="delay")
        return [f"{x}->{y}" for x, y in zip(hops, hops[1:])]

    @pytest.mark.parametrize("kind,hosts", [
        ("star", 12), ("fat-tree", 40), ("wan-mesh", 24),
    ])
    def test_every_endpoint_pair_matches_the_pair_search(self, kind, hosts):
        # The generated families (the fat-tree is a strict tree) have no
        # equal-delay multipath, so networkx's pick is the only route.
        topology = generate_topology(kind, hosts, seed=3)
        net = SimNetwork(Simulator(), seed=1)
        net.apply_topology(topology)
        pairs = [(a, b) for a in topology.endpoints for b in topology.endpoints if a != b]
        for pair in pairs:
            assert self._hop_names(net, *pair) == self._pair_search(net, *pair), pair
        # A stub host routes through its only neighbour: every source's
        # tree grew from it or, behind one link, from its gateway, and
        # trees exist only for hosts with two or more links.
        links = net._neighbours
        assert set(net._route_trees) == {
            a if len(links[a]) > 1 else links[a][0][0] for a in topology.endpoints
        }
        assert all(len(links[root]) > 1 for root in net._route_trees)

    @pytest.mark.parametrize("via_b,via_c", [
        ((0.015, 0.005), (0.005, 0.015)),  # an exact tie at 20 ms
        ((0.15, 0.15), (0.1, 0.2)),        # 0.1 + 0.2 != 0.3 in floats: a tie within rounding
    ])
    def test_tied_routes_take_the_smaller_hop_list(self, via_b, via_c):
        # a - b - d and a - c - d: two hops each, tied on delay.  Dijkstra
        # reaches d through c first; the rule, not the order of discovery,
        # picks b.
        net = SimNetwork(Simulator(), seed=4)
        a, b, c, d = (net.add_host(n, f"10.2.0.{i}") for i, n in enumerate("abcd", 1))
        net.connect_hosts(a, b, LinkSpec(1e8, via_b[0]))
        net.connect_hosts(b, d, LinkSpec(1e8, via_b[1]))
        net.connect_hosts(a, c, LinkSpec(1e8, via_c[0]))
        net.connect_hosts(c, d, LinkSpec(1e8, via_c[1]))
        assert self._hop_names(net, a.ip, d.ip) == [f"{a.ip}->{b.ip}", f"{b.ip}->{d.ip}"]
        assert self._hop_names(net, d.ip, a.ip) == [f"{d.ip}->{b.ip}", f"{b.ip}->{a.ip}"]

    def test_tied_routes_take_the_fewest_hops(self):
        # a - b - c - e (three hops) against a - d - e (two), tied on delay:
        # the two-hop route wins although the three-hop one reaches e first
        # and its hop list is the smaller one.
        net = SimNetwork(Simulator(), seed=4)
        a, b, c, d, e = (net.add_host(n, f"10.2.0.{i}") for i, n in enumerate("abcde", 1))
        for x, y, delay in ((a, b, 0.001), (b, c, 0.001), (c, e, 0.028),
                            (a, d, 0.015), (d, e, 0.015)):
            net.connect_hosts(x, y, LinkSpec(1e8, delay))
        assert self._hop_names(net, a.ip, e.ip) == [f"{a.ip}->{d.ip}", f"{d.ip}->{e.ip}"]
        assert self._hop_names(net, e.ip, a.ip) == [f"{e.ip}->{d.ip}", f"{d.ip}->{a.ip}"]

    def test_tied_routes_behind_stubs_follow_the_same_rule(self):
        # s - a = {b, c} = d - t: two exactly tied routes between the
        # gateways, each end a stub host with one link.
        net = SimNetwork(Simulator(), seed=4)
        s, a, b, c, d, t = (net.add_host(n, f"10.2.0.{i}") for i, n in enumerate("sabcdt", 1))
        net.connect_hosts(s, a, LinkSpec(1e8, 0.001))
        for via, first, second in ((c, 0.004, 0.016), (b, 0.016, 0.004)):
            net.connect_hosts(a, via, LinkSpec(1e8, first))
            net.connect_hosts(via, d, LinkSpec(1e8, second))
        net.connect_hosts(d, t, LinkSpec(1e8, 0.002))
        hops = [s.ip, a.ip, b.ip, d.ip, t.ip]
        assert self._hop_names(net, s.ip, t.ip) == [f"{x}->{y}" for x, y in zip(hops, hops[1:])]
        hops.reverse()
        assert self._hop_names(net, t.ip, s.ip) == [f"{x}->{y}" for x, y in zip(hops, hops[1:])]
        assert set(net._route_trees) == {a.ip, d.ip}

    @staticmethod
    def _probe(code):
        """Run ``code`` in a fresh interpreter; its asserts are the test's."""
        src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
        done = subprocess.run([sys.executable, "-c", code], timeout=120,
                              env={**os.environ, "PYTHONPATH": src},
                              capture_output=True, text=True)
        assert done.returncode == 0, done.stderr

    def test_a_fabric_without_tied_routes_never_imports_networkx(self):
        # 0.17 s and some 15 MB in every process, socket-backend ones
        # included; scipy rides along to pin its own lazy import.  networkx
        # is not a runtime dependency at all: with its import refused,
        # every generated family routes every endpoint pair and a wan-mesh
        # fleet unit runs to completion.
        self._probe(
            "import sys\n"
            "class Block:\n"
            "    def find_spec(self, name, path=None, target=None):\n"
            "        if name.split('.')[0] == 'networkx':\n"
            "            raise ImportError('networkx is blocked')\n"
            "sys.meta_path.insert(0, Block())\n"
            "import repro, repro.aio, repro.apps\n"
            "def heavy(): return sorted({'networkx', 'scipy'} & set(sys.modules))\n"
            "assert not heavy(), ('imported', heavy())\n"
            "from repro.bench.fleet import run_fleet_workload\n"
            "from repro.bench.topology import GENERATORS, generate_topology\n"
            "from repro.netsim import SimNetwork\n"
            "from repro.sim import Simulator\n"
            "for kind in GENERATORS:\n"
            "    topology = generate_topology(kind, 24, seed=3)\n"
            "    net = SimNetwork(Simulator(), seed=1)\n"
            "    net.apply_topology(topology)\n"
            "    ends = topology.endpoints\n"
            "    assert all(net.path(a, b) for a in ends for b in ends if a != b), kind\n"
            "result = run_fleet_workload('wan-mesh', hosts=16, flows=32)\n"
            "assert result.counters['flows_completed'] == 32, result.counters\n"
            "assert not heavy(), ('routing', heavy())\n"
        )

    def test_a_fleet_unit_imports_only_the_layers_it_runs(self):
        # every module a process imports is start-up time (setup_s); a
        # fleet unit runs sim + netsim, so Kompics and the middleware
        # above it, the socket backend and the paper's harnesses stay out
        self._probe(
            "import sys, repro\n"
            "def loaded(): return sorted(m for m in sys.modules if m.split('.')[0] == 'repro')\n"
            "assert loaded() == ['repro', 'repro._version'], loaded()\n"
            "from repro.bench.fleet import run_fleet_workload\n"
            "run_fleet_workload('wan-mesh', hosts=16, flows=32)\n"
            "above = ('repro.kompics', 'repro.messaging', 'repro.core', 'repro.apps', 'repro.aio')\n"
            "harnesses = {'repro.bench.' + m for m in ('harness', 'scenario', 'chaos', 'faults', 'perf')}\n"
            "stray = [m for m in loaded() if m in harnesses or '.'.join(m.split('.')[:2]) in above]\n"
            "assert not stray, stray\n"
            "assert len(loaded()) <= 40, (len(loaded()), loaded())\n"
        )

    def test_connect_hosts_drops_the_trees(self):
        sim = Simulator()
        net, hosts = chain(sim, [LinkSpec(1e8, 0.010), LinkSpec(1e8, 0.010),
                                 LinkSpec(1e8, 0.010)])
        assert len(single_hop_directions(net.path(hosts[0].ip, hosts[3].ip))) == 3
        assert net._route_trees
        net.connect_hosts(hosts[0], hosts[2], LinkSpec(1e8, 0.001))  # a shortcut
        assert not net._route_trees and not net._route_cache
        assert len(single_hop_directions(net.path(hosts[0].ip, hosts[3].ip))) == 2


class TestRoutedTransfers:
    def test_transfer_across_relay(self):
        sim = Simulator()
        net, hosts = chain(sim, [LinkSpec(50 * MB, 0.010), LinkSpec(25 * MB, 0.020)])
        sink = run_transfer(sim, net, hosts[0], hosts[2], Proto.TCP, 20 * MB)
        assert sink.bytes_received == pytest.approx(20 * MB, abs=65536)
        # Throughput bounded by the narrowest hop.
        assert sink.goodput() < 26 * MB
        # First arrival pays the full two-hop handshake + propagation.
        assert sink.arrivals[0][0] > 2 * (0.010 + 0.020)

    def test_shortest_delay_route_chosen(self):
        sim = Simulator()
        net = SimNetwork(sim, seed=4)
        a = net.add_host("a", "10.2.0.1")
        b = net.add_host("b", "10.2.0.2")
        c = net.add_host("c", "10.2.0.3")
        d = net.add_host("d", "10.2.0.4")
        # a-b-d is 20ms total; a-c-d is 100ms total.
        net.connect_hosts(a, b, LinkSpec(1e8, 0.010))
        net.connect_hosts(b, d, LinkSpec(1e8, 0.010))
        net.connect_hosts(a, c, LinkSpec(1e8, 0.050))
        net.connect_hosts(c, d, LinkSpec(1e8, 0.050))
        path = net.path(a.ip, d.ip)
        assert path.spec.delay == pytest.approx(0.020)

    def test_shared_bottleneck_fair_between_partial_overlaps(self):
        """Dumbbell: flows a->c and b->c share only the r-c bottleneck."""
        sim = Simulator()
        net = SimNetwork(sim, seed=6)
        a = net.add_host("a", "10.3.0.1")
        b = net.add_host("b", "10.3.0.2")
        r = net.add_host("r", "10.3.0.3")
        c = net.add_host("c", "10.3.0.4")
        net.connect_hosts(a, r, LinkSpec(100 * MB, 0.001))
        net.connect_hosts(b, r, LinkSpec(100 * MB, 0.001))
        net.connect_hosts(r, c, LinkSpec(20 * MB, 0.005))  # bottleneck

        sink_a = Sink(sim)
        sink_b = Sink(sim)
        c.stack.listen(7000, Proto.TCP, on_accept=sink_a.on_accept)
        c.stack.listen(7001, Proto.TCP, on_accept=sink_b.on_accept)
        conn_a = a.stack.connect((c.ip, 7000), Proto.TCP)
        conn_b = b.stack.connect((c.ip, 7001), Proto.TCP)
        for i in range(20 * MB // 65536):
            conn_a.send(WireMessage(i, 65536))
            conn_b.send(WireMessage(i, 65536))
        sim.run()
        # Both finish around the fair-share time (2 x 20MB over 20MB/s).
        t_a = sink_a.arrivals[-1][0]
        t_b = sink_b.arrivals[-1][0]
        assert t_a == pytest.approx(t_b, rel=0.2)
        assert 1.6 < max(t_a, t_b) < 2.6

    def test_cut_middle_link_aborts_routed_connection(self):
        sim = Simulator()
        net, hosts = chain(sim, [LinkSpec(50 * MB, 0.005), LinkSpec(50 * MB, 0.005)])
        sink = Sink(sim)
        hosts[2].stack.listen(7000, Proto.TCP, on_accept=sink.on_accept)
        conn = hosts[0].stack.connect((hosts[2].ip, 7000), Proto.TCP)
        outcomes = []
        for i in range(200):
            conn.send(WireMessage(i, 65536, on_sent=outcomes.append))
        injector = FaultInjector(net)
        sim.schedule(0.1, lambda: injector.cut_link(hosts[1].ip, hosts[2].ip))
        sim.run()
        from repro.netsim import ConnectionState

        assert conn.state is ConnectionState.CLOSED
        assert outcomes.count(False) > 0
