"""Multi-hop forwarding with RoutingHeader (paper listing 5).

A message from Alice reaches Carol through Bob (no direct Alice-Carol
link), but Carol replies *directly* to Alice: while a Route is attached
the header's destination is the next hop, yet the source stays the
original sender.

Run:  python examples/multihop_routing.py
"""

from repro.kompics import ComponentDefinition, KompicsSystem
from repro.messaging import (
    BaseMsg,
    BasicAddress,
    BasicHeader,
    NettyNetwork,
    Network,
    Route,
    RoutingHeader,
    Transport,
)
from repro.netsim import LinkSpec, SimNetwork
from repro.sim import Simulator

MB = 1024 * 1024


class Envelope(BaseMsg):
    __slots__ = ("text",)

    def __init__(self, header, text: str) -> None:
        super().__init__(header)
        self.text = text

    def forwarded(self) -> "Envelope":
        assert isinstance(self.header, RoutingHeader)
        return Envelope(self.header.next_hop(), self.text)


class Node(ComponentDefinition):
    """Forwards routed envelopes; answers ones addressed to itself."""

    def __init__(self, address: BasicAddress) -> None:
        super().__init__()
        self.net = self.requires(Network)
        self.address = address
        self.log = []
        self.subscribe(self.net, Envelope, self.on_envelope)

    def on_envelope(self, msg: Envelope) -> None:
        header = msg.header
        if isinstance(header, RoutingHeader) and header.route and header.route.has_next():
            print(f"  [{self.address!r}] forwarding {msg.text!r} toward {header.route.final_destination!r}")
            self.trigger(msg.forwarded(), self.net)
            return
        self.log.append(msg)
        print(f"  [{self.address!r}] received {msg.text!r} from {header.source!r}")
        if not msg.text.startswith("ack"):
            # Reply DIRECTLY to the original source — no route needed.
            reply = Envelope(
                BasicHeader(self.address, header.source, Transport.TCP),
                f"ack: {msg.text}",
            )
            self.trigger(reply, self.net)


def main() -> None:
    sim = Simulator()
    fabric = SimNetwork(sim, seed=5)
    hosts = {name: fabric.add_host(name, ip) for name, ip in
             (("alice", "10.0.0.1"), ("bob", "10.0.0.2"), ("carol", "10.0.0.3"))}
    # A chain topology: alice-bob and bob-carol, but ALSO alice-carol for
    # the direct reply (the relay is a middleware-level choice here).
    fabric.connect_hosts(hosts["alice"], hosts["bob"], LinkSpec(100 * MB, 0.010))
    fabric.connect_hosts(hosts["bob"], hosts["carol"], LinkSpec(100 * MB, 0.010))
    fabric.connect_hosts(hosts["alice"], hosts["carol"], LinkSpec(100 * MB, 0.040))

    system = KompicsSystem.simulated(sim, seed=5)
    nodes = {}
    for name, host in hosts.items():
        address = BasicAddress(host.ip, 34000)
        network = system.create(NettyNetwork, address, host, name=f"net-{name}")
        node = system.create(Node, address, name=f"node-{name}")
        system.connect(network.provided(Network), node.definition.net)
        system.start(network)
        system.start(node)
        nodes[name] = node
    sim.run()

    alice, bob, carol = (nodes[n].definition for n in ("alice", "bob", "carol"))
    print("alice -> (via bob) -> carol, reply comes straight back:")
    base = BasicHeader(alice.address, carol.address, Transport.TCP)
    route = Route(alice.address, [bob.address, carol.address])
    msg = Envelope(RoutingHeader(base, route), "hello through the relay")
    alice.trigger(msg, alice.net)
    sim.run()

    assert carol.log and carol.log[0].text == "hello through the relay"
    assert alice.log and alice.log[0].text.startswith("ack")
    print("\nDone: Carol received via Bob; Alice got the ack directly.")


if __name__ == "__main__":
    main()
