"""Virtual nodes: many addressable endpoints over one network instance.

Three vnodes share a single NettyNetwork.  Messages between vnodes of the
same instance are *reflected* — they never get serialized and the receiver
sees the very same (immutable) message object — while messages to a vnode
on another host travel the wire like any other (paper §III-B).

Run:  python examples/virtual_nodes.py
"""

from repro.kompics import ComponentDefinition, KompicsSystem
from repro.messaging import (
    BaseMsg,
    BasicAddress,
    BasicHeader,
    NettyNetwork,
    Network,
    Transport,
    VirtualAddress,
    VirtualNetworkChannel,
)
from repro.netsim import LinkSpec, SimNetwork
from repro.sim import Simulator

MB = 1024 * 1024


class Greeting(BaseMsg):
    __slots__ = ("text",)

    def __init__(self, header, text: str) -> None:
        super().__init__(header)
        self.text = text


class Worker(ComponentDefinition):
    """A vnode that greets back whoever greets it."""

    def __init__(self, address: VirtualAddress) -> None:
        super().__init__()
        self.net = self.requires(Network)
        self.address = address
        self.seen = []
        self.subscribe(self.net, Greeting, self.on_greeting)

    def on_greeting(self, msg: Greeting) -> None:
        self.seen.append(msg)
        print(f"  [{self.address!r}] got {msg.text!r} from {msg.header.source!r}"
              f" (same object reflected: {msg.header.source.same_host_as(self.address)})")
        if not msg.text.startswith("re:"):
            reply = Greeting(
                BasicHeader(self.address, msg.header.source, Transport.TCP),
                f"re: {msg.text}",
            )
            self.trigger(reply, self.net)

    def greet(self, to, text: str) -> Greeting:
        msg = Greeting(BasicHeader(self.address, to, Transport.TCP), text)
        self.trigger(msg, self.net)
        return msg


def main() -> None:
    sim = Simulator()
    fabric = SimNetwork(sim, seed=1)
    host_a = fabric.add_host("a", "10.0.0.1")
    host_b = fabric.add_host("b", "10.0.0.2")
    fabric.connect_hosts(host_a, host_b, LinkSpec(bandwidth=100 * MB, delay=0.010))
    system = KompicsSystem.simulated(sim, seed=1)

    addr_a = BasicAddress(host_a.ip, 34000)
    addr_b = BasicAddress(host_b.ip, 34000)
    net_a = system.create(NettyNetwork, addr_a, host_a)
    net_b = system.create(NettyNetwork, addr_b, host_b)

    # Two vnodes on host a, one on host b — all behind the same ports.
    vnc_a = VirtualNetworkChannel(system, net_a)
    vnc_b = VirtualNetworkChannel(system, net_b)
    workers = {}
    for vid, (vnc, base) in {
        b"alpha": (vnc_a, addr_a),
        b"beta": (vnc_a, addr_a),
        b"gamma": (vnc_b, addr_b),
    }.items():
        vaddr = base.with_vnode(vid)
        worker = system.create(Worker, vaddr, name=f"worker-{vid.decode()}")
        vnc.connect_vnode(worker.definition.net, vid)
        workers[vid] = worker

    for component in (net_a, net_b, *workers.values()):
        system.start(component)
    sim.run()

    print("alpha -> beta (same instance: reflected, never serialized)")
    local_msg = workers[b"alpha"].definition.greet(addr_a.with_vnode(b"beta"), "hi beta")
    sim.run()
    received = workers[b"beta"].definition.seen[0]
    print(f"  same Python object on both sides: {received is local_msg}")

    print("alpha -> gamma (cross-host: serialized and sent over the wire)")
    workers[b"alpha"].definition.greet(addr_b.with_vnode(b"gamma"), "hi gamma")
    sim.run()

    reflected = net_a.definition.counters["reflected"]
    sent = net_a.definition.counters["sent"]
    print(f"\nnet-a counters: {reflected} reflected, {sent} sent on the wire")


if __name__ == "__main__":
    main()
