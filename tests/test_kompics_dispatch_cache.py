"""Dispatch-table memoization: correctness under every invalidation path.

The port dispatch cache (``Port._dispatch_cache``) must be invisible:
every event must reach exactly the handlers the per-event subscription
scan would have found, in subscription order, across subscribe /
unsubscribe / attach / detach churn.
"""

import pytest

from repro.errors import PortError
from repro.kompics import KompicsSystem
from repro.kompics.port import Port
from repro.sim import Simulator

from tests.kompics_fixtures import Client, FancyPing, Ping, PingPort, Pong, Server


@pytest.fixture()
def sim():
    return Simulator()


@pytest.fixture()
def system(sim):
    return KompicsSystem.simulated(sim, seed=1)


def wire_pair(system):
    server = system.create(Server)
    client = system.create(Client)
    system.connect(server.provided(PingPort), client.required(PingPort))
    system.start(server)
    system.start(client)
    return server, client


class _Owner:
    """Bare stand-in for a ComponentCore: matching never touches it."""

    name = "dispatch-test"


def make_port():
    return Port(PingPort, _Owner(), positive=True)


class TestCacheCorrectness:
    def test_subclass_event_hits_supertype_subscription(self):
        port = make_port()
        seen = []
        port.subscribe(Ping, seen.append)
        fancy = FancyPing(1)
        # Twice: first resolves and fills the cache, second serves from it.
        assert list(port.matching_handlers(fancy)) == [seen.append]
        assert list(port.matching_handlers(fancy)) == [seen.append]

    def test_subscription_order_preserved(self):
        port = make_port()
        calls = []
        h1 = lambda e: calls.append(1)  # noqa: E731
        h2 = lambda e: calls.append(2)  # noqa: E731
        port.subscribe(Ping, h1)
        port.subscribe(FancyPing, h2)
        assert list(port.matching_handlers(FancyPing(0))) == [h1, h2]
        assert list(port.matching_handlers(Ping(0))) == [h1]

    def test_subscribe_after_first_dispatch_invalidates(self):
        port = make_port()
        h1 = lambda e: None  # noqa: E731
        h2 = lambda e: None  # noqa: E731
        port.subscribe(Ping, h1)
        assert list(port.matching_handlers(Ping(0))) == [h1]  # cache filled
        port.subscribe(Ping, h2)
        assert list(port.matching_handlers(Ping(0))) == [h1, h2]

    def test_unsubscribe_invalidates(self):
        port = make_port()
        h1 = lambda e: None  # noqa: E731
        h2 = lambda e: None  # noqa: E731
        port.subscribe(Ping, h1)
        port.subscribe(Ping, h2)
        assert list(port.matching_handlers(Ping(0))) == [h1, h2]
        port.unsubscribe(Ping, h1)
        assert list(port.matching_handlers(Ping(0))) == [h2]

    def test_scan_and_cache_agree(self):
        """Property-style: cached dispatch == per-event scan, always."""
        port = make_port()
        handlers = [lambda e, i=i: i for i in range(4)]
        port.subscribe(Ping, handlers[0])
        port.subscribe(FancyPing, handlers[1])
        port.subscribe(Ping, handlers[2])
        port.subscribe(FancyPing, handlers[3])
        for event in (Ping(0), FancyPing(0), Ping(1), FancyPing(1)):
            cached = list(port.matching_handlers(event))
            scanned = [h for (t, h) in port._subscriptions if isinstance(event, t)]
            assert cached == scanned


class TestIdempotencyErrors:
    def test_double_unsubscribe_raises_port_error(self):
        port = make_port()
        handler = lambda e: None  # noqa: E731
        port.subscribe(Ping, handler)
        port.unsubscribe(Ping, handler)
        with pytest.raises(PortError, match="not subscribed"):
            port.unsubscribe(Ping, handler)

    def test_unsubscribe_unknown_handler_raises_port_error(self):
        port = make_port()
        with pytest.raises(PortError, match="not subscribed"):
            port.unsubscribe(Ping, lambda e: None)

    def test_double_detach_raises_port_error(self, system):
        server = system.create(Server)
        client = system.create(Client)
        channel = system.connect(
            server.provided(PingPort), client.required(PingPort)
        )
        port = server.provided(PingPort)
        port.detach(channel)
        with pytest.raises(PortError, match="not attached"):
            port.detach(channel)

    def test_detach_invalidates_dispatch_cache(self, system):
        server = system.create(Server)
        client = system.create(Client)
        channel = system.connect(
            server.provided(PingPort), client.required(PingPort)
        )
        port = server.provided(PingPort)
        port.matching_handlers(Ping(0))
        assert port._dispatch_cache
        port.detach(channel)
        assert not port._dispatch_cache


class TestDirectionCache:
    def test_wrong_direction_still_rejected_after_memoization(self, sim, system):
        server, client = wire_pair(system)
        sim.run()
        # Correct direction works (and memoizes Pong on the provided port).
        server.definition.trigger(Pong(1), server.definition.port)
        # Wrong direction raises, repeatedly (memoized False stays False).
        for _ in range(2):
            with pytest.raises(PortError, match="not an indication"):
                server.definition.trigger(Ping(1), server.definition.port)
        for _ in range(2):
            with pytest.raises(PortError, match="not a request"):
                client.definition.trigger(Pong(1), client.definition.port)
