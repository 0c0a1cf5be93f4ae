"""Pattern-matching subscription extension tests."""

import pytest

from repro.kompics import ComponentDefinition, KompicsSystem
from repro.kompics.matchers import match_fields
from repro.sim import Simulator

from tests.kompics_fixtures import Client, Ping, PingPort, Server


class TestPredicates:
    def test_match_fields_equality(self):
        assert match_fields(seq=3)(Ping(3))
        assert not match_fields(seq=3)(Ping(4))

    def test_match_fields_missing_attribute_is_false(self):
        assert not match_fields(nope=1)(Ping(0))

    def test_match_fields_dotted_path(self):
        class Wrapper:
            def __init__(self, inner):
                self.inner = inner

        ping = Ping(7)
        wrapped = Wrapper(ping)
        predicate = match_fields(**{"inner.seq": 7})
        assert predicate(wrapped)
        assert not match_fields(**{"inner.seq": 8})(wrapped)
        assert not match_fields(**{"inner.missing.deep": 1})(wrapped)

    def test_match_fields_multiple_conditions(self):
        class Pair:
            def __init__(self, a, b):
                self.a = a
                self.b = b

        predicate = match_fields(a=1, b=2)
        assert predicate(Pair(1, 2))
        assert not predicate(Pair(1, 3))


class TestSubscribeMatching:
    @pytest.fixture()
    def world(self):
        sim = Simulator()
        system = KompicsSystem.simulated(sim, seed=1)
        return sim, system

    def test_handler_only_fires_on_matches(self, world):
        sim, system = world

        matched = []

        class Selective(ComponentDefinition):
            def __init__(self) -> None:
                super().__init__()
                self.port = self.provides(PingPort)
                self.subscribe_matching(self.port, Ping, matched.append, match_fields(seq=5))

        server = system.create(Selective)
        client = system.create(Client)
        system.connect(server.provided(PingPort), client.required(PingPort))
        system.start(server)
        system.start(client)
        sim.run()
        for i in range(10):
            client.definition.send(i)
        sim.run()
        assert [p.seq for p in matched] == [5]

    def test_wrapped_handler_unsubscribable(self, world):
        sim, system = world
        seen = []

        class Selective(ComponentDefinition):
            def __init__(self) -> None:
                super().__init__()
                self.port = self.provides(PingPort)
                self.wrapped = self.subscribe_matching(
                    self.port, Ping, seen.append, match_fields(seq=0)
                )

        server = system.create(Selective)
        client = system.create(Client)
        system.connect(server.provided(PingPort), client.required(PingPort))
        system.start(server)
        system.start(client)
        sim.run()
        client.definition.send(0)
        sim.run()
        assert len(seen) == 1
        server.definition.port.unsubscribe(Ping, server.definition.wrapped)
        client.definition.send(0)
        sim.run()
        assert len(seen) == 1  # no longer subscribed

    def test_direction_validation_still_applies(self, world):
        sim, system = world
        from repro.errors import PortError

        from tests.kompics_fixtures import Pong

        server = system.create(Server)
        with pytest.raises(PortError):
            server.definition.subscribe_matching(
                server.definition.port, Pong, lambda e: None, match_fields()
            )
