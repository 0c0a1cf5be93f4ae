import threading

import pytest

from repro.errors import ComponentError
from repro.kompics import ComponentDefinition, KompicsSystem
from repro.kompics.component import ComponentState
from repro.sim import Simulator
from repro.util.config import Config

from tests.kompics_fixtures import Client, PingPort, Server


@pytest.fixture()
def sim():
    return Simulator()


@pytest.fixture()
def system(sim):
    return KompicsSystem.simulated(sim, seed=1)


class TestLifecycle:
    def test_start_activates_component(self, sim, system):
        client = system.create(Client)
        assert client.state is ComponentState.PASSIVE
        system.start(client)
        sim.run()
        assert client.state is ComponentState.ACTIVE
        assert client.definition.started

    def test_start_cascades_to_children(self, sim, system):
        class Parent(ComponentDefinition):
            def __init__(self) -> None:
                super().__init__()
                self.child = self.create(Client)

        parent = system.create(Parent)
        system.start(parent)
        sim.run()
        assert parent.definition.child.state is ComponentState.ACTIVE

    def test_stop_cascades_to_children(self, sim, system):
        class Parent(ComponentDefinition):
            def __init__(self) -> None:
                super().__init__()
                self.child = self.create(Client)

        parent = system.create(Parent)
        system.start(parent)
        sim.run()
        system.stop(parent)
        sim.run()
        assert parent.state is ComponentState.STOPPED
        assert parent.definition.child.state is ComponentState.STOPPED

    def test_kill_destroys_and_clears_queue(self, sim, system):
        server = system.create(Server)
        client = system.create(Client)
        system.connect(server.provided(PingPort), client.required(PingPort))
        system.start(server)
        system.start(client)
        sim.run()
        system.kill(server)
        sim.run()
        assert server.state is ComponentState.DESTROYED
        client.definition.send(1)
        sim.run()
        assert server.definition.received == []

    def test_stopped_component_can_restart(self, sim, system):
        client = system.create(Client)
        system.start(client)
        sim.run()
        system.stop(client)
        sim.run()
        assert client.state is ComponentState.STOPPED
        system.start(client)
        sim.run()
        assert client.state is ComponentState.ACTIVE

    def test_on_stop_hook_called(self, sim, system):
        calls = []

        class Hooked(ComponentDefinition):
            def on_stop(self) -> None:
                calls.append("stop")

            def on_kill(self) -> None:
                calls.append("kill")

        comp = system.create(Hooked)
        system.start(comp)
        sim.run()
        system.kill(comp)
        sim.run()
        assert calls == ["stop", "kill"]

    def test_component_names_unique(self, system):
        a = system.create(Client)
        b = system.create(Client)
        assert a.name != b.name

    def test_explicit_name(self, system):
        comp = system.create(Client, name="my-client")
        assert comp.name == "my-client"


class TestFaults:
    class Exploder(ComponentDefinition):
        def __init__(self) -> None:
            super().__init__()
            self.port = self.provides(PingPort)
            self.subscribe(self.port, PingPort.requests[0], self.boom)

        def boom(self, event) -> None:
            raise RuntimeError("boom")

    def _wire(self, system):
        exploder = system.create(self.Exploder)
        client = system.create(Client)
        system.connect(exploder.provided(PingPort), client.required(PingPort))
        system.start(exploder)
        system.start(client)
        return exploder, client

    def test_raise_policy_surfaces_fault(self, sim):
        system = KompicsSystem.simulated(sim)
        exploder, client = self._wire(system)
        sim.run()
        client.definition.send(1)
        with pytest.raises(ComponentError):
            sim.run()

    def test_store_policy_records_fault(self, sim):
        system = KompicsSystem.simulated(sim, config={"kompics.fault_policy": "store"})
        exploder, client = self._wire(system)
        sim.run()
        client.definition.send(1)
        sim.run()
        assert len(system.faults) == 1
        assert exploder.state is ComponentState.FAULTY
        with pytest.raises(ComponentError):
            system.raise_faults()

    def test_faulty_component_stops_processing(self, sim):
        system = KompicsSystem.simulated(sim, config={"kompics.fault_policy": "store"})
        exploder, client = self._wire(system)
        sim.run()
        client.definition.send(1)
        client.definition.send(2)
        sim.run()
        assert len(system.faults) == 1  # second ping not handled

    def test_store_policy_kills_children_of_faulted_component(self, sim):
        class ExplodingParent(ComponentDefinition):
            def __init__(self) -> None:
                super().__init__()
                self.port = self.provides(PingPort)
                self.subscribe(self.port, PingPort.requests[0], self.boom)
                self.child = self.create(Client)

            def boom(self, event) -> None:
                raise RuntimeError("boom")

        system = KompicsSystem.simulated(sim, config={"kompics.fault_policy": "store"})
        parent = system.create(ExplodingParent)
        client = system.create(Client)
        system.connect(parent.provided(PingPort), client.required(PingPort))
        system.start(parent)
        system.start(client)
        sim.run()
        child = parent.definition.child
        assert child.state is ComponentState.ACTIVE
        client.definition.send(1)
        sim.run()
        assert parent.state is ComponentState.FAULTY
        # A dead parent must not leave its subtree running headless.
        assert child.state is ComponentState.DESTROYED

    def test_raise_faults_aggregates_all_stored_faults(self, sim):
        system = KompicsSystem.simulated(sim, config={"kompics.fault_policy": "store"})
        for _ in range(2):
            self._wire(system)
        sim.run()
        for component in list(system.components):
            if isinstance(component.definition, Client):
                component.definition.send(1)
        sim.run()
        assert len(system.faults) == 2
        with pytest.raises(ComponentError) as exc_info:
            system.raise_faults()
        message = str(exc_info.value)
        assert "2 stored component fault(s)" in message
        for fault in system.faults:
            assert fault.component_name in message

    def test_clear_faults_drains_the_store(self, sim):
        system = KompicsSystem.simulated(sim, config={"kompics.fault_policy": "store"})
        exploder, client = self._wire(system)
        sim.run()
        client.definition.send(1)
        sim.run()
        drained = system.clear_faults()
        assert len(drained) == 1
        assert system.faults == []
        system.raise_faults()  # no stored faults: does not raise


class TestBatching:
    def test_large_backlog_fully_processed(self, sim):
        # 100 events: several MAX_EVENTS_PER_SCHEDULE batches each way
        system = KompicsSystem.simulated(sim)
        server = system.create(Server)
        client = system.create(Client)
        system.connect(server.provided(PingPort), client.required(PingPort))
        system.start(server)
        system.start(client)
        sim.run()
        for i in range(100):
            client.definition.send(i)
        sim.run()
        assert len(client.definition.pongs) == 100


class TestConfig:
    def test_missing_key_raises(self):
        with pytest.raises(Exception):
            Config().get("nope")

    def test_default(self):
        assert Config().get("nope", 5) == 5

    def test_typed_getters(self):
        cfg = Config({"i": "42", "f": "1.5", "s": 10, "t": "yes", "g": "off"})
        assert cfg.get_int("i") == 42
        assert cfg.get_float("f") == 1.5
        assert cfg.get_str("s") == "10"
        assert cfg.get_bool("t") is True
        assert cfg.get_bool("g") is False

    def test_bad_type_raises(self):
        from repro.errors import ConfigError

        with pytest.raises(ConfigError):
            Config({"i": "abc"}).get_int("i")
        with pytest.raises(ConfigError):
            Config({"b": "maybe"}).get_bool("b")


@pytest.mark.integration
class TestThreadedScheduler:
    def test_ping_pong_over_thread_pool(self):
        system = KompicsSystem.threaded(workers=2)
        try:
            done = threading.Event()

            class WaitingClient(Client):
                def on_pong(self, pong) -> None:
                    super().on_pong(pong)
                    if len(self.pongs) == 50:
                        done.set()

            server = system.create(Server)
            client = system.create(WaitingClient)
            system.connect(server.provided(PingPort), client.required(PingPort))
            system.start(server)
            system.start(client)
            # Give the start events a moment to process, then flood.
            for i in range(50):
                client.definition.send(i)
            assert done.wait(timeout=10.0), "pongs did not arrive in time"
            assert [p.seq for p in client.definition.pongs] == list(range(50))
        finally:
            system.shutdown()

    def test_component_never_runs_concurrently(self):
        system = KompicsSystem.threaded(workers=4)
        try:
            violations = []
            done = threading.Event()

            class Racy(ComponentDefinition):
                def __init__(self) -> None:
                    super().__init__()
                    self.port = self.provides(PingPort)
                    self.inside = 0
                    self.count = 0
                    self.subscribe(self.port, PingPort.requests[0], self.on_ping)

                def on_ping(self, event) -> None:
                    self.inside += 1
                    if self.inside != 1:
                        violations.append(self.inside)
                    self.count += 1
                    self.inside -= 1
                    if self.count == 200:
                        done.set()

            racy = system.create(Racy)
            clients = [system.create(Client) for _ in range(4)]
            for c in clients:
                system.connect(racy.provided(PingPort), c.required(PingPort))
            system.start(racy)
            for c in clients:
                system.start(c)
            for i in range(50):
                for c in clients:
                    c.definition.send(i)
            assert done.wait(timeout=10.0)
            assert violations == []
        finally:
            system.shutdown()
