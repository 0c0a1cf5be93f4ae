"""Component supervision: restart policies, escalation, dead letters."""

from __future__ import annotations

from typing import List

import pytest

from repro.errors import ComponentError
from repro.kompics import ComponentDefinition, Fault, KompicsSystem
from repro.kompics.component import ComponentState
from repro.kompics.runtime import DEADLETTERS_KEPT
from repro.sim import Simulator

from tests.kompics_fixtures import Client, Ping, PingPort, Pong


@pytest.fixture()
def sim():
    return Simulator()


def supervised(sim, max_restarts=5, window=30.0, **config):
    """A system that restarts a faulted component within the budget."""
    merged = {
        "kompics.supervision.enabled": True,
        "kompics.supervision.max_restarts": max_restarts,
        "kompics.supervision.window": window,
    }
    merged.update(config)
    return KompicsSystem.simulated(sim, config=merged)


class Flaky(ComponentDefinition):
    """Answers pings; a ping whose seq is in ``bad_seqs`` raises."""

    instances = 0

    def __init__(self, bad_seqs=(2,)) -> None:
        super().__init__()
        Flaky.instances += 1
        self.port = self.provides(PingPort)
        self.bad_seqs = set(bad_seqs)
        self.handled: List[int] = []
        self.faults_seen: List[Fault] = []
        self.subscribe(self.port, Ping, self.on_ping)

    def on_ping(self, ping: Ping) -> None:
        if ping.seq in self.bad_seqs:
            raise RuntimeError(f"boom at {ping.seq}")
        self.handled.append(ping.seq)
        self.trigger(Pong(ping.seq), self.port)

    def on_fault(self, fault: Fault) -> None:
        self.faults_seen.append(fault)


@pytest.fixture(autouse=True)
def _reset_flaky_instances():
    Flaky.instances = 0


def wire(sim, system, server_cls=Flaky, **kwargs):
    server = system.create(server_cls, **kwargs)
    client = system.create(Client)
    system.connect(server.provided(PingPort), client.required(PingPort))
    system.start(server)
    system.start(client)
    sim.run()
    return server, client


def send_and_run(sim, client, *seqs):
    for seq in seqs:
        client.definition.send(seq)
        sim.run_until(sim.clock.now() + 1.0)


class TestDisabledDefault:
    def test_supervision_off_preserves_legacy_raise(self, sim):
        system = KompicsSystem.simulated(sim)
        assert not system.supervision.enabled
        server, client = wire(sim, system)
        client.definition.send(2)
        with pytest.raises(ComponentError):
            sim.run()
        assert server.state is ComponentState.FAULTY
        assert Flaky.instances == 1

    def test_policy_defaults_from_config(self, sim):
        system = supervised(
            sim,
            **{
                "kompics.supervision.max_restarts": 2,
                "kompics.supervision.window": 5.0,
            },
        )
        policy = system.supervision.policy
        assert policy.max_restarts == 2
        assert policy.window == 5.0


class TestRestart:
    def test_restart_reinstantiates_and_keeps_channels(self, sim):
        system = supervised(sim)
        server, client = wire(sim, system)
        send_and_run(sim, client, 1, 2, 3)
        # seq 2 faulted; the fresh instance answered seq 3 over the old channel
        assert [p.seq for p in client.definition.pongs] == [1, 3]
        assert Flaky.instances == 2
        assert server.state is ComponentState.ACTIVE
        assert system.supervision.restarts_total == 1
        assert system.supervision.restarts_of(server) == 1
        # the new instance starts from a clean slate
        assert server.definition.handled == [3]

    def test_restart_calls_on_fault_hook_on_old_instance(self, sim):
        system = supervised(sim)
        server, client = wire(sim, system)
        old = server.definition
        send_and_run(sim, client, 2)
        assert len(old.faults_seen) == 1
        assert server.definition is not old
        assert server.definition.faults_seen == []

    def test_restart_destroys_and_recreates_children(self, sim):
        class Parent(ComponentDefinition):
            def __init__(self) -> None:
                super().__init__()
                self.port = self.provides(PingPort)
                self.child = self.create(Client)
                self.subscribe(self.port, Ping, self.on_ping)

            def on_ping(self, ping: Ping) -> None:
                raise RuntimeError("boom")

        system = supervised(sim)
        parent = system.create(Parent)
        client = system.create(Client)
        system.connect(parent.provided(PingPort), client.required(PingPort))
        system.start(parent)
        system.start(client)
        sim.run()
        old_child = parent.definition.child
        send_and_run(sim, client, 1)
        assert old_child.state is ComponentState.DESTROYED
        new_child = parent.definition.child
        assert new_child.core is not old_child.core
        assert new_child.state is ComponentState.ACTIVE

    def test_restart_preserves_parked_mailbox(self, sim):
        # Actor-family restart semantics: the fault consumes only the
        # poisoned event; everything already queued behind it survives the
        # reinstantiation and is delivered to the successor instance.
        system = supervised(sim)
        server, client = wire(sim, system)
        for seq in (1, 2, 3, 4):
            client.definition.send(seq)
        sim.run()
        assert Flaky.instances == 2
        # seq 2 faulted the first instance; 3 and 4 were parked in the
        # mailbox across the restart and answered by the successor
        assert server.definition.handled == [3, 4]
        assert [p.seq for p in client.definition.pongs] == [1, 3, 4]

    def test_budget_exhaustion_escalates(self, sim):
        system = supervised(sim, max_restarts=2, window=100.0)
        server, client = wire(sim, system, bad_seqs=(1, 2, 3))
        send_and_run(sim, client, 1)
        send_and_run(sim, client, 2)
        assert system.supervision.restarts_total == 2
        # third fault exhausts the budget -> escalates to the root policy
        client.definition.send(3)
        with pytest.raises(ComponentError):
            sim.run()
        assert server.state is ComponentState.FAULTY
        assert system.supervision.escalations_total == 1

    def test_budget_window_rolls(self, sim):
        system = supervised(sim, max_restarts=1, window=2.0)
        server, client = wire(sim, system, bad_seqs=(1, 2, 3))
        send_and_run(sim, client, 1)  # restart #1
        sim.run_until(sim.clock.now() + 10.0)  # outlives the window
        send_and_run(sim, client, 2)  # budget rolled: restart #2, no escalation
        assert system.supervision.restarts_total == 2
        assert system.supervision.escalations_total == 0


class TestOtherActions:
    def test_escalate_applies_parent_policy(self, sim):
        # The child's budget allows one restart; its second fault escalates
        # to the parent, which restarts and re-creates the child.
        class Parent(ComponentDefinition):
            def __init__(self) -> None:
                super().__init__()
                self.child = self.create(Flaky, bad_seqs=(1, 2))
                self.port = self.child.definition.port

        system = supervised(sim, max_restarts=1, window=100.0)
        parent = system.create(Parent)
        client = system.create(Client)
        system.connect(parent.definition.port, client.required(PingPort))
        system.start(parent)
        system.start(client)
        sim.run()
        send_and_run(sim, client, 1)  # the child restarts in place
        first_child = parent.definition.child
        assert system.supervision.restarts_of(first_child) == 1
        send_and_run(sim, client, 2)  # the child's budget is spent
        # the parent was restarted, taking the faulted child with it
        assert system.supervision.restarts_total == 2
        assert system.supervision.escalations_total == 1
        assert system.supervision.restarts_of(parent) == 1
        assert parent.state is ComponentState.ACTIVE
        assert first_child.state is ComponentState.DESTROYED
        assert parent.definition.child.state is ComponentState.ACTIVE
        assert Flaky.instances == 3

    def test_root_escalation_matches_store_policy(self, sim):
        system = supervised(sim, max_restarts=1, window=100.0,
                            **{"kompics.fault_policy": "store"})
        server, client = wire(sim, system, bad_seqs=(1, 2))
        send_and_run(sim, client, 1, 2)
        assert server.state is ComponentState.FAULTY
        assert len(system.faults) == 1


class TestSupervisionEventsPort:
    def test_inject_fault_behaves_like_handler_exception(self, sim):
        system = supervised(sim)
        server, client = wire(sim, system)
        system.supervision.inject_fault(server, RuntimeError("chaos"))
        sim.run()
        assert Flaky.instances == 2
        assert server.state is ComponentState.ACTIVE
        assert system.supervision.restarts_total == 1

    def test_timeline_records_actions(self, sim):
        system = supervised(sim)
        server, client = wire(sim, system)
        send_and_run(sim, client, 2)
        records = system.supervision.timeline_for(server.name)
        assert [r.action for r in records] == ["restart"]
        assert records[0].event == "Ping"


class TestDeadLetters:
    def test_events_to_faulty_component_are_dead_letters(self, sim):
        system = KompicsSystem.simulated(sim, config={"kompics.fault_policy": "store"})
        server, client = wire(sim, system)
        client.definition.send(2)  # faults the server
        sim.run()
        assert server.state is ComponentState.FAULTY
        before = system.deadletters_total
        client.definition.send(3)
        sim.run()
        assert system.deadletters_total == before + 1
        letter = system.deadletters[-1]
        assert letter.component_name == server.name
        assert letter.state == "faulty"
        assert letter.dropped

    def test_events_to_destroyed_component_are_dead_letters(self, sim):
        system = KompicsSystem.simulated(sim)
        server, client = wire(sim, system)
        system.kill(server)
        sim.run()
        assert server.state is ComponentState.DESTROYED
        client.definition.send(1)
        sim.run()
        assert system.deadletters_total >= 1
        assert system.deadletters[-1].state == "destroyed"
        assert system.deadletters[-1].dropped

    def test_events_to_stopped_component_are_parked_not_dropped(self, sim):
        system = KompicsSystem.simulated(sim)
        server, client = wire(sim, system)
        system.stop(server)
        sim.run()
        assert server.state is ComponentState.STOPPED
        client.definition.send(7)
        sim.run()
        parked = [l for l in system.deadletters if l.state == "stopped"]
        assert len(parked) == 1
        assert not parked[0].dropped
        # restarting delivers the parked event
        system.start(server)
        sim.run()
        assert [p.seq for p in client.definition.pongs] == [7]

    def test_terminal_fault_dead_letters_parked_events(self, sim):
        # Events queued *behind* the poisoned one at the moment of a
        # terminal fault die with the component — each must be accounted
        # as a dropped dead letter, not silently discarded.
        system = KompicsSystem.simulated(sim, config={"kompics.fault_policy": "store"})
        server, client = wire(sim, system)
        for seq in (2, 3, 4):
            client.definition.send(seq)
        sim.run()
        assert server.state is ComponentState.FAULTY
        assert system.deadletters_total == 2  # seqs 3 and 4
        assert [letter.state for letter in system.deadletters] == ["faulty", "faulty"]
        assert all(letter.dropped for letter in system.deadletters)

    def test_budget_exhaustion_dead_letters_events_sent_during_gap(self, sim):
        # After the restart budget is exhausted and the fault escalates to
        # the root (store policy -> FAULTY), every later send is a dropped
        # dead letter: the "gap" traffic is fully accounted, never lost
        # silently.
        system = supervised(sim, max_restarts=1, window=100.0,
                            **{"kompics.fault_policy": "store"})
        server, client = wire(sim, system, bad_seqs=(1, 2))
        send_and_run(sim, client, 1)  # restart #1 uses up the budget
        assert system.supervision.restarts_total == 1
        send_and_run(sim, client, 2)  # escalates; stored, server FAULTY
        assert server.state is ComponentState.FAULTY
        assert system.supervision.escalations_total == 1
        before = system.deadletters_total
        send_and_run(sim, client, 3, 4)
        assert system.deadletters_total == before + 2
        assert system.deadletters[-1].state == "faulty"
        assert system.deadletters[-1].dropped

    def test_ring_buffer_is_bounded(self, sim):
        system = KompicsSystem.simulated(sim, config={"kompics.fault_policy": "store"})
        server, client = wire(sim, system)
        client.definition.send(2)
        sim.run()
        sent = DEADLETTERS_KEPT + 10
        for seq in range(sent):
            client.definition.send(seq + 10)
        sim.run()
        assert system.deadletters_total == sent
        assert len(system.deadletters) == DEADLETTERS_KEPT
        # the ring keeps only the newest
        assert [d.event.seq for d in system.deadletters] == list(range(20, sent + 10))

