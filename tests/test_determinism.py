"""Determinism guarantees: same seed, same world, same history."""

import pytest

from repro.bench.harness import run_latency_experiment, run_transfer_once
from repro.bench.scenario import setup_by_name
from repro.messaging import Transport

from tests.messaging_helpers import MB, make_world


def run_world_history(seed: int):
    """A mixed-protocol exchange; returns the full receive history."""
    world = make_world(n_hosts=3, loss=1e-3, seed=seed)
    a, b, c = world.nodes
    for i in range(30):
        a.app_def.send(b.address, f"ab{i}", transport=Transport.TCP)
        a.app_def.send(c.address, f"ac{i}", transport=Transport.UDP)
        b.app_def.send(c.address, f"bc{i}", transport=Transport.UDT)
    world.sim.run()
    return [
        [(m.tag, t) for m, t in zip(n.app_def.received, n.app_def.receive_times)]
        for n in world.nodes
    ]


class TestDeterminism:
    def test_identical_history_for_identical_seed(self):
        assert run_world_history(11) == run_world_history(11)

    def test_different_seed_changes_loss_pattern(self):
        h1 = run_world_history(11)
        h2 = run_world_history(12)
        # With 0.1% packet loss the UDP stream differs across seeds (the
        # timings certainly do).
        assert h1 != h2

    def test_transfer_duration_bitwise_reproducible(self):
        setup = setup_by_name("EU2US")
        a = run_transfer_once(setup, Transport.TCP, 24 * MB, seed=5)
        b = run_transfer_once(setup, Transport.TCP, 24 * MB, seed=5)
        assert a.duration == b.duration

    @pytest.mark.integration
    def test_latency_experiment_reproducible(self):
        setup = setup_by_name("EU-VPC")
        a = run_latency_experiment(setup, Transport.TCP, Transport.UDT, seed=3,
                                   transfer_bytes=24 * MB)
        b = run_latency_experiment(setup, Transport.TCP, Transport.UDT, seed=3,
                                   transfer_bytes=24 * MB)
        assert a.rtts_ms == b.rtts_ms
