"""Real-socket chaos campaigns: kill a live AioNetwork mid-transfer.

The acceptance matrix for the crash-recovery PR: on loopback TCP and
UDT-lite, under both redelivery modes and several seeds, a supervised
kill/restart of the sender's network mid-transfer must converge — every
``MessageNotify`` resolved exactly once (``leaked == 0``), zero duplicate
chunk deliveries, every planned kill landed, and each incarnation drew a
strictly larger network epoch with the ``aio.epoch`` / ``aio.nodup``
invariants clean.
"""

import pytest

from repro.bench.chaos import run_aio_chaos_campaign
from repro.bench.scenario import MB
from repro.messaging import Transport

pytestmark = pytest.mark.integration


def assert_converged(result):
    # the conditions in the module docstring are stated once, by problems()
    assert result.problems() == [], result.summary()


class TestAtLeastOnce:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_tcp_delivers_everything_exactly_once(self, seed):
        result = run_aio_chaos_campaign(
            transport=Transport.TCP, size=1 * MB, seed=seed, restarts=2,
            redelivery="at-least-once", timeout=90.0,
        )
        assert_converged(result)
        assert result.delivered_unique == result.chunks
        assert result.failed == 0

    def test_udt_survives_kill_of_pacing_state(self):
        # UDT's in-loop state (pacing queue, un-ACKed window, 0-RTT
        # session cache) all dies with the kill; the ACK-drain before
        # "sent" plus the stash/replay must still deliver every chunk.
        result = run_aio_chaos_campaign(
            transport=Transport.UDT, size=1 * MB, seed=2, restarts=2,
            redelivery="at-least-once", timeout=90.0,
        )
        assert_converged(result)
        assert result.delivered_unique == result.chunks


class TestAtMostOnce:
    def test_tcp_accounts_for_every_notify(self):
        result = run_aio_chaos_campaign(
            transport=Transport.TCP, size=1 * MB, seed=1, restarts=2,
            redelivery="at-most-once", timeout=90.0,
        )
        assert_converged(result)
        # the mode may drop chunks caught by the kill, never duplicate
        assert result.delivered_unique <= result.chunks

    def test_udt_accounts_for_every_notify(self):
        result = run_aio_chaos_campaign(
            transport=Transport.UDT, size=1 * MB, seed=3, restarts=2,
            redelivery="at-most-once", timeout=90.0,
        )
        assert_converged(result)


class TestDeterminism:
    def test_same_seed_same_kill_plan_and_epoch_count(self):
        a = run_aio_chaos_campaign(
            transport=Transport.TCP, size=1 * MB, seed=7, restarts=2,
            redelivery="at-least-once", timeout=90.0,
        )
        b = run_aio_chaos_campaign(
            transport=Transport.TCP, size=1 * MB, seed=7, restarts=2,
            redelivery="at-least-once", timeout=90.0,
        )
        assert a.kill_points == b.kill_points
        assert a.chunks == b.chunks
        assert len(a.epochs) == len(b.epochs) == 3
        assert_converged(a)
        assert_converged(b)
