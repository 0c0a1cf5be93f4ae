"""Chaos campaigns: seeded random faults under supervision, end to end."""

import pytest

from repro.bench.chaos import (
    plan_aio_kill_points,
    plan_chaos_timeline,
    run_chaos_campaign,
)
from repro.bench.harness import run_observed
from repro.messaging import Transport

pytestmark = pytest.mark.integration

MB = 1024 * 1024

#: seed 3 draws a timeline whose first event faults the file-transfer
#: sender mid-run — the acceptance scenario: the transfer must still
#: complete after the supervised restart.
CAMPAIGN = dict(
    duration=20.0,
    seed=3,
    transfer_bytes=4 * MB,
)


class TestChaosTimeline:
    def test_same_seed_same_plan(self):
        assert plan_chaos_timeline(7) == plan_chaos_timeline(7)

    def test_different_seed_different_plan(self):
        assert plan_chaos_timeline(7) != plan_chaos_timeline(8)

    def test_events_land_inside_the_window(self):
        plan = plan_chaos_timeline(5, chaos_start=1.0, chaos_end=4.0, events=20)
        assert len(plan) == 20
        assert all(1.0 <= e.time < 4.0 for e in plan)
        assert all(e.kind in ("component_fault", "link_cut") for e in plan)


class TestAioKillPlan:
    def test_same_seed_same_plan(self):
        assert plan_aio_kill_points(7, 3, 256) == plan_aio_kill_points(7, 3, 256)

    def test_different_seed_different_plan(self):
        assert plan_aio_kill_points(7, 3, 256) != plan_aio_kill_points(8, 3, 256)

    def test_points_land_mid_transfer_strictly_increasing(self):
        for seed in range(10):
            points = plan_aio_kill_points(seed, 4, 100)
            assert len(points) == 4
            # never before the first chunk, never in the final quarter
            # (modulo the +1 de-overlap nudge)
            assert all(1 <= p <= 75 + 4 for p in points)
            assert all(a < b for a, b in zip(points, points[1:]))

    def test_tiny_transfer_still_plans_inside_the_stream(self):
        points = plan_aio_kill_points(0, 2, 4)
        assert all(p >= 1 for p in points)
        assert points[0] < points[1]


class TestChaosCampaign:
    def test_sender_fault_mid_run_still_completes_transfer(self):
        result, document = run_observed(run_chaos_campaign, **CAMPAIGN)
        assert any(
            e.kind == "component_fault" and e.target == "sender"
            for e in result.timeline
        )
        assert result.restarts >= 1
        assert result.escalations == 0
        assert result.transfer_done
        assert result.transfer_progress == 1.0
        assert not result.problems()
        # supervision counters land in the snapshot document
        metrics = document["metrics"]
        assert "kompics.restarts_total" in metrics
        assert "kompics.deadletters_total" in metrics
        restarts = sum(e["value"] for e in metrics["kompics.restarts_total"])
        assert restarts == result.restarts

    def test_net_snd_of_a_data_campaign_is_the_wire_network(self):
        result, document = run_observed(
            run_chaos_campaign, targets=("net-snd",), transfer_transport=Transport.DATA,
            **CAMPAIGN,
        )
        assert result.restarts >= 1
        assert result.transfer_done
        restarted = {r["fields"]["component"] for r in document["trace"]
                     if r["name"] == "kompics.restart"}
        assert restarted == {"NettyNetwork-0"}  # not the DataNetwork bundle around it

    def test_campaign_is_deterministic(self):
        first, _ = run_observed(run_chaos_campaign, **CAMPAIGN)
        second, _ = run_observed(run_chaos_campaign, **CAMPAIGN)
        assert first == second

    def test_dead_letters_are_fully_accounted(self):
        result, document = run_observed(run_chaos_campaign, **CAMPAIGN)
        metrics = document["metrics"]
        counted = sum(e["value"] for e in metrics["kompics.deadletters_total"])
        assert counted == result.deadletters

    def test_local_setup_is_rejected(self):
        from repro.bench.scenario import setup_by_name

        with pytest.raises(ValueError):
            run_chaos_campaign(setup=setup_by_name("Local"))

    def test_tail_must_fit_in_duration(self):
        with pytest.raises(ValueError):
            run_chaos_campaign(duration=5.0, chaos_end=4.0, tail=3.0)
