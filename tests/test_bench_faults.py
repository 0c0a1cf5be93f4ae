"""The fault-campaign bench driver: recovery measured end to end."""

import pytest

from repro.bench.faults import FAULT_ENV, run_fault_campaign
from repro.bench.harness import run_observed
from repro.messaging import ReconnectPolicy, Transport

pytestmark = pytest.mark.integration

MB = 1024 * 1024

#: a cut landing mid-transfer: the 4 MB dataset still has chunks in
#: flight at 0.15 s, and the restore at 1.05 s avoids ties with the
#: 0.4 s dial timeout (attempt at 1.15 s lands on a live link)
CAMPAIGN = dict(
    duration=8.0,
    cut_at=0.15,
    cut_duration=0.9,
    transfer_bytes=4 * MB,
    seed=3,
    jitter=0.0,
    connect_timeout=0.4,
)


class TestFaultCampaign:
    def test_mid_transfer_cut_recovers_with_configured_backoff(self):
        result, document = run_observed(run_fault_campaign, **CAMPAIGN)
        assert result.setup == FAULT_ENV.name
        assert result.reconnect_attempts >= 1
        assert result.reconnect_recovered >= 1
        assert result.reconnect_giveups == 0
        # The scheduled delays follow the configured policy exactly
        # (jitter disabled): base * multiplier^attempt.
        policy = ReconnectPolicy(jitter=0.0)
        assert list(result.backoff_delays) == [
            policy.delay_for(i) for i in range(len(result.backoff_delays))
        ]
        # Delivery resumed after the restore: pings kept flowing and the
        # transfer made progress past the cut.
        assert result.pings_answered > 0
        assert result.transfer_progress > 0.0
        # The snapshot document carries the recovery counters for CI.
        metrics = document["metrics"]
        assert "messaging.reconnect.attempts_total" in metrics
        assert "messaging.reconnect.recovered_total" in metrics

    def test_a_data_campaign_returns_a_result(self):
        result, _ = run_observed(
            run_fault_campaign, transfer_transport=Transport.DATA, fallback=True, **CAMPAIGN
        )
        assert result.transfer_progress > 0.0
        assert result.pings_answered > 0
        assert result.reconnect_recovered >= 1

    def test_recovery_beats_the_bare_middleware(self):
        recovered, _ = run_observed(run_fault_campaign, **CAMPAIGN)
        bare, _ = run_observed(run_fault_campaign, recovery=False, **CAMPAIGN)
        assert bare.reconnect_attempts == 0
        assert recovered.ping_loss < bare.ping_loss
        assert recovered.transfer_progress >= bare.transfer_progress

    def test_campaign_is_deterministic(self):
        first, _ = run_observed(run_fault_campaign, **CAMPAIGN)
        second, _ = run_observed(run_fault_campaign, **CAMPAIGN)
        assert first == second

    def test_local_setup_is_rejected(self):
        from repro.bench.scenario import setup_by_name

        with pytest.raises(ValueError):
            run_fault_campaign(setup=setup_by_name("Local"))

    def test_degrade_timeline_runs(self):
        result, document = run_observed(
            run_fault_campaign, duration=6.0, cut_at=0.5, cut_duration=0.5,
            degrade_at=2.0, degrade_duration=1.0, transfer_bytes=2 * MB,
            seed=4, jitter=0.0, connect_timeout=0.4,
        )
        assert result.sim_time >= 6.0
        names = {r["name"] for r in document["trace"]}
        assert "netsim.fault.link_degrade" in names
        assert "netsim.fault.link_cut" in names
