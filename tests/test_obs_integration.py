"""End-to-end observability: instrumented runs cross-checked against the
ground truth the harness itself measures."""

import pytest

from repro.bench.harness import run_observability_demo, run_observed
from repro.bench.scenario import MB
from repro.obs import MetricsRegistry, collecting, get_registry, tracing


@pytest.fixture(scope="module")
def demo():
    """One observed demo run shared by every assertion in this module."""
    summary, document = run_observed(
        run_observability_demo, duration=5.0, seed=11,
        meta={"purpose": "integration-test"},
    )
    return summary, document


class TestDemoSnapshot:
    def test_all_four_metric_families_present(self, demo):
        _, document = demo
        names = set(document["metrics"])
        assert any(n.startswith("kompics.scheduler.") for n in names)
        assert any(n.startswith("netsim.link.") for n in names)
        assert any(n.startswith("messaging.") for n in names)
        assert any(n.startswith("rl.sarsa.") for n in names)

    def test_meta_carries_driver_and_caller_fields(self, demo):
        _, document = demo
        assert document["meta"]["driver"] == "run_observability_demo"
        assert document["meta"]["purpose"] == "integration-test"

    def test_trace_is_simulated_time_ordered(self, demo):
        _, document = demo
        trace = document["trace"]
        assert trace, "expected trace records from the run"
        times = [r["time"] for r in trace]
        seqs = [r["seq"] for r in trace]
        assert times == sorted(times)
        assert seqs == sorted(seqs)

    def test_registry_restored_after_run(self, demo):
        assert not get_registry().enabled


class TestMetricsMatchGroundTruth:
    """Registry totals must agree with what the applications measured."""

    def _entries(self, document, name):
        return document["metrics"].get(name, [])

    def _total(self, document, name):
        return sum(e["value"] for e in self._entries(document, name))

    def test_ping_pong_sends_appear_in_transport_counters(self, demo):
        summary, document = demo
        sent = self._total(document, "messaging.sent_total")
        # Every answered ping is one TCP send each way, plus the DATA
        # stream's sends; the counter must cover at least all of those.
        assert sent >= 2 * summary["pings_answered"]

    def test_selection_counters_match_delivered_data(self, demo):
        summary, document = demo
        selections = self._total(document, "rl.selection_total")
        # Everything the sink saw was first released by the selector.
        assert selections >= summary["data_messages_delivered"]
        # And notify-clocking bounds the gap to queued + in-flight.
        assert selections >= summary["data_messages_total"]

    def test_link_bytes_cover_acked_payload(self, demo):
        summary, document = demo
        link_bytes = self._total(document, "netsim.link.bytes_total")
        assert link_bytes >= summary["data_bytes_acked"] > 0

    def test_scheduler_saw_every_network_message(self, demo):
        summary, document = demo
        events = self._total(document, "kompics.scheduler.events_total")
        assert events > summary["data_messages_delivered"]

    def test_learner_metrics_progressed(self, demo):
        _, document = demo
        episodes = self._total(document, "rl.sarsa.episodes_total")
        assert episodes >= 1
        td = self._entries(document, "rl.sarsa.td_error")
        assert td and all(isinstance(e["value"], float) for e in td)
        eps = self._entries(document, "rl.policy.epsilon")
        assert eps and 0.0 <= eps[0]["value"] <= 1.0

    def test_congestion_window_gauges_sampled(self, demo):
        _, document = demo
        windows = self._entries(document, "netsim.cc.window_bytes")
        assert windows, "expected per-connection cwnd gauges"
        tcp = [e for e in windows if e["labels"]["proto"] == "tcp"]
        assert tcp and all(e["value"] > 0 for e in tcp)


class TestDeterminism:
    def test_same_seed_same_counters(self):
        def run():
            with collecting(MetricsRegistry()) as reg, tracing():
                run_observability_demo(duration=2.0, seed=5)
                return {
                    name: [(e["labels"], e["value"]) for e in entries
                           if e["type"] == "counter"]
                    for name, entries in reg.snapshot().items()
                }

        assert run() == run()

    def test_different_seeds_still_consistent_families(self):
        summary_a, doc_a = run_observed(
            run_observability_demo, duration=2.0, seed=1
        )
        summary_b, doc_b = run_observed(
            run_observability_demo, duration=2.0, seed=2
        )
        assert set(doc_a["metrics"]) == set(doc_b["metrics"])


class TestFaultMetrics:
    def test_link_cut_and_degrade_counted(self):
        from repro.netsim.faults import FaultInjector
        from tests.netsim_helpers import make_pair
        from repro.sim import Simulator
        from repro.netsim.link import LinkSpec

        with collecting() as reg, tracing() as tracer:
            sim = Simulator()
            net, a, b = make_pair(sim)
            injector = FaultInjector(net)
            injector.cut_link(a.ip, b.ip, duration=1.0)
            sim.run()
            injector.degrade_link(a.ip, b.ip, LinkSpec(bandwidth=MB, delay=0.05))
            assert reg.value("netsim.faults.link_cuts_total") == 1
            assert reg.value("netsim.faults.link_restores_total") == 1
            assert reg.value("netsim.faults.link_degrades_total") == 1
            assert len(tracer.named("netsim.fault.link_cut")) == 1
            assert len(tracer.named("netsim.fault.link_degrade")) == 1
