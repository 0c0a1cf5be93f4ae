"""Checker hooks wired into the real subsystems, end to end."""

import pytest

from repro.bench.perf import WORKLOADS, checked_run
from repro.check import checking, get_checker
from repro.check.checker import InvariantError
from repro.check.selftest import SCENARIOS, run_selftest

pytestmark = pytest.mark.integration


class TestCleanRuns:
    def test_transfer_holds_all_invariants(self):
        chk = checked_run("fig9-data")
        assert chk.ok, [v.format() for v in chk.violations]
        streams = chk.document()["streams"]
        # every hooked subsystem produced events
        for name in ("sim", "port", "wire", "flow", "link", "rl", "result"):
            assert streams[name]["count"] > 0, name

    def test_checked_run_is_deterministic(self):
        assert checked_run("fig9-data").document() == checked_run("fig9-data").document()

    def test_strict_mode_passes_clean_run(self):
        with checking(strict=True) as chk:
            WORKLOADS["fig9-data"]()
        assert chk.ok

    def test_disabled_by_default_no_hooks_bound(self):
        from repro.core import DestinationFlow, PatternSelection, ProtocolRatio, StaticRatio
        from repro.util.clock import SimulatedClock

        assert not get_checker().enabled
        flow = DestinationFlow(
            psp=PatternSelection(),
            prp=StaticRatio(ProtocolRatio.FIFTY_FIFTY),
            clock=SimulatedClock(),
            release=lambda req: None,
            window_messages=4,
        )
        assert flow._inv is None


class TestMutationSelftest:
    def test_every_seeded_bug_is_caught(self):
        results = run_selftest()
        assert len(results) == len(SCENARIOS)
        missed = [r for r in results if not r.caught]
        assert not missed, [
            f"{r.scenario}: expected {r.invariant}" for r in missed
        ]

    def test_expected_invariants_cover_the_issue_list(self):
        expected = {invariant for _, invariant, _ in SCENARIOS}
        # the acceptance list: window overflow, FIFO reorder, clock disorder
        assert {"flow.window", "wire.fifo", "sim.clock"} <= expected

    def test_strict_mode_raises_on_seeded_bug(self):
        from repro.check import mutations
        from repro.sim import Simulator

        with pytest.raises(InvariantError):
            with checking(strict=True):
                sim = Simulator()
                for t in (0.5, 1.0, 1.5):
                    sim.schedule(t, lambda: None, label="noop")
                with mutations.heap_disorder(sim):
                    sim.run()
