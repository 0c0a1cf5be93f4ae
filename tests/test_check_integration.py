"""Checker hooks wired into the real subsystems, end to end."""

import pytest

from repro.check import checking, get_checker
from repro.check.bisection import bisect_divergence
from repro.check.checker import InvariantError
from repro.check.selftest import SCENARIOS, run_selftest
from repro.check.workloads import run_workload
from repro.check import perturb

pytestmark = pytest.mark.integration

MB = 1024 * 1024


def checked_transfer(capture=None, perturbed=False, size_mb=1.0):
    from contextlib import ExitStack

    with ExitStack() as stack:
        if perturbed:
            stack.enter_context(perturb.rx_swap(at=2))
        chk = stack.enter_context(checking(capture=capture))
        run_workload("transfer", size_mb=size_mb)
    return chk


class TestCleanRuns:
    def test_transfer_holds_all_invariants(self):
        chk = checked_transfer()
        assert chk.ok, [v.format() for v in chk.violations]
        streams = chk.document()["streams"]
        # every hooked subsystem produced events
        for name in ("sim", "port", "wire", "flow", "link", "rl"):
            assert streams[name]["count"] > 0, name

    def test_checked_run_is_deterministic(self):
        doc_a = checked_transfer().document()
        doc_b = checked_transfer().document()
        assert doc_a == doc_b

    def test_strict_mode_passes_clean_run(self):
        with checking(strict=True) as chk:
            run_workload("transfer", size_mb=1.0)
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


class TestBisect:
    def test_perturbed_fastpath_names_first_divergent_event(self):
        def run_pair(capture):
            a = checked_transfer(capture=capture, perturbed=True)
            b = checked_transfer(capture=capture)
            return a.document(), b.document()

        report = bisect_divergence(run_pair)
        assert not report.identical
        assert report.streams, "expected at least one divergent stream"
        assert report.stream is not None
        assert report.event_count is not None
        assert report.event_a != report.event_b
        # the report names a concrete event, not just a window
        assert f"#{report.event_count}" in report.format()

    def test_unperturbed_pair_is_identical(self):
        def run_pair(capture):
            return tuple(checked_transfer(capture=capture).document() for _ in range(2))

        report = bisect_divergence(run_pair)
        assert report.identical


class TestPerturb:
    def test_rx_swap_counts_and_restores(self):
        assert perturb.RX_SWAP_AT is None
        with perturb.rx_swap(at=3):
            assert perturb.RX_SWAP_AT == 3
            assert not perturb.rx_swap_due()  # 1st
            assert not perturb.rx_swap_due()  # 2nd
            assert perturb.rx_swap_due()      # 3rd
            assert not perturb.rx_swap_due()  # only once
        assert perturb.RX_SWAP_AT is None

    def test_disarmed_never_fires(self):
        assert not perturb.rx_swap_due()
