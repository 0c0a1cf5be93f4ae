"""The fastpath equivalence gate (``repro perf --equivalence``)."""

import pytest

from repro.bench.perf import behaviour_json, equivalence_workloads

pytestmark = pytest.mark.integration


class TestEquivalenceGate:
    def test_workload_catalog_covers_the_figures(self):
        names = [name for name, _ in equivalence_workloads(quick=True)]
        for figure in ("fig1", "fig2", "fig8", "fig9-tcp", "fig9-data"):
            assert figure in names

    def test_obs_demo_snapshot_identical_with_fastpath_off(self):
        """One end-to-end equivalence sample cheap enough for the suite;
        the CI gate runs the full catalog (`repro perf --equivalence`)."""
        from repro import fastpath

        workload = dict(equivalence_workloads(quick=True))["obs-demo"]
        _, doc_fast = workload()
        with fastpath.disabled():
            _, doc_ref = workload()
        assert behaviour_json(doc_fast) == behaviour_json(doc_ref)
        # ... while the cost counters, which the gate leaves out, record
        # that the reference path asked for more demands.
        fast, ref = (
            sum(e["value"] for e in doc["metrics"]["netsim.link.demand_queries_total"])
            for doc in (doc_fast, doc_ref)
        )
        assert 0 < fast < ref


class TestCli:
    def test_bare_perf_points_at_the_ruler(self, capsys):
        from repro.cli import main

        assert main(["perf"]) == 2
        assert "perf/run.py" in capsys.readouterr().err
