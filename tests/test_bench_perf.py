"""The golden-digest gate (``repro perf --equivalence``)."""

import pytest

from repro.bench import perf
from repro.bench.perf import GOLDEN, behaviour_digest, equivalence_workloads, run_equivalence

pytestmark = pytest.mark.integration


class TestEquivalenceGate:
    def test_workload_catalog_covers_the_figures(self):
        names = [name for name, _ in equivalence_workloads()]
        assert names == list(GOLDEN)
        for figure in ("fig1", "fig2", "fig8", "fig9-tcp", "fig9-data"):
            assert figure in names

    def test_obs_demo_snapshot_identical_with_fastpath_off(self):
        """The obs-demo golden was recorded with every memoization off;
        the cost counters the gate leaves out do not reach the digest."""
        workload = dict(equivalence_workloads())["obs-demo"]
        _, doc = workload()
        assert behaviour_digest(doc) == GOLDEN["obs-demo"]
        queries = doc["metrics"]["netsim.link.demand_queries_total"]
        assert sum(entry["value"] for entry in queries) > 0
        for entry in queries:
            entry["value"] *= 2
        assert behaviour_digest(doc) == GOLDEN["obs-demo"]

    def test_every_workload_matches_its_golden(self):
        for name, golden, digest in run_equivalence():
            assert digest == golden, name


class TestCli:
    def test_bare_perf_points_at_the_ruler(self, capsys):
        from repro.cli import main

        assert main(["perf"]) == 2
        assert "perf/run.py" in capsys.readouterr().err

    def test_a_moved_golden_fails_naming_the_workload(self, capsys, monkeypatch):
        from repro.cli import main

        fig1 = [w for w in equivalence_workloads() if w[0] == "fig1"]
        monkeypatch.setattr(perf, "equivalence_workloads", lambda: fig1)
        monkeypatch.setitem(GOLDEN, "fig1", "0" * 64)
        assert main(["perf", "--equivalence"]) == 1
        err = capsys.readouterr().err
        assert "fig1: golden " + "0" * 64 in err
        assert "equivalence gate FAILED: fig1" in err
