"""The golden-stream gate (``repro perf --equivalence``)."""

import json

import pytest

from repro.bench import perf
from repro.bench.harness import run_observed
from repro.bench.perf import (
    GOLDEN_PATH,
    WORKLOADS,
    checked_run,
    result_rows,
    run_equivalence,
    write_goldens,
)
from repro.check import mutations
from repro.cli import main
from repro.stats.timeseries import TimeSeries

pytestmark = pytest.mark.integration


class TestEquivalenceGate:
    def test_workload_catalog_covers_the_figures(self):
        """The workload table's names are GOLDEN.json's keys; fig1 runs
        no simulator, so its result is its only stream."""
        goldens = json.loads(GOLDEN_PATH.read_text())
        assert sorted(WORKLOADS) == sorted(goldens)
        assert set(goldens["fig1"]) == {"result"}
        for figure in ("fig1", "fig2", "fig8", "fig9-tcp", "fig9-data"):
            assert figure in WORKLOADS

    def test_write_goldens_reproduces_the_committed_file(self, tmp_path):
        path = tmp_path / "GOLDEN.json"
        write_goldens(path)
        assert path.read_bytes() == GOLDEN_PATH.read_bytes()

    def test_every_workload_matches_its_golden(self):
        for name, divergences, violations in run_equivalence():
            assert divergences == [] and violations == [], name

    @pytest.mark.parametrize("name", sorted(WORKLOADS))
    def test_streams_do_not_depend_on_observation(self, name, monkeypatch):
        """Metrics and tracing on (``run_observed``) fold the same streams
        as a plain run, although schedulers label events only under a tracer."""
        plain = checked_run(name).document()
        driver = WORKLOADS[name]
        monkeypatch.setitem(WORKLOADS, name, lambda: run_observed(driver)[0])
        assert checked_run(name).document() == plain


class TestResultRows:
    def test_rows_are_canonical(self):
        series = TimeSeries()
        series.record(1.0, 2.5)
        series.record(2.0, 3.5)
        value = {"b": (7, 8), "a": series}
        assert list(result_rows(value)) == [
            ("a", 1.0, 2.5), ("a", 2.0, 3.5), ("b", 0, 7), ("b", 1, 8),
        ]


class TestCli:
    def test_bare_perf_points_at_the_ruler(self, capsys):
        assert main(["perf"]) == 2
        assert "perf/run.py" in capsys.readouterr().err

    def test_a_moved_golden_fails_naming_the_workload(self, capsys, monkeypatch, tmp_path):
        goldens = json.loads(GOLDEN_PATH.read_text())
        goldens["fig1"]["result"]["digest"] = "0" * 16
        moved = tmp_path / "GOLDEN.json"
        moved.write_text(json.dumps(goldens))
        monkeypatch.setattr(perf, "GOLDEN_PATH", moved)
        monkeypatch.setattr(perf, "WORKLOADS", {"fig1": WORKLOADS["fig1"]})
        assert main(["perf", "--equivalence"]) == 1
        err = capsys.readouterr().err
        assert "fig1: stream 'result' first diverges from its golden in events 1..56" in err
        assert "equivalence gate FAILED: fig1" in err

    def test_a_reordered_delivery_names_workload_stream_window_and_invariant(
            self, capsys, monkeypatch):
        monkeypatch.setattr(perf, "WORKLOADS", {"fig9-tcp": WORKLOADS["fig9-tcp"]})
        with mutations.rx_reorder(at=40):
            assert main(["perf", "--equivalence"]) == 1
        err = capsys.readouterr().err
        assert "fig9-tcp: stream 'wire' first diverges from its golden in events 1..256" in err
        assert "fig9-tcp: VIOLATION [wire.fifo]" in err
        assert "equivalence gate FAILED: fig9-tcp" in err
