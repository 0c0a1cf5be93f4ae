"""Perf harness: suites, the baseline regression gate, equivalence gate."""

import json

import pytest

from repro.bench.perf import (
    GATED_METRICS,
    SUITES,
    behaviour_json,
    check_regression,
    equivalence_workloads,
    run_perf,
)

pytestmark = pytest.mark.integration


class TestSuites:
    def test_kernel_suite_reports_rates(self):
        result = run_perf(suites=["kernel"], quick=True)
        kernel = result["suites"]["kernel"]
        assert kernel["events"] >= 30_000
        assert kernel["events_per_sec"] > 0
        assert kernel["cpu_s"] > 0

    def test_micro_suites(self):
        result = run_perf(suites=["dispatch", "serialization"], quick=True)
        assert result["suites"]["dispatch"]["dispatches_per_sec"] > 0
        assert result["suites"]["serialization"]["frames_per_sec"] > 0

    def test_figure_suites(self):
        result = run_perf(suites=["fig8", "fig9"], quick=True)
        assert result["suites"]["fig8"]["pings"] > 0
        assert result["suites"]["fig8"]["median_ms"] > 0
        fig9 = result["suites"]["fig9"]
        assert fig9["messages_per_sec"] > 0
        assert fig9["sim_throughput_mb_s"] > 0

    def test_unknown_suite_rejected(self):
        with pytest.raises(ValueError, match="unknown suite"):
            run_perf(suites=["nope"])

    def test_document_shape_is_json_and_complete(self):
        result = run_perf(suites=["kernel"], quick=True)
        json.dumps(result)  # must be serializable as committed baseline
        assert result["meta"]["quick"] is True
        assert result["meta"]["fastpath"] == {
            "DISPATCH_CACHE": True, "SERIALIZER_CACHE": True, "RX_TRAIN": True,
            "RUN_QUEUE": True, "ALLOC_EPOCH": True, "VEC_MAXMIN": True,
        }
        assert "pre_pr_reference" in result

    def test_gated_metrics_exist_in_suites(self):
        """Every gated (suite, metric) pair must be produced by its suite."""
        for suite, _metric in GATED_METRICS:
            assert suite in SUITES


def _doc(**rates):
    return {"suites": {
        "kernel": {"events_per_sec": rates.get("kernel", 100.0)},
        "fig9": {"messages_per_sec": rates.get("fig9", 100.0)},
    }}


class TestRegressionGate:
    def test_passes_within_threshold(self):
        assert check_regression(_doc(kernel=80.0), _doc(), 0.30) == []

    def test_fails_beyond_threshold(self):
        failures = check_regression(_doc(kernel=60.0), _doc(), 0.30)
        assert len(failures) == 1
        assert "kernel.events_per_sec" in failures[0]

    def test_improvement_always_passes(self):
        assert check_regression(_doc(kernel=500.0, fig9=500.0), _doc(), 0.30) == []

    def test_missing_suites_skipped(self):
        assert check_regression({"suites": {}}, _doc(), 0.30) == []
        assert check_regression(_doc(), {"suites": {}}, 0.30) == []


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
    def test_perf_quick_smoke(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "bench.json"
        code = main([
            "perf", "--quick", "--suite", "kernel", "--suite", "serialization",
            "--out", str(out),
        ])
        assert code == 0
        document = json.loads(out.read_text())
        assert set(document["suites"]) == {"kernel", "serialization"}
        assert "kernel" in capsys.readouterr().out

    def test_perf_baseline_gate_failure_exit_code(self, tmp_path, capsys):
        from repro.cli import main

        baseline = tmp_path / "baseline.json"
        baseline.write_text(json.dumps(
            {"suites": {"kernel": {"events_per_sec": 1e15}}}
        ))
        code = main(["perf", "--quick", "--suite", "kernel",
                     "--baseline", str(baseline)])
        assert code == 1
        assert "REGRESSION" in capsys.readouterr().err

    def test_perf_unknown_suite_exit_code(self, capsys):
        from repro.cli import main

        assert main(["perf", "--suite", "bogus"]) == 2
        assert "unknown suite" in capsys.readouterr().err
