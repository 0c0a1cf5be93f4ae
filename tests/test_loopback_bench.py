"""Loopback benchmark: real runs, artifact checks."""

import json

import pytest

from repro.bench.loopback import (
    LOOPBACK_CHUNK,
    LoopbackComparison,
    LoopbackRun,
    format_comparison,
    run_loopback_comparison,
    run_loopback_once,
)
from repro.messaging import Transport

pytestmark = pytest.mark.integration


class TestRealRuns:
    def test_tcp_small_transfer_completes(self):
        run = run_loopback_once(Transport.TCP, size=256_000, seed=1, timeout=60.0)
        assert run.complete
        assert run.chunks == -(-256_000 // LOOPBACK_CHUNK)
        assert run.bytes == 256_000
        assert run.send_failures == 0
        assert run.batches >= 1
        assert run.protocols == {"tcp": run.chunks}
        assert run.throughput > 0

    def test_comparison_without_sim_column(self):
        comparison = run_loopback_comparison(
            transports=(Transport.TCP,), size=128_000, seed=1, sim=False,
            timeout=60.0,
        )
        assert comparison.sim_throughput == {}
        (run,) = comparison.runs
        assert run.complete


class TestArtifactAndRendering:
    def _fake_comparison(self, **flaw):
        run = LoopbackRun(**{**dict(
            transport="data",
            bytes=2 * 1024 * 1024,
            chunks=35,
            duration=0.5,
            delivered=35,
            notifies_ok=35,
            notifies_failed=0,
            leaked_notifies=0,
            send_failures=0,
            batches=12,
            protocols={"tcp": 20, "udt": 15},
        ), **flaw})
        return LoopbackComparison(
            size=2 * 1024 * 1024, seed=3, runs=(run,),
            sim_throughput={"data": 120.0 * 1024 * 1024},
        )

    def test_document_passes_ci_check(self, tmp_path):
        import scripts.ci_checks as ci_checks

        artifact = tmp_path / "loopback.json"
        artifact.write_text(json.dumps(self._fake_comparison().to_document()))
        assert ci_checks.main(["loopback", str(artifact)]) == 0

    def test_ci_check_rejects_leaks(self, tmp_path, capsys):
        import scripts.ci_checks as ci_checks

        doc = self._fake_comparison(leaked_notifies=2).to_document()
        artifact = tmp_path / "leaky.json"
        artifact.write_text(json.dumps(doc))
        assert ci_checks.main(["loopback", str(artifact)]) == 1
        assert "leak" in capsys.readouterr().err

    def test_ci_check_rejects_unstamped_data(self, tmp_path, capsys):
        import scripts.ci_checks as ci_checks

        doc = self._fake_comparison(protocols={"data": 35}).to_document()
        artifact = tmp_path / "unstamped.json"
        artifact.write_text(json.dumps(doc))
        assert ci_checks.main(["loopback", str(artifact)]) == 1
        assert "unstamped" in capsys.readouterr().err

    def test_format_comparison_renders_table(self):
        text = format_comparison(self._fake_comparison())
        assert "sim MB/s" in text
        assert "real MB/s" in text
        assert "35/35" in text
        assert "tcp:20,udt:15" in text
        assert "120.00" in text
