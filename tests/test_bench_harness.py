"""Tests for the benchmark harness building blocks."""

import pytest

import hashlib
import random
import time
from contextlib import contextmanager

from repro.apps import FileReceiver, FileSender, SyntheticDataset
from repro.bench.harness import (
    estimate_rate,
    run_in_steps,
    run_learner_trace,
    run_observability_demo,
    run_selection_skew,
    run_transfer_once,
    run_transfer_repeated,
)
from repro.bench.loopback import loopback_pair
from repro.bench.report import format_table
from repro.bench.scenario import AWS_SETUPS, MB, Setup, TestbedPair, aws_testbed, setup_by_name
from repro.core import TDRatioLearner
from repro.core.data_network import DataNetworkBase
from repro.messaging import Transport


class TestScenario:
    def test_four_setups_in_rtt_order(self):
        names = [s.name for s in aws_testbed()]
        assert names == ["Local", "EU-VPC", "EU2US", "EU2AU"]
        rtts = [s.rtt for s in AWS_SETUPS]
        assert rtts == sorted(rtts)

    def test_setup_by_name(self):
        assert setup_by_name("EU2US").rtt == pytest.approx(0.155)
        with pytest.raises(KeyError):
            setup_by_name("MOON")

    def test_udp_policing_on_real_network_setups(self):
        for setup in AWS_SETUPS:
            if setup.local:
                assert setup.udp_cap is None
            else:
                assert setup.udp_cap == 10 * MB

    def test_local_pair_shares_one_host(self):
        pair = TestbedPair(setup_by_name("Local"), seed=1)
        assert pair.sender.host is pair.receiver.host
        assert pair.sender.address.port != pair.receiver.address.port

    def test_wan_pair_has_link(self):
        pair = TestbedPair(setup_by_name("EU2AU"), seed=1)
        direction = pair.fabric.path(pair.sender.address.ip, pair.receiver.address.ip)
        assert direction.spec.delay == pytest.approx(0.160)


class TestEstimateRate:
    def test_tcp_window_bound_dominates_at_high_rtt(self):
        setup = Setup(name="x", rtt=0.4, bandwidth=100 * MB, loss=0.0)
        assert estimate_rate(setup, Transport.TCP) == pytest.approx(8 * MB / 0.4)

    def test_tcp_loss_bound(self):
        lossy = Setup(name="x", rtt=0.2, bandwidth=100 * MB, loss=1e-4)
        clean = Setup(name="y", rtt=0.2, bandwidth=100 * MB, loss=0.0)
        assert estimate_rate(lossy, Transport.TCP) < estimate_rate(clean, Transport.TCP)

    def test_udt_cap(self):
        setup = Setup(name="x", rtt=0.2, bandwidth=100 * MB, udp_cap=10 * MB)
        assert estimate_rate(setup, Transport.UDT) == 10 * MB

    def test_data_takes_best(self):
        setup = Setup(name="x", rtt=0.3, bandwidth=100 * MB, loss=1e-4, udp_cap=10 * MB)
        assert estimate_rate(setup, Transport.DATA) == max(
            estimate_rate(setup, Transport.TCP), estimate_rate(setup, Transport.UDT)
        )


class TestSelectionSkew:
    def test_shape_and_keys(self):
        data = run_selection_skew([(1, 3)], n_messages=8000, windows=(16,), seed=1)
        assert set(data) == {("1/3", "pattern", 16), ("1/3", "random", 16)}
        box = data[("1/3", "pattern", 16)]
        assert box.count == 8000 // 16
        # Target signed ratio for 1 UDT per 3 TCP is -0.5.
        assert box.median == pytest.approx(-0.5)


@pytest.mark.integration
class TestTransferRunners:
    def test_single_run_result_fields(self):
        result = run_transfer_once(setup_by_name("EU-VPC"), Transport.TCP, 24 * MB, seed=3)
        assert result.setup == "EU-VPC"
        assert result.transport == "tcp"
        assert result.throughput == pytest.approx(24 * MB / result.duration)

    def test_repeated_runs_deterministic_per_seed(self):
        a = run_transfer_repeated(setup_by_name("EU-VPC"), Transport.UDT, 24 * MB,
                                  min_runs=2, max_runs=2, base_seed=5)
        b = run_transfer_repeated(setup_by_name("EU-VPC"), Transport.UDT, 24 * MB,
                                  min_runs=2, max_runs=2, base_seed=5)
        assert a.durations == b.durations

    def test_rse_stopping_rule_can_stop_early(self):
        rep = run_transfer_repeated(setup_by_name("EU-VPC"), Transport.UDT, 24 * MB,
                                    min_runs=2, max_runs=10, rse_target=0.5, base_seed=5)
        assert len(rep.durations) == 2  # UDT is extremely consistent

    def test_unknown_kwarg_rejected(self):
        with pytest.raises(TypeError):
            run_transfer_repeated(setup_by_name("EU-VPC"), Transport.UDT, 1 * MB,
                                  min_runs=1, max_runs=1, bogus=1)


def _finished(source):
    """Every notify resolved and the receiver's TransferDone is back."""
    return source.done.is_set() and source.duration is not None


def _wait_until(predicate, timeout):
    deadline = time.monotonic() + timeout
    while not predicate() and time.monotonic() < deadline:
        time.sleep(0.01)


@contextmanager
def pair_on(backend, transport):
    """``(pair, wait)`` on either backend; ``wait(source)`` runs the stream out."""
    if backend == "sim":
        pair = TestbedPair(setup_by_name("EU-VPC"), seed=1)
        pair.wire(transport)
        yield pair, lambda source: run_in_steps(pair, 60.0, lambda: _finished(source))
    else:
        with loopback_pair(transport, seed=1) as pair:
            yield pair, lambda source: _wait_until(lambda: _finished(source), 30.0)


@pytest.mark.integration
class TestPairStream:
    @pytest.mark.parametrize("transport", [Transport.TCP, Transport.DATA], ids=["tcp", "data"])
    @pytest.mark.parametrize("backend", ["sim", "aio"])
    def test_every_chunk_once(self, backend, transport):
        dataset = SyntheticDataset(size=500_000, chunk_size=20_000)
        n = dataset.total_chunks
        with pair_on(backend, transport) as (pair, wait):
            # the one attach call, DATA or not: stream() never asks which
            bundled = isinstance(pair.sender.network.definition, DataNetworkBase)
            assert bundled == (transport is Transport.DATA)
            components = pair.stream(dataset, transport, window=8)
            pair.start(*reversed(components))
            source, sink = (c.definition for c in components)
            wait(source)
            assert source.chunks_sent == source.ok == n
            assert (source.failed, source.outstanding) == (0, 0)
            assert source.duration is not None  # the receiver's TransferDone came back
            received = sink.transfer(source.transfer_id)
            assert (len(received.seen), received.duplicates) == (n, 0)
            assert received.bytes_written == dataset.size
            assert sink.completed.keys() == {source.transfer_id}
            assert sum(sink.protocols.values()) == n
            assert Transport.DATA not in sink.protocols  # DATA is stamped before the wire

    def test_endless_source_stays_inside_its_window(self):
        peaks = []

        class SamplingReceiver(FileReceiver):
            def _on_chunk(self, msg):
                peaks.append(source.definition.outstanding)
                super()._on_chunk(msg)

        pair = TestbedPair(setup_by_name("EU-VPC"), seed=1)
        pair.wire(Transport.DATA)
        source = pair.system.create(
            FileSender, pair.sender.address, pair.receiver.address,
            transport=Transport.DATA, window=8,
        )
        sink = pair.system.create(SamplingReceiver, pair.receiver.address)
        pair.sender.attach(source)
        pair.receiver.attach(sink)
        pair.start(sink, source)
        run_in_steps(pair, 2.0, lambda: False)
        assert len(peaks) > 100 and max(peaks) == 8
        assert not source.definition.done.is_set()
        assert source.definition.outstanding <= 8
        assert source.definition.chunks_sent == source.definition.ok + source.definition.outstanding


@pytest.mark.integration
class TestCreationOrderPins:
    """Values recorded at the commit before the drivers moved onto the
    pair: component creation, attach and start order feed the RNG streams
    and the event order, so any drift lands here."""

    def test_learner_trace_series(self):
        rng = random.Random(7)
        trace = run_learner_trace(
            "approx", prp_factory=lambda: TDRatioLearner(rng, "approx"), duration=20.0, seed=7
        )
        series = tuple(
            list(zip(ts.times, ts.values))
            for ts in (trace.throughput, trace.ratio_true, trace.ratio_prescribed)
        )
        assert series[0][0] == (1.000004, 6861526.276947447)
        assert series[1][0] == (1.000004, -0.19708029197080293)
        assert [len(s) for s in series] == [19, 19, 19]
        assert hashlib.sha256(repr(series).encode()).hexdigest() == (
            "fa114745ca2caa86ae789da0184a3dbeb9deb50e24448ab7f902d5e49100a0bd"
        )

    def test_observability_demo_summary(self):
        assert run_observability_demo(duration=3.0, seed=3) == {
            "setup": "learner-env",
            "sim_time": 3.0,
            "pings_answered": 11,
            "mean_rtt_ms": 5.260720857743267,
            "data_messages_delivered": 446,
            "data_bytes_acked": 29210556,
            "data_messages_total": 447,
        }


class TestReport:
    def test_format_table_alignment(self):
        table = format_table(("a", "long-header"), [(1, "x"), (100, "yy")], title="T")
        lines = table.splitlines()
        assert lines[0] == "T"
        assert lines[1] == "="
        assert "long-header" in lines[2]
        assert lines[3].startswith("-")
        assert len(lines) == 6


class TestSparkline:
    def test_empty(self):
        from repro.bench.report import sparkline

        assert sparkline([]) == ""

    def test_monotone_ramp(self):
        from repro.bench.report import sparkline

        out = sparkline([0, 1, 2, 3, 4, 5, 6, 7, 8])
        assert out == " ▁▂▃▄▅▆▇█"

    def test_flat_series_renders_full(self):
        from repro.bench.report import sparkline

        assert sparkline([5, 5, 5]) == "███"

    def test_clamping_with_pinned_scale(self):
        from repro.bench.report import sparkline

        out = sparkline([-10, 0, 100], low=0.0, high=8.0)
        assert out[0] == " "
        assert out[-1] == "█"
