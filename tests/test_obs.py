"""Unit tests for the observability layer (repro.obs)."""

import math

import pytest

from repro.kompics import KompicsSystem
from repro.obs import (
    NULL_REGISTRY,
    NULL_TRACER,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullRegistry,
    Tracer,
    collecting,
    get_registry,
    get_tracer,
    tracing,
)
from repro.obs.export import document_json, snapshot_document
from repro.sim import Simulator

from tests.kompics_fixtures import Client, PingPort, Server


class TestCounter:
    def test_starts_at_zero_and_accumulates(self):
        c = Counter()
        assert c.value == 0.0
        c.inc()
        c.inc(5)
        assert c.value == 6.0

    def test_snapshot(self):
        c = Counter()
        c.inc(3)
        assert c.snapshot() == {"type": "counter", "value": 3.0}


class TestGauge:
    def test_set_inc_dec(self):
        g = Gauge()
        g.set(10)
        g.inc(2)
        g.dec(5)
        assert g.value == 7.0

    def test_set_function_is_lazy(self):
        g = Gauge()
        calls = []

        def sample():
            calls.append(1)
            return 42.0

        g.set_function(sample)
        assert calls == []  # nothing evaluated yet
        assert g.value == 42.0
        assert len(calls) == 1
        assert g.snapshot()["value"] == 42.0


class TestHistogram:
    def test_bucket_boundaries_are_inclusive(self):
        h = Histogram(buckets=(1, 10, 100))
        for v in (0.5, 1, 5, 10, 1000):
            h.observe(v)
        assert h.counts == [2, 2, 0]  # 0.5 and 1 -> <=1; 5 and 10 -> <=10
        assert h.overflow == 1
        assert h.count == 5

    def test_rejects_unsorted_buckets(self):
        with pytest.raises(ValueError):
            Histogram(buckets=(10, 1))

    def test_streaming_moments_and_quantiles(self):
        h = Histogram(buckets=(1000,))
        for v in range(1, 101):
            h.observe(float(v))
        assert h.mean == pytest.approx(50.5)
        assert h.quantile(0.0) == 1.0
        assert h.quantile(1.0) == 100.0
        assert 40.0 <= h.quantile(0.5) <= 61.0
        snap = h.snapshot()
        assert snap["count"] == 100
        assert snap["min"] == 1.0
        assert snap["max"] == 100.0

    def test_empty_quantile_is_nan(self):
        assert math.isnan(Histogram().quantile(0.5))


class TestRegistry:
    def test_get_or_create_is_idempotent(self):
        reg = MetricsRegistry()
        a = reg.counter("x.total", proto="tcp")
        b = reg.counter("x.total", proto="tcp")
        assert a is b
        assert len(list(reg)) == 1

    def test_label_order_does_not_matter(self):
        reg = MetricsRegistry()
        a = reg.counter("x", a="1", b="2")
        b = reg.counter("x", b="2", a="1")
        assert a is b

    def test_distinct_labels_distinct_instruments(self):
        reg = MetricsRegistry()
        a = reg.counter("x.total", proto="tcp")
        b = reg.counter("x.total", proto="udt")
        assert a is not b
        a.inc(3)
        b.inc(4)
        assert reg.total("x.total") == 7.0
        assert reg.value("x.total", proto="tcp") == 3.0

    def test_family_prefix_query(self):
        reg = MetricsRegistry()
        reg.counter("net.link.bytes")
        reg.counter("net.link.drops")
        reg.counter("rl.reward")
        assert len(reg.family("net.link.")) == 2

    def test_snapshot_shape(self):
        reg = MetricsRegistry()
        reg.counter("a.total", k="v").inc()
        reg.gauge("b").set(2)
        snap = reg.snapshot()
        assert snap["a.total"][0] == {
            "labels": {"k": "v"}, "type": "counter", "value": 1.0,
        }
        assert snap["b"][0]["value"] == 2.0


class TestNullRegistry:
    def test_disabled_and_shared_noops(self):
        null = NullRegistry()
        assert not null.enabled
        c1 = null.counter("anything", any_label="x")
        c2 = null.counter("other")
        assert c1 is c2  # shared no-op singleton
        c1.inc(100)
        assert c1.value == 0.0
        g = null.gauge("g")
        g.set(5)
        g.set_function(lambda: 99)
        assert g.value == 0.0
        h = null.histogram("h")
        h.observe(123)
        assert h.count == 0
        assert null.snapshot() == {}

    def test_default_registry_is_null(self):
        assert get_registry() is NULL_REGISTRY
        assert not get_registry().enabled

    def test_collecting_installs_and_restores(self):
        before = get_registry()
        with collecting() as reg:
            assert get_registry() is reg
            assert reg.enabled
        assert get_registry() is before


class TestZeroOverheadDispatch:
    """The scheduler's event dispatch must be unaffected by collection."""

    def _run(self, n=50):
        sim = Simulator()
        system = KompicsSystem.simulated(sim, seed=7)
        server = system.create(Server)
        client = system.create(Client)
        system.connect(server.provided(PingPort), client.required(PingPort))
        system.start(server)
        system.start(client)
        sim.run()
        for i in range(n):
            client.definition.send(i)
        sim.run()
        return [p.seq for p in client.definition.pongs]

    def test_disabled_and_enabled_runs_are_identical(self):
        disabled = self._run()
        with collecting():
            enabled = self._run()
        assert disabled == enabled == list(range(50))

    def test_disabled_run_records_nothing(self):
        assert get_registry() is NULL_REGISTRY
        self._run()
        assert len(get_registry().snapshot()) == 0

    def test_enabled_run_counts_events_and_batches(self):
        with collecting() as reg:
            self._run()
        events = reg.total("kompics.scheduler.events_total")
        batches = reg.total("kompics.scheduler.batches_total")
        # 50 pings + 50 pongs + start events all dispatched through cores.
        assert events >= 100
        assert 0 < batches <= events
        hist = reg.get("kompics.scheduler.batch_size")
        assert hist is not None and hist.count == batches


class TestTracer:
    def test_records_are_ordered_by_seq_at_equal_sim_time(self):
        sim = Simulator()
        tracer = Tracer(clock=sim.clock)
        for i in range(5):
            tracer.event("tick", i=i)  # all at sim time 0.0
        times = [r.time for r in tracer.records]
        seqs = [r.seq for r in tracer.records]
        assert times == [0.0] * 5
        assert seqs == sorted(seqs) and len(set(seqs)) == 5

    def test_simulated_clock_stamps(self):
        sim = Simulator()
        tracer = Tracer(clock=sim.clock)
        tracer.event("start")
        sim.schedule(2.5, lambda: tracer.event("later"))
        sim.run()
        assert [r.time for r in tracer.records] == [0.0, 2.5]

    def test_keep_bound_trims(self):
        tracer = Tracer(keep=3)
        for i in range(10):
            tracer.event("e", i=i)
        assert len(tracer.records) == 3
        assert [r.fields["i"] for r in tracer.records] == [7, 8, 9]

    def test_null_tracer_records_nothing(self):
        assert get_tracer() is NULL_TRACER
        NULL_TRACER.event("ignored")
        assert len(NULL_TRACER.records) == 0

    def test_tracing_context_restores(self):
        before = get_tracer()
        with tracing() as tracer:
            assert get_tracer() is tracer
            tracer.event("x")
            assert len(tracer.records) == 1
        assert get_tracer() is before

    def test_system_rekeys_tracer_to_its_clock(self):
        sim = Simulator()
        with tracing() as tracer:
            KompicsSystem.simulated(sim, seed=1)
            sim.schedule(1.5, lambda: tracer.event("at-1.5"))
            sim.run()
        assert tracer.named("at-1.5")[0].time == 1.5


class TestExport:
    def test_to_json_handles_nan(self):
        reg = MetricsRegistry()
        reg.histogram("empty")
        text = document_json(snapshot_document(reg))
        assert "NaN" not in text

    def test_json_document_includes_trace(self):
        import json

        reg = MetricsRegistry()
        reg.counter("c").inc()
        tracer = Tracer()
        tracer.event("e", detail="d")
        doc = json.loads(document_json(snapshot_document(reg, tracer)))
        assert doc["metrics"]["c"][0]["value"] == 1.0
        assert doc["trace"][0]["name"] == "e"
        assert doc["trace"][0]["fields"] == {"detail": "d"}
