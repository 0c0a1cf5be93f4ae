"""Every workload at ``--scale tiny``, run twice (SNIPPETS.md #1: tiny, twice, equal)."""

import time

import aiorun
import metrics
import pytest
import workloads

SIM = [name for name, w in workloads.WORKLOADS.items() if w["kind"] == "sim"]
AIO = [name for name, w in workloads.WORKLOADS.items() if w["kind"] == "aio"]
#: what run.py adds itself, after the workload has run
ADDED_BY_RUN = {"peak_rss_MB"}


def _run(name, traced, seed=5):
    params = workloads.parameters(name, "tiny")
    if name in AIO:
        return aiorun.run_aio(params, seed, 1, traced, time.perf_counter())
    return workloads.run_sim(name, params, seed, 1, traced, time.perf_counter())


def test_the_five_workloads_are_there():
    assert list(workloads.WORKLOADS) == [
        "sim-fig9", "sim-fleet", "aio-tcp-bulk", "aio-tcp-small", "aio-udt-msg"]


@pytest.mark.parametrize("name", SIM)
def test_sim_workload_repeats_exactly(name):
    first, second = _run(name, traced=True), _run(name, traced=True)
    for result in (first, second):
        assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    exact = [row.name for row in metrics.PER_LAYER if row.unit == "count"]
    assert exact and all(first["values"].get(m, 0.0) == second["values"].get(m, 0.0)
                         for m in exact)
    assert sum(value for metric, value in first["values"].items()
               if metric.startswith("calls_per_msg.")) > 10
    shares = [value for metric, value in first["values"].items()
              if metric.startswith("self_share.")]
    assert sum(shares) == pytest.approx(1.0)
    assert first["values"]["trace.overhead_ratio"] > 1.0


def test_the_solver_workload_and_the_one_that_bypasses_it():
    fig9, fleet = _run("sim-fig9", traced=True)["values"], _run("sim-fleet", traced=True)["values"]
    assert fleet["self_share.netsim"] > 0.5 > fig9["self_share.netsim"]
    assert "self_share.messaging" not in fleet and fig9["self_share.messaging"] > 0.1
    assert fleet["netsim.demand_queries_per_allocate"] > fig9["netsim.demand_queries_per_allocate"]


@pytest.mark.parametrize("name", SIM)
def test_sim_end_to_end_metrics(name):
    first, second = _run(name, traced=False), _run(name, traced=False)
    assert first["correct"] and first["failed"] == 0
    assert first["attempted"] == second["attempted"] > 0
    wanted = set(metrics.names(metrics.END_TO_END)) - ADDED_BY_RUN
    assert wanted <= set(first["values"])
    assert all(first["values"][m] > 0 for m in wanted)


def test_sim_seed_changes_the_input_and_only_the_seed():
    params = workloads.parameters("sim-fleet", "tiny")
    units, _ = workloads.sim_plan("sim-fleet", params, 1, 1)
    again, _ = workloads.sim_plan("sim-fleet", params, 1, 1)
    other, _ = workloads.sim_plan("sim-fleet", params, 2, 1)
    assert units[0]().outcome == again[0]().outcome != other[0]().outcome


@pytest.mark.parametrize("name", AIO)
def test_aio_workload(name):
    result = _run(name, traced=True)
    values = result["values"]
    assert result["correct"], result["errors"]
    assert result["failed"] == 0 and values["failed_share"] == 0.0
    assert result["attempted"] > 100
    every = set(metrics.names(metrics.END_TO_END)) - ADDED_BY_RUN
    assert every <= set(values) and all(values[m] > 0 for m in every)
    assert 0 < values["loadgen.cpu_share"] <= aiorun.LOADGEN_CPU_LIMIT
    stages = ["kompics.send_hop_us_p50", "messaging.serialize_us_p50", "aio.wire_us_p50",
              "messaging.deserialize_us_p50", "kompics.recv_hop_us_p50"]
    assert all(values[m] > 0 for m in stages)
    assert values["kompics.executions_per_msg"] > 0 and values["aio.frames_per_batch"] >= 1
    assert values["trace.overhead_ratio"] > 0
    info = result["info"]
    assert info["messages_sampled"] > 50
    assert info["root_self_time_max_us"] == pytest.approx(0.0, abs=1e-3)
    # every span of the trace file names its layer, its parent and its message
    assert {"name", "layer", "start", "end", "parent", "msg"} == set(info["spans"][0])
    if name == "aio-tcp-bulk":
        assert values["ctrl_tcp_rtt_p50_ms"] > 0 and values["ctrl_udt_rtt_p50_ms"] > 0
    # nothing the traced pass wrapped stays wrapped
    from repro.messaging.serialization import SerializerRegistry
    assert SerializerRegistry.serialize.__name__ == "serialize"


def test_every_reported_metric_is_in_the_catalogue():
    known = set(metrics.names(metrics.END_TO_END + metrics.PER_LAYER))
    for name in ("sim-fleet", "aio-tcp-small"):
        for traced in (False, True):
            assert set(_run(name, traced)["values"]) <= known


def test_a_generator_that_hogs_the_cpu_invalidates_the_run(monkeypatch):
    monkeypatch.setattr(aiorun, "LOADGEN_CPU_LIMIT", 0.0)
    with pytest.raises(metrics.InvalidRun, match="load generator"):
        _run("aio-tcp-small", traced=False)
