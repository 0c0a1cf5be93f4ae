"""The five workloads: what each runs, at which size, and why it is here.

Sizes are for the 2-core builder and the driver's budget of about 30 s a
run.  ``tiny`` is for ``perf/tests`` only.  The simulator workloads do a
fixed amount of work that ``--seconds`` scales in whole repetitions, so
their counters stay exact; the socket workloads measure for exactly
``--seconds``.
"""

from __future__ import annotations

import cProfile
import math
import pstats
from time import perf_counter
from typing import Any, Callable, Dict, List, NamedTuple, Sequence
from unittest import mock

import pace
import tracing
from metrics import median, percentile

MIB = 1024 * 1024

WORKLOADS: Dict[str, Dict[str, Any]] = {
    "sim-fig9": {
        "kind": "sim",
        "why": "Fig. 9 grid on the simulator: 4 setups x TCP/UDT/DATA, two 395 MB "
               "transfers a cell; each message crosses apps, kompics, messaging, core, "
               "netsim at 1-2 flows a link, so the many-flow solver is bypassed",
        "full": {"setups": None, "size_mb": 395, "repetitions_per_10s": 3},
        "tiny": {"setups": ("Local",), "size_mb": 8},
    },
    "sim-fleet": {
        "kind": "sim",
        "why": "wan-mesh fleet, 256 hosts x 1000 uniform flows per unit on raw netsim: "
               "many flows per link, no kompics or messaging; allocate_rate and routing "
               "dominate, which sim-fig9 bypasses",
        "full": {"hosts": 256, "flows": 1000, "units_per_10s": 2,
                 "repetitions_per_10s": 3},
        "tiny": {"hosts": 16, "flows": 64},
    },
    "aio-tcp-bulk": {
        "kind": "aio",
        "why": "loopback sockets, 60 kB chunks on TCP in a delivery-clocked closed loop "
               "(W=32, credit per 8) beside 100 Hz open-loop pings on TCP and UDT: bytes "
               "(serialize, copy, write, split) dominate; largest size",
        "full": {"transport": "tcp", "size": 60_000, "window": 32, "credit_every": 8,
                 "ping_hz": 100.0, "warmup": 1.0},
    },
    "aio-tcp-small": {
        "kind": "aio",
        "why": "same harness, 64-byte payloads over TCP (W=64, credit per 16): per-message "
               "cost (component hops, thread hand-off, notify) is everything, bytes are "
               "nothing; smallest size, bypasses any copy avoidance",
        "full": {"transport": "tcp", "size": 64, "window": 64, "credit_every": 16,
                 "ping_hz": 0.0, "warmup": 1.0},
    },
    "aio-udt-msg": {
        "kind": "aio",
        "why": "same harness, 1000-byte payloads (one UDT-lite packet each) over UDT, "
               "credits on TCP: user-space reliability (sequencing, ACK, pacing sleeps) "
               "in place of kernel TCP",
        "full": {"transport": "udt", "size": 1000, "window": 64, "credit_every": 16,
                 "ping_hz": 0.0, "warmup": 1.0},
    },
}


def parameters(name: str, scale: str) -> Dict[str, Any]:
    workload = WORKLOADS[name]
    params = dict(workload["full"])
    if scale == "tiny":
        params.update(workload.get("tiny", {"warmup": 0.3}))
    return params


# ----------------------------------------------------------------------
# simulator workloads
# ----------------------------------------------------------------------

class Unit(NamedTuple):
    """What one call of a public entry point of ``repro.bench`` did."""

    messages: int
    payload_bytes: int
    flows: int
    failed: int
    #: must be identical whenever the same unit runs again
    outcome: Any


def _fig9_units(params: Dict[str, Any], seed: int) -> List[Callable[[], Unit]]:
    from repro.apps.filetransfer.chunks import PAPER_CHUNK_BYTES
    from repro.bench.harness import run_transfer_repeated
    from repro.bench.scenario import aws_testbed
    from repro.messaging.transport import Transport

    size = params["size_mb"] * MIB
    chunks = math.ceil(size / PAPER_CHUNK_BYTES)
    setups = [s for s in aws_testbed()
              if params["setups"] is None or s.name in params["setups"]]

    def cell(setup, transport) -> Callable[[], Unit]:
        def run() -> Unit:
            try:
                result = run_transfer_repeated(
                    setup, transport, size, min_runs=2, max_runs=2, base_seed=seed)
            except RuntimeError as exc:  # a transfer did not finish
                return Unit(2 * chunks, 2 * size, 2, 2 * chunks, repr(exc))
            return Unit(2 * chunks, 2 * size, 2, 0, result.durations)
        return run

    return [cell(setup, transport) for setup in setups
            for transport in (Transport.TCP, Transport.UDT, Transport.DATA)]


#: The mesh is the system's configuration, so it is pinned; ``--seed``
#: draws the flow plan and the loss.  (``run_fleet_workload`` derives all
#: three from its one seed, and a wan-mesh's cost per message swings 2x
#: with where its chords land.)
FLEET_TOPOLOGY_SEED = 0


def _fleet_units(params: Dict[str, Any], seed: int, count: int) -> List[Callable[[], Unit]]:
    from repro.bench import fleet

    generate = fleet.generate_topology

    def pinned(kind, hosts, seed=0, **kwargs):
        return generate(kind, hosts, seed=FLEET_TOPOLOGY_SEED, **kwargs)

    def unit(unit_seed: int) -> Callable[[], Unit]:
        def run() -> Unit:
            with mock.patch.object(fleet, "generate_topology", pinned):
                result = fleet.run_fleet_workload(
                    topology="wan-mesh", hosts=params["hosts"], flows=params["flows"],
                    pattern="uniform", seed=unit_seed)
            c = result.counters
            lost = c["bytes_offered"] - c["bytes_delivered"]
            failed = int(c["messages_failed"] + c["flows_unfinished"]) + (1 if lost else 0)
            return Unit(int(c["messages_sent"]), int(c["bytes_delivered"]),
                        int(c["flows"]), failed, result.digest)
        return run

    return [unit(seed * 1000 + i) for i in range(count)]


def sim_plan(name: str, params: Dict[str, Any], seed: int, seconds: int):
    """The units of one repetition and how many repetitions ``seconds`` buys.

    Whole units and whole repetitions only, so that counts stay exact; a
    Fig. 9 grid takes 6 s and a fleet unit 2.7 s on the builder, so a
    "10 s" run of either measures for about 17 s.
    """
    def scaled(key: str) -> int:
        return max(1, round(params[key] * seconds / 10))

    if name == "sim-fig9":
        units = _fig9_units(params, seed)
    else:
        units = _fleet_units(params, seed, scaled("units_per_10s"))
    return units, scaled("repetitions_per_10s")


def run_sim(name: str, params: Dict[str, Any], seed: int, seconds: int,
            traced: bool, entered_at: float) -> Dict[str, Any]:
    units, repetitions = sim_plan(name, params, seed, seconds)
    setup_s = perf_counter() - entered_at
    if traced:
        if name == "sim-fleet":
            units = units[:1]  # the profiled pass is 3-4x slower
        result = _run_sim_traced(units)
    else:
        result = _run_sim_plain(units, repetitions)
    result["values"]["setup_s"] = setup_s
    return result


def _timed(unit: Callable[[], Unit]):
    start = perf_counter()
    done = unit()
    return done, perf_counter() - start


def _check_repeats(errors: List[str], index: int, first: Unit, again: Unit) -> None:
    if again.outcome != first.outcome:
        errors.append(f"unit {index} gave {again.outcome!r}, then {first.outcome!r}: "
                      "the simulator is not deterministic")


def _run_sim_plain(units: Sequence[Callable[[], Unit]], repetitions: int) -> Dict[str, Any]:
    errors: List[str] = []
    done: List[Unit] = []
    readings: List[List[List[pace.Reading]]] = [[] for _ in units]
    with pace.Pace() as watch:
        for repetition in range(repetitions):
            for index, unit in enumerate(units):
                result, curve = watch.run(unit)
                readings[index].append(curve)
                if repetition == 0:
                    done.append(result)
                else:
                    _check_repeats(errors, index, done[index], result)

    messages = sum(u.messages for u in done)
    walls = [pace.steady_total(curves, 1) for curves in readings]
    cpu = sum(pace.steady_total(curves, 2) for curves in readings)
    values = {
        "msgs_per_s": messages / sum(walls),
        "goodput_MBps": sum(u.payload_bytes for u in done) / MIB / sum(walls),
        "deliver_p50_ms": median(walls) * 1e3,
        "cpu_ms_per_msg": cpu * 1e3 / messages,
    }
    return {
        "correct": not errors,
        "errors": errors,
        "attempted": messages * repetitions,
        "failed": sum(u.failed for u in done) * repetitions,
        "values": values,
        "info": {"units": len(units), "repetitions": repetitions},
    }


def _run_sim_traced(units: Sequence[Callable[[], Unit]]) -> Dict[str, Any]:
    """The same units once plain and once under cProfile, rolled up by layer."""
    errors: List[str] = []
    plain = [_timed(unit) for unit in units]
    plain_wall = sum(wall for _, wall in plain)

    simulators: List[Any] = []
    profile = cProfile.Profile()
    with pace.on_new_simulator(simulators.append):
        start = perf_counter()
        profile.enable()
        try:
            profiled = [unit() for unit in units]
        finally:
            profile.disable()
        profiled_wall = perf_counter() - start
    for index, ((first, _), again) in enumerate(zip(plain, profiled)):
        _check_repeats(errors, index, first, again)

    stats = pstats.Stats(profile).stats
    messages = sum(u.messages for u in profiled)
    flows = sum(u.flows for u in profiled)
    total = sum(entry[2] for entry in stats.values())
    layers = tracing.roll_up(stats)
    values: Dict[str, float] = {}
    for layer, (calls, seconds) in layers.items():
        values[f"calls_per_msg.{layer}"] = calls / messages
        values[f"self_share.{layer}"] = seconds / total
    allocate = tracing.calls_of(stats, "netsim/link.py", ("allocate_rate",))
    demand = tracing.calls_of(stats, "netsim/congestion.py", ("demand_rate",))
    solver = tracing.calls_of(stats, "netsim/link.py",
                              ("max_min_allocation", "max_min_allocation_vec"))
    values.update({
        "sim.events_per_msg": sum(s.events_executed for s in simulators) / messages,
        "kompics.executions_per_msg":
            tracing.calls_of(stats, "kompics/component.py", ("execute_batch",)) / messages,
        "core.rl_updates": tracing.calls_of(stats, "core/td_learner.py", ("update",)),
        "netsim.allocate_calls_per_msg": allocate / messages,
        "netsim.demand_queries_per_allocate": demand / allocate if allocate else 0.0,
        "netsim.demand_queries_per_msg": demand / messages,
        "netsim.solver_calls_per_allocate": solver / allocate if allocate else 0.0,
        "netsim.route_calls_per_flow":
            tracing.calls_of(stats, "netsim/fabric.py", ("path",)) / flows,
        "netsim.route_self_share":
            tracing.cumulative_of(stats, "netsim/fabric.py", "path") / total,
        "trace.overhead_ratio": profiled_wall / plain_wall,
        "deliver_p99_ms": percentile([wall * 1e3 for _, wall in plain], 99),
    })
    failed = sum(u.failed for u, _ in plain) + sum(u.failed for u in profiled)
    values["failed_share"] = failed / (2 * messages)
    return {
        "correct": not errors,
        "errors": errors,
        "attempted": 2 * messages,
        "failed": failed,
        "values": values,
        "info": {"units": len(units), "profiled_calls": sum(e[1] for e in stats.values())},
    }
