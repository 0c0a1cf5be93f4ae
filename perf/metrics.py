"""The metric catalogue and the estimators every workload shares.

``BENCHMARK.json`` at the root of the repository may hold only name, unit,
direction and bound; what else a reader needs - which layer a per-layer
metric observes and which end-to-end metric, on which workload, it is
expected to move - is recorded here, and ``perf/tests`` checks the two
against each other.
"""

from __future__ import annotations

import statistics
from typing import Dict, List, NamedTuple, Sequence

import numpy as np


class InvalidRun(RuntimeError):
    """The measurement cannot be trusted (which says nothing about the program)."""


# ----------------------------------------------------------------------
# estimators
# ----------------------------------------------------------------------


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0..100) by linear interpolation; 0.0 if empty."""
    return float(np.percentile(values, q)) if len(values) else 0.0


def median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def quartiles(values: Sequence[float]) -> List[float]:
    """First quartile, median, third quartile, as the acceptance rule takes them."""
    if len(values) < 2:
        value = values[0] if values else 0.0
        return [value, value, value]
    return statistics.quantiles(values, n=4)


def spread(values: Sequence[float]) -> float:
    """Distance between the quartiles as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else 0.0


def steady_high(slices: Sequence[float]) -> float:
    """What a rate is while the machine leaves the program alone.

    The builder's machine slows down in episodes, above a floor that does
    not move: over 10-s windows of one fixed pure-Python kernel the mean
    spreads 15 % and the median of 1-s slices 13 %, the fastest tenth of
    100-ms slices 4 %.  So a window is cut into 100-ms slices and rates
    are read at their 90th percentile, times and costs at their 10th
    (:func:`steady_low`).  A stall the program causes itself lands in the
    tails (``deliver_p99_ms``), not here.
    """
    return percentile(slices, 90)


def steady_low(slices: Sequence[float]) -> float:
    """See :func:`steady_high`."""
    return percentile(slices, 10)


# ----------------------------------------------------------------------
# catalogue
# ----------------------------------------------------------------------

class EndToEnd(NamedTuple):
    name: str
    unit: str
    better: str
    bound: float
    definition: str


class PerLayer(NamedTuple):
    name: str
    unit: str
    better: str
    layer: str
    #: (end-to-end metric, workload) this is expected to move
    moves: str
    definition: str


END_TO_END = (
    EndToEnd("setup_s", "s", "lower", 0.25,
             "workload process entry (before `import repro`) to the first timed "
             "operation: imports, plan, component creation, bind and wait_ready; "
             "median of three fresh processes"),
    EndToEnd("msgs_per_s", "msg/s", "higher", 0.25,
             "application messages delivered to the receiving handler per wall "
             "second; aio: 90th percentile of the window's 100-ms slices, sim: chunk "
             "messages of one repetition / its steady wall time (pace.steady_total)"),
    EndToEnd("goodput_MBps", "MiB/s", "higher", 0.25,
             "payload bytes delivered per wall second, headers and "
             "retransmissions excluded, by the same estimator as msgs_per_s"),
    EndToEnd("deliver_p50_ms", "ms", "lower", 0.25,
             "median time from handing one unit of work to the system until the "
             "receiver has it; aio: trigger to the receiving handler per message, "
             "median per 100-ms slice, 10th percentile of the slices; sim: steady wall "
             "time of one call of the public entry point (one Fig. 9 cell, one fleet "
             "unit), median over the units"),
    EndToEnd("cpu_ms_per_msg", "ms", "lower", 0.25,
             "process CPU (all threads) / messages delivered; aio: per 100-ms slice, "
             "10th percentile; sim: steady CPU time of one repetition / its messages"),
    EndToEnd("peak_rss_MB", "MiB", "lower", 0.10,
             "ru_maxrss of the workload process"),
)

_FIG9 = "msgs_per_s on sim-fig9"
_FLEET = "msgs_per_s on sim-fleet"
_SMALL = "msgs_per_s, deliver_p50_ms on aio-tcp-small"
_BULK = "goodput_MBps on aio-tcp-bulk"
_TAIL = "deliver_p99_ms, ctrl_*_rtt_p99_ms on aio-tcp-bulk"
_UDT = "msgs_per_s, deliver_p99_ms on aio-udt-msg"


def _sim_layers() -> List[PerLayer]:
    moves = {
        "sim": "msgs_per_s on sim-fig9 and sim-fleet",
        "kompics": _FIG9 + " (about 0 on sim-fleet)",
        "messaging": _FIG9 + " (about 0 on sim-fleet)",
        "core": _FIG9 + " (about 0 on sim-fleet)",
        "netsim": _FLEET,
        "apps": _FIG9 + " (about 0 on sim-fleet)",
        "loadgen": "none: repro.bench and perf/ driving the simulator",
    }
    rows = []
    for layer, target in moves.items():
        rows.append(PerLayer(
            f"calls_per_msg.{layer}", "count", "lower", layer, target,
            f"Python calls charged to {layer} per message in one cProfile pass "
            "(built-ins and helpers charged to the caller); repeats exactly"))
        rows.append(PerLayer(
            f"self_share.{layer}", "ratio", "lower", layer, target,
            f"share of the profiled pass's self time charged to {layer}"))
    return rows


PER_LAYER = tuple(_sim_layers()) + (
    PerLayer("sim.events_per_msg", "count", "lower", "sim", _FIG9,
             "Simulator.events_executed / messages"),
    PerLayer("kompics.executions_per_msg", "count", "lower", "kompics",
             _FIG9 + "; " + _SMALL,
             "calls of ComponentCore.execute_batch / messages"),
    PerLayer("core.rl_updates", "count", "lower", "core", _FIG9,
             "calls of TDRatioLearner.update in the profiled pass"),
    PerLayer("netsim.allocate_calls_per_msg", "count", "lower", "netsim", _FLEET,
             "calls of LinkDirection.allocate_rate / messages"),
    PerLayer("netsim.demand_queries_per_allocate", "count", "lower", "netsim", _FLEET,
             "calls of CongestionControl.demand_rate (all subclasses) / "
             "allocate_rate calls"),
    PerLayer("netsim.demand_queries_per_msg", "count", "lower", "netsim", _FLEET,
             "calls of CongestionControl.demand_rate / messages"),
    PerLayer("netsim.solver_calls_per_allocate", "count", "lower", "netsim", _FLEET,
             "calls of max_min_allocation{,_vec} / allocate_rate calls"),
    PerLayer("netsim.route_calls_per_flow", "count", "lower", "netsim", _FLEET,
             "calls of SimNetwork.path / flows (fig9: transfers)"),
    PerLayer("netsim.route_self_share", "ratio", "lower", "netsim", _FLEET,
             "cumulative time of SimNetwork.path (Dijkstra included) / profiled time"),

    PerLayer("kompics.send_hop_us_p50", "us", "lower", "kompics", _SMALL,
             "trigger to serialize start: port, channel, component queue, "
             "scheduler, AioNetwork handler"),
    PerLayer("kompics.send_hop_us_p99", "us", "lower", "kompics", _TAIL, "as above"),
    PerLayer("messaging.serialize_us_p50", "us", "lower", "messaging", _BULK,
             "SerializerRegistry.serialize of a data message"),
    PerLayer("aio.wire_us_p50", "us", "lower", "aio", _BULK,
             "serialize end to deserialize start: compress, frame, thread hop, "
             "send queue, send_frames, kernel, read, split, dedup"),
    PerLayer("aio.wire_us_p99", "us", "lower", "aio", _TAIL, "as above"),
    PerLayer("messaging.deserialize_us_p50", "us", "lower", "messaging", _BULK,
             "SerializerRegistry.deserialize of a data message"),
    PerLayer("kompics.recv_hop_us_p50", "us", "lower", "kompics", _SMALL,
             "deserialize end to the receiving handler"),
    PerLayer("kompics.recv_hop_us_p99", "us", "lower", "kompics", _TAIL, "as above"),
    PerLayer("kompics.sched_wait_us_p50", "us", "lower", "kompics", _TAIL,
             "Scheduler.schedule_ready to ComponentCore.execute_batch"),
    PerLayer("kompics.sched_wait_us_p99", "us", "lower", "kompics", _TAIL, "as above"),
    PerLayer("kompics.events_per_batch", "count", "higher", "kompics", _SMALL,
             "events handled per execute_batch call"),

    PerLayer("aio.frames_per_batch", "count", "higher", "aio",
             _SMALL + " (may cost " + _TAIL + ")",
             "AioNetwork.counters: sent / batches, both networks"),
    PerLayer("aio.send_frames_us_per_msg", "us", "lower", "aio", _BULK,
             "wall time inside AioConnection.send_frames (drain included) / frames"),
    PerLayer("aio.notify_p50_ms", "ms", "lower", "aio", _SMALL,
             "trigger to MessageNotify.Resp"),
    PerLayer("aio.notify_p99_ms", "ms", "lower", "aio", _TAIL, "as above"),
    PerLayer("aio.send_failures", "count", "lower", "aio", "failed (any aio workload)",
             "AioNetwork.counters['send_failures'], both networks"),
    PerLayer("aio.dups_suppressed", "count", "lower", "aio", "failed (any aio workload)",
             "AioNetwork.counters['dups_suppressed'], both networks"),
    PerLayer("aio.udt.retransmissions_per_kmsg", "count", "lower", "aio", _UDT,
             "UdtLiteConnection.retransmissions per 1000 messages"),
    PerLayer("aio.udt.naks_per_kmsg", "count", "lower", "aio", _UDT,
             "UdtLiteConnection.naks_received per 1000 messages"),
    PerLayer("aio.udt.pacer_rate_MBps", "MiB/s", "higher", "aio", _UDT,
             "highest UdtLiteConnection.rate at the end of the traced window"),
    PerLayer("aio.loop_cpu_share.tx", "ratio", "lower", "aio", _BULK,
             "CPU of the sending network's loop thread / window, from /proc"),
    PerLayer("aio.loop_cpu_share.rx", "ratio", "lower", "aio", _BULK,
             "CPU of the receiving network's loop thread / window"),
    PerLayer("kompics.worker_cpu_share", "ratio", "lower", "kompics", _SMALL,
             "CPU of the scheduler workers / window (2.0 = both busy)"),
    PerLayer("loadgen.cpu_share", "ratio", "lower", "loadgen",
             "none: validity guard, the run fails above 0.15",
             "thread CPU inside the generator's own handlers / process CPU"),
    PerLayer("loadgen.ping_lateness_p99_ms", "ms", "lower", "loadgen",
             "none: says how far ctrl_* can be trusted",
             "how late after its due time a ping tick ran"),

    PerLayer("trace.overhead_ratio", "ratio", "lower", "trace", "none",
             "sim: profiled / plain wall time of the same work; aio: untraced / "
             "traced msgs_per_s"),

    # End-to-end by nature, but kept without a bound: every end-to-end
    # metric has to exist, non-zero, on every workload, and these exist
    # only on sockets (ctrl_*: only where the ping streams run) or do not
    # repeat within a bound on a 10 s window.  Taken with tracing off.
    PerLayer("deliver_p99_ms", "ms", "lower", "end-to-end", "itself",
             "p99 of what deliver_p50_ms is the median of"),
    PerLayer("ctrl_tcp_rtt_p50_ms", "ms", "lower", "end-to-end", "itself",
             "due time to pong, 100 Hz open-loop PingMsg over TCP beside the bulk "
             "stream (aio-tcp-bulk)"),
    PerLayer("ctrl_tcp_rtt_p99_ms", "ms", "lower", "end-to-end", "itself", "as above"),
    PerLayer("ctrl_udt_rtt_p50_ms", "ms", "lower", "end-to-end", "itself",
             "the same over UDT"),
    PerLayer("ctrl_udt_rtt_p99_ms", "ms", "lower", "end-to-end", "itself", "as above"),
    PerLayer("failed_share", "ratio", "lower", "end-to-end", "itself",
             "failed / attempted, as in the result line"),
)


def names(rows: Sequence[NamedTuple]) -> List[str]:
    return [row.name for row in rows]


def report(values: Dict[str, float], rows: Sequence[NamedTuple]) -> Dict[str, dict]:
    """``values`` as the result line wants them; a metric a workload cannot
    have (a socket metric on the simulator) reads 0."""
    return {row.name: {"value": float(values.get(row.name, 0.0)), "unit": row.unit}
            for row in rows}
