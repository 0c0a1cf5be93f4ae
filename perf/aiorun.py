"""Runs one real-socket workload: two AioNetworks over loopback in one process.

Set-up, warm-up, an untraced window, optionally a traced window on the
same live system, then a bounded drain.  Every wait has a deadline, so a
stalled transport ends the workload (as failures) instead of hanging it.
"""

from __future__ import annotations

import socket
import sys
import time
from time import perf_counter
from typing import Any, Dict, List, Optional, Tuple

from loadgen import DATA_ID, RunLog, Sink, Source, payload_pool
from metrics import InvalidRun, median, percentile, steady_high, steady_low
from tracing import MESSAGE_STAGES, AioTrace, message_spans, self_times, thread_cpu_seconds

from repro.aio import AioNetwork
from repro.apps import Ponger, register_app_serializers
from repro.kompics import KompicsSystem
from repro.kompics.timer import Timer, WallTimerComponent
from repro.messaging.address import BasicAddress
from repro.messaging.network_port import Network
from repro.messaging.serialization import SerializerRegistry
from repro.messaging.transport import Transport

HOST = "127.0.0.1"
MIB = 1024 * 1024

#: the window is cut into slices this long (see metrics.steady_high)
SLICE_S = 0.1
#: sent-but-undelivered after this long counts as failed
DRAIN_DEADLINE_S = 10.0
#: the run is invalid when the generator itself burns more of the CPU
LOADGEN_CPU_LIMIT = 0.15
#: messages whose spans are built and written out per traced window
SPAN_SAMPLE = 4000


def _free_port() -> int:
    """A port whose TCP, UDP and UDT (port + 1, over UDP) listeners can bind."""
    for _ in range(50):
        with socket.socket() as tcp:
            tcp.bind((HOST, 0))
            port = tcp.getsockname()[1]
            try:
                for udp_port in (port, port + 1):
                    with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as udp:
                        udp.bind((HOST, udp_port))
            except OSError:
                continue
            return port
    raise InvalidRun("no free loopback port triple found")


def _sleep_until(when: float) -> None:
    time.sleep(max(0.0, when - perf_counter()))


#: (perf_counter, process CPU, messages delivered so far)
Sample = Tuple[float, float, int]


def _watch(log: RunLog, seconds: float) -> List[Sample]:
    """Let the window pass, reading the clocks and the delivery count every 100 ms."""
    start = perf_counter()
    samples: List[Sample] = []
    for tick in range(round(seconds / SLICE_S) + 1):
        _sleep_until(start + tick * SLICE_S)
        samples.append((perf_counter(), time.process_time(), len(log.recv)))
    return samples


class _Run:
    """One built system: networks bound, generator created, nothing sent yet."""

    def __init__(self, params: Dict[str, Any], seed: int, traced: bool) -> None:
        self.params = params
        self.log = RunLog()
        self.trace: Optional[AioTrace] = AioTrace(DATA_ID) if traced else None
        self.system = KompicsSystem.threaded(workers=2)
        try:
            self._build(seed)
        except BaseException:
            self.close()
            raise

    def _build(self, seed: int) -> None:
        params, system, log = self.params, self.system, self.log
        if self.trace is not None:
            self.trace.watch_connections()
        pool = payload_pool(seed, params["size"])
        tx = BasicAddress(HOST, _free_port())
        rx = BasicAddress(HOST, _free_port())

        def registry() -> SerializerRegistry:
            return register_app_serializers(SerializerRegistry())

        self.net_tx = system.create(AioNetwork, tx, serializers=registry(), name="aio-tx")
        self.net_rx = system.create(AioNetwork, rx, serializers=registry(), name="aio-rx")
        timer = system.create(WallTimerComponent)
        ping_transports = (Transport.TCP, Transport.UDT) if params["ping_hz"] else ()
        self.source = system.create(
            Source, log, tx, rx, Transport(params["transport"]), pool,
            params["window"], params["ping_hz"], ping_transports,
        )
        self.sink = system.create(Sink, log, rx, tx, pool, params["credit_every"])
        ponger = system.create(Ponger, rx)
        system.connect(self.net_tx.provided(Network), self.source.required(Network))
        system.connect(timer.provided(Timer), self.source.required(Timer))
        system.connect(self.net_rx.provided(Network), self.sink.required(Network))
        system.connect(self.net_rx.provided(Network), ponger.required(Network))
        for component in (self.net_tx, self.net_rx, timer, self.sink, ponger):
            system.start(component)
        self.net_tx.definition.wait_ready(10.0)
        self.net_rx.definition.wait_ready(10.0)

    def snapshot(self) -> Dict[str, Any]:
        """Everything that is read at a window boundary."""
        counters: Dict[str, int] = {}
        for net in (self.net_tx, self.net_rx):
            for key, value in net.definition.counters.items():
                counters[key] = counters.get(key, 0) + value
        snap: Dict[str, Any] = {
            "t": perf_counter(),
            "cpu": time.process_time(),
            "loadgen_cpu": self.source.definition.cpu + self.sink.definition.cpu,
            "counters": counters,
        }
        if self.trace is not None:
            snap["threads"] = thread_cpu_seconds()
            conns = self.trace.udt_connections
            snap["udt_retransmissions"] = sum(c.retransmissions for c in conns)
            snap["udt_naks"] = sum(c.naks_received for c in conns)
            snap["udt_rate"] = max((c.rate for c in conns), default=0.0)
        return snap

    def close(self) -> None:
        if self.trace is not None:
            self.trace.uninstall()
        self.system.shutdown()


def measure_setup(params: Dict[str, Any], seed: int, entered_at: float) -> float:
    """Build the system, report how long that took since ``entered_at``, tear down."""
    run = _Run(params, seed, traced=False)
    try:
        return perf_counter() - entered_at
    finally:
        run.close()


def run_aio(params: Dict[str, Any], seed: int, seconds: int, traced: bool,
            entered_at: float) -> Dict[str, Any]:
    run = _Run(params, seed, traced)
    try:
        setup_s = perf_counter() - entered_at
        log, source = run.log, run.source.definition
        run.system.start(run.source)

        _sleep_until(perf_counter() + params["warmup"])
        first = run.snapshot()
        samples = _watch(log, seconds)
        last = run.snapshot()
        if run.trace is not None:
            run.trace.install()
            first_traced = run.snapshot()
            samples_traced = _watch(log, seconds)
            last_traced = run.snapshot()
            run.trace.uninstall()

        # Bounded drain: whatever was sent must arrive before the deadline.
        source.stopped = True
        deadline = perf_counter() + DRAIN_DEADLINE_S
        while perf_counter() < deadline:
            pongs_missing = sum(len(due) - len(log.pong_at[t])
                                for t, due in log.ping_due.items())
            if len(log.recv) >= source.next_seq and not pongs_missing \
                    and len(log.notified) + log.notify_failed >= source.next_seq:
                break
            time.sleep(0.01)
    finally:
        run.close()

    # Nothing is computed while the system runs: the main thread would
    # compete with the workers for the interpreter lock.
    values = _window_metrics(run, first, last, samples)
    values["setup_s"] = setup_s
    info: Dict[str, Any] = {}
    if run.trace is not None:
        layer_values, info = _traced_metrics(run, first_traced, last_traced, samples_traced)
        traced_rate = layer_values.pop("traced_msgs_per_s")
        values.update(layer_values)
        values["trace.overhead_ratio"] = (
            values["msgs_per_s"] / traced_rate if traced_rate else 0.0)
    pings = sum(len(due) for due in log.ping_due.values())
    pongs = sum(len(got) for got in log.pong_at.values())
    attempted = source.next_seq + pings
    failed = (source.next_seq - len(log.recv)) + log.notify_failed + (pings - pongs)
    values["failed_share"] = failed / attempted if attempted else 1.0
    if values["loadgen.cpu_share"] > LOADGEN_CPU_LIMIT:
        raise InvalidRun(
            f"the load generator used {values['loadgen.cpu_share']:.1%} of the process "
            f"CPU in the window (limit {LOADGEN_CPU_LIMIT:.0%}): the run measures the "
            "generator, not the system")
    return {
        "correct": log.wrong == 0,
        "errors": log.errors,
        "attempted": attempted,
        "failed": failed,
        "values": values,
        "info": info,
    }


def _slices(log: RunLog, samples: List[Sample]) -> Tuple[List[float], List[float], List[float]]:
    """Per 100-ms slice: messages per second, CPU ms per message, median delivery ms."""
    rates, cpus, latencies = [], [], []
    for (t0, cpu0, n0), (t1, cpu1, n1) in zip(samples, samples[1:]):
        rates.append((n1 - n0) / (t1 - t0))
        if n1 > n0:
            cpus.append((cpu1 - cpu0) * 1e3 / (n1 - n0))
            latencies.append(median([(log.recv[i] - log.sent[i]) * 1e3 for i in range(n0, n1)]))
    return rates, cpus, latencies


def _window_metrics(run: _Run, first: Dict[str, Any], last: Dict[str, Any],
                    samples: List[Sample]) -> Dict[str, float]:
    """The metrics taken with tracing off, over one window."""
    log, size = run.log, run.params["size"]
    lo, hi = samples[0][2], samples[-1][2]
    rates, cpus, latencies = _slices(log, samples)
    rate = steady_high(rates)
    latency = [(log.recv[i] - log.sent[i]) * 1e3 for i in range(lo, hi)]
    notify = [(log.notified[i] - log.sent[i]) * 1e3 for i in range(lo, hi)
              if i in log.notified]
    cpu = last["cpu"] - first["cpu"]
    values = {
        "msgs_per_s": rate,
        "goodput_MBps": rate * size / MIB,
        "deliver_p50_ms": steady_low(latencies),
        "deliver_p99_ms": percentile(latency, 99),
        "cpu_ms_per_msg": steady_low(cpus),
        "aio.notify_p50_ms": median(notify),
        "aio.notify_p99_ms": percentile(notify, 99),
        "loadgen.cpu_share": (last["loadgen_cpu"] - first["loadgen_cpu"]) / cpu if cpu else 0.0,
        "aio.send_failures": last["counters"]["send_failures"],
        "aio.dups_suppressed": last["counters"]["dups_suppressed"],
    }
    for transport, due in log.ping_due.items():
        answered = log.pong_at[transport]
        rtts = [(answered[i] - t) * 1e3 for i, t in enumerate(due)
                if first["t"] <= t < last["t"] and i in answered]
        values[f"ctrl_{transport.value}_rtt_p50_ms"] = median(rtts)
        values[f"ctrl_{transport.value}_rtt_p99_ms"] = percentile(rtts, 99)
    late = [lateness * 1e3 for at, lateness in log.ping_late
            if first["t"] <= at < last["t"]]
    values["loadgen.ping_lateness_p99_ms"] = percentile(late, 99)
    return values


def _traced_metrics(run: _Run, first: Dict[str, Any], last: Dict[str, Any],
                    samples: List[Sample]) -> Tuple[Dict[str, float], Dict[str, Any]]:
    """The per-layer metrics of the traced window, and what goes into the trace file."""
    log, trace = run.log, run.trace
    assert trace is not None
    lo, hi = samples[0][2], samples[-1][2]
    delivered = max(1, hi - lo)
    wall = last["t"] - first["t"]

    # Lifecycle spans of an even sample of the messages that crossed every
    # wrapper (those sent before install() have no serialize stamps).
    complete = [i for i in range(lo, hi) if i in trace.serialize and i in trace.deserialize]
    step = max(1, len(complete) // SPAN_SAMPLE)
    spans = []
    stage_self: Dict[str, List[float]] = {name: [] for name, _ in MESSAGE_STAGES}
    root_self: List[float] = []
    total: List[float] = []
    for seq in complete[::step]:
        stamps = (log.sent[seq], *trace.serialize[seq], *trace.deserialize[seq], log.recv[seq])
        message = message_spans(seq, stamps)
        for span, own in zip(message, self_times(message)):
            if span.parent is None:
                root_self.append(own)
                total.append(span.end - span.start)
            else:
                stage_self[span.name].append(own * 1e6)
        spans.extend(message)

    def stage(name: str, q: float) -> float:
        return percentile(stage_self[name], q)

    counters = {key: last["counters"][key] - first["counters"][key]
                for key in last["counters"]}
    frames = sum(n for _, n in trace.send_frames)
    threads = {name: last["threads"].get(name, 0.0) - first["threads"].get(name, 0.0)
               for name in last["threads"]}
    values = {
        "traced_msgs_per_s": steady_high(_slices(log, samples)[0]),
        "kompics.send_hop_us_p50": stage("send_hop", 50),
        "kompics.send_hop_us_p99": stage("send_hop", 99),
        "messaging.serialize_us_p50": stage("serialize", 50),
        "aio.wire_us_p50": stage("wire", 50),
        "aio.wire_us_p99": stage("wire", 99),
        "messaging.deserialize_us_p50": stage("deserialize", 50),
        "kompics.recv_hop_us_p50": stage("recv_hop", 50),
        "kompics.recv_hop_us_p99": stage("recv_hop", 99),
        "kompics.sched_wait_us_p50": percentile(trace.sched_waits, 50) * 1e6,
        "kompics.sched_wait_us_p99": percentile(trace.sched_waits, 99) * 1e6,
        "kompics.executions_per_msg": len(trace.batches) / delivered,
        "kompics.events_per_batch":
            sum(trace.batches) / len(trace.batches) if trace.batches else 0.0,
        "aio.frames_per_batch":
            counters["sent"] / counters["batches"] if counters["batches"] else 0.0,
        "aio.send_frames_us_per_msg":
            sum(t for t, _ in trace.send_frames) * 1e6 / frames if frames else 0.0,
        "aio.udt.retransmissions_per_kmsg":
            (last["udt_retransmissions"] - first["udt_retransmissions"]) * 1e3 / delivered,
        "aio.udt.naks_per_kmsg": (last["udt_naks"] - first["udt_naks"]) * 1e3 / delivered,
        "aio.udt.pacer_rate_MBps": last["udt_rate"] / MIB,
        "aio.loop_cpu_share.tx": threads.get("aio-tx-loop", 0.0) / wall,
        "aio.loop_cpu_share.rx": threads.get("aio-rx-loop", 0.0) / wall,
        "kompics.worker_cpu_share":
            sum(v for name, v in threads.items() if name.startswith("kompics-worker")) / wall,
    }
    stage_sum = sum(stage(name, 50) for name, _ in MESSAGE_STAGES)
    traced_p50 = median(total) * 1e6
    info = {
        "spans": [span._asdict() for span in spans],
        "messages_sampled": len(total),
        "stage_medians_sum_us": stage_sum,
        "deliver_p50_traced_us": traced_p50,
        "root_self_time_max_us": max(root_self, default=0.0) * 1e6,
    }
    if traced_p50 and abs(stage_sum / traced_p50 - 1.0) > 0.15:
        print(f"warning: stage medians sum to {stage_sum:.0f} us, which is not within "
              f"15 % of the traced deliver p50 of {traced_p50:.0f} us", file=sys.stderr)
    return values, info
