"""Experiment drivers used by the per-figure benchmarks.

All drivers are deterministic in their ``seed`` and run on the simulated
testbed of :mod:`repro.bench.scenario`.  A new driver starts from the
pair, not from a copy of another driver: ``with TestbedPair(setup, seed)
as pair:``, ``pair.wire(transport)``, then the workloads it names —
``pair.pings``, ``pair.file_sender`` / ``pair.file_receiver``,
``pair.stream`` — ``pair.start(...)`` in the order it wants,
:func:`run_in_steps`, and read the results off the returned components
before the ``with`` ends (its exit frees the world).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.apps import SyntheticDataset
from repro.bench.scenario import MB, Setup, TestbedPair
from repro.core import PatternSelection, ProtocolRatio, StaticRatio, TDRatioLearner
from repro.core.interceptor import PrpFactory, PspFactory
from repro.messaging import Transport
from repro.obs import MetricsRegistry, collecting, snapshot_document, tracing
from repro.stats import TimeSeries, mean_confidence_interval
from repro.stats.confidence import enough_runs, relative_standard_error
from repro.stats.reservoir import BoxStats, summarize_distribution


def default_transfer_learner(seed: int) -> PrpFactory:
    """The DATA learner used for transfer benchmarks.

    Converges within the first transfers of a series; combined with the
    shorter transfer episodes (0.25 s) even a fast local transfer sees
    enough learning steps (the paper's Figure 6 argument for fast
    convergence without significant backtracking).
    """
    rng = random.Random(seed * 7919 + 13)
    return lambda: TDRatioLearner(
        rng, "approx", epsilon_max=0.5, epsilon_min=0.05, epsilon_decay=0.01
    )


def run_in_steps(pair: TestbedPair, until: float, done: Callable[[], bool], step: float = 0.25) -> None:
    """Advance the simulation until ``done()`` or the time limit.

    Stepped execution is required because periodic timers (learning
    episodes, pingers) keep the event queue permanently non-empty.
    """
    while not done() and pair.sim.now < until:
        pair.sim.run_until(min(pair.sim.now + step, until))


# ----------------------------------------------------------------------
# transfers (Figure 9 and the data legs of Figure 8)
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class TransferResult:
    setup: str
    transport: str
    bytes: int
    duration: float
    seed: int

    @property
    def throughput(self) -> float:
        return self.bytes / self.duration


#: sim seconds one transfer may take before it counts as stuck
MAX_TRANSFER_TIME = 3600.0
#: the DATA learner's episode on transfers (the interceptor's default is 1 s)
TRANSFER_EPISODE_LENGTH = 0.25


def run_transfer_once(setup: Setup, transport: Transport, size: int,
                      seed: int = 0) -> TransferResult:
    """One disk-to-disk transfer; returns its measured duration."""
    with TestbedPair(setup, seed=seed) as pair:
        pair.wire(transport, prp_factory=default_transfer_learner(seed),
                  episode_length=TRANSFER_EPISODE_LENGTH)
        sender = pair.file_sender(SyntheticDataset(size=size), transport)
        receiver = pair.file_receiver()
        pair.start(receiver, sender)

        run_in_steps(pair, MAX_TRANSFER_TIME, lambda: sender.definition.duration is not None)
        duration = sender.definition.duration
        if duration is None:
            raise RuntimeError(
                f"transfer did not finish within {MAX_TRANSFER_TIME}s sim time "
                f"({setup.name}/{transport.value}, progress "
                f"{receiver.definition.progress(sender.definition.transfer_id):.1%})"
            )
    return TransferResult(setup.name, transport.value, size, duration, seed)


@dataclass(frozen=True)
class RepeatedTransfer:
    setup: str
    transport: str
    bytes: int
    durations: Tuple[float, ...]

    @property
    def throughputs(self) -> List[float]:
        return [self.bytes / d for d in self.durations]

    @property
    def mean_throughput(self) -> float:
        t = self.throughputs
        return sum(t) / len(t)

    def confidence_interval(self, level: float = 0.95):
        return mean_confidence_interval(self.throughputs, level)

    @property
    def rse(self) -> float:
        return relative_standard_error(self.throughputs)


def run_transfer_repeated(
    setup: Setup,
    transport: Transport,
    size: int,
    min_runs: int = 10,
    max_runs: int = 30,
    rse_target: float = 0.10,
    base_seed: int = 0,
    net_config: Optional[dict] = None,
) -> RepeatedTransfer:
    """The paper's §V-B methodology: at least ``min_runs`` runs, continuing
    until the relative standard error drops below ``rse_target``.

    Runs execute back-to-back over ONE long-lived middleware pair, as on
    the paper's testbed: channels stay open between runs and — crucially
    for the DATA protocol — the per-destination learner state persists, so
    only the first run pays the ramp-up.
    """
    durations: List[float] = []
    with TestbedPair(setup, seed=base_seed, net_config=net_config) as pair:
        pair.wire(transport, prp_factory=default_transfer_learner(base_seed),
                  episode_length=TRANSFER_EPISODE_LENGTH)
        pair.start(pair.file_receiver())

        for i in range(max_runs):
            sender = pair.file_sender(
                SyntheticDataset(size=size), transport, name=f"sender-{i}"
            )
            pair.start(sender)
            deadline = pair.sim.now + MAX_TRANSFER_TIME
            run_in_steps(pair, deadline, lambda: sender.definition.duration is not None)
            duration = sender.definition.duration
            if duration is None:
                raise RuntimeError(
                    f"run {i} did not finish within {MAX_TRANSFER_TIME}s sim time "
                    f"({setup.name}/{transport.value})"
                )
            pair.system.kill(sender)
            durations.append(duration)
            if len(durations) >= min_runs and enough_runs(
                [size / d for d in durations], min_runs, rse_target
            ):
                break
    return RepeatedTransfer(setup.name, transport.value, size, tuple(durations))


# ----------------------------------------------------------------------
# latency (Figure 8)
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class LatencyResult:
    setup: str
    combo: str
    rtts_ms: Tuple[float, ...]

    @property
    def mean_ms(self) -> float:
        return sum(self.rtts_ms) / len(self.rtts_ms) if self.rtts_ms else float("nan")

    @property
    def median_ms(self) -> float:
        ordered = sorted(self.rtts_ms)
        return ordered[len(ordered) // 2] if ordered else float("nan")


def estimate_rate(setup: Setup, transport: Transport) -> float:
    """Back-of-envelope steady-state throughput for sizing experiments.

    TCP: min(link, window/RTT, Mathis loss bound); UDT: min(link, UDP cap,
    implementation cap); DATA: the better of the two.
    """
    from repro.netsim.congestion import MSS

    link = setup.bandwidth
    if transport is Transport.TCP:
        rate = min(link, setup.disk_write * 1.0)
        if setup.rtt > 0:
            rate = min(rate, 8 * MB / setup.rtt)
            if setup.loss > 0:
                rate = min(rate, MSS * 1.22 / (setup.rtt * (setup.loss ** 0.5)))
        return rate
    if transport is Transport.UDT:
        cap = setup.udp_cap if setup.udp_cap is not None else float("inf")
        return min(link, cap, 40 * MB)
    if transport is Transport.DATA:
        return max(estimate_rate(setup, Transport.TCP), estimate_rate(setup, Transport.UDT))
    return min(link, setup.udp_cap or link)


def run_latency_experiment(
    setup: Setup,
    ping_transport: Transport,
    data_transport: Optional[Transport] = None,
    seed: int = 0,
    transfer_bytes: int = 395 * MB,
    warmup: float = 1.0,
    ping_interval: float = 0.25,
    baseline_pings: int = 50,
    max_sim_time: float = 2400.0,
) -> LatencyResult:
    """Ping RTTs, alone or during a full parallel transfer (§V-C).

    Mirrors the paper's methodology: control pings run for the entire
    duration of a 395 MB data transfer; the run then continues until every
    ping sent while the transfer was active has been answered (a ping
    queued behind bulk TCP data reports its true, head-of-line-inflated
    RTT).  Without a data transport, ``baseline_pings`` probes are sent.
    """
    with TestbedPair(setup, seed=seed) as pair:
        pair.wire(data_transport)
        pinger, ponger, timer = pair.pings(ping_transport, ping_interval)
        sender = None
        if data_transport is not None:
            sender = pair.file_sender(
                SyntheticDataset(size=transfer_bytes), data_transport
            )
            pair.start(pair.file_receiver(), sender)
        pair.start(timer, ponger, pinger)

        if sender is None:
            window = warmup + (baseline_pings + 2) * ping_interval
            run_in_steps(pair, window, lambda: False, step=1.0)
            transfer_end = window
        else:
            run_in_steps(
                pair, max_sim_time, lambda: sender.definition.duration is not None, step=1.0
            )
            if sender.definition.duration is None:
                raise RuntimeError(
                    f"parallel transfer did not finish within {max_sim_time}s "
                    f"({setup.name}, {data_transport.value} data)"
                )
            transfer_end = sender.definition.started_at + sender.definition.duration
            # Drain: every ping sent during the transfer must come home.
            run_in_steps(
                pair, pair.sim.now + max_sim_time,
                lambda: pinger.definition.outstanding == 0, step=1.0,
            )

        # Ping i is sent at (i+1) * interval.
        rtts = [
            rtt for i, rtt in enumerate(pinger.definition.rtts)
            if warmup <= (i + 1) * ping_interval <= transfer_end
        ]
    combo = (
        f"{ping_transport.value} ping"
        + (f" + {data_transport.value} data" if data_transport is not None else " only")
    )
    return LatencyResult(setup.name, combo, tuple(r * 1000.0 for r in rtts))


# ----------------------------------------------------------------------
# learner traces (Figures 2, 4, 5, 6)
# ----------------------------------------------------------------------

@dataclass
class LearnerTrace:
    label: str
    throughput: TimeSeries
    ratio_prescribed: TimeSeries
    ratio_true: TimeSeries


#: the scaled-down VPC-like environment for the learner figures:
#: TCP can reach the full link rate, UDT is policed an order of magnitude
#: lower — so the optimal ratio is (close to) all-TCP, as in §IV-C3.
LEARNER_ENV = Setup(name="learner-env", rtt=0.003, bandwidth=20 * MB, udp_cap=2 * MB)


def run_learner_trace(
    label: str,
    prp_factory: PrpFactory,
    psp_factory: PspFactory = PatternSelection,
    duration: float = 120.0,
    setup: Setup = LEARNER_ENV,
    seed: int = 0,
    window_messages: int = 32,
    episode_length: float = 1.0,
    scheduled_events: Sequence[Tuple[float, Callable[[TestbedPair], None]]] = (),
) -> LearnerTrace:
    """Drive a saturating DATA stream and record the flow telemetry.

    ``scheduled_events`` lets experiments change the world mid-run (e.g.
    degrade the link to test the learner's re-adaptation): each
    ``(time, fn)`` pair runs ``fn(pair)`` at the given simulated time.
    """
    with TestbedPair(setup, seed=seed) as pair:
        for at, fn in scheduled_events:
            pair.sim.schedule(at, lambda f=fn: f(pair), label="scheduled-event")
        pair.wire(
            Transport.DATA, psp_factory=psp_factory, prp_factory=prp_factory,
            window_messages=window_messages, episode_length=episode_length,
        )
        source, sink = pair.stream(sink_name="sink")
        pair.start(sink, source)

        run_in_steps(pair, duration, lambda: False, step=1.0)

        flow = _data_flow(pair)
        if flow is None:
            raise RuntimeError("no flow was created; source never sent")
    return LearnerTrace(
        label=label,
        throughput=flow.telemetry.throughput,
        ratio_prescribed=flow.telemetry.ratio_prescribed,
        ratio_true=flow.telemetry.ratio_true,
    )


def _data_flow(pair: TestbedPair):
    """The sending interceptor's flow towards the receiver (None before the first send)."""
    address = pair.receiver.address
    return pair.sender.network.definition.interceptor_def.flow_to(address.ip, address.port)


def run_static_reference(
    transport: Transport,
    duration: float = 120.0,
    setup: Setup = LEARNER_ENV,
    seed: int = 0,
    window_messages: int = 32,
) -> LearnerTrace:
    """TCP-only / UDT-only reference curves for Figures 4-6."""
    ratio = ProtocolRatio.ALL_TCP if transport is Transport.TCP else ProtocolRatio.ALL_UDT
    return run_learner_trace(
        label=f"{transport.value}-reference",
        prp_factory=lambda: StaticRatio(ratio),
        duration=duration,
        setup=setup,
        seed=seed,
        window_messages=window_messages,
    )


# ----------------------------------------------------------------------
# selection skew (Figure 1) — offline, no network involved
# ----------------------------------------------------------------------

def run_selection_skew(
    targets: Sequence[Tuple[int, int]],
    n_messages: int = 160_000,
    windows: Tuple[int, ...] = (1600, 16),
    seed: int = 0,
) -> Dict[Tuple[str, str, int], BoxStats]:
    """Observed-ratio distributions for Pattern vs Random selection.

    ``targets`` are pattern-form ratios (p, q) with TCP as the majority,
    matching Figure 1's x-axis {0, 3/100, 1/3, 4/5}.  For each policy and
    window size, the observed signed ratio of every consecutive window is
    summarised as box statistics over ~``n_messages`` selections.
    """
    out: Dict[Tuple[str, str, int], BoxStats] = {}
    for p, q in targets:
        ratio = ProtocolRatio.from_pattern(p, q, majority=Transport.TCP)
        label = f"{p}/{q}"
        policies = {
            "pattern": PatternSelection(ratio),
            "random": RandomSelectionFactory(seed, ratio),
        }
        for name, psp in policies.items():
            signs = [1 if psp.select() is Transport.UDT else -1 for _ in range(n_messages)]
            prefix = [0]
            for s in signs:
                prefix.append(prefix[-1] + s)
            for window in windows:
                observed = [
                    (prefix[i + window] - prefix[i]) / window
                    for i in range(0, n_messages - window + 1, window)
                ]
                out[(label, name, window)] = summarize_distribution(observed)
    return out


def RandomSelectionFactory(seed: int, ratio: ProtocolRatio):
    from repro.core import RandomSelection

    return RandomSelection(random.Random(seed), ratio)


# ----------------------------------------------------------------------
# observability
# ----------------------------------------------------------------------

def run_observed(
    driver: Callable[..., Any],
    *args: Any,
    keep_trace: Optional[int] = 10_000,
    meta: Optional[Dict[str, Any]] = None,
    **kwargs: Any,
) -> Tuple[Any, Dict[str, Any]]:
    """Run any harness driver with metrics and tracing collection on.

    Installs a fresh :class:`~repro.obs.MetricsRegistry` and
    :class:`~repro.obs.Tracer` for the duration of the call — the driver
    builds its systems inside the context, so every instrument binds to
    the live registry — and returns ``(driver result, snapshot document)``.
    The snapshot is the JSON-ready structure of
    :func:`repro.obs.snapshot_document`; trace records are keyed by the
    driver's simulated clock.
    """
    registry = MetricsRegistry("bench")
    document_meta = {"driver": getattr(driver, "__name__", str(driver))}
    document_meta.update(meta or {})
    with collecting(registry), tracing(keep=keep_trace) as tracer:
        result = driver(*args, **kwargs)
        document = snapshot_document(registry, tracer, meta=document_meta)
    return result, document


def run_observability_demo(
    setup: Setup = LEARNER_ENV,
    duration: float = 10.0,
    seed: int = 0,
    ping_interval: float = 0.25,
    episode_length: float = 0.25,
) -> Dict[str, Any]:
    """Ping-pong plus an adaptive DATA stream: the ``repro obs`` scenario.

    Control pings (TCP) interleave with a saturating DATA stream driven by
    a TD ratio learner, so one short run touches every metric family:
    ``kompics.scheduler.*``, ``netsim.link.*`` / ``netsim.cc.*``,
    ``messaging.*`` and ``rl.*``.  Returns the ground-truth totals the
    application itself measured, for cross-checking against the metrics
    snapshot.
    """
    with TestbedPair(setup, seed=seed) as pair:
        pair.wire(
            Transport.DATA, prp_factory=default_transfer_learner(seed),
            episode_length=episode_length,
        )
        pinger, ponger, timer = pair.pings(Transport.TCP, ping_interval)
        source, sink = pair.stream(sink_name="obs-sink")
        pair.start(timer, ponger, pinger, sink, source)
        run_in_steps(pair, duration, lambda: False, step=1.0)

        flow = _data_flow(pair)
        rtts = pinger.definition.rtts
        return {
            "setup": setup.name,
            "sim_time": pair.sim.now,
            "pings_answered": len(rtts),
            "mean_rtt_ms": (sum(rtts) / len(rtts)) * 1000.0 if rtts else None,
            "data_messages_delivered": sum(sink.definition.protocols.values()),
            "data_bytes_acked": flow.total_bytes_acked if flow is not None else 0,
            "data_messages_total": flow.total_messages if flow is not None else 0,
        }
