"""Perf-regression harness for the hot-path layers.

Three jobs, one module:

* **Measure** — microbenchmarks for the event kernel, port dispatch and
  serialization, plus wall-clock suites shaped like the paper's Figure 8
  (latency under load) and Figure 9 (bulk throughput).  Rates
  (events/sec, messages/sec) are size-independent, so quick runs remain
  comparable to a full baseline.  All rates are computed from
  process-CPU time (``time.process_time``), best of ``BENCH_REPEATS``
  runs for the microbenchmarks — shared-runner wall clocks are noisy in
  ways CPU time is not, and the best run is the least-disturbed one.
* **Gate** — :func:`check_regression` compares a fresh run against a
  committed baseline (``BENCH_PR3.json``) and reports every rate metric
  that dropped more than the allowed fraction.  Wall-clock seconds are
  recorded but never gated: they depend on workload size and machine.
* **Prove equivalence** — :func:`run_equivalence` replays obs-instrumented
  workloads with the fast paths on and off
  (:func:`repro.fastpath.disabled`) and byte-compares the snapshot
  documents.  The optimizations are only acceptable while this gate holds.

Run it via ``python -m repro perf`` (see ``docs/performance.md``).
"""

from __future__ import annotations

import json
import math
import platform
import random
import time
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from repro import fastpath
from repro.sim import Simulator

MB = 1024 * 1024

#: micro-suite repetitions; the best (least-disturbed) run is reported
BENCH_REPEATS = 3

#: Reference numbers measured on the development machine immediately
#: before this optimization pass (same workloads, ``quick=False``,
#: interleaved with post-change runs in the same machine phase so the
#: comparison is not skewed by background load).  Kept for the speedup
#: column in reports — regression gating uses the committed
#: ``BENCH_PR3.json`` instead, which reflects the machine that recorded it.
PRE_PR_REFERENCE: Dict[str, Dict[str, float]] = {
    "kernel": {"events_per_sec": 299_863.0},
    "fig9": {"wall_s": 2.99, "cpu_s": 2.93},
}

#: Metrics the regression gate compares: (suite, metric) pairs where
#: higher is better and the value is a rate (stable across sizes).
GATED_METRICS: Tuple[Tuple[str, str], ...] = (
    ("kernel", "events_per_sec"),
    ("dispatch", "dispatches_per_sec"),
    ("serialization", "frames_per_sec"),
    ("fig9", "messages_per_sec"),
)


# ----------------------------------------------------------------------
# microbenchmark suites
# ----------------------------------------------------------------------

def _best_of(once: Callable[[], Dict[str, float]]) -> Dict[str, float]:
    """Run ``once`` BENCH_REPEATS times; keep the lowest-``cpu_s`` run."""
    return min((once() for _ in range(BENCH_REPEATS)), key=lambda r: r["cpu_s"])


def suite_kernel(quick: bool = False) -> Dict[str, float]:
    """Event kernel: concurrent event chains plus cancellation churn.

    100 chains reschedule themselves until ``n_events`` fire, while a
    recurring timer keeps cancelling and re-arming a far-future event —
    the tombstone pattern that recurring middleware timers produce.
    """
    n_events = 30_000 if quick else 200_000

    def once() -> Dict[str, float]:
        sim = Simulator()
        count = [0]

        def chain() -> None:
            count[0] += 1
            if count[0] < n_events:
                sim.schedule(0.001, chain)

        for i in range(100):
            sim.schedule(0.001 * i, chain)

        handles: List[Any] = []

        def timer() -> None:
            if handles:
                handles.pop().cancel()
            handles.append(sim.schedule(5.0, lambda: None))
            if count[0] < n_events:
                sim.schedule(0.01, timer)

        sim.schedule(0.0, timer)
        t0 = time.process_time()
        sim.run()
        cpu = time.process_time() - t0
        return {
            "events": float(sim.events_executed),
            "events_per_sec": sim.events_executed / cpu,
            "cpu_s": cpu,
            "heap_compactions": float(sim.heap_compactions),
            "tombstones_evicted": float(sim.tombstones_evicted),
        }

    return _best_of(once)


def suite_dispatch(quick: bool = False) -> Dict[str, float]:
    """Port dispatch: MRO-matched handler resolution per delivered event.

    A port with a realistic subscription mix (base-class plus per-subtype
    handlers) dispatches a round-robin of event subtypes; measures
    resolved-and-invoked handler dispatches per second.
    """
    from repro.kompics.event import KompicsEvent
    from repro.kompics.port import Port, PortType

    class _Base(KompicsEvent):
        pass

    subtypes = [type(f"_Evt{i}", (_Base,), {}) for i in range(6)]

    class _BenchPort(PortType):
        requests = (_Base,)

    class _Owner:
        name = "perf-bench"

    port = Port(_BenchPort, _Owner(), positive=True)
    hits = [0]

    def handler(event: KompicsEvent) -> None:
        hits[0] += 1

    port.subscribe(_Base, handler)
    for sub in subtypes[:3]:
        port.subscribe(sub, handler)

    events = [cls() for cls in subtypes]
    n = 50_000 if quick else 300_000
    matching = port.matching_handlers

    def once() -> Dict[str, float]:
        hits[0] = 0
        t0 = time.process_time()
        for i in range(n):
            event = events[i % 6]
            for h in matching(event):
                h(event)
        cpu = time.process_time() - t0
        return {
            "events": float(n),
            "handler_calls": float(hits[0]),
            "dispatches_per_sec": n / cpu,
            "cpu_s": cpu,
        }

    return _best_of(once)


def suite_serialization(quick: bool = False) -> Dict[str, float]:
    """Send-path serialization: size then encode, once per fresh message.

    Mirrors the netty send path — ``wire_size`` for the fluid transport
    followed by ``serialize`` for the byte path — using the pickle
    fallback, whose sizing requires encoding (the double-serialization
    case this PR eliminates).
    """
    from repro.messaging.serialization import SerializerRegistry

    registry = SerializerRegistry()
    n = 20_000 if quick else 100_000
    payload_pool = [("ping", i % 17, b"x" * 64) for i in range(64)]

    def once() -> Dict[str, float]:
        t0 = time.process_time()
        total = 0
        for i in range(n):
            msg = (payload_pool[i % 64], i)
            total += registry.wire_size(msg)
            registry.serialize(msg)
        cpu = time.process_time() - t0
        return {
            "frames": float(n),
            "bytes": float(total),
            "frames_per_sec": n / cpu,
            "cpu_s": cpu,
        }

    return _best_of(once)


# ----------------------------------------------------------------------
# figure-shaped wall-clock suites
# ----------------------------------------------------------------------

def suite_fig8(quick: bool = False) -> Dict[str, float]:
    """Figure-8-shaped: ping RTTs while a bulk transfer shares the link."""
    from repro.bench.harness import run_latency_experiment
    from repro.bench.scenario import setup_by_name
    from repro.messaging import Transport

    # Short warmup and a tight ping interval: EU-VPC moves these transfer
    # sizes in well under the driver's default 1 s warmup, which would
    # leave the RTT sample empty.
    size = (16 if quick else 64) * MB
    c0, t0 = time.process_time(), time.perf_counter()
    result = run_latency_experiment(
        setup_by_name("EU-VPC"), Transport.TCP, Transport.TCP,
        seed=2, transfer_bytes=size, warmup=0.1, ping_interval=0.05,
    )
    wall = time.perf_counter() - t0
    cpu = time.process_time() - c0
    return {
        "transfer_bytes": float(size),
        "median_ms": result.median_ms,
        "pings": float(len(result.rtts_ms)),
        "cpu_s": cpu,
        "wall_s": wall,
    }


def suite_fig9(quick: bool = False) -> Dict[str, float]:
    """Figure-9-shaped: repeated EU2US bulk transfers over DATA.

    The full variant is the acceptance workload (395 MB x 3 runs over one
    long-lived pair); quick shrinks the transfer so CI smoke stays fast.
    ``messages_per_sec`` counts chunk messages pushed through the whole
    stack (components, channels, serialization sizing, netsim) per
    wall-clock second — the rate the regression gate watches.
    """
    from repro.apps.filetransfer.chunks import PAPER_CHUNK_BYTES
    from repro.bench.harness import run_transfer_repeated
    from repro.bench.scenario import setup_by_name
    from repro.messaging import Transport

    size = (32 if quick else 395) * MB
    runs = 1 if quick else 3
    c0, t0 = time.process_time(), time.perf_counter()
    rep = run_transfer_repeated(
        setup_by_name("EU2US"), Transport.DATA, size,
        min_runs=runs, max_runs=runs, base_seed=1,
    )
    wall = time.perf_counter() - t0
    cpu = time.process_time() - c0
    chunks = math.ceil(size / PAPER_CHUNK_BYTES) * runs
    return {
        "transfer_bytes": float(size),
        "runs": float(runs),
        "sim_throughput_mb_s": rep.mean_throughput / MB,
        "messages": float(chunks),
        "messages_per_sec": chunks / cpu,
        "cpu_s": cpu,
        "wall_s": wall,
    }


SUITES: Dict[str, Callable[[bool], Dict[str, float]]] = {
    "kernel": suite_kernel,
    "dispatch": suite_dispatch,
    "serialization": suite_serialization,
    "fig8": suite_fig8,
    "fig9": suite_fig9,
}


def run_perf(
    suites: Optional[Iterable[str]] = None,
    quick: bool = False,
) -> Dict[str, Any]:
    """Run the requested suites (all by default); returns the document."""
    names = list(suites) if suites else list(SUITES)
    unknown = [n for n in names if n not in SUITES]
    if unknown:
        raise ValueError(f"unknown suite(s) {unknown}; choose from {list(SUITES)}")
    results = {name: SUITES[name](quick) for name in names}
    return {
        "meta": {
            "harness": "repro.bench.perf",
            "quick": quick,
            "python": platform.python_version(),
            "fastpath": fastpath.flags(),
        },
        "suites": results,
        "pre_pr_reference": PRE_PR_REFERENCE,
    }


# ----------------------------------------------------------------------
# profiling
# ----------------------------------------------------------------------

def run_profile(
    suites: Optional[Iterable[str]] = None,
    quick: bool = False,
    top: int = 25,
) -> str:
    """Run the requested suites under :mod:`cProfile`; return a report.

    One profiler session per suite, sorted by cumulative time — the view
    that surfaces *which layer* a wall-clock suite spends its time in
    (kernel, ports, serialization, allocation).  The suites execute once
    (no best-of repeats matter under instrumentation: the profile is for
    hotspot hunting, not for the regression gate, and cProfile overhead
    invalidates the rates anyway).
    """
    import cProfile
    import io
    import pstats

    names = list(suites) if suites else list(SUITES)
    unknown = [n for n in names if n not in SUITES]
    if unknown:
        raise ValueError(f"unknown suite(s) {unknown}; choose from {list(SUITES)}")
    sections: List[str] = []
    for name in names:
        profiler = cProfile.Profile()
        profiler.enable()
        SUITES[name](quick)
        profiler.disable()
        buf = io.StringIO()
        stats = pstats.Stats(profiler, stream=buf)
        stats.strip_dirs().sort_stats("cumulative").print_stats(top)
        sections.append(
            f"==== {name} (top {top} by cumulative time) ====\n{buf.getvalue()}"
        )
    return "\n".join(sections)


# ----------------------------------------------------------------------
# regression gate
# ----------------------------------------------------------------------

def check_regression(
    current: Dict[str, Any],
    baseline: Dict[str, Any],
    max_regression: float = 0.30,
) -> List[str]:
    """Rate metrics that fell more than ``max_regression`` below baseline.

    Returns human-readable failure lines (empty = pass).  Metrics missing
    from either document are skipped — suites are individually optional.
    """
    failures: List[str] = []
    cur_suites = current.get("suites", {})
    base_suites = baseline.get("suites", {})
    for suite, metric in GATED_METRICS:
        base = base_suites.get(suite, {}).get(metric)
        cur = cur_suites.get(suite, {}).get(metric)
        if base is None or cur is None or base <= 0:
            continue
        floor = base * (1.0 - max_regression)
        if cur < floor:
            failures.append(
                f"{suite}.{metric}: {cur:,.0f} is {1.0 - cur / base:.0%} below "
                f"baseline {base:,.0f} (allowed {max_regression:.0%})"
            )
    return failures


def regression_report(
    current: Dict[str, Any],
    baseline: Dict[str, Any],
    max_regression: float = 0.30,
) -> str:
    """Markdown measured-vs-baseline table for every gated metric.

    Suitable for ``$GITHUB_STEP_SUMMARY``: one row per gated metric with
    the delta against baseline and a pass/fail verdict at the configured
    tolerance.  Metrics absent from either document show as skipped.
    """
    lines = [
        f"### Perf regression gate (tolerance {max_regression:.0%})",
        "",
        "| metric | measured | baseline | delta | verdict |",
        "| --- | ---: | ---: | ---: | --- |",
    ]
    cur_suites = current.get("suites", {})
    base_suites = baseline.get("suites", {})
    for suite, metric in GATED_METRICS:
        name = f"{suite}.{metric}"
        base = base_suites.get(suite, {}).get(metric)
        cur = cur_suites.get(suite, {}).get(metric)
        if base is None or cur is None or base <= 0:
            lines.append(f"| {name} | — | — | — | skipped (not measured) |")
            continue
        delta = cur / base - 1.0
        verdict = "✅ pass" if cur >= base * (1.0 - max_regression) else "❌ FAIL"
        lines.append(
            f"| {name} | {cur:,.0f} | {base:,.0f} | {delta:+.1%} | {verdict} |"
        )
    return "\n".join(lines) + "\n"


# ----------------------------------------------------------------------
# equivalence gate
# ----------------------------------------------------------------------

def equivalence_workloads(quick: bool = True) -> List[Tuple[str, Callable[[], Any]]]:
    """Obs-instrumented workloads shaped like figures 1, 2, 8 and 9.

    Each callable returns ``(result, snapshot_document)`` via
    :func:`repro.bench.harness.run_observed`; the gate only looks at the
    document.  The figure-shaped entries resolve through the shared
    scenario registry (the same ``transfer``/``fig8``/``obs`` scenarios
    the checker and fleet campaigns run); ``meta`` pins the snapshot's
    ``driver`` name to the underlying driver so documents stay comparable
    across harnesses.
    """
    from repro.bench.harness import (
        run_learner_trace,
        run_observed,
        run_selection_skew,
    )
    from repro.bench.scenario import run_scenario
    from repro.core import TDRatioLearner

    tcp_mb = 8 if quick else 32
    data_mb = 8 if quick else 16
    lat_mb = 8 if quick else 24
    learn_s = 8.0 if quick else 15.0

    def learner() -> Any:
        rng = random.Random(5)
        return run_learner_trace(
            "pattern",
            prp_factory=lambda: TDRatioLearner(
                rng, "model", epsilon_max=0.5, epsilon_decay=0.01
            ),
            duration=learn_s, seed=5, window_messages=16,
        )

    return [
        ("fig9-tcp", lambda: run_observed(
            run_scenario, "transfer", setup="EU2US", transport="tcp",
            size_mb=float(tcp_mb), seed=7,
            meta={"driver": "run_transfer_once"})),
        ("fig9-data", lambda: run_observed(
            run_scenario, "transfer", setup="EU2AU", transport="data",
            size_mb=float(data_mb), seed=11,
            meta={"driver": "run_transfer_once"})),
        ("fig8", lambda: run_observed(
            run_scenario, "fig8", setup="EU-VPC", size_mb=float(lat_mb),
            seed=3, warmup=1.0, ping_interval=0.25,
            meta={"driver": "run_latency_experiment"})),
        ("fig2", lambda: run_observed(learner)),
        ("fig1", lambda: run_observed(
            run_selection_skew, [(0, 1), (3, 100)],
            n_messages=20_000, seed=1)),
        ("obs-demo", lambda: run_observed(
            run_scenario, "obs", duration=6.0, seed=2,
            meta={"driver": "run_observability_demo"})),
    ]


#: Instruments that count the interpreter's work, not the simulated
#: behaviour: the fast paths exist to move them, so the gate leaves them out.
COST_METRICS = (
    "netsim.link.alloc_solves_total",
    "netsim.link.demand_queries_total",
)


def behaviour_json(document: Dict[str, Any]) -> str:
    """The canonical bytes of a snapshot document minus ``COST_METRICS``."""
    metrics = {
        name: entries for name, entries in document["metrics"].items()
        if name not in COST_METRICS
    }
    return json.dumps({**document, "metrics": metrics}, sort_keys=True, default=str)


def run_equivalence(quick: bool = True) -> List[Tuple[str, bool]]:
    """Byte-compare snapshots with the fast paths on vs. disabled.

    Returns ``(workload, identical)`` per workload.  Any ``False`` means
    an optimization changed observable behaviour and must not ship.
    """
    outcomes: List[Tuple[str, bool]] = []
    for name, workload in equivalence_workloads(quick):
        _, doc_fast = workload()
        with fastpath.disabled():
            _, doc_ref = workload()
        outcomes.append((name, behaviour_json(doc_fast) == behaviour_json(doc_ref)))
    return outcomes
