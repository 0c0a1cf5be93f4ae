"""The fastpath equivalence gate.

:func:`run_equivalence` replays obs-instrumented workloads shaped like
figures 1, 2, 8 and 9 with the fast paths on and off
(:func:`repro.fastpath.disabled`) and byte-compares the snapshot
documents.  The optimizations are only acceptable while this gate holds.

Run it via ``python -m repro perf --equivalence`` (see
``docs/performance.md``).  Rates and costs are measured by
``python3 perf/run.py`` (``perf/README.md``), not here.
"""

from __future__ import annotations

import json
import random
from typing import Any, Callable, Dict, List, Tuple

from repro import fastpath


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
