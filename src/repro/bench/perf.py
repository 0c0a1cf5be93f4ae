"""The golden-digest gate.

:func:`run_equivalence` runs obs-instrumented workloads shaped like
figures 1, 2, 8 and 9 once each and compares the sha256 of each
snapshot document against the committed :data:`GOLDEN` digest.  A change
to the hot paths is only acceptable while this gate holds; a change that
means to move simulated behaviour edits :data:`GOLDEN` in the same diff.

Run it via ``python -m repro perf --equivalence`` (see
``docs/performance.md``).  Rates and costs are measured by
``python3 perf/run.py`` (``perf/README.md``), not here.
"""

from __future__ import annotations

import hashlib
import json
import random
from typing import Any, Callable, Dict, List, Tuple


def equivalence_workloads() -> List[Tuple[str, Callable[[], Any]]]:
    """Obs-instrumented workloads shaped like figures 1, 2, 8 and 9.

    Each callable returns ``(result, snapshot_document)`` via
    :func:`repro.bench.harness.run_observed`, which names the driver in
    the snapshot's ``meta``; the gate only looks at the document.
    """
    from repro.bench.harness import (
        run_latency_experiment,
        run_learner_trace,
        run_observability_demo,
        run_observed,
        run_selection_skew,
        run_transfer_once,
    )
    from repro.bench.scenario import MB, setup_by_name
    from repro.core import TDRatioLearner
    from repro.messaging import Transport

    def learner() -> Any:
        rng = random.Random(5)
        return run_learner_trace(
            "pattern",
            prp_factory=lambda: TDRatioLearner(
                rng, "model", epsilon_max=0.5, epsilon_decay=0.01
            ),
            duration=15.0, seed=5, window_messages=16,
        )

    return [
        ("fig9-tcp", lambda: run_observed(
            run_transfer_once, setup_by_name("EU2US"), Transport.TCP, 32 * MB,
            seed=7)),
        ("fig9-data", lambda: run_observed(
            run_transfer_once, setup_by_name("EU2AU"), Transport.DATA, 16 * MB,
            seed=11)),
        ("fig8", lambda: run_observed(
            run_latency_experiment, setup_by_name("EU-VPC"), Transport.TCP,
            Transport.TCP, seed=3, transfer_bytes=24 * MB, warmup=1.0,
            ping_interval=0.25)),
        ("fig2", lambda: run_observed(learner)),
        ("fig1", lambda: run_observed(
            run_selection_skew, [(0, 1), (3, 100)],
            n_messages=20_000, seed=1)),
        ("obs-demo", lambda: run_observed(
            run_observability_demo, duration=6.0, seed=2)),
    ]


#: Instruments that count the interpreter's work, not the simulated
#: behaviour: a change that only makes the simulator do less moves them, so
#: the gate leaves them out.
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


def behaviour_digest(document: Dict[str, Any]) -> str:
    """sha256 of :func:`behaviour_json`, the value :data:`GOLDEN` pins."""
    return hashlib.sha256(behaviour_json(document).encode()).hexdigest()


#: ``behaviour_digest`` of each workload's snapshot, recorded with every
#: hot-path memoization on and with them all off (identical both ways,
#: under PYTHONHASHSEED 1 and 4242).  Re-record with ``behaviour_digest``
#: only when a change means to move simulated behaviour, and say so.  The
#: values below were re-recorded when idle-channel reaping and the
#: ignore / destroy supervision actions went: each equals the sha256 of
#: the previous code's ``behaviour_json`` with the three always-zero
#: families ``messaging.channels.reaped_total``,
#: ``kompics.faults_ignored_total`` and ``kompics.fault_destroys_total``
#: taken out (fig1's snapshot has none of them, so it did not move).
GOLDEN: Dict[str, str] = {
    "fig9-tcp": "a2f7afe5f2709aba44d5679df586ba4775482992268e4ba92f22acee1389b111",
    "fig9-data": "87f03f7dfa0c3fa6d5a0d58c86a73f3b6c5ad912856f00fc832b96598c6fbb9e",
    "fig8": "874b0a0313bbde02e13ec29c2e50f0b9f0ab1a2f761908082c4c2b369c3160e3",
    "fig2": "900ed0309785c9efad807846823ea73e8bb5e8ac3e4d2a5ae423bd77c885825f",
    "fig1": "1e87fc63f0c7f5cf5fdd930b09ac0bb1ed748906f2961bc9cddd49a8edd5850f",
    "obs-demo": "3b6c6382868eb38df6eb474aafab433667466f02c2cb922cf29848701fd819ca",
}


def run_equivalence() -> List[Tuple[str, str, str]]:
    """Run every workload once: ``(workload, golden, digest)`` each.

    A digest that differs from its golden means a change moved
    observable behaviour and must not ship as a pure optimization.
    """
    return [
        (name, GOLDEN[name], behaviour_digest(workload()[1]))
        for name, workload in equivalence_workloads()
    ]
