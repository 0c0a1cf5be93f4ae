"""The behaviour gate: six figure-shaped runs against ``GOLDEN.json``.

:func:`run_equivalence` runs each driver of :data:`WORKLOADS` (shaped
like figures 1, 2, 8 and 9, plus the ``repro obs`` demo) once under
:func:`repro.check.checking` and compares every stream the checker
folded — ``sim``, ``port``, ``wire``, ``flow``, ``link``, ``rl`` and a
``result`` stream of the driver's return value — with the copy committed
in ``GOLDEN.json`` beside this module.  A change to the hot paths is
only acceptable while this gate holds; a change that means to move
simulated behaviour re-records the file with :func:`write_goldens` in
the same diff and says which streams moved.

Run it via ``python -m repro perf --equivalence`` (see
``docs/performance.md``).  Rates and costs are measured by
``python3 perf/run.py`` (``perf/README.md``), not here.
"""

from __future__ import annotations

import json
import random
from dataclasses import fields, is_dataclass
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Tuple

from repro.bench.harness import (
    LearnerTrace,
    run_latency_experiment,
    run_learner_trace,
    run_observability_demo,
    run_selection_skew,
    run_transfer_once,
)
from repro.bench.scenario import MB, setup_by_name
from repro.check import InvariantChecker, Violation, checking
from repro.check.digest import StreamDivergence, compare_documents
from repro.core import TDRatioLearner
from repro.messaging import Transport
from repro.stats.timeseries import TimeSeries

#: the committed streams of every workload, written by :func:`write_goldens`
GOLDEN_PATH = Path(__file__).with_name("GOLDEN.json")


def _learner() -> LearnerTrace:
    rng = random.Random(5)
    return run_learner_trace(
        "pattern",
        prp_factory=lambda: TDRatioLearner(rng, "model", epsilon_max=0.5, epsilon_decay=0.01),
        duration=15.0, seed=5, window_messages=16,
    )


#: workload name -> driver; ``repro check run --workload`` takes these too
WORKLOADS: Dict[str, Callable[[], Any]] = {
    "fig9-tcp": lambda: run_transfer_once(
        setup_by_name("EU2US"), Transport.TCP, 32 * MB, seed=7),
    "fig9-data": lambda: run_transfer_once(
        setup_by_name("EU2AU"), Transport.DATA, 16 * MB, seed=11),
    "fig8": lambda: run_latency_experiment(
        setup_by_name("EU-VPC"), Transport.TCP, Transport.TCP, seed=3,
        transfer_bytes=24 * MB, warmup=1.0, ping_interval=0.25),
    "fig2": _learner,
    "fig1": lambda: run_selection_skew([(0, 1), (3, 100)], n_messages=20_000, seed=1),
    "obs-demo": lambda: run_observability_demo(duration=6.0, seed=2),
}


def result_rows(value: Any, path: Tuple[Any, ...] = ()) -> Iterator[Tuple[Any, ...]]:
    """``value`` flattened to ``(path..., leaf)`` rows in a canonical order.

    Dataclass fields keep their declared order, mapping items are sorted
    by the repr of their key, sequences are indexed and a time series
    yields one ``(path..., t, value)`` row per point.
    """
    if isinstance(value, TimeSeries):
        for point in zip(value.times, value.values):
            yield path + point
        return
    if is_dataclass(value):
        items: Any = [(f.name, getattr(value, f.name)) for f in fields(value)]
    elif isinstance(value, dict):
        items = sorted(value.items(), key=lambda item: repr(item[0]))
    elif isinstance(value, (list, tuple)):
        items = enumerate(value)
    else:
        yield path + (value,)
        return
    for key, item in items:
        yield from result_rows(item, path + (key,))


def checked_run(name: str) -> InvariantChecker:
    """Run ``WORKLOADS[name]`` once under ``checking()``; its checker
    holds every stream, the ``result`` stream folded last."""
    with checking() as chk:
        result = WORKLOADS[name]()
    digest = chk.digest("result")
    for row in result_rows(result):
        digest.fold(row)
    return chk


def write_goldens(path: Path = GOLDEN_PATH) -> None:
    """Record every workload's streams to ``path`` (sorted JSON).

    Refuses to record a run that violated an invariant."""
    goldens = {}
    for name in WORKLOADS:
        chk = checked_run(name)
        if chk.violations:
            raise AssertionError(f"{name}: {chk.violations[0].format()}")
        goldens[name] = chk.document()["streams"]
    path.write_text(json.dumps(goldens, indent=1, sort_keys=True) + "\n")


def run_equivalence() -> List[Tuple[str, List[StreamDivergence], List[Violation]]]:
    """Run every workload once: ``(workload, divergences, violations)`` each.

    A divergence from the golden streams means a change moved simulated
    behaviour and must not ship as a pure optimization.
    """
    goldens = json.loads(GOLDEN_PATH.read_text())
    outcomes = []
    for name in WORKLOADS:
        chk = checked_run(name)
        divergences = compare_documents({"streams": goldens[name]}, chk.document())
        outcomes.append((name, divergences, chk.violations))
    return outcomes
