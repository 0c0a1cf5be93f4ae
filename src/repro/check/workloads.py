"""Named deterministic workloads for ``repro check`` runs.

A module of its own because it pulls in the bench harness (and through
it the whole messaging/netsim stack), which :mod:`repro.check` itself
must stay free of.

Each entry of :data:`WORKLOADS` runs one harness driver; the checker in
effect while it runs decides whether invariants/digests are collected.
"""

from __future__ import annotations

from typing import Any, Callable, Dict

from repro.bench.harness import (
    run_latency_experiment,
    run_observability_demo,
    run_transfer_once,
)
from repro.bench.scenario import MB, setup_by_name
from repro.messaging import Transport


def _transfer(size_mb: float, duration: float, seed: int) -> Any:
    """One disk-to-disk EU2US DATA transfer (Figure 9 shape)."""
    return run_transfer_once(
        setup_by_name("EU2US"), Transport.DATA, int(size_mb * MB), seed=seed,
    )


def _fig8(size_mb: float, duration: float, seed: int) -> Any:
    """Latency under load (Figure 8): EU-VPC pings racing a bulk TCP transfer."""
    return run_latency_experiment(
        setup_by_name("EU-VPC"), Transport.TCP, Transport.TCP,
        seed=seed, transfer_bytes=int(size_mb * MB),
        warmup=0.1, ping_interval=0.05,
    )


def _obs(size_mb: float, duration: float, seed: int) -> Any:
    """The observability demo: pings + the learner's DATA stream."""
    return run_observability_demo(duration=duration, seed=seed)


#: ``repro check --workload`` name -> driver; ``size_mb`` sizes the
#: transfers, ``duration`` is the obs demo's simulated length
WORKLOADS: Dict[str, Callable[[float, float, int], Any]] = {
    "transfer": _transfer,
    "fig8": _fig8,
    "obs": _obs,
}


def run_workload(name: str, size_mb: float = 4.0, duration: float = 4.0,
                 seed: int = 3) -> Any:
    return WORKLOADS[name](size_mb, duration, seed)
